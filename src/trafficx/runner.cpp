#include "trafficx/runner.hpp"

#include <algorithm>
#include <unordered_map>

#include "cryptox/identity.hpp"
#include "graphx/shortest_path.hpp"

namespace citymesh::trafficx {

WorkloadResult run_workload(core::CityMeshNetwork& network,
                            const FlowSchedule& schedule, const RunConfig& config) {
  WorkloadResult result;
  result.flows.resize(schedule.flows.size());

  // Contention counters are cumulative on the medium; this run's share is
  // the delta, so workload runs compose (and stack on faultx scenarios).
  const core::CityMeshNetwork::MediumTotals before = network.medium_totals();

  // One postbox identity per destination building, derived deterministically
  // so the same (schedule, seed) addresses the same recipients every run.
  // register_postbox is idempotent; buildings without APs get no postbox and
  // their flows fail injection below (route planning still succeeds).
  std::unordered_map<osmx::BuildingId, core::PostboxInfo> recipients;
  for (const Flow& flow : schedule.flows) {
    if (recipients.contains(flow.dst)) continue;
    const auto keys =
        cryptox::KeyPair::from_seed(config.postbox_seed ^ (0x9e3779b97f4a7c15ULL * (flow.dst + 1)));
    const auto info = core::PostboxInfo::for_key(keys, flow.dst);
    network.register_postbox(info);
    recipients.emplace(flow.dst, info);
  }

  // Schedule every injection at its arrival time, then run the event loop
  // once: flows overlap and contend for airtime. Payload bytes are zeros —
  // the medium charges size, not content.
  const double t0 = network.sim_now();
  std::vector<std::uint32_t> message_ids(schedule.flows.size(), 0);
  std::size_t max_payload = 1;
  for (const Flow& flow : schedule.flows) {
    max_payload = std::max(max_payload, flow.payload_bytes);
  }
  std::vector<std::uint8_t> payload(max_payload, 0);
  for (std::size_t i = 0; i < schedule.flows.size(); ++i) {
    const Flow& flow = schedule.flows[i];
    result.flows[i].start_s = flow.start_s;
    result.flows[i].payload_bytes = flow.payload_bytes;
    network.schedule_control(t0 + flow.start_s, [&, i] {
      const Flow& f = schedule.flows[i];
      const auto inject = network.inject(
          f.src, recipients.at(f.dst),
          {payload.data(), std::min(f.payload_bytes, payload.size())});
      if (inject.accepted()) {
        result.flows[i].injected = true;
        message_ids[i] = inject.message_id;
      }
    });
  }
  network.run_until(t0 + schedule.spec.duration_s + config.tail_s, config.max_events);

  // Overhead denominator: ideal unicast hops from the flow's source AP to
  // the closest AP of the destination building, over the *static* AP graph
  // (the same baseline the single-send path uses). BFS results are memoized
  // per source AP — hotspot workloads reuse a handful of sources.
  std::unordered_map<mesh::ApId, graphx::ShortestPaths> hops_from;
  const auto min_hops = [&](osmx::BuildingId src,
                            osmx::BuildingId dst) -> std::size_t {
    const auto src_ap = network.aps().representative_ap(network.city(), src);
    if (!src_ap) return 0;
    auto it = hops_from.find(*src_ap);
    if (it == hops_from.end()) {
      it = hops_from.emplace(*src_ap, graphx::bfs(network.aps().graph(), *src_ap)).first;
    }
    double best = graphx::kInfiniteDistance;
    for (const mesh::ApId ap : network.aps().aps_of_building(dst)) {
      best = std::min(best, it->second.distance[ap]);
    }
    if (best >= graphx::kInfiniteDistance || best <= 0.0) return 0;
    return static_cast<std::size_t>(best);
  };

  for (std::size_t i = 0; i < schedule.flows.size(); ++i) {
    if (message_ids[i] == 0) continue;
    const core::FlowState* state = network.flow_state(message_ids[i]);
    if (state == nullptr) continue;
    result.flows[i].transmissions = state->transmissions;
    if (!state->delivered) continue;
    result.flows[i].delivered = true;
    result.flows[i].latency_s = state->delivery_time_s - state->injected_at_s;
    if (config.measure_overhead) {
      result.flows[i].min_hops =
          min_hops(schedule.flows[i].src, schedule.flows[i].dst);
    }
  }
  network.clear_flow_states();

  const core::CityMeshNetwork::MediumTotals after = network.medium_totals();
  result.summary = core::summarize_capacity(
      result.flows, schedule.spec.duration_s, after.queue_drops - before.queue_drops,
      after.deferrals - before.deferrals, after.airtime_s - before.airtime_s);
  result.metrics = network.merged_metrics();
  return result;
}

}  // namespace citymesh::trafficx
