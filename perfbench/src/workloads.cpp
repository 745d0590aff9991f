#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <ostream>
#include <stdexcept>
#include <unordered_map>

#include "cryptox/identity.hpp"
#include "geo/rng.hpp"
#include "obsx/manifest.hpp"
#include "runx/city_cache.hpp"
#include "runx/engine.hpp"
#include "trafficx/runner.hpp"
#include "wire/packet.hpp"

namespace perfbench {

namespace cryptox = citymesh::cryptox;
namespace geo = citymesh::geo;
namespace obsx = citymesh::obsx;
namespace runx = citymesh::runx;
namespace wire = citymesh::wire;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The hotspot seed whose schedule is fig9_capacity's.
constexpr std::uint64_t kFig9Seed = 909;

// fig9_capacity's 64 flows/s row, which hotspot must reproduce at kFig9Seed.
constexpr std::size_t kFig9Offered = 1283;
constexpr std::size_t kFig9Delivered = 850;
constexpr std::uint64_t kFig9Deferrals = 33721;
constexpr std::uint64_t kFig9Drops = 2733;
constexpr double kFig9P50Ms = 10395.0;

/// fig9_capacity's network: boston placement, 12.5 kbps, 2 queue slots.
core::NetworkConfig contention_network() {
  core::NetworkConfig config;
  config.placement.seed = 7;
  config.seed = 99;
  config.medium.bitrate_bps = 12.5e3;
  config.medium.tx_queue_capacity = 2;
  return config;
}

/// fig9_capacity's downtown-biased workload spec.
trafficx::WorkloadSpec hotspot_spec(std::uint64_t seed, double rate_per_s) {
  trafficx::WorkloadSpec spec;
  spec.name = "hotspot";
  spec.seed = seed;
  spec.duration_s = 20.0;
  spec.rate_per_s = rate_per_s;
  spec.spatial = trafficx::SpatialMode::kHotspot;
  spec.hotspot_bias = 16.0;
  spec.payload_min_bytes = 256;
  spec.payload_max_bytes = 512;
  return spec;
}

core::PostboxInfo recipient_for(osmx::BuildingId dst) {
  // trafficx::run_workload's derivation (RunConfig::postbox_seed = 77).
  const trafficx::RunConfig config;
  const auto keys = cryptox::KeyPair::from_seed(config.postbox_seed ^
                                                (0x9e3779b97f4a7c15ULL * (dst + 1)));
  return core::PostboxInfo::for_key(keys, dst);
}

core::CityMeshNetwork::MediumTotals minus(const core::CityMeshNetwork::MediumTotals& a,
                                          const core::CityMeshNetwork::MediumTotals& b) {
  core::CityMeshNetwork::MediumTotals d;
  d.transmissions = a.transmissions - b.transmissions;
  d.deliveries = a.deliveries - b.deliveries;
  d.deferrals = a.deferrals - b.deferrals;
  d.queue_drops = a.queue_drops - b.queue_drops;
  d.airtime_s = a.airtime_s - b.airtime_s;
  return d;
}

// --- Planner / compiler replay ------------------------------------------------

struct ReplayCost {
  double plan_s = 0.0;
  std::size_t plans = 0;
  std::uint64_t spt_hits = 0;
  std::uint64_t spt_misses = 0;
  double compile_s = 0.0;
};

/// Re-issues the network's planning and header compile for `calls` (source
/// building, recipient), in order, through a fresh RoutePlanner + SptCache
/// and MessageCompiler — the same calls inject()/send() make, so the cache
/// sees the same sequence and hits exactly as often as the network's own.
ReplayCost replay_planner(const core::CityMeshNetwork& network,
                          std::span<const std::pair<osmx::BuildingId, core::PostboxInfo>> calls) {
  const core::NetworkConfig& config = network.config();
  const core::BuildingGraph& map = network.map();
  core::SptCache cache{map.graph()};
  const core::RoutePlanner planner{map, config.conduit, &cache};
  core::MessageCompiler compiler{map};
  const bool qfgeo = config.protocol == core::Protocol::kQfgeo;
  if (qfgeo) compiler.set_qfgeo(config.qfgeo_region);

  ReplayCost cost;
  std::uint64_t seq = 0;
  for (const auto& [src, to] : calls) {
    std::optional<core::PlannedRoute> route;
    if (qfgeo) {
      core::PlannedRoute r;
      r.waypoints = {src, to.building};
      r.conduit_width_m = config.conduit.width_m;
      route = std::move(r);
    } else {
      const auto t0 = Clock::now();
      route = planner.plan(src, to.building);
      cost.plan_s += seconds_since(t0);
      ++cost.plans;
    }
    if (!route || !network.live_ap(src)) continue;
    const auto t0 = Clock::now();
    wire::PacketHeader header;
    header.message_id = wire::derive_message_id(config.seed, ++seq);
    header.postbox_tag = to.id.tag();
    header.conduit_width_m = route->conduit_width_m;
    header.waypoints = route->waypoints;
    const auto encoded = wire::encode_header(header);
    compiler.compile_bytes(encoded.bytes);
    cost.compile_s += seconds_since(t0);
  }
  cost.spt_hits = cache.hits();
  cost.spt_misses = cache.misses();
  return cost;
}

// --- Metric tables -------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"run_s", "s"},
    {"rx_per_s", "1/s"},       {"peak_rss_mib", "MiB"},
    {"send_ms_p50", "ms"},     {"send_ms_p99", "ms"},
    {"delivery_rate", "ratio"}, {"latency_ms_p50", "ms"},
    {"latency_ms_p90", "ms"},  {"tx_per_flow", "tx/flow"},
};

constexpr MetricDef kPerLayer[] = {
    {"osmx.generate_s", "s"},
    {"core.compile_city_s", "s"},
    {"network.construct_s", "s"},
    {"mem.compile_hwm_mib", "MiB"},
    {"trafficx.compile_s", "s"},
    {"cryptox.postbox_keys_s", "s"},
    {"network.register_s", "s"},
    {"planner.plan_s", "s"},
    {"planner.plans", "count"},
    {"planner.us_per_plan", "us"},
    {"planner.spt_hit_ratio", "ratio"},
    {"compiler.compile_s", "s"},
    {"compile.msg_compiles", "count"},
    {"compile.membership_lookups", "count"},
    {"network.inject_s", "s"},
    {"network.injects", "count"},
    {"network.send_s", "s"},
    {"sim.loop_s", "s"},
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"medium.transmissions", "count"},
    {"medium.deliveries", "count"},
    {"medium.deferrals", "count"},
    {"medium.queue_drops", "count"},
    {"medium.ns_per_rx", "ns"},
    {"net.rebroadcasts", "count"},
    {"net.dup_suppressed", "count"},
    {"net.conduit_rejects", "count"},
    {"net.rebroadcast_share", "ratio"},
    {"qfgeo.candidates", "count"},
    {"qfgeo.fired", "count"},
    {"qfgeo.cancelled", "count"},
    {"qfgeo.cancel_share", "ratio"},
    {"runx.busy_s", "s"},
    {"runx.wall_s", "s"},
    {"runx.efficiency", "ratio"},
    {"runx.city_compiles", "count"},
    {"shardx.barrier_idle_s", "s"},
    {"shardx.handoffs", "count"},
    {"trace.run_s", "s"},
    {"trace.unattributed_s", "s"},
    {"trace.overhead_s", "s"},
};

/// Emits every metric of `defs` in table order, taking values from `values`
/// (0 where a layer does not take part in the workload).
void emit(Report& report, std::span<const MetricDef> defs,
          const std::map<std::string, double>& values, Label label_for_all,
          const std::map<std::string, Label>& labels = {}) {
  for (const MetricDef& def : defs) {
    const auto it = values.find(def.name);
    double value = it == values.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) {
      report.notes.push_back(std::string{"non-finite value for "} + def.name);
      report.correct = false;
      value = 0.0;
    }
    const auto l = labels.find(def.name);
    report.metrics.push_back(
        {def.name, value, def.unit, l == labels.end() ? label_for_all : l->second});
  }
}

const std::map<std::string, Label> kEndToEndLabels = {
    {"delivery_rate", Label::kSim},
    {"latency_ms_p50", Label::kSim},
    {"latency_ms_p90", Label::kSim},
    {"tx_per_flow", Label::kSim},
};

std::string join_seconds(const std::vector<double>& values) {
  std::string out;
  char buf[32];
  for (const double v : values) {
    std::snprintf(buf, sizeof buf, "%s%.3f", out.empty() ? "" : " ", v);
    out += buf;
  }
  return out;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double counter(const obsx::MetricsSnapshot& snap, const std::string& name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0.0 : static_cast<double>(it->second);
}

/// Repetition policy shared by every workload: keep going while the window
/// has room for another repetition like the last, and until `min_reps` and
/// `enough()` hold.
template <typename Enough>
bool another_rep(Clock::time_point start, double seconds, std::size_t reps,
                 std::size_t min_reps, double last_rep_s, Enough enough) {
  if (reps >= 10'000) return false;
  if (reps < min_reps || !enough()) return true;
  return seconds_since(start) + last_rep_s <= seconds;
}

double lookup(const std::map<std::string, double>& m, const char* key) {
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

/// What the untraced repetitions of a run measured on the host.
struct HostSamples {
  std::vector<double> setup_s;
  std::vector<double> run_s;
  std::vector<double> rx_per_s;
  std::vector<double> send_ms;   ///< every send()/inject() call, pooled
  double peak_mib = 0.0;         ///< VmHWM after the first repetition
};

/// The modelled outcome of one repetition's flows or sends.
struct SimOutcome {
  std::size_t offered = 0;
  std::size_t delivered = 0;
  std::size_t transmissions = 0;
  std::vector<double> latency_ms;

  void add(bool was_delivered, double latency_s, std::size_t tx) {
    ++offered;
    transmissions += tx;
    if (!was_delivered) return;
    ++delivered;
    latency_ms.push_back(latency_s * 1e3);
  }
};

/// Emits the end-to-end metrics and checks the percentile rule on the tails.
void add_end_to_end(Report& report, const HostSamples& host, const SimOutcome& sim) {
  const std::size_t sends = host.send_ms.size();
  const std::size_t delivered = sim.latency_ms.size();
  char line[256];
  std::snprintf(line, sizeof line,
                "send samples %zu (p99 keeps %zu beyond; highest supported p%.1f); "
                "latency samples %zu (p90 keeps %zu beyond)",
                sends, samples_beyond(sends, 0.99), highest_supported_percentile(sends),
                delivered, samples_beyond(delivered, 0.90));
  report.notes.emplace_back(line);
  if (!percentile_supported(sends, 0.99) || !percentile_supported(delivered, 0.90)) {
    report.notes.emplace_back("percentile rule violated: fewer than 10 samples beyond a tail");
    report.correct = false;
  }
  report.notes.push_back("run_s per repetition " + join_seconds(host.run_s));

  const double offered = static_cast<double>(sim.offered);
  std::map<std::string, double> v;
  v["setup_s"] = median(host.setup_s);
  v["run_s"] = median(host.run_s);
  v["rx_per_s"] = median(host.rx_per_s);
  v["peak_rss_mib"] = host.peak_mib;
  v["send_ms_p50"] = quantile(host.send_ms, 0.5);
  v["send_ms_p99"] = quantile(host.send_ms, 0.99);
  v["delivery_rate"] = ratio(static_cast<double>(sim.delivered), offered);
  v["latency_ms_p50"] = quantile(sim.latency_ms, 0.5);
  v["latency_ms_p90"] = quantile(sim.latency_ms, 0.9);
  v["tx_per_flow"] = ratio(static_cast<double>(sim.transmissions), offered);
  emit(report, kEndToEnd, v, Label::kHost, kEndToEndLabels);
}

/// Folds one repetition's digest into the run: the first one sets it, any
/// later one that differs marks the run as diverged.
void fold_digest(Report& report, std::uint64_t digest, bool& diverged) {
  if (report.reps == 1) {
    report.digest = digest;
  } else if (digest != report.digest) {
    diverged = true;
  }
}

/// A run whose repetitions disagree fails every operation; otherwise only
/// the inconsistent ones fail.
void settle(Report& report, bool diverged, std::size_t bad) {
  if (diverged) {
    report.notes.emplace_back("repetitions disagree: behavioural digest differs");
    report.failed = report.attempted;
  } else {
    report.failed = bad;
  }
  if (report.failed > 0) report.correct = false;
}

// --- Traffic workloads -----------------------------------------------------------

/// Per-rep invariants of a traffic run; returns the number of flows whose
/// records are inconsistent.
std::size_t check_flows(const TrafficRun& run, Report& report) {
  std::size_t bad = 0;
  std::size_t tx = 0;
  for (const core::FlowRecord& f : run.flows) {
    tx += f.transmissions;
    if ((f.delivered && !f.injected) || f.latency_s < 0.0) ++bad;
  }
  if (tx != run.medium.transmissions) {
    report.notes.push_back("per-flow transmissions " + std::to_string(tx) +
                           " != medium transmissions " +
                           std::to_string(run.medium.transmissions));
    report.correct = false;
  }
  return bad;
}

void check_fig9_row(const TrafficRun& run, double duration_s, Report& report) {
  const core::CapacitySummary s = core::summarize_capacity(
      run.flows, duration_s, run.medium.queue_drops, run.medium.deferrals,
      run.medium.airtime_s);
  char p50[32];
  std::snprintf(p50, sizeof p50, "%.1f", s.latency_p50_s * 1e3);
  char want[32];
  std::snprintf(want, sizeof want, "%.1f", kFig9P50Ms);
  const bool ok = s.flows_offered == kFig9Offered && s.flows_delivered == kFig9Delivered &&
                  s.deferrals == kFig9Deferrals && s.queue_drops == kFig9Drops &&
                  std::string{p50} == want;
  report.notes.push_back(std::string{"fig9 64 flows/s row cross-check: "} +
                         (ok ? "match" : "MISMATCH") + " (offered " +
                         std::to_string(s.flows_offered) + ", delivered " +
                         std::to_string(s.flows_delivered) + ", deferrals " +
                         std::to_string(s.deferrals) + ", drops " +
                         std::to_string(s.queue_drops) + ", p50 " + p50 + " ms)");
  if (!ok) report.correct = false;
}

Report run_traffic(const Options& options) {
  Report report;
  report.options = options;
  const TrafficDef def = traffic_def(options.workload, options.seed);

  HostSamples host;
  std::vector<double> traced_run_s;
  SimOutcome sim;
  std::size_t bad_flows = 0;
  bool diverged = false;

  // Traced-run artefacts (last traced rep).
  SpanRecorder traced_spans;
  TrafficSetup traced_setup;
  TrafficRun traced_run;
  std::vector<std::pair<osmx::BuildingId, core::PostboxInfo>> calls;

  const auto start = Clock::now();
  double last_rep_s = 0.0;
  const std::size_t min_reps = options.trace ? 2 : 1;
  const auto enough = [&] {
    return options.trace || percentile_supported(host.send_ms.size(), 0.99);
  };
  do {
    const auto rep_start = Clock::now();
    const bool traced = options.trace && report.reps % 2 == 1;
    if (traced) {
      // Free the previous traced repetition and restart VmHWM, so that
      // mem.compile_hwm_mib is this set-up's own peak.
      traced_setup = {};
      traced_run = {};
      reset_peak_rss();
    }
    SpanRecorder spans;
    SpanRecorder* rec = traced ? &spans : nullptr;
    TrafficSetup setup = setup_traffic(def, rec);
    TrafficRun run = drive_flows(*setup.network, setup.schedule, rec);
    ++report.reps;
    report.attempted += run.flows.size();
    bad_flows += check_flows(run, report);
    fold_digest(report, flows_digest(run.flows), diverged);
    if (report.reps == 1) {
      for (const core::FlowRecord& f : run.flows) {
        sim.add(f.delivered, f.latency_s, f.transmissions);
      }
      if (options.workload == Workload::kHotspot && options.seed == kFig9Seed) {
        check_fig9_row(run, setup.schedule.spec.duration_s, report);
      }
    }

    if (traced) {
      traced_run_s.push_back(run.run_s);
      calls.clear();
      for (const trafficx::Flow& f : setup.schedule.flows) {
        calls.emplace_back(f.src, recipient_for(f.dst));
      }
      traced_spans = std::move(spans);
      traced_setup = std::move(setup);
      traced_run = std::move(run);
    } else {
      host.setup_s.push_back(setup.setup_s);
      host.run_s.push_back(run.run_s);
      host.rx_per_s.push_back(ratio(static_cast<double>(run.medium.deliveries), run.run_s));
      for (const double s : run.inject_s) host.send_ms.push_back(s * 1e3);
      if (report.reps == 1) host.peak_mib = peak_rss_mib();
    }
    last_rep_s = seconds_since(rep_start);
  } while (another_rep(start, options.seconds, report.reps, min_reps, last_rep_s, enough));

  settle(report, diverged, bad_flows);
  report.notes.push_back("repetitions " + std::to_string(report.reps) + ", flows per run " +
                         std::to_string(sim.offered));
  if (!options.trace) {
    add_end_to_end(report, host, sim);
    return report;
  }

  // Per-layer attribution from the last traced repetition.
  const std::map<std::string, double> self = traced_spans.self_seconds();
  const std::map<std::string, double> total = traced_spans.total_seconds();
  const ReplayCost replay = replay_planner(*traced_setup.network, calls);
  core::CityMeshNetwork& net = *traced_setup.network;
  const obsx::MetricsSnapshot snap = net.merged_metrics();
  const double loop_s = lookup(self, "sim.run_until");
  const double rx = static_cast<double>(traced_run.medium.deliveries);

  std::map<std::string, double> v;
  v["osmx.generate_s"] = lookup(total, "osmx.generate");
  v["core.compile_city_s"] = lookup(total, "core.compile_city");
  v["network.construct_s"] = lookup(total, "network.construct");
  v["mem.compile_hwm_mib"] = traced_setup.compile_hwm_mib;
  v["trafficx.compile_s"] = lookup(total, "trafficx.compile");
  v["cryptox.postbox_keys_s"] = lookup(total, "cryptox.postbox_keys");
  v["network.register_s"] = lookup(total, "network.register_postbox");
  v["planner.plan_s"] = replay.plan_s;
  v["planner.plans"] = static_cast<double>(replay.plans);
  v["planner.us_per_plan"] = ratio(replay.plan_s * 1e6, static_cast<double>(replay.plans));
  v["planner.spt_hit_ratio"] =
      ratio(static_cast<double>(replay.spt_hits),
            static_cast<double>(replay.spt_hits + replay.spt_misses));
  v["compiler.compile_s"] = replay.compile_s;
  v["compile.msg_compiles"] = static_cast<double>(net.compiler().msg_compiles());
  v["compile.membership_lookups"] = static_cast<double>(net.compiler().membership_lookups());
  v["network.inject_s"] = lookup(total, "network.inject");
  v["network.injects"] = static_cast<double>(traced_spans.counts()["network.inject"]);
  v["sim.loop_s"] = loop_s;
  v["sim.events"] = static_cast<double>(traced_run.events);
  v["sim.ns_per_event"] = ratio(loop_s * 1e9, static_cast<double>(traced_run.events));
  v["medium.transmissions"] = static_cast<double>(traced_run.medium.transmissions);
  v["medium.deliveries"] = rx;
  v["medium.deferrals"] = static_cast<double>(traced_run.medium.deferrals);
  v["medium.queue_drops"] = static_cast<double>(traced_run.medium.queue_drops);
  v["medium.ns_per_rx"] = ratio(loop_s * 1e9, rx);
  v["net.rebroadcasts"] = counter(snap, "net.rebroadcasts");
  v["net.dup_suppressed"] = counter(snap, "net.dup_suppressed");
  v["net.conduit_rejects"] = counter(snap, "net.conduit_rejects");
  v["net.rebroadcast_share"] = ratio(counter(snap, "net.rebroadcasts"), rx);
  v["qfgeo.candidates"] = counter(snap, "qfgeo.candidates");
  v["qfgeo.fired"] = counter(snap, "qfgeo.fired");
  v["qfgeo.cancelled"] = counter(snap, "qfgeo.cancelled");
  v["qfgeo.cancel_share"] =
      ratio(counter(snap, "qfgeo.cancelled"), counter(snap, "qfgeo.candidates"));
  v["shardx.barrier_idle_s"] = net.barrier_idle_s();
  v["shardx.handoffs"] = static_cast<double>(net.handoffs_exchanged());
  v["trace.run_s"] = traced_run.run_s;
  v["trace.unattributed_s"] = lookup(self, "run");
  v["trace.overhead_s"] = median(traced_run_s) - median(host.run_s);
  emit(report, kPerLayer, v, Label::kLayer);

  if (!options.trace_out.empty()) {
    std::ofstream out{options.trace_out};
    traced_spans.write_jsonl(out);
    if (!out) {
      report.notes.push_back("could not write spans to " + options.trace_out);
      report.correct = false;
    }
  }
  return report;
}

// --- paper-eval ---------------------------------------------------------------------

Report run_paper(const Options& options) {
  Report report;
  report.options = options;
  const PaperEvalDef def = paper_eval_def(options.seed);

  HostSamples host;
  std::vector<double> traced_run_s;
  SimOutcome sim;
  std::size_t city_compiles = 0;
  std::size_t bad_sends = 0;
  bool diverged = false;
  PaperEvalRun traced;

  const auto start = Clock::now();
  double last_rep_s = 0.0;
  const std::size_t min_reps = options.trace ? 2 : 1;
  const auto enough = [&] {
    return options.trace || percentile_supported(host.send_ms.size(), 0.99);
  };
  do {
    const auto rep_start = Clock::now();
    const bool is_traced = options.trace && report.reps % 2 == 1;
    if (is_traced) {
      traced = {};
      reset_peak_rss();
    }
    PaperEvalRun run = run_paper_eval(def, def.workers, is_traced);
    ++report.reps;
    std::size_t rx = 0;
    for (std::size_t c = 0; c < run.cities.size(); ++c) {
      if (run.networks[c]) {
        rx += run.networks[c]->medium_totals().deliveries;
      } else {
        ++bad_sends;  // its set-up job threw
      }
      report.attempted += run.cities[c].sends.size();
      for (const SendRecord& s : run.cities[c].sends) {
        if ((s.delivered && !s.route_found) || s.latency_s < 0.0) ++bad_sends;
        if (report.reps == 1) sim.add(s.delivered, s.latency_s, s.transmissions);
      }
    }
    fold_digest(report, sends_digest(run.cities), diverged);
    if (is_traced) {
      traced_run_s.push_back(run.run_s);
      traced = std::move(run);
    } else {
      host.setup_s.push_back(run.setup_s);
      host.run_s.push_back(run.run_s);
      host.rx_per_s.push_back(ratio(static_cast<double>(rx), run.run_s));
      city_compiles = run.city_compiles;
      for (const CitySends& city : run.cities) {
        for (const SendRecord& s : city.sends) host.send_ms.push_back(s.host_s * 1e3);
      }
      if (report.reps == 1) host.peak_mib = peak_rss_mib();
    }
    last_rep_s = seconds_since(rep_start);
  } while (another_rep(start, options.seconds, report.reps, min_reps, last_rep_s, enough));

  settle(report, diverged, bad_sends);
  report.notes.push_back("repetitions " + std::to_string(report.reps) + ", sends per run " +
                         std::to_string(sim.offered) + " over " +
                         std::to_string(def.profiles.size()) + " cities on " +
                         std::to_string(def.workers) + " runx workers; " +
                         std::to_string(city_compiles) + " CityCache compiles per set-up");
  if (!options.trace) {
    add_end_to_end(report, host, sim);
    return report;
  }

  // Per-layer attribution: span totals summed over the per-city recorders.
  std::map<std::string, double> setup_total, send_total, send_self;
  for (const SpanRecorder& r : traced.setup_spans) {
    for (const auto& [k, s] : r.total_seconds()) setup_total[k] += s;
  }
  std::size_t sends = 0;
  for (const SpanRecorder& r : traced.send_spans) {
    for (const auto& [k, s] : r.total_seconds()) send_total[k] += s;
    for (const auto& [k, s] : r.self_seconds()) send_self[k] += s;
  }
  ReplayCost replay;
  double busy_s = 0.0;
  std::size_t events = 0;
  core::CityMeshNetwork::MediumTotals medium;
  obsx::MetricsSnapshot snap;
  std::uint64_t compiles = 0;
  std::uint64_t lookups = 0;
  double barrier_idle_s = 0.0;
  std::uint64_t handoffs = 0;
  for (std::size_t c = 0; c < traced.cities.size(); ++c) {
    const ReplayCost r = replay_planner(*traced.networks[c], traced.cities[c].calls);
    replay.plan_s += r.plan_s;
    replay.plans += r.plans;
    replay.spt_hits += r.spt_hits;
    replay.spt_misses += r.spt_misses;
    replay.compile_s += r.compile_s;
    busy_s += traced.cities[c].busy_s;
    sends += traced.cities[c].sends.size();
    core::CityMeshNetwork& net = *traced.networks[c];
    events += net.simulator().events_processed();
    const auto m = net.medium_totals();
    medium.transmissions += m.transmissions;
    medium.deliveries += m.deliveries;
    medium.deferrals += m.deferrals;
    medium.queue_drops += m.queue_drops;
    snap.merge(net.merged_metrics());
    compiles += net.compiler().msg_compiles();
    lookups += net.compiler().membership_lookups();
    barrier_idle_s += net.barrier_idle_s();
    handoffs += net.handoffs_exchanged();
  }
  const double send_s = lookup(send_total, "network.send");
  const double loop_s = std::max(0.0, send_s - replay.plan_s - replay.compile_s);
  const double rx = static_cast<double>(medium.deliveries);
  const std::size_t workers =
      std::min(runx::resolve_jobs(def.workers), traced.cities.size());

  std::map<std::string, double> v;
  v["osmx.generate_s"] = lookup(setup_total, "osmx.generate");
  v["core.compile_city_s"] = lookup(setup_total, "core.compile_city");
  v["network.construct_s"] = lookup(setup_total, "network.construct");
  v["mem.compile_hwm_mib"] = traced.compile_hwm_mib;
  v["cryptox.postbox_keys_s"] = lookup(send_total, "cryptox.postbox_keys");
  v["network.register_s"] = lookup(send_total, "network.register_postbox");
  v["planner.plan_s"] = replay.plan_s;
  v["planner.plans"] = static_cast<double>(replay.plans);
  v["planner.us_per_plan"] = ratio(replay.plan_s * 1e6, static_cast<double>(replay.plans));
  v["planner.spt_hit_ratio"] =
      ratio(static_cast<double>(replay.spt_hits),
            static_cast<double>(replay.spt_hits + replay.spt_misses));
  v["compiler.compile_s"] = replay.compile_s;
  v["compile.msg_compiles"] = static_cast<double>(compiles);
  v["compile.membership_lookups"] = static_cast<double>(lookups);
  v["network.send_s"] = send_s;
  v["sim.loop_s"] = loop_s;
  v["sim.events"] = static_cast<double>(events);
  v["sim.ns_per_event"] = ratio(loop_s * 1e9, static_cast<double>(events));
  v["medium.transmissions"] = static_cast<double>(medium.transmissions);
  v["medium.deliveries"] = rx;
  v["medium.deferrals"] = static_cast<double>(medium.deferrals);
  v["medium.queue_drops"] = static_cast<double>(medium.queue_drops);
  v["medium.ns_per_rx"] = ratio(loop_s * 1e9, rx);
  v["net.rebroadcasts"] = counter(snap, "net.rebroadcasts");
  v["net.dup_suppressed"] = counter(snap, "net.dup_suppressed");
  v["net.conduit_rejects"] = counter(snap, "net.conduit_rejects");
  v["net.rebroadcast_share"] = ratio(counter(snap, "net.rebroadcasts"), rx);
  v["runx.busy_s"] = busy_s;
  v["runx.wall_s"] = traced.run_s;
  v["runx.efficiency"] = ratio(busy_s, traced.run_s * static_cast<double>(workers));
  v["runx.city_compiles"] = static_cast<double>(city_compiles);
  v["shardx.barrier_idle_s"] = barrier_idle_s;
  v["shardx.handoffs"] = static_cast<double>(handoffs);
  v["trace.run_s"] = traced.run_s;
  v["trace.unattributed_s"] = lookup(send_self, "runx.job");
  v["trace.overhead_s"] = median(traced_run_s) - median(host.run_s);
  emit(report, kPerLayer, v, Label::kLayer);
  report.notes.push_back("traced sends " + std::to_string(sends) +
                         "; layer times are summed over workers (runx.busy_s)");

  if (!options.trace_out.empty()) {
    std::ofstream out{options.trace_out};
    for (const SpanRecorder& r : traced.setup_spans) r.write_jsonl(out);
    for (const SpanRecorder& r : traced.send_spans) r.write_jsonl(out);
    if (!out) {
      report.notes.push_back("could not write spans to " + options.trace_out);
      report.correct = false;
    }
  }
  return report;
}

void write_json_string(std::ostream& out, std::string_view s) {
  out << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out << buf;
    } else {
      out << c;
    }
  }
  out << '"';
}

}  // namespace

std::string_view to_string(Workload workload) {
  switch (workload) {
    case Workload::kHotspot: return "hotspot";
    case Workload::kMetro: return "metro";
    case Workload::kQfgeo: return "qfgeo";
    case Workload::kPaperEval: return "paper-eval";
  }
  return "?";
}

std::optional<Workload> workload_from(std::string_view name) {
  for (const Workload w :
       {Workload::kHotspot, Workload::kMetro, Workload::kQfgeo, Workload::kPaperEval}) {
    if (to_string(w) == name) return w;
  }
  return std::nullopt;
}

TrafficDef traffic_def(Workload workload, std::uint64_t seed) {
  TrafficDef def;
  switch (workload) {
    case Workload::kHotspot:
      // fig9_capacity's 64 flows/s point: the first 1283 arrivals are that
      // row's whole schedule at seed 909.
      def.profile = osmx::profile_by_name("boston");
      def.network = contention_network();
      def.spec = hotspot_spec(seed, 64.0);
      def.flows = 1283;
      break;
    case Workload::kQfgeo:
      def.profile = osmx::profile_by_name("boston");
      def.network = contention_network();
      def.network.protocol = core::Protocol::kQfgeo;
      def.spec = hotspot_spec(seed, 8.0);
      def.spec.name = "qfgeo";
      def.flows = 1000;
      break;
    case Workload::kMetro:
      // fig10_scale's metro-xxl rung in its draw-free regime.
      def.profile.name = "metro-xxl";
      def.profile.width_m = 4200;
      def.profile.height_m = 3100;
      def.profile.seed = 101;
      def.network.placement.seed = 7;
      def.network.placement.density_per_m2 = 1.0 / 60.0;
      def.network.seed = 99;
      def.network.medium.bitrate_bps = 250e3;
      def.network.medium.jitter_s = 0.0;
      def.network.medium.loss_probability = 0.0;
      def.spec.name = "metro";
      def.spec.seed = seed;
      def.spec.duration_s = 12.0;
      def.spec.rate_per_s = 16.0;
      def.flows = 400;
      break;
    case Workload::kPaperEval:
      throw std::invalid_argument("paper-eval is not a traffic workload");
  }
  return def;
}

trafficx::FlowSchedule first_flows(const trafficx::WorkloadSpec& spec,
                                   const osmx::City& city, std::size_t n) {
  // compile() draws arrivals and endpoints flow by flow, so a longer window
  // extends the schedule without changing its prefix.
  trafficx::WorkloadSpec wide = spec;
  trafficx::FlowSchedule schedule = trafficx::compile(wide, city);
  while (schedule.flows.size() < n && n > 0) {
    wide.duration_s *= 2.0;
    schedule = trafficx::compile(wide, city);
  }
  schedule.flows.resize(std::min(n, schedule.flows.size()));
  schedule.spec = spec;
  if (!schedule.flows.empty()) {
    schedule.spec.duration_s = std::max(spec.duration_s, schedule.flows.back().start_s);
  }
  return schedule;
}

TrafficSetup setup_traffic(const TrafficDef& def, SpanRecorder* recorder) {
  TrafficSetup setup;
  const auto t0 = Clock::now();
  osmx::City city;
  {
    const auto s = span(recorder, "osmx.generate");
    city = osmx::generate_city(def.profile);
  }
  {
    const auto s = span(recorder, "core.compile_city");
    setup.compiled = core::compile_city(std::move(city), def.network);
  }
  setup.compile_hwm_mib = peak_rss_mib();
  {
    const auto s = span(recorder, "network.construct");
    setup.network = std::make_unique<core::CityMeshNetwork>(setup.compiled, def.network);
  }
  {
    const auto s = span(recorder, "trafficx.compile");
    setup.schedule = first_flows(def.spec, setup.compiled->city, def.flows);
  }
  setup.setup_s = seconds_since(t0);
  return setup;
}

TrafficRun drive_flows(core::CityMeshNetwork& network, const trafficx::FlowSchedule& schedule,
                       SpanRecorder* recorder) {
  const trafficx::RunConfig config;
  const std::size_t n = schedule.flows.size();
  TrafficRun out;
  out.flows.resize(n);
  out.inject_s.assign(n, 0.0);
  const auto t_start = Clock::now();
  const core::CityMeshNetwork::MediumTotals before = network.medium_totals();
  {
    const auto root = span(recorder, "run");
    std::unordered_map<osmx::BuildingId, core::PostboxInfo> recipients;
    for (std::size_t i = 0; i < n; ++i) {
      const trafficx::Flow& flow = schedule.flows[i];
      if (recipients.contains(flow.dst)) continue;
      const auto flow_id = static_cast<std::uint32_t>(i + 1);
      core::PostboxInfo info;
      {
        const auto s = span(recorder, "cryptox.postbox_keys", flow_id);
        info = recipient_for(flow.dst);
      }
      {
        const auto s = span(recorder, "network.register_postbox", flow_id);
        network.register_postbox(info);
      }
      recipients.emplace(flow.dst, info);
    }

    const double t0 = network.sim_now();
    std::vector<std::uint32_t> message_ids(n, 0);
    std::size_t max_payload = 1;
    for (const trafficx::Flow& flow : schedule.flows) {
      max_payload = std::max(max_payload, flow.payload_bytes);
    }
    const std::vector<std::uint8_t> payload(max_payload, 0);
    for (std::size_t i = 0; i < n; ++i) {
      out.flows[i].start_s = schedule.flows[i].start_s;
      out.flows[i].payload_bytes = schedule.flows[i].payload_bytes;
      network.schedule_control(t0 + schedule.flows[i].start_s, [&, i] {
        const trafficx::Flow& f = schedule.flows[i];
        const auto s = span(recorder, "network.inject", static_cast<std::uint32_t>(i + 1));
        const auto c0 = Clock::now();
        const core::InjectResult inject = network.inject(
            f.src, recipients.at(f.dst),
            {payload.data(), std::min(f.payload_bytes, payload.size())});
        out.inject_s[i] = seconds_since(c0);
        if (inject.accepted()) {
          out.flows[i].injected = true;
          message_ids[i] = inject.message_id;
        }
      });
    }
    {
      const auto s = span(recorder, "sim.run_until");
      out.events = network.run_until(t0 + schedule.spec.duration_s + config.tail_s,
                                     config.max_events);
    }

    for (std::size_t i = 0; i < n; ++i) {
      if (message_ids[i] == 0) continue;
      const core::FlowState* state = network.flow_state(message_ids[i]);
      if (state == nullptr) continue;
      out.flows[i].transmissions = state->transmissions;
      if (!state->delivered) continue;
      out.flows[i].delivered = true;
      out.flows[i].latency_s = state->delivery_time_s - state->injected_at_s;
    }
    network.clear_flow_states();
  }
  out.run_s = seconds_since(t_start);
  out.medium = minus(network.medium_totals(), before);
  return out;
}

std::uint64_t flows_digest(std::span<const core::FlowRecord> flows) {
  obsx::Fnv1a h;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const core::FlowRecord& f = flows[i];
    std::uint64_t latency_bits = 0;
    static_assert(sizeof latency_bits == sizeof f.latency_s);
    std::memcpy(&latency_bits, &f.latency_s, sizeof latency_bits);
    h.update(static_cast<std::uint64_t>(i))
        .update(static_cast<std::uint64_t>((f.injected ? 1u : 0u) | (f.delivered ? 2u : 0u)))
        .update(latency_bits)
        .update(static_cast<std::uint64_t>(f.transmissions));
  }
  return h.digest();
}

PaperEvalDef paper_eval_def(std::uint64_t seed) {
  PaperEvalDef def;
  def.profiles = osmx::default_profiles();
  def.seed = seed;
  return def;
}

PaperEvalRun run_paper_eval(const PaperEvalDef& def, std::size_t jobs, bool traced) {
  const std::size_t n = def.profiles.size();
  PaperEvalRun out;
  out.cities.resize(n);
  out.networks.resize(n);
  if (traced) {
    out.setup_spans.resize(n);
    out.send_spans.resize(n);
  }
  std::vector<runx::RunJob> grid(n);
  for (std::size_t i = 0; i < n; ++i) {
    grid[i].city = def.profiles[i].name;
    grid[i].seed = def.seed;
    grid[i].point = "paper-eval";
  }

  // Set-up: every city compiled once through the shared cache (traced runs
  // make the cache's two calls themselves, so each gets its own span).
  runx::CityCache cache;
  const auto t_setup = Clock::now();
  runx::run_jobs(grid, [&](const runx::RunJob& job) {
    const std::size_t i = job.index;
    SpanRecorder* rec = traced ? &out.setup_spans[i] : nullptr;
    std::shared_ptr<const core::CompiledCity> compiled;
    if (traced) {
      osmx::City city;
      {
        const auto s = span(rec, "osmx.generate");
        city = osmx::generate_city(def.profiles[i]);
      }
      const auto s = span(rec, "core.compile_city");
      compiled = core::compile_city(std::move(city), def.network);
    } else {
      compiled = cache.get(def.profiles[i], def.network);
    }
    const auto s = span(rec, "network.construct");
    out.networks[i] = std::make_unique<core::CityMeshNetwork>(compiled, def.network);
    return runx::RunResult{};
  }, {jobs});
  out.setup_s = seconds_since(t_setup);
  out.city_compiles = cache.compiles();
  out.compile_hwm_mib = peak_rss_mib();

  // Send phase: each worker runs one city's closed loop — the next send()
  // starts when the previous one returns.
  static constexpr std::string_view kPayload = "citymesh-eval-payload";
  const std::span<const std::uint8_t> payload{
      reinterpret_cast<const std::uint8_t*>(kPayload.data()), kPayload.size()};
  const auto t_run = Clock::now();
  runx::run_jobs(grid, [&](const runx::RunJob& job) {
    const std::size_t i = job.index;
    const auto t_job = Clock::now();
    SpanRecorder* rec = traced ? &out.send_spans[i] : nullptr;
    CitySends& result = out.cities[i];
    if (!out.networks[i]) throw std::runtime_error("city set-up failed");
    core::CityMeshNetwork& network = *out.networks[i];
    {
      const auto root = span(rec, "runx.job");
      // The fig6 protocol (core::evaluate_city): sample building pairs,
      // keep the AP-reachable ones, send over the first sends_per_city.
      const osmx::City& city = network.city();
      const std::size_t buildings = city.building_count();
      geo::Rng rng{def.seed};
      std::vector<std::pair<osmx::BuildingId, osmx::BuildingId>> reachable;
      for (std::size_t k = 0; k < def.reachability_pairs && buildings >= 2; ++k) {
        const auto a = static_cast<osmx::BuildingId>(rng.uniform_int(buildings));
        auto b = static_cast<osmx::BuildingId>(rng.uniform_int(buildings));
        while (b == a) b = static_cast<osmx::BuildingId>(rng.uniform_int(buildings));
        const auto ap_a = network.aps().representative_ap(city, a);
        const auto ap_b = network.aps().representative_ap(city, b);
        if (ap_a && ap_b && network.aps().connected(*ap_a, *ap_b)) reachable.emplace_back(a, b);
      }
      const std::size_t to_send = std::min(def.sends_per_city, reachable.size());
      for (std::size_t k = 0; k < to_send; ++k) {
        const auto [a, b] = reachable[k];
        const auto flow_id = static_cast<std::uint32_t>(k + 1);
        core::PostboxInfo info;
        {
          const auto s = span(rec, "cryptox.postbox_keys", flow_id);
          info = core::PostboxInfo::for_key(cryptox::KeyPair::from_seed(def.seed * 7919 + k), b);
        }
        {
          const auto s = span(rec, "network.register_postbox", flow_id);
          if (!network.register_postbox(info)) continue;
        }
        result.calls.emplace_back(a, info);
        SendRecord record;
        const double sim_t0 = network.sim_now();
        const auto c0 = Clock::now();
        core::SendOutcome outcome;
        {
          const auto s = span(rec, "network.send", flow_id);
          outcome = network.send(a, info, payload);
        }
        record.host_s = seconds_since(c0);
        record.route_found = outcome.route_found;
        record.delivered = outcome.delivered;
        record.latency_s = outcome.delivered ? outcome.delivery_time_s - sim_t0 : 0.0;
        record.transmissions = outcome.transmissions;
        record.header_bits = outcome.header_bits;
        record.overhead = outcome.overhead();
        result.sends.push_back(record);
      }
    }
    result.busy_s = seconds_since(t_job);
    return runx::RunResult{};
  }, {jobs});
  out.run_s = seconds_since(t_run);
  return out;
}

std::uint64_t sends_digest(const std::vector<CitySends>& cities) {
  obsx::Fnv1a h;
  for (std::size_t c = 0; c < cities.size(); ++c) {
    h.update(static_cast<std::uint64_t>(c)).update(static_cast<std::uint64_t>(cities[c].sends.size()));
    for (const SendRecord& s : cities[c].sends) {
      std::uint64_t latency_bits = 0;
      std::memcpy(&latency_bits, &s.latency_s, sizeof latency_bits);
      h.update(static_cast<std::uint64_t>((s.route_found ? 1u : 0u) | (s.delivered ? 2u : 0u)))
          .update(latency_bits)
          .update(static_cast<std::uint64_t>(s.transmissions))
          .update(static_cast<std::uint64_t>(s.header_bits));
    }
  }
  return h.digest();
}

Report run(const Options& options) {
  return options.workload == Workload::kPaperEval ? run_paper(options) : run_traffic(options);
}

void write_report(std::ostream& out, const Report& report) {
  const Options& o = report.options;
  out << "{\"workload\":\"" << to_string(o.workload) << "\",\"seed\":" << o.seed
      << ",\"trace\":" << (o.trace ? 1 : 0) << ",\"correct\":"
      << (report.correct ? "true" : "false") << ",\"attempted\":" << report.attempted
      << ",\"failed\":" << report.failed << ",\"digest\":\"" << obsx::hex64(report.digest)
      << "\",\"reps\":" << report.reps << ",\"notes\":[";
  for (std::size_t i = 0; i < report.notes.size(); ++i) {
    if (i > 0) out << ',';
    write_json_string(out, report.notes[i]);
  }
  out << "],\"metrics\":{";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    char value[40];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    if (i > 0) out << ',';
    write_json_string(out, m.name);
    out << ":{\"value\":" << value << ",\"unit\":";
    write_json_string(out, m.unit);
    out << ",\"label\":\"" << to_string(m.label) << "\"}";
  }
  out << "}}\n";
}

}  // namespace perfbench
