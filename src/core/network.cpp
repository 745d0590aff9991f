#include "core/network.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <thread>
#include <unordered_set>

namespace citymesh::core {

std::string_view to_string(Protocol protocol) {
  switch (protocol) {
    case Protocol::kConduit: return "conduit";
    case Protocol::kQfgeo: return "qfgeo";
  }
  return "?";
}

std::optional<Protocol> protocol_from(std::string_view name) {
  if (name == "conduit") return Protocol::kConduit;
  if (name == "qfgeo") return Protocol::kQfgeo;
  return std::nullopt;
}

std::size_t CityMeshNetwork::trace_capacity_for(const NetworkConfig& config,
                                                std::size_t ap_count) {
  if (config.trace_capacity != 0) return config.trace_capacity;
  // Rough per-send budget: every AP receives, decides, and possibly
  // retransmits; 24 events per AP covers a flood plus an ack with slack.
  return std::max<std::size_t>(std::size_t{1} << 16, 24 * ap_count);
}

std::shared_ptr<const CompiledCity> compile_city(osmx::City city,
                                                 const NetworkConfig& config) {
  return std::make_shared<const CompiledCity>(std::move(city), config.graph,
                                              config.placement);
}

CityMeshNetwork::CityMeshNetwork(const osmx::City& city, NetworkConfig config)
    : CityMeshNetwork(compile_city(city, config), config) {}

CityMeshNetwork::CityMeshNetwork(std::shared_ptr<const CompiledCity> compiled,
                                 NetworkConfig config)
    : compiled_(std::move(compiled)),
      config_(config),
      spt_cache_(compiled_->map.graph()),
      planner_(compiled_->map, config.conduit, &spt_cache_),
      compiler_(compiled_->map),
      medium_(sim_, compiled_->aps.graph(), config.medium),
      trace_(trace_capacity_for(config_, compiled_->aps.ap_count())),
      ap_status_(compiled_->aps.ap_count(), ApStatus::kUp),
      aps_up_(compiled_->aps.ap_count()) {
  // QF-Geo mode swaps the compile-once membership machinery to the bounded
  // forwarding region, before any message compiles (src/qfgeo).
  if (config_.protocol == Protocol::kQfgeo) {
    compiler_.set_qfgeo(config_.qfgeo_region);
  }
  agent_state_ = AgentStateSlab(aps().ap_count());
  agents_.reserve(aps().ap_count());
  for (const auto& ap : aps().aps()) {
    agents_.emplace_back(ap.id, ap.position, ap.building, compiled_->map, &compiler_);
    agents_.back().set_state(&agent_state_, ap.id);
  }
  const bool tiled = config_.shards > 1;
  if (!tiled) {
    medium_.set_delivery_handler(
        [this](sim::NodeId to, sim::NodeId from,
               const std::shared_ptr<const MeshPacket>& packet) {
          handle_delivery(*shards_.front(), to, from, packet);
        });
    medium_.set_node_filter([this](sim::NodeId node) { return ap_up(node); });
    medium_.set_link_loss([this](sim::NodeId from, sim::NodeId to) {
      return extra_link_loss(from, to);
    });
    // Per-flow transmission attribution (src/trafficx): one hash probe per
    // on-air packet, and only while injected flows are being tracked — the
    // single-send paths see an empty map and pay one branch.
    medium_.set_tx_observer([this](sim::NodeId, const MeshPacket& p) {
      if (flows_.empty()) return;
      if (const auto it = flows_.find(p.trace_id); it != flows_.end()) {
        ++it->second.transmissions;
      }
    });
  }

  // Rebroadcast policy (src/relayx). The policy draws from the network seed.
  // The relayx.* counters are bound into metrics_ for non-flood policies only,
  // mirroring the MessageCompiler precedent: snapshot() serializes every
  // registered counter, and flood manifests must stay byte-identical to the
  // pre-relayx pipeline. Tiled runs decide through per-shard policies; this
  // one stays idle but keeps the relayx.* keys registered so merged
  // snapshots serialize the same key set as the legacy path.
  policy_ = relayx::make_policy(resolved_relay_config(), compiled_->aps);
  if (policy_->kind() != relayx::PolicyKind::kFlood) {
    policy_->bind_metrics(metrics_);
  }

  // Observability wiring: the medium's tally *is* the network's medium.*
  // metric set, and the medium stamps trace events with the packet's
  // decoded message id. The medium.* keys are registered even when tiles
  // own the live mediums (key-set parity for merged manifests).
  medium_.bind_metrics(metrics_);
  if (!tiled) {
    medium_.set_trace(&trace_, [](const MeshPacket& p) { return p.trace_id; });
    // Airtime accounting charges the packet's wire size (contention model).
    medium_.set_packet_bits([](const MeshPacket& p) {
      return (p.header_bytes.size() + p.payload.size()) * 8;
    });
  }
  obsx::Histogram* latency_hist =
      &metrics_.histogram("sim.event_latency_s", obsx::exponential_buckets(1e-4, 4.0, 10));
  sim_.set_latency_histogram(latency_hist);
  n_sends_ = &metrics_.counter("net.sends");
  n_delivered_ = &metrics_.counter("net.delivered");
  n_rebroadcasts_ = &metrics_.counter("net.rebroadcasts");
  n_dup_suppressed_ = &metrics_.counter("net.dup_suppressed");
  n_conduit_rejects_ = &metrics_.counter("net.conduit_rejects");
  n_postbox_stores_ = &metrics_.counter("net.postbox_stores");
  n_acks_sent_ = &metrics_.counter("net.acks_sent");
  n_acks_received_ = &metrics_.counter("net.acks_received");
  n_suppression_cancelled_ = &metrics_.counter("net.suppression_cancelled");
  h_header_bits_ = &metrics_.histogram("net.header_bits", obsx::linear_buckets(80.0, 20.0, 16));
  h_min_hops_ = &metrics_.histogram("net.min_hops", obsx::linear_buckets(1.0, 1.0, 32));
  h_tx_per_delivery_ =
      &metrics_.histogram("net.tx_per_delivery", obsx::exponential_buckets(1.0, 2.0, 12));

  if (tiled) {
    // Key-set parity with K = 1: the coordinator registry carries the
    // qfgeo.* keys (idle, like the idle relayx policy above) so merged
    // manifests serialize the same key set for every shard count.
    if (config_.protocol == Protocol::kQfgeo) {
      for (const char* key : {"qfgeo.candidates", "qfgeo.fired", "qfgeo.cancelled",
                              "qfgeo.no_progress", "qfgeo.fallback_floods"}) {
        metrics_.counter(key);
      }
    }
    build_tiles();
  } else {
    // The single legacy shard aliases the network singletons; `direct`
    // routes outcome writes straight at the network-level state, so the
    // shards == 1 code path is the pre-shardx pipeline byte for byte.
    auto s = std::make_unique<Shard>();
    s->tile = 0;
    s->direct = true;
    s->sim = &sim_;
    s->medium = &medium_;
    s->metrics = &metrics_;
    s->trace = &trace_;
    s->policy = policy_.get();
    s->compiler = &compiler_;
    s->n_rebroadcasts = n_rebroadcasts_;
    s->n_dup_suppressed = n_dup_suppressed_;
    s->n_conduit_rejects = n_conduit_rejects_;
    s->n_postbox_stores = n_postbox_stores_;
    s->n_acks_sent = n_acks_sent_;
    s->n_suppression_cancelled = n_suppression_cancelled_;
    s->medium_deliveries = &metrics_.counter("medium.deliveries");
    s->medium_blocked_receptions = &metrics_.counter("medium.blocked_receptions");
    s->medium_losses = &metrics_.counter("medium.losses");
    s->h_latency = latency_hist;
    bind_qfgeo_counters(*s, metrics_);
    shards_.push_back(std::move(s));
  }
}

void CityMeshNetwork::bind_qfgeo_counters(Shard& shard, obsx::MetricsRegistry& registry) {
  // Registered only under Protocol::kQfgeo, following the relayx precedent:
  // snapshot() serializes every registered counter, and conduit manifests
  // must stay byte-identical to the pre-qfgeo pipeline (golden digest gate).
  if (config_.protocol != Protocol::kQfgeo) return;
  shard.qf_candidates = &registry.counter("qfgeo.candidates");
  shard.qf_fired = &registry.counter("qfgeo.fired");
  shard.qf_cancelled = &registry.counter("qfgeo.cancelled");
  shard.qf_no_progress = &registry.counter("qfgeo.no_progress");
  shard.qf_fallback_floods = &registry.counter("qfgeo.fallback_floods");
}

relayx::PolicyConfig CityMeshNetwork::resolved_relay_config() const {
  relayx::PolicyConfig relay = config_.relay;
  relay.seed = config_.seed;
  // Tiled execution makes the global election order shard-count-dependent;
  // per-AP draw streams keep backoff draws a function of each AP's own
  // election sequence, which is K-invariant.
  if (config_.shards > 1) relay.per_ap_streams = true;
  return relay;
}

void CityMeshNetwork::build_tiles() {
  plan_ = shardx::plan_tiles(compiled_->map.centroid_grid(), compiled_->map.building_count(),
                             compiled_->aps, config_.shards, config_.tiling);
  // Stripe the shared dup filter by tile: an AP's receptions run only on its
  // owning tile's thread, so per-tile stripes make the one slab TSan-clean.
  agent_state_.set_stripes(plan_.ap_tile.data(), plan_.tile_count);
  const double min_serialization_s =
      config_.medium.bitrate_bps > 0.0
          ? static_cast<double>(config_.medium.frame_overhead_bits) / config_.medium.bitrate_bps
          : config_.medium.tx_delay_s;
  lookahead_s_ =
      shardx::lookahead_s(plan_.cross, min_serialization_s, config_.medium.prop_delay_s_per_m);

  // Cross-link CSR by transmitter (counting sort keeps plan order per AP).
  cross_base_.assign(aps().ap_count() + 1, 0);
  for (const shardx::CrossLink& link : plan_.cross) ++cross_base_[link.from + 1];
  for (std::size_t i = 1; i < cross_base_.size(); ++i) cross_base_[i] += cross_base_[i - 1];
  cross_links_.resize(plan_.cross.size());
  {
    std::vector<std::size_t> cursor{cross_base_.begin(), cross_base_.end() - 1};
    for (const shardx::CrossLink& link : plan_.cross) cross_links_[cursor[link.from]++] = link;
  }

  const relayx::PolicyConfig relay = resolved_relay_config();
  sim::MediumConfig medium_config = config_.medium;
  medium_config.shard_invariant_rng = true;
  const std::size_t trace_cap = trace_capacity_for(config_, aps().ap_count());

  shards_.reserve(plan_.tile_count);
  for (shardx::TileId tile = 0; tile < plan_.tile_count; ++tile) {
    auto s = std::make_unique<Shard>();
    Shard* sp = s.get();
    s->tile = tile;
    s->direct = false;
    s->own_metrics = std::make_unique<obsx::MetricsRegistry>();
    s->metrics = s->own_metrics.get();
    s->own_trace = std::make_unique<obsx::TraceBuffer>(trace_cap);
    s->trace = s->own_trace.get();
    s->own_sim = std::make_unique<sim::Simulator>();
    s->sim = s->own_sim.get();
    s->h_latency = &s->metrics->histogram("sim.event_latency_s",
                                          obsx::exponential_buckets(1e-4, 4.0, 10));
    // Quantized sums make the per-shard accumulation exact, so the merged
    // latency sum depends only on the multiset of recorded delays — not on
    // how the tiling happened to interleave them. 2^-30 s (~1 ns) is far
    // below the medium's delay resolution; exactness holds up to 2^23
    // accumulated seconds. K = 1 keeps the unquantized legacy sum.
    s->h_latency->set_sum_quantum(0x1p-30);
    s->sim->set_latency_histogram(s->h_latency);
    // All K mediums walk the one compiled-city CSR; the tile filter skips
    // cross-tile neighbors (remote_fanout covers exactly those cut edges).
    // A filtered walk visits the same edges in the same order as the old
    // per-tile tile_subgraph copies did (test_metromem pins the parity).
    s->own_medium = std::make_unique<sim::BroadcastMedium<MeshPacket>>(
        *s->sim, aps().graph(), medium_config);
    s->medium = s->own_medium.get();
    s->medium->set_tile_filter(plan_.ap_tile.data(), tile);
    s->medium->set_delivery_handler(
        [this, sp](sim::NodeId to, sim::NodeId from,
                   const std::shared_ptr<const MeshPacket>& packet) {
          handle_delivery(*sp, to, from, packet);
        });
    s->medium->set_node_filter([this](sim::NodeId node) { return ap_up(node); });
    s->medium->set_link_loss([this](sim::NodeId from, sim::NodeId to) {
      return extra_link_loss(from, to);
    });
    s->medium->set_tx_observer([this, sp](sim::NodeId, const MeshPacket& p) {
      if (flows_.empty()) return;
      if (flows_.find(p.trace_id) != flows_.end()) {
        ++sp->flow_deltas[p.trace_id].transmissions;
      }
    });
    s->medium->set_remote_fanout(
        [this, sp](sim::NodeId from, const std::shared_ptr<const MeshPacket>& packet,
                   sim::SimTime air, std::uint32_t tx_index) {
          remote_fanout(*sp, from, packet, air, tx_index);
        });
    s->medium->bind_metrics(*s->metrics);
    s->medium->set_trace(s->trace, [](const MeshPacket& p) { return p.trace_id; });
    s->medium->set_packet_bits([](const MeshPacket& p) {
      return (p.header_bytes.size() + p.payload.size()) * 8;
    });
    s->own_policy = relayx::make_policy(relay, compiled_->aps);
    s->policy = s->own_policy.get();
    if (s->policy->kind() != relayx::PolicyKind::kFlood) {
      s->policy->bind_metrics(*s->metrics);
    }
    // Per-tile compile service: reception-time memo lookups and counter
    // increments stay on this tile's thread (compile.* counters live in the
    // compiler's own registry, outside run manifests).
    s->own_compiler = std::make_unique<MessageCompiler>(compiled_->map);
    s->compiler = s->own_compiler.get();
    s->n_rebroadcasts = &s->metrics->counter("net.rebroadcasts");
    s->n_dup_suppressed = &s->metrics->counter("net.dup_suppressed");
    s->n_conduit_rejects = &s->metrics->counter("net.conduit_rejects");
    s->n_postbox_stores = &s->metrics->counter("net.postbox_stores");
    s->n_acks_sent = &s->metrics->counter("net.acks_sent");
    s->n_suppression_cancelled = &s->metrics->counter("net.suppression_cancelled");
    s->medium_deliveries = &s->metrics->counter("medium.deliveries");
    s->medium_blocked_receptions = &s->metrics->counter("medium.blocked_receptions");
    s->medium_losses = &s->metrics->counter("medium.losses");
    if (config_.protocol == Protocol::kQfgeo) {
      s->own_compiler->set_qfgeo(config_.qfgeo_region);
    }
    bind_qfgeo_counters(*s, *s->metrics);
    shards_.push_back(std::move(s));
  }
  for (const auto& ap : aps().aps()) {
    agents_[ap.id].set_compiler(shards_[plan_.ap_tile[ap.id]]->compiler);
  }

  std::size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  pool_ = std::make_unique<shardx::WorkerPool>(std::min(plan_.tile_count, hw) - 1);
}

TraceRoles roles_from_trace(std::span<const obsx::TraceEvent> events,
                            std::uint32_t message_id) {
  TraceRoles roles;
  std::unordered_set<std::uint32_t> txed;
  std::vector<std::uint32_t> rx_order;
  std::unordered_set<std::uint32_t> rxed;
  for (const obsx::TraceEvent& e : events) {
    if (e.packet != message_id) continue;
    if (e.kind == obsx::TraceKind::kTx) {
      if (txed.insert(e.node).second) roles.rebroadcast.push_back(e.node);
    } else if (e.kind == obsx::TraceKind::kRx) {
      if (rxed.insert(e.node).second) rx_order.push_back(e.node);
    }
  }
  for (const std::uint32_t node : rx_order) {
    if (!txed.contains(node)) roles.received_only.push_back(node);
  }
  return roles;
}

namespace {

std::string registry_key(const cryptox::SelfCertifyingId& id, BuildingId building) {
  return id.hex() + "@" + std::to_string(building);
}

}  // namespace

std::shared_ptr<Postbox> CityMeshNetwork::register_postbox(const PostboxInfo& info) {
  const auto& building_aps = aps().aps_of_building(info.building);
  if (building_aps.empty()) return nullptr;
  // Idempotent per (identity, building): re-registering returns the same box.
  const std::string key = registry_key(info.id, info.building);
  if (const auto it = postboxes_.find(key); it != postboxes_.end()) return it->second;

  auto box = std::make_shared<Postbox>(info.id);
  for (const mesh::ApId id : building_aps) {
    agents_[id].host_postbox(box);
  }
  postboxes_[key] = box;
  primary_postboxes_.try_emplace(info.id.hex(), box);
  return box;
}

std::shared_ptr<Postbox> CityMeshNetwork::postbox_of(
    const cryptox::SelfCertifyingId& id) const {
  const auto it = primary_postboxes_.find(id.hex());
  return it == primary_postboxes_.end() ? nullptr : it->second;
}

std::shared_ptr<Postbox> CityMeshNetwork::postbox_at(
    const cryptox::SelfCertifyingId& id, BuildingId building) const {
  const auto it = postboxes_.find(registry_key(id, building));
  return it == postboxes_.end() ? nullptr : it->second;
}

void CityMeshNetwork::transmit_counted(Shard& shard, mesh::ApId from,
                                       const std::shared_ptr<const MeshPacket>& packet) {
  // An AP that went down after queuing this rebroadcast (backoff, ack) stays
  // silent: the medium's node filter blocks it, counts it under
  // medium.blocked_transmissions (not transmissions), and traces the drop.
  shard.medium->transmit(from, packet);
}

void CityMeshNetwork::clear_pending_relays() {
  for (const auto& sp : shards_) {
    for (const auto& [key, relay] : sp->pending) sp->sim->cancel(relay.event);
    sp->pending.clear();
  }
}

void CityMeshNetwork::set_ap_status(mesh::ApId id, ApStatus status) {
  ApStatus& slot = ap_status_.at(id);
  if (slot == status) return;
  slot = status;
  aps_up_ += status == ApStatus::kUp ? 1 : -1;
}

std::optional<mesh::ApId> CityMeshNetwork::live_ap(BuildingId building) const {
  const auto rep = aps().representative_ap(city(), building);
  if (!rep) return std::nullopt;
  if (ap_up(*rep)) return rep;
  const geo::Point centroid = city().building(building).centroid;
  std::optional<mesh::ApId> best;
  double best_d2 = std::numeric_limits<double>::infinity();
  for (const mesh::ApId id : aps().aps_of_building(building)) {
    if (!ap_up(id)) continue;
    const double d2 = geo::distance2(aps().ap(id).position, centroid);
    if (d2 < best_d2) {
      best_d2 = d2;
      best = id;
    }
  }
  return best;
}

std::size_t CityMeshNetwork::add_degraded_region(geo::Polygon region, double extra_loss) {
  std::vector<char> members(aps().ap_count(), 0);
  for (const auto& ap : aps().aps()) {
    members[ap.id] = region.contains(ap.position) ? 1 : 0;
  }
  degraded_.push_back({std::move(region), extra_loss, /*active=*/true});
  degraded_members_.push_back(std::move(members));
  return degraded_.size() - 1;
}

void CityMeshNetwork::set_degraded_region_active(std::size_t handle, bool active) {
  degraded_.at(handle).active = active;
}

double CityMeshNetwork::extra_link_loss(mesh::ApId from, mesh::ApId to) const {
  if (degraded_.empty()) return 0.0;
  double pass = 1.0;
  for (std::size_t r = 0; r < degraded_.size(); ++r) {
    if (!degraded_[r].active) continue;
    if (degraded_members_[r][from] || degraded_members_[r][to]) {
      pass *= 1.0 - degraded_[r].extra_loss;
    }
  }
  return 1.0 - pass;
}

void CityMeshNetwork::send_ack_from(Shard& shard, mesh::ApId ap) {
  // The ack originates at the delivering AP, so the sent/delivered flags are
  // shard-local (building-atomic tiling puts every delivery of one message
  // on one tile); merge_shard_deltas() folds them into active_.
  if (shard.direct) active_.ack_sent = true;
  else shard.active.ack_sent = true;
  const double now = shard.sim->now();
  wire::PacketHeader ack;
  ack.message_id = active_.ack_message_id;
  ack.postbox_tag = active_.ack_tag;
  ack.conduit_width_m = active_.conduit_width_m;
  ack.waypoints = active_.ack_waypoints;
  ack.set_flag(wire::PacketFlag::kAck);
  const auto encoded = wire::encode_header(ack);
  // Compile once at build time (decodes the just-encoded bytes so receivers
  // share the canonical decoded header); every reception is then a lookup.
  auto packet = std::make_shared<const MeshPacket>(MeshPacket{
      encoded.bytes, /*payload=*/{}, ack.message_id,
      shard.compiler->compile_bytes(encoded.bytes)});
  shard.n_acks_sent->inc();
  shard.trace->record(obsx::TraceKind::kAck, now, ap, ack.message_id);
  // The originating AP marks the ack as seen (it may also deliver when the
  // sender and recipient share a building) and always transmits it.
  const AgentAction action = agents_[ap].on_receive(*packet, now);
  if (action.delivered && action.message_id == active_.ack_message_id) {
    if (shard.direct) {
      active_.ack_delivered = true;
      n_acks_received_->inc();
    } else {
      shard.active.ack_delivered = true;
    }
  }
  transmit_counted(shard, ap, packet);
}

void CityMeshNetwork::handle_delivery(Shard& s, sim::NodeId to, sim::NodeId from,
                                      const std::shared_ptr<const MeshPacket>& packet) {
  ApAgent& agent = agents_[to];
  const double now = s.sim->now();
  const AgentAction action = agent.on_receive(*packet, now);
  if (action.malformed) {
    // Counted by the compiler (compile.malformed); traced here so corrupt
    // receptions are visible in the event stream instead of vanishing.
    s.trace->record(obsx::TraceKind::kMalformed, now,
                    static_cast<std::uint32_t>(to), packet->trace_id);
    return;
  }

  const auto node = static_cast<std::uint32_t>(to);
  // Link-quality observation hook (etx-priority); a no-op for the others.
  // Every reception AT an AP happens on its own tile, so the per-AP link
  // estimates are complete on the shard policy.
  s.policy->observe({to, from, action.message_id, now});
  if (action.duplicate) {
    s.n_dup_suppressed->inc();
    s.trace->record(obsx::TraceKind::kDupSuppressed, now, node,
                    action.message_id, static_cast<std::uint32_t>(from));
    // Overhear-cancel: this AP holds a pending (backoff-delayed) copy of the
    // same message; the policy judges whether the overheard transmission
    // makes it redundant (same-building radius, copy counter, ...).
    if (!s.pending.empty()) {
      const std::uint64_t key = (std::uint64_t{action.message_id} << 32) | to;
      if (const auto it = s.pending.find(key); it != s.pending.end()) {
        ++it->second.overheard;
        bool cancel;
        if (it->second.greedy) {
          // QF-Geo positional overhear-cancel: a transmitter at least as
          // close to the destination just covered this copy's progress, so
          // the pending forward is redundant. AP positions are immutable,
          // so the test is shard-safe and draw-free.
          const CompiledMessage* msg = packet->compiled.get();
          cancel = true;  // unattributable duplicate: yield conservatively
          if (msg != nullptr && !msg->header.waypoints.empty()) {
            const geo::Point dst =
                compiled_->map.centroid(msg->header.waypoints.back());
            cancel = geo::distance(agents_[from].position(), dst) <=
                     geo::distance(agents_[to].position(), dst);
          }
          if (cancel && s.qf_cancelled != nullptr) s.qf_cancelled->inc();
        } else {
          cancel = s.policy->cancel_on_overhear({to, from, action.message_id, now},
                                                it->second.overheard);
        }
        if (cancel) {
          s.sim->cancel(it->second.event);
          s.pending.erase(it);
          s.n_suppression_cancelled->inc();
          s.trace->record(obsx::TraceKind::kSuppressed, now, node,
                          action.message_id, static_cast<std::uint32_t>(from));
        }
      }
    }
    return;
  }

  if (action.delivered) {
    s.n_postbox_stores->inc(action.delivered_count);
    s.trace->record(obsx::TraceKind::kPostboxStore, now, node,
                    action.message_id,
                    static_cast<std::uint32_t>(action.delivered_count));
    // flows_ / active_ are read-only during tiled windows; non-direct shards
    // write their deltas and merge_shard_deltas() folds them in afterwards
    // (counter values are only observed after runs, so the totals agree).
    if (const auto flow = flows_.find(action.message_id); flow != flows_.end()) {
      if (s.direct) {
        flow->second.postboxes_reached += action.delivered_count;
        if (!flow->second.delivered) {
          flow->second.delivered = true;
          flow->second.delivery_time_s = now;
          n_delivered_->inc();
        }
      } else {
        FlowDelta& delta = s.flow_deltas[action.message_id];
        delta.postboxes_reached += action.delivered_count;
        if (!delta.delivered) {
          delta.delivered = true;
          delta.delivery_time_s = now;
        }
      }
    } else if (action.message_id == active_.message_id) {
      if (s.direct) {
        active_.postboxes_reached += action.delivered_count;
        if (!active_.delivered) {
          active_.delivered = true;
          active_.delivery_time_s = now;
          n_delivered_->inc();
        }
      } else {
        ActiveDelta& delta = s.active;
        delta.postboxes_reached += action.delivered_count;
        if (!delta.delivered) {
          delta.delivered = true;
          delta.delivery_time_s = now;
        }
      }
      const bool ack_sent = s.direct ? active_.ack_sent : s.active.ack_sent;
      if (active_.ack_message_id != 0 && !ack_sent) {
        send_ack_from(s, to);
      }
    } else if (action.message_id == active_.ack_message_id) {
      if (s.direct) {
        if (!active_.ack_delivered) n_acks_received_->inc();
        active_.ack_delivered = true;
      } else {
        s.active.ack_delivered = true;
      }
    }
  }

  if (action.rebroadcast) {
    s.n_rebroadcasts->inc();
    s.trace->record(obsx::TraceKind::kRebroadcast, now, node, action.message_id);
    // QF-Geo networks route in-region receptions through the greedy
    // forwarding election; geo-broadcast floods stay on the policy path
    // (suppression applies only to flood-mode receptions).
    if (config_.protocol == Protocol::kQfgeo &&
        !(action.flags & static_cast<std::uint8_t>(wire::PacketFlag::kBroadcast))) {
      qfgeo_forward(s, to, from, action, now, packet);
    } else {
      policy_relay(s, to, action.message_id, from, now, packet);
    }
  } else {
    s.n_conduit_rejects->inc();
    s.trace->record(obsx::TraceKind::kConduitReject, now, node, action.message_id);
  }
}

void CityMeshNetwork::policy_relay(Shard& s, mesh::ApId to, std::uint32_t message_id,
                                   mesh::ApId from, double now,
                                   const std::shared_ptr<const MeshPacket>& packet) {
  const auto node = static_cast<std::uint32_t>(to);
  const relayx::Decision decision = s.policy->elect({to, from, message_id, now});
  switch (decision.kind) {
    case relayx::Decision::Kind::kRelayNow:
      transmit_counted(s, to, packet);
      break;
    case relayx::Decision::Kind::kDelay: {
      const std::uint64_t key = (std::uint64_t{message_id} << 32) | to;
      s.trace->record(obsx::TraceKind::kElected, now, node, message_id);
      Shard* sp = &s;
      const auto event =
          s.sim->schedule_cancelable_in(decision.delay_s, [this, sp, to, packet, key] {
            sp->pending.erase(key);
            sp->policy->count_fired();
            transmit_counted(*sp, to, packet);
          });
      s.pending[key] = {event, 0};
      break;
    }
    case relayx::Decision::Kind::kSuppress:
      s.trace->record(obsx::TraceKind::kSuppressed, now, node, message_id);
      break;
  }
}

bool CityMeshNetwork::qfgeo_local_minimum(mesh::ApId from, const CompiledMessage& msg,
                                          geo::Point dst) const {
  const double from_d = geo::distance(agents_[from].position(), dst);
  for (const graphx::Edge& edge : aps().graph().neighbors(from)) {
    const auto n = static_cast<mesh::ApId>(edge.to);
    if (!ap_up(n)) continue;
    if (!msg.conduit_member(agents_[n].building())) continue;
    if (geo::distance(agents_[n].position(), dst) < from_d) return false;
  }
  return true;
}

void CityMeshNetwork::qfgeo_forward(Shard& s, mesh::ApId to, mesh::ApId from,
                                    const AgentAction& action, double now,
                                    const std::shared_ptr<const MeshPacket>& packet) {
  const auto node = static_cast<std::uint32_t>(to);
  // Network-built packets always carry their compiled message; hand-built
  // ones compile (memoized) through this shard's service.
  std::shared_ptr<const CompiledMessage> lazily;
  const CompiledMessage* msg = packet->compiled.get();
  if (msg == nullptr) {
    lazily = s.compiler->compile_bytes(packet->header_bytes);
    msg = lazily.get();
  }
  // action.rebroadcast implies in-region membership, which implies valid,
  // non-empty waypoints — the destination is always resolvable here.
  const geo::Point dst = compiled_->map.centroid(msg->header.waypoints.back());
  const double my_d = geo::distance(agents_[to].position(), dst);
  const double from_d = geo::distance(agents_[from].position(), dst);

  if (my_d < from_d) {
    // Positive progress: arm the contention-based greedy election. The
    // delay is a pure function of (geometry, own queue depth) — no RNG
    // draws, and the queue is read from this AP's own shard medium — so
    // tiled runs stay shard-invariant. The closest (least-loaded) receiver
    // fires first; everyone else cancels on overhearing its copy.
    const double delay = qfgeo::forward_delay(config_.qfgeo_forward, my_d, from_d,
                                              s.medium->queued(to));
    const std::uint64_t key = (std::uint64_t{action.message_id} << 32) | to;
    s.trace->record(obsx::TraceKind::kElected, now, node, action.message_id);
    s.qf_candidates->inc();
    Shard* sp = &s;
    const auto event = s.sim->schedule_cancelable_in(delay, [this, sp, to, packet, key] {
      sp->pending.erase(key);
      sp->qf_fired->inc();
      transmit_counted(*sp, to, packet);
    });
    s.pending[key] = {event, 0, /*greedy=*/true};
    return;
  }

  // No progress. If the transmitter is a local minimum — no live in-region
  // neighbor closer to the destination — greedy is stuck and the region
  // falls back to a scoped flood: every in-region receiver relays through
  // the relayx policy (one recovery ring; greedy resumes at any receiver
  // that makes progress relative to the ring's transmitters). Otherwise
  // some sibling made progress and this copy dies here.
  if (qfgeo_local_minimum(from, *msg, dst)) {
    s.qf_fallback_floods->inc();
    policy_relay(s, to, action.message_id, from, now, packet);
    return;
  }
  s.qf_no_progress->inc();
  s.trace->record(obsx::TraceKind::kSuppressed, now, node, action.message_id);
}

// --- Shard-agnostic run driving (src/shardx) -------------------------------

sim::SimTime CityMeshNetwork::sim_now() const {
  return config_.shards > 1 ? shard_now_ : sim_.now();
}

std::size_t CityMeshNetwork::run_until(sim::SimTime until, std::size_t max_events) {
  if (config_.shards <= 1) return sim_.run(until, max_events);
  return run_tiled(until, max_events);
}

void CityMeshNetwork::schedule_control(sim::SimTime at, std::function<void()> fn) {
  if (config_.shards <= 1) {
    sim_.schedule_at(at, std::move(fn));
    return;
  }
  if (at < shard_now_) {
    throw std::runtime_error("schedule_control: time is in the past");
  }
  // Latency-record parity with Simulator::schedule_at, into the network
  // registry (the tiled histogram multiset must match the legacy one).
  metrics_.histogram("sim.event_latency_s", obsx::exponential_buckets(1e-4, 4.0, 10))
      .record(at - shard_now_);
  control_.push_back({at, control_seq_++, std::move(fn)});
  std::push_heap(control_.begin(), control_.end(), control_after);
}

std::size_t CityMeshNetwork::run_tiled(sim::SimTime until, std::size_t max_events) {
  std::size_t executed = 0;
  std::vector<std::size_t> counts(shards_.size(), 0);
  while (executed < max_events) {
    // Barrier exchange first: outboxes may hold handoffs created outside any
    // window — by the synchronous source transmission in run_send/inject, by
    // a control-event handler, or by the last window before a max_events
    // exit. They must be scheduled into their receiving tiles before
    // `earliest` is computed (they may BE the earliest event) and before the
    // quiesce decision below (an undelivered handoff is pending work).
    exchange_handoffs();
    const sim::SimTime control_t = control_.empty() ? sim::kForever : control_.front().time;
    sim::SimTime earliest = sim::kForever;
    for (const auto& sp : shards_) earliest = std::min(earliest, sp->sim->next_time());
    const sim::SimTime next = std::min(control_t, earliest);
    if (next > until || next >= sim::kForever) {
      // Quiesced before the horizon (or nothing left at all): advance every
      // tile clock to the horizon, mirroring Simulator::run on an empty
      // queue, so a later schedule_control lands in the present.
      if (until < sim::kForever) {
        for (const auto& sp : shards_) sp->sim->advance_to(until);
        if (until > shard_now_) shard_now_ = until;
      }
      break;
    }
    if (control_t <= earliest) {
      // Coordinator events run between windows with every tile synchronized
      // to exactly their time: the handler may touch any network state
      // (inject flows, flip AP status, read merged outcomes).
      for (const auto& sp : shards_) sp->sim->advance_to(control_t);
      shard_now_ = control_t;
      merge_shard_deltas();
      while (!control_.empty() && control_.front().time <= control_t) {
        std::pop_heap(control_.begin(), control_.end(), control_after);
        ControlEvent ev = std::move(control_.back());
        control_.pop_back();
        ev.fn();
        ++executed;
      }
      continue;
    }
    // One conservative window [earliest, end): every handoff created inside
    // arrives >= lookahead later, i.e. at or beyond the window end, so the
    // tiles run the window independently in parallel.
    const sim::SimTime cap = std::min(until, control_t);
    const sim::SimTime end =
        lookahead_s_ >= sim::kForever ? cap : std::min(cap, earliest + lookahead_s_);
    const std::size_t budget = max_events - executed;
    window_busy_s_.assign(shards_.size(), 0.0);
    pool_->run(shards_.size(), [&](std::size_t i) {
      const auto t0 = std::chrono::steady_clock::now();
      counts[i] = shards_[i]->sim->run(end, budget);
      window_busy_s_[i] =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    });
    for (const std::size_t c : counts) executed += c;
    // Barrier-idle accounting: every tile waits for the slowest one before
    // the handoff exchange, so the window's idle cost is the gap each tile
    // leaves to the maximum.
    double slowest = 0.0;
    for (const double b : window_busy_s_) slowest = std::max(slowest, b);
    for (const double b : window_busy_s_) barrier_idle_s_ += slowest - b;
    if (end > shard_now_) shard_now_ = end;
  }
  merge_shard_deltas();
  return executed;
}

void CityMeshNetwork::exchange_handoffs() {
  handoff_scratch_.clear();
  for (const auto& sp : shards_) {
    if (sp->outbox.empty()) continue;
    handoff_scratch_.insert(handoff_scratch_.end(),
                            std::make_move_iterator(sp->outbox.begin()),
                            std::make_move_iterator(sp->outbox.end()));
    sp->outbox.clear();
  }
  if (handoff_scratch_.empty()) return;
  // (time, src_tile, seq) is a total order independent of worker scheduling,
  // so the ingestion sequence — and with it every receiving-side seq number —
  // is deterministic.
  std::sort(handoff_scratch_.begin(), handoff_scratch_.end(),
            shardx::handoff_before<MeshPacket>);
  for (shardx::Handoff<MeshPacket>& h : handoff_scratch_) {
    ++handoffs_exchanged_;
    if (record_handoffs_) {
      handoff_log_.push_back(
          {h.time, h.src_tile, h.seq, static_cast<mesh::ApId>(h.to),
           static_cast<mesh::ApId>(h.from), h.packet->trace_id});
    }
    Shard* dsp = shards_[plan_.ap_tile[h.to]].get();
    const sim::NodeId to = h.to;
    const sim::NodeId from = h.from;
    // Latency was recorded on the transmitting shard (remote_fanout), like a
    // local delivery's schedule_in; unrecorded here avoids double counting.
    dsp->sim->schedule_at_unrecorded(
        h.time, [this, dsp, to, from, packet = std::move(h.packet)] {
          // Mirrors the medium's delivery closure: receiver status sampled at
          // delivery time, then the deliveries counter + kRx trace.
          const std::uint32_t pid = packet->trace_id;
          if (!ap_up(to)) {
            dsp->medium_blocked_receptions->inc();
            dsp->trace->record(obsx::TraceKind::kDropFaulted, dsp->sim->now(),
                               static_cast<std::uint32_t>(to), pid,
                               static_cast<std::uint32_t>(from));
            return;
          }
          dsp->medium_deliveries->inc();
          dsp->trace->record(obsx::TraceKind::kRx, dsp->sim->now(),
                             static_cast<std::uint32_t>(to), pid,
                             static_cast<std::uint32_t>(from));
          handle_delivery(*dsp, to, from, packet);
        });
  }
  handoff_scratch_.clear();
}

void CityMeshNetwork::remote_fanout(Shard& shard, sim::NodeId from,
                                    const std::shared_ptr<const MeshPacket>& packet,
                                    sim::SimTime air, std::uint32_t tx_index) {
  const double now = shard.sim->now();
  const sim::MediumConfig& mc = shard.medium->config();
  const std::uint32_t pid = packet->trace_id;
  for (std::size_t i = cross_base_[from]; i < cross_base_[from + 1]; ++i) {
    const shardx::CrossLink& link = cross_links_[i];
    // Same loss/jitter math as BroadcastMedium::begin_transmission, keyed on
    // the identical link_unit inputs — a cut edge suffers exactly the fate
    // it would as a tile-local edge, whatever K is.
    double loss = mc.loss_probability;
    const double extra = extra_link_loss(from, link.to);
    if (extra > 0.0) loss = 1.0 - (1.0 - loss) * (1.0 - extra);
    if (loss > 0.0 && sim::link_unit(mc.seed, from, link.to, tx_index, 0) < loss) {
      shard.medium_losses->inc();
      shard.trace->record(obsx::TraceKind::kDropLoss, now,
                          static_cast<std::uint32_t>(link.to), pid,
                          static_cast<std::uint32_t>(from));
      continue;
    }
    sim::SimTime jitter = 0.0;
    if (mc.jitter_s > 0.0) {
      jitter = sim::link_unit(mc.seed ^ sim::kJitterStream, from, link.to, tx_index, 1) *
               mc.jitter_s;
    }
    const sim::SimTime delay = air + mc.prop_delay_s_per_m * link.length_m + jitter;
    if (shard.h_latency != nullptr) shard.h_latency->record(delay);
    shard.outbox.push_back({now + delay, shard.tile, shard.handoff_seq++, link.to,
                            from, packet});
  }
}

void CityMeshNetwork::merge_shard_deltas() {
  if (config_.shards <= 1) return;
  for (const auto& sp : shards_) {
    ActiveDelta& d = sp->active;
    active_.postboxes_reached += d.postboxes_reached;
    if (d.delivered) {
      if (!active_.delivered) {
        active_.delivered = true;
        active_.delivery_time_s = d.delivery_time_s;
        n_delivered_->inc();
      } else if (d.delivery_time_s < active_.delivery_time_s) {
        // Geo-broadcasts deliver on several tiles; first delivery wins, as
        // in global event order.
        active_.delivery_time_s = d.delivery_time_s;
      }
    }
    if (d.ack_sent) active_.ack_sent = true;
    if (d.ack_delivered && !active_.ack_delivered) {
      active_.ack_delivered = true;
      n_acks_received_->inc();
    }
    d = ActiveDelta{};
    for (auto& [id, fd] : sp->flow_deltas) {
      const auto it = flows_.find(id);
      if (it == flows_.end()) continue;
      FlowState& fs = it->second;
      fs.postboxes_reached += fd.postboxes_reached;
      fs.transmissions += fd.transmissions;
      if (fd.delivered) {
        if (!fs.delivered) {
          fs.delivered = true;
          fs.delivery_time_s = fd.delivery_time_s;
          n_delivered_->inc();
        } else if (fd.delivery_time_s < fs.delivery_time_s) {
          fs.delivery_time_s = fd.delivery_time_s;
        }
      }
    }
    sp->flow_deltas.clear();
  }
}

obsx::MetricsSnapshot CityMeshNetwork::merged_metrics() const {
  obsx::MetricsSnapshot snap = metrics_.snapshot();
  if (config_.shards > 1) {
    // Tile order: merge() sums counters and bucket-wise histograms, and the
    // shard registries only register keys the network registry also has, so
    // the merged key set equals the legacy one. Shard snapshots are combined
    // with each other first: their quantized histogram sums add exactly, so
    // the cross-shard total is identical for every K >= 2, and only then is
    // that one exact total added to the coordinator's sum.
    obsx::MetricsSnapshot across;
    for (const auto& sp : shards_) across.merge(sp->metrics->snapshot());
    snap.merge(across);
  }
  return snap;
}

std::vector<obsx::TraceEvent> CityMeshNetwork::merged_trace_events() const {
  if (config_.shards <= 1) return trace_.events();
  std::vector<obsx::TraceEvent> out;
  for (const auto& sp : shards_) {
    const auto events = sp->trace->events();
    out.insert(out.end(), events.begin(), events.end());
  }
  // Each shard stream is internally time-ordered; a stable sort on time
  // keeps tile order for equal-time events — deterministic for a fixed K.
  std::stable_sort(out.begin(), out.end(),
                   [](const obsx::TraceEvent& a, const obsx::TraceEvent& b) {
                     return a.time_s < b.time_s;
                   });
  return out;
}

void CityMeshNetwork::set_tracing(bool on) {
  if (config_.shards <= 1) {
    trace_.enable(on);
    return;
  }
  for (const auto& sp : shards_) sp->trace->enable(on);
}

bool CityMeshNetwork::tracing_enabled() const {
  return config_.shards > 1 ? shards_.front()->trace->enabled() : trace_.enabled();
}

CityMeshNetwork::MediumTotals CityMeshNetwork::medium_totals() const {
  MediumTotals totals;
  if (config_.shards <= 1) {
    totals.transmissions = medium_.transmissions();
    totals.deliveries = medium_.deliveries();
    totals.deferrals = medium_.deferrals();
    totals.queue_drops = medium_.queue_drops();
    totals.airtime_s = medium_.total_airtime_s();
    return totals;
  }
  for (const auto& sp : shards_) {
    totals.transmissions += sp->medium->transmissions();
    totals.deliveries += sp->medium->deliveries();
    totals.deferrals += sp->medium->deferrals();
    totals.queue_drops += sp->medium->queue_drops();
    totals.airtime_s += sp->medium->total_airtime_s();
  }
  return totals;
}

SendOutcome CityMeshNetwork::run_send(BuildingId from_building, const PostboxInfo& to,
                                      std::span<const std::uint8_t> payload,
                                      const SendOptions& opts, std::uint8_t extra_flags,
                                      std::uint32_t broadcast_radius_m) {
  SendOutcome outcome;

  const ConduitConfig conduit{opts.conduit_width.value_or(config_.conduit.width_m)};
  std::optional<PlannedRoute> route;
  if (config_.protocol == Protocol::kQfgeo) {
    // Geographic routing plans no route: the header carries only the source
    // and destination buildings, and the forwarding region is derived from
    // their centroids at compile time (src/qfgeo). The conduit width rides
    // along as a valid wire field but scopes nothing.
    PlannedRoute r;
    r.buildings = {from_building, to.building};
    r.waypoints = {from_building, to.building};
    r.conduit_width_m = conduit.width_m;
    r.header_bits = route_header_bits(r.waypoints, r.conduit_width_m);
    route = std::move(r);
  } else {
    const RoutePlanner planner{compiled_->map, conduit, &spt_cache_};
    route = opts.compress ? planner.plan(from_building, to.building)
                          : planner.plan_uncompressed(from_building, to.building);
  }
  if (!route) return outcome;
  outcome.route_found = true;
  outcome.route = *route;

  // The sender's device associates with a *live* AP of its building; when
  // every AP there is down (blackout at the source) the send fails upfront.
  const auto src_ap = live_ap(from_building);
  if (!src_ap) return outcome;
  outcome.source_has_ap = true;

  // Build the packet. Message ids derive from (seed, sequence) — stable
  // across runs and independent of unrelated RNG draws, so trace packet ids
  // are reproducible.
  wire::PacketHeader header;
  header.message_id = wire::derive_message_id(config_.seed, ++send_seq_);
  header.postbox_tag = to.id.tag();
  header.conduit_width_m = route->conduit_width_m;
  header.waypoints = route->waypoints;
  header.flags |= extra_flags;
  header.broadcast_radius_m = broadcast_radius_m;
  if (opts.urgent) header.set_flag(wire::PacketFlag::kUrgent);
  if (opts.request_ack) header.set_flag(wire::PacketFlag::kAckRequest);
  const auto encoded = wire::encode_header(header);
  outcome.header_bits = encoded.bit_count;

  auto packet = std::make_shared<const MeshPacket>(MeshPacket{
      encoded.bytes, std::vector<std::uint8_t>{payload.begin(), payload.end()},
      header.message_id, compiler_.compile_bytes(encoded.bytes)});

  outcome.message_id = header.message_id;

  // Reset per-send bookkeeping.
  active_ = ActiveSend{};
  clear_pending_relays();
  for (const auto& sp : shards_) sp->active = ActiveDelta{};
  active_.message_id = header.message_id;
  active_.conduit_width_m = route->conduit_width_m;
  if (opts.request_ack && opts.ack_to) {
    active_.ack_message_id = wire::derive_message_id(config_.seed, ++send_seq_);
    active_.ack_tag = opts.ack_to->id.tag();
    active_.ack_waypoints.assign(route->waypoints.rbegin(), route->waypoints.rend());
    outcome.ack_message_id = active_.ack_message_id;
  }

  n_sends_->inc();
  h_header_bits_->record(static_cast<double>(encoded.bit_count));

  // Per-AP roles are reconstructed from the trace stream; borrow the trace
  // for this send when the caller didn't already turn it on.
  const bool borrow_trace = opts.collect_trace && !tracing_enabled();
  if (borrow_trace) set_tracing(true);
  const std::uint64_t trace_mark = trace_.recorded();
  const std::size_t tx_before = medium_totals().transmissions;

  // Origination happens at the source AP's shard, so the trace stream and
  // the ack flood stay on that tile (coordinator context: no worker runs).
  Shard& src_shard = shard_for(*src_ap);
  const double t0 = sim_now();
  src_shard.trace->record(obsx::TraceKind::kOriginate, t0,
                          static_cast<std::uint32_t>(*src_ap), header.message_id);

  // The source AP processes its own packet (marks it seen, may deliver when
  // sender and recipient share a building) and always performs the initial
  // broadcast.
  ApAgent& src_agent = agents_[*src_ap];
  const AgentAction first = src_agent.on_receive(*packet, t0);
  if (first.delivered) {
    // Pre-run self-delivery runs in coordinator context, so it writes the
    // network-level state directly in both modes.
    active_.delivered = true;
    active_.delivery_time_s = t0;
    active_.postboxes_reached += first.delivered_count;
    n_delivered_->inc();
    n_postbox_stores_->inc(first.delivered_count);
    src_shard.trace->record(obsx::TraceKind::kPostboxStore, t0,
                            static_cast<std::uint32_t>(*src_ap), header.message_id,
                            static_cast<std::uint32_t>(first.delivered_count));
    if (active_.ack_message_id != 0) send_ack_from(src_shard, *src_ap);
  }
  transmit_counted(src_shard, *src_ap, packet);

  run_until(t0 + config_.max_sim_time_s, config_.max_events_per_send);

  outcome.delivered = active_.delivered;
  outcome.delivery_time_s = active_.delivery_time_s;
  // The medium's counter is the single source of truth for transmissions;
  // this send's share is the delta (includes the ack's flood, like before).
  outcome.transmissions = medium_totals().transmissions - tx_before;
  outcome.ack_received = active_.ack_delivered;

  if (opts.collect_trace) {
    TraceRoles roles;
    if (config_.shards > 1) {
      // Tiled runs: merge every shard's stream (deterministic order) and
      // filter by message id — the per-send tail optimization below assumes
      // one ring.
      const auto merged = merged_trace_events();
      roles = roles_from_trace({merged.data(), merged.size()}, header.message_id);
    } else {
      // Events this send appended: the tail of the ring. A wrap can only
      // lose the oldest of them (capacity is sized generously above).
      const auto events = trace_.events();
      const std::uint64_t fresh = trace_.recorded() - trace_mark;
      const std::size_t take =
          static_cast<std::size_t>(std::min<std::uint64_t>(fresh, events.size()));
      roles = roles_from_trace(
          std::span<const obsx::TraceEvent>{events.data() + (events.size() - take), take},
          header.message_id);
    }
    outcome.rebroadcast_aps = std::move(roles.rebroadcast);
    outcome.received_only_aps = std::move(roles.received_only);
    if (borrow_trace) set_tracing(false);
  }

  // Ideal unicast hop count: shortest AP path from the source AP to the
  // closest AP in the destination building.
  const auto sp = graphx::bfs(aps().graph(), *src_ap);
  double best = graphx::kInfiniteDistance;
  for (const mesh::ApId dst : aps().aps_of_building(to.building)) {
    best = std::min(best, sp.distance[dst]);
  }
  if (best < graphx::kInfiniteDistance) {
    outcome.min_hops = static_cast<std::size_t>(best);
    h_min_hops_->record(best);
  }
  if (outcome.delivered) {
    h_tx_per_delivery_->record(static_cast<double>(outcome.transmissions));
  }
  return outcome;
}

SendOutcome CityMeshNetwork::send(BuildingId from_building, const PostboxInfo& to,
                                  std::span<const std::uint8_t> payload,
                                  const SendOptions& opts) {
  return run_send(from_building, to, payload, opts, /*extra_flags=*/0,
                  /*broadcast_radius_m=*/0);
}

InjectResult CityMeshNetwork::inject(BuildingId from_building, const PostboxInfo& to,
                                     std::span<const std::uint8_t> payload,
                                     const SendOptions& opts) {
  InjectResult result;

  const ConduitConfig conduit{opts.conduit_width.value_or(config_.conduit.width_m)};
  std::optional<PlannedRoute> route;
  if (config_.protocol == Protocol::kQfgeo) {
    PlannedRoute r;
    r.buildings = {from_building, to.building};
    r.waypoints = {from_building, to.building};
    r.conduit_width_m = conduit.width_m;
    r.header_bits = route_header_bits(r.waypoints, r.conduit_width_m);
    route = std::move(r);
  } else {
    const RoutePlanner planner{compiled_->map, conduit, &spt_cache_};
    route = opts.compress ? planner.plan(from_building, to.building)
                          : planner.plan_uncompressed(from_building, to.building);
  }
  if (!route) return result;
  result.route_found = true;

  const auto src_ap = live_ap(from_building);
  if (!src_ap) return result;
  result.source_has_ap = true;

  wire::PacketHeader header;
  header.message_id = wire::derive_message_id(config_.seed, ++send_seq_);
  header.postbox_tag = to.id.tag();
  header.conduit_width_m = route->conduit_width_m;
  header.waypoints = route->waypoints;
  if (opts.urgent) header.set_flag(wire::PacketFlag::kUrgent);
  const auto encoded = wire::encode_header(header);
  result.message_id = header.message_id;
  result.header_bits = encoded.bit_count;

  auto packet = std::make_shared<const MeshPacket>(MeshPacket{
      encoded.bytes, std::vector<std::uint8_t>{payload.begin(), payload.end()},
      header.message_id, compiler_.compile_bytes(encoded.bytes)});

  FlowState& flow = flows_[header.message_id];
  const double t0 = sim_now();
  flow.injected_at_s = t0;

  Shard& src_shard = shard_for(*src_ap);
  n_sends_->inc();
  h_header_bits_->record(static_cast<double>(encoded.bit_count));
  src_shard.trace->record(obsx::TraceKind::kOriginate, t0,
                          static_cast<std::uint32_t>(*src_ap), header.message_id);

  // The source AP processes its own packet (marks it seen, may deliver when
  // sender and recipient share a building) and performs the initial
  // broadcast; the caller runs the simulator. Injection happens in
  // coordinator context (between windows), so flow state is written
  // directly in both modes.
  ApAgent& src_agent = agents_[*src_ap];
  const AgentAction first = src_agent.on_receive(*packet, t0);
  if (first.delivered) {
    flow.delivered = true;
    flow.delivery_time_s = t0;
    flow.postboxes_reached += first.delivered_count;
    n_delivered_->inc();
    n_postbox_stores_->inc(first.delivered_count);
    src_shard.trace->record(obsx::TraceKind::kPostboxStore, t0,
                            static_cast<std::uint32_t>(*src_ap), header.message_id,
                            static_cast<std::uint32_t>(first.delivered_count));
  }
  transmit_counted(src_shard, *src_ap, packet);
  return result;
}

const FlowState* CityMeshNetwork::flow_state(std::uint32_t message_id) const {
  const auto it = flows_.find(message_id);
  return it == flows_.end() ? nullptr : &it->second;
}

ReliableOutcome CityMeshNetwork::send_reliable(BuildingId from_building,
                                               const PostboxInfo& to,
                                               std::span<const std::uint8_t> payload,
                                               const PostboxInfo& ack_to,
                                               std::span<const double> widths) {
  ReliableOutcome result;
  for (const double width : widths) {
    ++result.attempts;
    SendOptions opts;
    opts.conduit_width = width;
    opts.request_ack = true;
    opts.ack_to = ack_to;
    SendOutcome outcome = send(from_building, to, payload, opts);
    result.delivered = result.delivered || outcome.delivered;
    const bool acked = outcome.ack_received;
    result.tries.push_back(std::move(outcome));
    if (acked) {
      result.acknowledged = true;
      break;
    }
  }
  return result;
}

BroadcastOutcome CityMeshNetwork::broadcast(BuildingId from_building,
                                            BuildingId center_building, double radius_m,
                                            std::span<const std::uint8_t> payload,
                                            bool urgent) {
  // A broadcast is addressed to a region, not a postbox: route to the center
  // building and flood the disc around it. The postbox tag is unused (0).
  PostboxInfo region{};
  region.building = center_building;
  SendOptions opts;
  opts.urgent = urgent;
  const auto radius =
      static_cast<std::uint32_t>(std::max(0.0, std::min(radius_m, 100'000.0)));
  const SendOutcome raw =
      run_send(from_building, region, payload, opts,
               static_cast<std::uint8_t>(wire::PacketFlag::kBroadcast), radius);
  BroadcastOutcome outcome;
  outcome.route_found = raw.route_found;
  outcome.source_has_ap = raw.source_has_ap;
  outcome.message_id = raw.message_id;
  outcome.transmissions = raw.transmissions;
  outcome.postboxes_reached = active_.postboxes_reached;
  outcome.route = raw.route;
  return outcome;
}

SendOutcome CityMeshNetwork::send_location_update(const PostboxInfo& home,
                                                  BuildingId current_building) {
  const std::array<std::uint8_t, 4> payload{
      static_cast<std::uint8_t>(current_building),
      static_cast<std::uint8_t>(current_building >> 8),
      static_cast<std::uint8_t>(current_building >> 16),
      static_cast<std::uint8_t>(current_building >> 24)};
  SendOptions opts;
  return run_send(current_building, home, payload, opts,
                  static_cast<std::uint8_t>(wire::PacketFlag::kLocationUpdate),
                  /*broadcast_radius_m=*/0);
}

std::size_t CityMeshNetwork::forward_pending(const PostboxInfo& home,
                                             const PostboxInfo& temp) {
  const auto home_box = postbox_at(home.id, home.building);
  if (!home_box) return 0;
  std::size_t arrived = 0;
  for (const auto& stored : home_box->retrieve()) {
    if (stored.flags & static_cast<std::uint8_t>(wire::PacketFlag::kLocationUpdate)) {
      continue;  // housekeeping, not mail
    }
    SendOptions opts;
    opts.urgent = stored.urgent;
    const auto outcome =
        send(home.building, temp,
             {stored.sealed_payload.data(), stored.sealed_payload.size()}, opts);
    if (outcome.delivered) ++arrived;
  }
  return arrived;
}

void CityMeshNetwork::compromise_building(BuildingId building, AgentBehavior behavior) {
  for (const mesh::ApId id : aps().aps_of_building(building)) {
    agents_[id].set_behavior(behavior);
  }
}

}  // namespace citymesh::core
