#include "core/network.hpp"

#include <algorithm>
#include <array>
#include <limits>
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
  medium_.set_delivery_handler(
      [this](sim::NodeId to, sim::NodeId from,
             const std::shared_ptr<const MeshPacket>& packet) {
        handle_delivery(to, from, packet);
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

  // Rebroadcast policy (src/relayx). The policy draws from the network seed.
  // The relayx.* counters are bound into metrics_ for non-flood policies only,
  // mirroring the MessageCompiler precedent: snapshot() serializes every
  // registered counter, and flood manifests must stay byte-identical to the
  // pre-relayx pipeline.
  relayx::PolicyConfig relay = config_.relay;
  relay.seed = config_.seed;
  policy_ = relayx::make_policy(relay, compiled_->aps);
  if (policy_->kind() != relayx::PolicyKind::kFlood) {
    policy_->bind_metrics(metrics_);
  }

  // Observability wiring: the medium's tally *is* the network's medium.*
  // metric set, and the medium stamps trace events with the packet's
  // decoded message id.
  medium_.bind_metrics(metrics_);
  medium_.set_trace(&trace_, [](const MeshPacket& p) { return p.trace_id; });
  // Airtime accounting charges the packet's wire size (contention model).
  medium_.set_packet_bits([](const MeshPacket& p) {
    return (p.header_bytes.size() + p.payload.size()) * 8;
  });
  sim_.set_latency_histogram(
      &metrics_.histogram("sim.event_latency_s", obsx::exponential_buckets(1e-4, 4.0, 10)));
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

  // Registered only under Protocol::kQfgeo, following the relayx precedent:
  // snapshot() serializes every registered counter, and conduit manifests
  // must stay byte-identical to the pre-qfgeo pipeline (golden digest gate).
  if (config_.protocol == Protocol::kQfgeo) {
    qf_candidates_ = &metrics_.counter("qfgeo.candidates");
    qf_fired_ = &metrics_.counter("qfgeo.fired");
    qf_cancelled_ = &metrics_.counter("qfgeo.cancelled");
    qf_no_progress_ = &metrics_.counter("qfgeo.no_progress");
    qf_fallback_floods_ = &metrics_.counter("qfgeo.fallback_floods");
  }
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

void CityMeshNetwork::transmit_counted(mesh::ApId from,
                                       const std::shared_ptr<const MeshPacket>& packet) {
  // An AP that went down after queuing this rebroadcast (backoff, ack) stays
  // silent: the medium's node filter blocks it, counts it under
  // medium.blocked_transmissions (not transmissions), and traces the drop.
  medium_.transmit(from, packet);
}

void CityMeshNetwork::clear_pending_relays() {
  for (const auto& [key, relay] : pending_) sim_.cancel(relay.event);
  pending_.clear();
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

void CityMeshNetwork::send_ack_from(mesh::ApId ap) {
  active_.ack_sent = true;
  const double now = sim_.now();
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
      compiler_.compile_bytes(encoded.bytes)});
  n_acks_sent_->inc();
  trace_.record(obsx::TraceKind::kAck, now, ap, ack.message_id);
  // The originating AP marks the ack as seen (it may also deliver when the
  // sender and recipient share a building) and always transmits it.
  const AgentAction action = agents_[ap].on_receive(*packet, now);
  if (action.delivered && action.message_id == active_.ack_message_id) {
    active_.ack_delivered = true;
    n_acks_received_->inc();
  }
  transmit_counted(ap, packet);
}

void CityMeshNetwork::handle_delivery(sim::NodeId to, sim::NodeId from,
                                      const std::shared_ptr<const MeshPacket>& packet) {
  ApAgent& agent = agents_[to];
  const double now = sim_.now();
  const AgentAction action = agent.on_receive(*packet, now);
  if (action.malformed) {
    // Counted by the compiler (compile.malformed); traced here so corrupt
    // receptions are visible in the event stream instead of vanishing.
    trace_.record(obsx::TraceKind::kMalformed, now, static_cast<std::uint32_t>(to),
                  packet->trace_id);
    return;
  }

  const auto node = static_cast<std::uint32_t>(to);
  // Link-quality observation hook (etx-priority); a no-op for the others.
  policy_->observe({to, from, action.message_id, now});
  if (action.duplicate) {
    n_dup_suppressed_->inc();
    trace_.record(obsx::TraceKind::kDupSuppressed, now, node, action.message_id,
                  static_cast<std::uint32_t>(from));
    // Overhear-cancel: this AP holds a pending (backoff-delayed) copy of the
    // same message; the policy judges whether the overheard transmission
    // makes it redundant (same-building radius, copy counter, ...).
    if (!pending_.empty()) {
      const std::uint64_t key = (std::uint64_t{action.message_id} << 32) | to;
      if (const auto it = pending_.find(key); it != pending_.end()) {
        ++it->second.overheard;
        bool cancel;
        if (it->second.greedy) {
          // QF-Geo positional overhear-cancel: a transmitter at least as
          // close to the destination just covered this copy's progress, so
          // the pending forward is redundant. AP positions are immutable,
          // so the test is draw-free.
          const CompiledMessage* msg = packet->compiled.get();
          cancel = true;  // unattributable duplicate: yield conservatively
          if (msg != nullptr && !msg->header.waypoints.empty()) {
            const geo::Point dst =
                compiled_->map.centroid(msg->header.waypoints.back());
            cancel = geo::distance(agents_[from].position(), dst) <=
                     geo::distance(agents_[to].position(), dst);
          }
          if (cancel && qf_cancelled_ != nullptr) qf_cancelled_->inc();
        } else {
          cancel = policy_->cancel_on_overhear({to, from, action.message_id, now},
                                               it->second.overheard);
        }
        if (cancel) {
          sim_.cancel(it->second.event);
          pending_.erase(it);
          n_suppression_cancelled_->inc();
          trace_.record(obsx::TraceKind::kSuppressed, now, node, action.message_id,
                        static_cast<std::uint32_t>(from));
        }
      }
    }
    return;
  }

  if (action.delivered) {
    n_postbox_stores_->inc(action.delivered_count);
    trace_.record(obsx::TraceKind::kPostboxStore, now, node, action.message_id,
                  static_cast<std::uint32_t>(action.delivered_count));
    if (const auto flow = flows_.find(action.message_id); flow != flows_.end()) {
      flow->second.postboxes_reached += action.delivered_count;
      if (!flow->second.delivered) {
        flow->second.delivered = true;
        flow->second.delivery_time_s = now;
        n_delivered_->inc();
      }
    } else if (action.message_id == active_.message_id) {
      active_.postboxes_reached += action.delivered_count;
      if (!active_.delivered) {
        active_.delivered = true;
        active_.delivery_time_s = now;
        n_delivered_->inc();
      }
      if (active_.ack_message_id != 0 && !active_.ack_sent) {
        send_ack_from(to);
      }
    } else if (action.message_id == active_.ack_message_id) {
      if (!active_.ack_delivered) n_acks_received_->inc();
      active_.ack_delivered = true;
    }
  }

  if (action.rebroadcast) {
    n_rebroadcasts_->inc();
    trace_.record(obsx::TraceKind::kRebroadcast, now, node, action.message_id);
    // QF-Geo networks route in-region receptions through the greedy
    // forwarding election; geo-broadcast floods stay on the policy path
    // (suppression applies only to flood-mode receptions).
    if (config_.protocol == Protocol::kQfgeo &&
        !(action.flags & static_cast<std::uint8_t>(wire::PacketFlag::kBroadcast))) {
      qfgeo_forward(to, from, action, now, packet);
    } else {
      policy_relay(to, action.message_id, from, now, packet);
    }
  } else {
    n_conduit_rejects_->inc();
    trace_.record(obsx::TraceKind::kConduitReject, now, node, action.message_id);
  }
}

void CityMeshNetwork::policy_relay(mesh::ApId to, std::uint32_t message_id,
                                   mesh::ApId from, double now,
                                   const std::shared_ptr<const MeshPacket>& packet) {
  const auto node = static_cast<std::uint32_t>(to);
  const relayx::Decision decision = policy_->elect({to, from, message_id, now});
  switch (decision.kind) {
    case relayx::Decision::Kind::kRelayNow:
      transmit_counted(to, packet);
      break;
    case relayx::Decision::Kind::kDelay: {
      const std::uint64_t key = (std::uint64_t{message_id} << 32) | to;
      trace_.record(obsx::TraceKind::kElected, now, node, message_id);
      const auto event =
          sim_.schedule_cancelable_in(decision.delay_s, [this, to, packet, key] {
            pending_.erase(key);
            policy_->count_fired();
            transmit_counted(to, packet);
          });
      pending_[key] = {event, 0};
      break;
    }
    case relayx::Decision::Kind::kSuppress:
      trace_.record(obsx::TraceKind::kSuppressed, now, node, message_id);
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

void CityMeshNetwork::qfgeo_forward(mesh::ApId to, mesh::ApId from,
                                    const AgentAction& action, double now,
                                    const std::shared_ptr<const MeshPacket>& packet) {
  const auto node = static_cast<std::uint32_t>(to);
  // Network-built packets always carry their compiled message; hand-built
  // ones compile (memoized) through the network's service.
  std::shared_ptr<const CompiledMessage> lazily;
  const CompiledMessage* msg = packet->compiled.get();
  if (msg == nullptr) {
    lazily = compiler_.compile_bytes(packet->header_bytes);
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
    // draws. The closest (least-loaded) receiver fires first; everyone else
    // cancels on overhearing its copy.
    const double delay = qfgeo::forward_delay(config_.qfgeo_forward, my_d, from_d,
                                              medium_.queued(to));
    const std::uint64_t key = (std::uint64_t{action.message_id} << 32) | to;
    trace_.record(obsx::TraceKind::kElected, now, node, action.message_id);
    qf_candidates_->inc();
    const auto event = sim_.schedule_cancelable_in(delay, [this, to, packet, key] {
      pending_.erase(key);
      qf_fired_->inc();
      transmit_counted(to, packet);
    });
    pending_[key] = {event, 0, /*greedy=*/true};
    return;
  }

  // No progress. If the transmitter is a local minimum — no live in-region
  // neighbor closer to the destination — greedy is stuck and the region
  // falls back to a scoped flood: every in-region receiver relays through
  // the relayx policy (one recovery ring; greedy resumes at any receiver
  // that makes progress relative to the ring's transmitters). Otherwise
  // some sibling made progress and this copy dies here.
  if (qfgeo_local_minimum(from, *msg, dst)) {
    qf_fallback_floods_->inc();
    policy_relay(to, action.message_id, from, now, packet);
    return;
  }
  qf_no_progress_->inc();
  trace_.record(obsx::TraceKind::kSuppressed, now, node, action.message_id);
}

CityMeshNetwork::MediumTotals CityMeshNetwork::medium_totals() const {
  MediumTotals totals;
  totals.transmissions = medium_.transmissions();
  totals.deliveries = medium_.deliveries();
  totals.deferrals = medium_.deferrals();
  totals.queue_drops = medium_.queue_drops();
  totals.airtime_s = medium_.total_airtime_s();
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
  const bool borrow_trace = opts.collect_trace && !trace_.enabled();
  if (borrow_trace) trace_.enable(true);
  const std::uint64_t trace_mark = trace_.recorded();
  const std::size_t tx_before = medium_.transmissions();

  const double t0 = sim_.now();
  trace_.record(obsx::TraceKind::kOriginate, t0, static_cast<std::uint32_t>(*src_ap),
                header.message_id);

  // The source AP processes its own packet (marks it seen, may deliver when
  // sender and recipient share a building) and always performs the initial
  // broadcast.
  ApAgent& src_agent = agents_[*src_ap];
  const AgentAction first = src_agent.on_receive(*packet, t0);
  if (first.delivered) {
    active_.delivered = true;
    active_.delivery_time_s = t0;
    active_.postboxes_reached += first.delivered_count;
    n_delivered_->inc();
    n_postbox_stores_->inc(first.delivered_count);
    trace_.record(obsx::TraceKind::kPostboxStore, t0, static_cast<std::uint32_t>(*src_ap),
                  header.message_id, static_cast<std::uint32_t>(first.delivered_count));
    if (active_.ack_message_id != 0) send_ack_from(*src_ap);
  }
  transmit_counted(*src_ap, packet);

  sim_.run(t0 + config_.max_sim_time_s, config_.max_events_per_send);

  outcome.delivered = active_.delivered;
  outcome.delivery_time_s = active_.delivery_time_s;
  // The medium's counter is the single source of truth for transmissions;
  // this send's share is the delta (includes the ack's flood, like before).
  outcome.transmissions = medium_.transmissions() - tx_before;
  outcome.ack_received = active_.ack_delivered;

  if (opts.collect_trace) {
    // Events this send appended: the tail of the ring. A wrap can only lose
    // the oldest of them (capacity is sized generously above).
    const auto events = trace_.events();
    const std::uint64_t fresh = trace_.recorded() - trace_mark;
    const std::size_t take =
        static_cast<std::size_t>(std::min<std::uint64_t>(fresh, events.size()));
    TraceRoles roles = roles_from_trace(
        std::span<const obsx::TraceEvent>{events.data() + (events.size() - take), take},
        header.message_id);
    outcome.rebroadcast_aps = std::move(roles.rebroadcast);
    outcome.received_only_aps = std::move(roles.received_only);
    if (borrow_trace) trace_.enable(false);
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
  const double t0 = sim_.now();
  flow.injected_at_s = t0;

  n_sends_->inc();
  h_header_bits_->record(static_cast<double>(encoded.bit_count));
  trace_.record(obsx::TraceKind::kOriginate, t0, static_cast<std::uint32_t>(*src_ap),
                header.message_id);

  // The source AP processes its own packet (marks it seen, may deliver when
  // sender and recipient share a building) and performs the initial
  // broadcast; the caller runs the simulator.
  ApAgent& src_agent = agents_[*src_ap];
  const AgentAction first = src_agent.on_receive(*packet, t0);
  if (first.delivered) {
    flow.delivered = true;
    flow.delivery_time_s = t0;
    flow.postboxes_reached += first.delivered_count;
    n_delivered_->inc();
    n_postbox_stores_->inc(first.delivered_count);
    trace_.record(obsx::TraceKind::kPostboxStore, t0, static_cast<std::uint32_t>(*src_ap),
                  header.message_id, static_cast<std::uint32_t>(first.delivered_count));
  }
  transmit_counted(*src_ap, packet);
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
