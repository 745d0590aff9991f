// End-to-end CityMesh network facade (§3 steps 1-4 over the §4 simulator).
//
// Owns the full stack for one city: the building graph (map-derived routing
// state), the realized AP placement (ground truth), one ApAgent per AP, the
// discrete-event broadcast medium, and the postbox registry. `send` runs one
// message through the whole pipeline — plan, compress, encode, inject,
// event-simulate the conduit flood — and reports the paper's metrics
// (delivery, transmission overhead vs. the ideal unicast path, header bits).
//
// Beyond the paper's baseline, the facade implements three §6/future-work
// extensions:
//   - acknowledgments: the destination sends an ack back along the reversed
//     conduit (PacketFlag::kAckRequest), and `send_reliable` escalates the
//     conduit width until an ack arrives;
//   - geo-broadcast: `broadcast` floods a disc around a center building,
//     reaching every postbox in the region (emergency notices, §1);
//   - rebroadcast suppression: every rebroadcast decision runs through a
//     pluggable relayx::RebroadcastPolicy (NetworkConfig::relay) — flood
//     reproduces the paper byte-for-byte, the suppression policies implement
//     the "currently all the APs within a building rebroadcast ... this
//     overhead can be reduced" reduction.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <unordered_map>

#include "core/ap_agent.hpp"
#include "core/building_graph.hpp"
#include "core/compiled_message.hpp"
#include "core/postbox.hpp"
#include "core/route_planner.hpp"
#include "mesh/ap_network.hpp"
#include "obsx/metrics.hpp"
#include "obsx/trace.hpp"
#include "qfgeo/qfgeo.hpp"
#include "relayx/policy.hpp"
#include "sim/medium.hpp"
#include "sim/simulator.hpp"

namespace citymesh::core {

/// Live operational state of one AP. APs start up; disaster scenarios
/// (src/faultx) flip them down and back over simulated time. A down AP
/// neither receives nor rebroadcasts — links involving it are filtered at
/// transmit/delivery time by the medium, never baked into the mesh.
enum class ApStatus : std::uint8_t {
  kUp,
  kDown,
};

/// A region whose radio links are degraded (interference, partial power):
/// every link with an endpoint inside suffers `extra_loss` on top of the
/// medium's base loss probability.
struct DegradedRegion {
  geo::Polygon region;
  double extra_loss = 0.0;
  bool active = true;
};

/// The live protocol family a network runs (src/qfgeo is the second one).
/// kConduit is the paper's conduit-scoped flood — the default, and the
/// byte-identical legacy code path (golden-digest gated). kQfgeo replaces
/// route planning with QF-Geo bounded-region greedy forwarding: the header
/// carries only {source, destination} waypoints, the compiled membership
/// set becomes the forwarding ellipse, and in-region receivers elect a
/// forwarder by distance-to-destination with a queue-occupancy penalty,
/// falling back to a scoped in-region flood at local minima.
enum class Protocol : std::uint8_t {
  kConduit,
  kQfgeo,
};

/// Canonical CLI/spec name ("conduit", "qfgeo").
std::string_view to_string(Protocol protocol);
std::optional<Protocol> protocol_from(std::string_view name);

struct NetworkConfig {
  mesh::PlacementConfig placement;
  BuildingGraphConfig graph;
  ConduitConfig conduit;
  sim::MediumConfig medium;
  /// Per-send simulation budget; a conduit flood quiesces long before this.
  sim::SimTime max_sim_time_s = 120.0;
  std::size_t max_events_per_send = 20'000'000;
  std::uint64_t seed = 99;  ///< message-id / backoff stream

  /// Rebroadcast-suppression policy (src/relayx). The default (flood) is
  /// the paper's unconditional conduit rebroadcast, byte-identical to the
  /// pre-relayx pipeline. relay.seed is overwritten with `seed` at network
  /// construction so policy draws follow the run's determinism contract.
  relayx::PolicyConfig relay;

  /// Capacity of the network's trace ring (events). 0 = auto-size from the
  /// AP count. The ring keeps the latest window when a run outgrows it.
  std::size_t trace_capacity = 0;

  /// Which protocol family this network runs. kConduit (default) leaves
  /// every code path byte-identical to the pre-qfgeo pipeline; kQfgeo
  /// routes sends/injections through QF-Geo bounded-region forwarding.
  /// The qfgeo.* counters are registered only under kQfgeo, so conduit
  /// manifests serialize exactly the legacy key set.
  Protocol protocol = Protocol::kConduit;

  /// Forwarding-region shape (kQfgeo only).
  qfgeo::RegionConfig qfgeo_region;
  /// Greedy-election timing + capacity penalty (kQfgeo only).
  qfgeo::ForwarderConfig qfgeo_forward;
};

/// The immutable "compiled" form of one city: the generated footprints plus
/// everything derived deterministically from them — the map-derived building
/// graph and the realized AP placement. Compiling is the expensive prefix of
/// every run (graph construction dominates small sweeps); a CompiledCity is
/// strictly read-only after construction, so one instance can back any
/// number of CityMeshNetworks concurrently (src/runx shares one per city
/// across its worker threads via runx::CityCache).
struct CompiledCity {
  osmx::City city;
  BuildingGraph map;
  mesh::ApNetwork aps;

  CompiledCity(osmx::City city_in, const BuildingGraphConfig& graph_config,
               const mesh::PlacementConfig& placement)
      : city(std::move(city_in)),
        map(city, graph_config),
        aps(mesh::place_aps(city, placement)) {}
};

/// Compile a city against a network config's graph + placement parameters.
std::shared_ptr<const CompiledCity> compile_city(osmx::City city,
                                                 const NetworkConfig& config);

struct SendOptions {
  bool urgent = false;
  bool compress = true;          ///< false = raw building list (ablation)
  bool collect_trace = false;    ///< record per-AP roles for Figure 7
  /// Override the conduit width for this send (multiple of 10 m, <= 150).
  std::optional<double> conduit_width;
  /// Ask the destination to send an ack back along the reversed route.
  /// Requires ack_to: the sender's own postbox (must be registered).
  bool request_ack = false;
  std::optional<PostboxInfo> ack_to;
};

struct SendOutcome {
  bool route_found = false;
  bool source_has_ap = false;
  bool delivered = false;
  double delivery_time_s = 0.0;

  std::uint32_t message_id = 0;
  PlannedRoute route;
  std::size_t header_bits = 0;

  /// Broadcasts attributable to this send, including the source injection
  /// and (when an ack was requested) the ack's own flood.
  std::size_t transmissions = 0;
  /// Minimum AP-graph hop count source->destination (ideal unicast path),
  /// nullopt when the AP graph is disconnected between the endpoints.
  std::optional<std::size_t> min_hops;
  /// transmissions / min_hops — the paper's transmission-overhead ratio.
  std::optional<double> overhead() const {
    if (!min_hops || *min_hops == 0) return std::nullopt;
    return static_cast<double>(transmissions) / static_cast<double>(*min_hops);
  }

  /// Ack status (only when SendOptions::request_ack).
  bool ack_received = false;
  std::uint32_t ack_message_id = 0;

  /// Figure-7 per-AP roles (only when SendOptions::collect_trace); derived
  /// from the obsx trace stream via roles_from_trace.
  std::vector<mesh::ApId> rebroadcast_aps;
  std::vector<mesh::ApId> received_only_aps;
};

/// Per-AP roles of one message, reconstructed from a recorded trace: which
/// APs put the packet on the air and which only heard it. This is how
/// Figure 7 is rendered — from the event stream, not live bookkeeping.
struct TraceRoles {
  std::vector<mesh::ApId> rebroadcast;     ///< nodes with a kTx, first-tx order
  std::vector<mesh::ApId> received_only;   ///< nodes with kRx but no kTx
};

TraceRoles roles_from_trace(std::span<const obsx::TraceEvent> events,
                            std::uint32_t message_id);

/// Result of `send_reliable`: width-escalating retries until acked.
struct ReliableOutcome {
  bool delivered = false;     ///< any attempt reached the destination
  bool acknowledged = false;  ///< the sender saw an ack
  std::size_t attempts = 0;
  std::vector<SendOutcome> tries;
};

/// Immediate result of injecting one flow into the live simulation
/// (src/trafficx workloads). Unlike `send`, injection does not run the
/// event loop: many flows coexist in flight and contend for airtime; the
/// caller runs the simulator once and reads each flow's FlowState after.
struct InjectResult {
  bool route_found = false;
  bool source_has_ap = false;
  /// 0 when the flow could not be injected (no route / dead source).
  std::uint32_t message_id = 0;
  std::size_t header_bits = 0;
  bool accepted() const { return message_id != 0; }
};

/// Delivery bookkeeping of one injected flow, updated live as the
/// simulation progresses.
struct FlowState {
  double injected_at_s = 0.0;
  bool delivered = false;
  double delivery_time_s = 0.0;
  std::size_t postboxes_reached = 0;
  /// Broadcasts of this flow's message actually put on the air (counted by
  /// the medium's tx observer; deferred-then-aired counts, queue-dropped
  /// does not).
  std::size_t transmissions = 0;
};

/// Result of a geo-broadcast.
struct BroadcastOutcome {
  bool route_found = false;
  bool source_has_ap = false;
  std::uint32_t message_id = 0;
  std::size_t transmissions = 0;
  /// Distinct postboxes inside the region that stored the message.
  std::size_t postboxes_reached = 0;
  PlannedRoute route;
};

class CityMeshNetwork {
 public:
  /// Compile-and-own: builds the building graph + AP placement for this one
  /// network (copies the city). Equivalent to the shared-city constructor
  /// below with a freshly compiled city.
  CityMeshNetwork(const osmx::City& city, NetworkConfig config);

  /// Share a pre-compiled city: the network holds a reference-counted,
  /// read-only CompiledCity and builds only its own dynamic state (agents,
  /// medium, fault status, postboxes). `config.graph`/`config.placement`
  /// must be the parameters the city was compiled with; they are not
  /// re-applied. This is what makes sweep workers cheap (src/runx).
  CityMeshNetwork(std::shared_ptr<const CompiledCity> compiled, NetworkConfig config);

  const osmx::City& city() const { return compiled_->city; }
  const BuildingGraph& map() const { return compiled_->map; }
  const mesh::ApNetwork& aps() const { return compiled_->aps; }
  /// The shared compiled city backing this network.
  const std::shared_ptr<const CompiledCity>& compiled() const { return compiled_; }
  const RoutePlanner& planner() const { return planner_; }
  /// The network's event loop.
  sim::Simulator& simulator() { return sim_; }
  const NetworkConfig& config() const { return config_; }

  // --- Run driving ------------------------------------------------------
  // The calls trafficx/faultx-style drivers advance simulated time through.

  /// Current simulated time.
  sim::SimTime sim_now() const { return sim_.now(); }
  /// Run the event loop until `until` (inclusive) or `max_events` events.
  /// Returns the number of events executed.
  std::size_t run_until(sim::SimTime until,
                        std::size_t max_events = std::numeric_limits<std::size_t>::max()) {
    return sim_.run(until, max_events);
  }
  /// Schedule a driver-level event (workload injection, fault action) at
  /// `at`; the handler may touch any network state.
  void schedule_control(sim::SimTime at, std::function<void()> fn) {
    sim_.schedule_at(at, std::move(fn));
  }
  /// Snapshot of the network registry (metrics().snapshot()).
  obsx::MetricsSnapshot merged_metrics() const { return metrics_.snapshot(); }

  /// The medium's counters.
  struct MediumTotals {
    std::size_t transmissions = 0;
    std::size_t deliveries = 0;
    std::size_t deferrals = 0;
    std::size_t queue_drops = 0;
    double airtime_s = 0.0;
  };
  MediumTotals medium_totals() const;

  /// Always 0: perfbench still reads these two counters of the deleted
  /// tiled engine, which had window barriers and cross-tile handoffs.
  double barrier_idle_s() const { return 0.0; }
  std::uint64_t handoffs_exchanged() const { return 0; }

  /// Register Bob's postbox: every AP in his building hosts the (shared)
  /// postbox so any of them can cache arriving messages. Returns the shared
  /// postbox, or nullptr when the building has no APs.
  std::shared_ptr<Postbox> register_postbox(const PostboxInfo& info);

  /// The *primary* (first-registered) postbox for an id — typically the
  /// owner's home postbox. nullptr when unknown.
  std::shared_ptr<Postbox> postbox_of(const cryptox::SelfCertifyingId& id) const;

  /// The postbox registered for this id at a specific building (an identity
  /// may hold several: home plus temporary ones while traveling).
  std::shared_ptr<Postbox> postbox_at(const cryptox::SelfCertifyingId& id,
                                      BuildingId building) const;

  /// Send an opaque (typically sealed) payload from a device in
  /// `from_building` to the destination postbox. Runs the event simulation
  /// for this message to quiescence before returning.
  SendOutcome send(BuildingId from_building, const PostboxInfo& to,
                   std::span<const std::uint8_t> payload, const SendOptions& opts = {});

  /// Inject one flow at the current simulated time without running the
  /// event loop: plan, encode, and broadcast from the source AP, then
  /// return. Concurrent injected flows share the medium and contend for
  /// airtime (sim::MediumConfig::bitrate_bps). Ack options are ignored.
  /// Read the flow's fate with flow_state() after running the simulator.
  InjectResult inject(BuildingId from_building, const PostboxInfo& to,
                      std::span<const std::uint8_t> payload, const SendOptions& opts = {});

  /// Live bookkeeping of an injected flow; nullptr for unknown ids.
  const FlowState* flow_state(std::uint32_t message_id) const;
  /// Number of injected flows being tracked.
  std::size_t flow_count() const { return flows_.size(); }
  /// Forget all injected-flow bookkeeping (between workload runs).
  void clear_flow_states() { flows_.clear(); }

  /// Retry with escalating conduit widths until the sender's postbox
  /// (`ack_to`) receives a delivery acknowledgment. Widths must be valid
  /// header widths (multiples of 10 m up to 150).
  ReliableOutcome send_reliable(BuildingId from_building, const PostboxInfo& to,
                                std::span<const std::uint8_t> payload,
                                const PostboxInfo& ack_to,
                                std::span<const double> widths = kDefaultWidths);

  /// Geo-broadcast: route to `center_building`, then flood every AP within
  /// `radius_m` of its centroid. Every postbox in the region gets a copy.
  BroadcastOutcome broadcast(BuildingId from_building, BuildingId center_building,
                             double radius_m, std::span<const std::uint8_t> payload,
                             bool urgent = false);

  /// Device-side helper: inform `home`'s postbox that the owner is currently
  /// in `current_building` (a kLocationUpdate message routed home).
  SendOutcome send_location_update(const PostboxInfo& home, BuildingId current_building);

  /// Postbox-agent forwarding service (§3 step 4's push/pull): drain the
  /// registered postbox of `home` and re-send every pending message to
  /// `temp` (the owner's postbox at their current building). Returns the
  /// number of messages that arrived at `temp`. Location updates are
  /// housekeeping and are dropped rather than forwarded.
  std::size_t forward_pending(const PostboxInfo& home, const PostboxInfo& temp);

  /// Mark every AP in a building as compromised (failure injection).
  void compromise_building(BuildingId building, AgentBehavior behavior);

  // --- Dynamic fault state (src/faultx drives these over sim time) --------

  /// Flip one AP up or down. Takes effect immediately: in-flight packets
  /// addressed to a newly-down AP are dropped at delivery time.
  void set_ap_status(mesh::ApId id, ApStatus status);
  ApStatus ap_status(mesh::ApId id) const { return ap_status_.at(id); }
  bool ap_up(mesh::ApId id) const { return ap_status_.at(id) == ApStatus::kUp; }
  /// Number of APs currently up.
  std::size_t aps_up() const { return aps_up_; }

  /// The AP a device in `building` associates with: the representative
  /// (closest-to-centroid) AP when it is up, otherwise the nearest live AP
  /// of the building; nullopt when the building has no live AP.
  std::optional<mesh::ApId> live_ap(BuildingId building) const;

  /// Register a degraded-link region; returns a handle for (de)activation.
  /// Membership is precomputed per AP, so the per-link lookup stays cheap.
  std::size_t add_degraded_region(geo::Polygon region, double extra_loss);
  void set_degraded_region_active(std::size_t handle, bool active);
  const std::vector<DegradedRegion>& degraded_regions() const { return degraded_; }

  /// Combined extra loss for one link from the active degraded regions
  /// (independent events; 0 when the link avoids every region).
  double extra_link_loss(mesh::ApId from, mesh::ApId to) const;

  /// The broadcast medium (fault-injection tests read its counters).
  sim::BroadcastMedium<MeshPacket>& medium() { return medium_; }

  /// The network's metrics registry: the medium's authoritative counters
  /// (medium.*) plus the protocol-level tallies and histograms (net.*,
  /// sim.*). Snapshot it for evaluation rows and run manifests.
  obsx::MetricsRegistry& metrics() { return metrics_; }
  const obsx::MetricsRegistry& metrics() const { return metrics_; }

  /// The packet-lifecycle trace. Disabled by default; enable() before a
  /// send to record its event stream, then write_trace_jsonl it.
  obsx::TraceBuffer& trace() { return trace_; }
  const obsx::TraceBuffer& trace() const { return trace_; }

  /// The shared compile-once service: every send/inject/ack compiles its
  /// message here and attaches the result to the packet; agents fall back to
  /// it for packets without one. Its compile.* counters live in the
  /// compiler's own registry — NOT metrics() — so run manifests stay
  /// byte-identical to the pre-compile pipeline (snapshot() serializes every
  /// registered counter).
  MessageCompiler& compiler() { return compiler_; }
  const MessageCompiler& compiler() const { return compiler_; }

  /// Direct agent access for tests.
  ApAgent& agent(mesh::ApId id) { return agents_.at(id); }

  /// The active rebroadcast policy (src/relayx). Its relayx.* counters are
  /// bound into metrics() for non-flood policies only — flood manifests must
  /// serialize exactly the legacy key set (golden digest gate).
  relayx::RebroadcastPolicy& relay_policy() { return *policy_; }
  const relayx::RebroadcastPolicy& relay_policy() const { return *policy_; }

  static constexpr double kDefaultWidthValues[3] = {50.0, 80.0, 120.0};
  static constexpr std::span<const double> kDefaultWidths{kDefaultWidthValues};

 private:
  // Pending (backoff-delayed) rebroadcasts, keyed by (message_id, ap): the
  // cancelable simulator event plus the overheard-duplicate tally the policy
  // judges cancellation by. Shared by the single-send path (cleared per
  // send) and injected flows.
  struct PendingRelay {
    sim::Simulator::EventId event = sim::Simulator::kInvalidEvent;
    std::uint32_t overheard = 0;
    /// Armed by the qfgeo greedy election: cancellation is positional (a
    /// transmitter at least as close to the destination was overheard),
    /// not policy-judged.
    bool greedy = false;
  };

  void handle_delivery(sim::NodeId to, sim::NodeId from,
                       const std::shared_ptr<const MeshPacket>& packet);
  void transmit_counted(mesh::ApId from, const std::shared_ptr<const MeshPacket>& packet);
  /// The relayx-policy election at the membership-check->rebroadcast point
  /// (relay now / cancelable backoff / suppress) — the conduit flood path,
  /// and qfgeo's scoped-flood fallback at local minima.
  void policy_relay(mesh::ApId to, std::uint32_t message_id,
                    mesh::ApId from, double now,
                    const std::shared_ptr<const MeshPacket>& packet);
  /// QF-Geo forwarding election for one in-region reception (greedy
  /// distance-to-destination with capacity penalty; local-minimum scoped
  /// flood through policy_relay).
  void qfgeo_forward(mesh::ApId to, mesh::ApId from,
                     const AgentAction& action, double now,
                     const std::shared_ptr<const MeshPacket>& packet);
  /// Is `from` a QF-Geo local minimum for this message: no live in-region
  /// neighbor of `from` lies strictly closer to the destination. Static per
  /// (message, transmitter): AP positions are immutable.
  bool qfgeo_local_minimum(mesh::ApId from, const CompiledMessage& msg,
                           geo::Point dst) const;
  /// Cancel every pending backoff-delayed rebroadcast (per-send reset).
  void clear_pending_relays();
  void send_ack_from(mesh::ApId ap);
  SendOutcome run_send(BuildingId from_building, const PostboxInfo& to,
                       std::span<const std::uint8_t> payload, const SendOptions& opts,
                       std::uint8_t extra_flags, std::uint32_t broadcast_radius_m);

  static std::size_t trace_capacity_for(const NetworkConfig& config,
                                        std::size_t ap_count);

  std::shared_ptr<const CompiledCity> compiled_;
  NetworkConfig config_;
  /// Resumable-Dijkstra cache shared by every planner this network builds
  /// (the member planner_ and the per-send/inject locals).
  SptCache spt_cache_;
  RoutePlanner planner_;
  MessageCompiler compiler_;  ///< declared before agents_, which point at it
  sim::Simulator sim_;
  sim::BroadcastMedium<MeshPacket> medium_;
  /// Every agent's mutable state, struct-of-arrays by AP id (core/ap_state).
  AgentStateSlab agent_state_{0};
  std::vector<ApAgent> agents_;
  std::unique_ptr<relayx::RebroadcastPolicy> policy_;

  // Observability (src/obsx): the registry holds the authoritative counters
  // for the whole stack; the trace ring receives the packet-lifecycle
  // stream. Handles are cached once — the hot path pays one increment.
  obsx::MetricsRegistry metrics_;
  obsx::TraceBuffer trace_;
  std::uint64_t send_seq_ = 0;  ///< feeds wire::derive_message_id
  obsx::Counter* n_sends_ = nullptr;
  obsx::Counter* n_delivered_ = nullptr;
  obsx::Counter* n_rebroadcasts_ = nullptr;
  obsx::Counter* n_dup_suppressed_ = nullptr;
  obsx::Counter* n_conduit_rejects_ = nullptr;
  obsx::Counter* n_postbox_stores_ = nullptr;
  obsx::Counter* n_acks_sent_ = nullptr;
  obsx::Counter* n_acks_received_ = nullptr;
  obsx::Counter* n_suppression_cancelled_ = nullptr;
  obsx::Histogram* h_header_bits_ = nullptr;
  obsx::Histogram* h_min_hops_ = nullptr;
  obsx::Histogram* h_tx_per_delivery_ = nullptr;
  // qfgeo.* counters, registered (and non-null) only when the network runs
  // Protocol::kQfgeo — conduit manifests keep the legacy key set.
  obsx::Counter* qf_candidates_ = nullptr;       ///< greedy forwards armed
  obsx::Counter* qf_fired_ = nullptr;            ///< armed forwards that aired
  obsx::Counter* qf_cancelled_ = nullptr;        ///< cancelled on overhear
  obsx::Counter* qf_no_progress_ = nullptr;      ///< in-region, no progress
  obsx::Counter* qf_fallback_floods_ = nullptr;  ///< local-minimum recoveries

  // Fault state: per-AP status plus degraded-link regions with precomputed
  // per-AP membership (aps are static, regions few).
  std::vector<ApStatus> ap_status_;
  std::size_t aps_up_ = 0;
  std::vector<DegradedRegion> degraded_;
  std::vector<std::vector<char>> degraded_members_;  ///< [region][ap] inside?

  // Registrations keyed by "id-hex@building"; primaries keep the first
  // registration per identity (the home postbox).
  std::unordered_map<std::string, std::shared_ptr<Postbox>> postboxes_;
  std::unordered_map<std::string, std::shared_ptr<Postbox>> primary_postboxes_;

  // Per-message bookkeeping for the in-flight send. Transmission counts and
  // per-AP roles live in the medium's counters / the trace stream now, not
  // here.
  struct ActiveSend {
    std::uint32_t message_id = 0;
    bool delivered = false;
    double delivery_time_s = 0.0;
    std::size_t postboxes_reached = 0;

    // Ack machinery.
    std::uint32_t ack_message_id = 0;  ///< 0 = no ack expected
    std::uint32_t ack_tag = 0;
    std::vector<BuildingId> ack_waypoints;
    double conduit_width_m = 50.0;
    bool ack_sent = false;
    bool ack_delivered = false;
  };
  ActiveSend active_;
  std::unordered_map<std::uint64_t, PendingRelay> pending_;

  // Injected-flow bookkeeping (src/trafficx), keyed by message id. The
  // single-send path never touches this map.
  std::unordered_map<std::uint32_t, FlowState> flows_;
};

}  // namespace citymesh::core
