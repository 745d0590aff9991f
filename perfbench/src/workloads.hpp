// The CityMesh benchmark's workloads (see ../README.md).
//
// Each workload fixes model inputs only — city, AP density, medium, protocol
// and traffic — and runs the engine in its default configuration. A run
// repeats the workload for a time window and reports medians; a traced run
// wraps every call it makes into a layer in a span (spans.hpp) and replays
// the planner and message compiler to attribute their cost.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/evaluation.hpp"
#include "core/network.hpp"
#include "osmx/citygen.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "trafficx/workload.hpp"

namespace perfbench {

namespace core = citymesh::core;
namespace osmx = citymesh::osmx;
namespace trafficx = citymesh::trafficx;

enum class Workload : std::uint8_t { kHotspot, kMetro, kQfgeo, kPaperEval };

std::string_view to_string(Workload workload);
std::optional<Workload> workload_from(std::string_view name);

// --- Traffic workloads (hotspot, metro, qfgeo) ------------------------------

struct TrafficDef {
  osmx::CityProfile profile;
  core::NetworkConfig network;
  trafficx::WorkloadSpec spec;  ///< spec.seed is the benchmark seed
  std::size_t flows = 0;        ///< fixed flow count of one run
};

TrafficDef traffic_def(Workload workload, std::uint64_t seed);

/// The first `n` arrivals of the spec's Poisson process, drawn by
/// trafficx::compile. The offered window is spec.duration_s, stretched to the
/// last arrival when the n-th flow lands later.
trafficx::FlowSchedule first_flows(const trafficx::WorkloadSpec& spec,
                                   const osmx::City& city, std::size_t n);

struct TrafficSetup {
  std::shared_ptr<const core::CompiledCity> compiled;
  std::unique_ptr<core::CityMeshNetwork> network;
  trafficx::FlowSchedule schedule;
  double setup_s = 0.0;          ///< generate + compile + construct + schedule
  double compile_hwm_mib = 0.0;  ///< VmHWM right after compile_city
};

TrafficSetup setup_traffic(const TrafficDef& def, SpanRecorder* recorder = nullptr);

struct TrafficRun {
  std::vector<core::FlowRecord> flows;  ///< one per scheduled flow, in order
  std::vector<double> inject_s;         ///< host seconds of each inject() call
  core::CityMeshNetwork::MediumTotals medium;  ///< this run's share
  std::size_t events = 0;               ///< events processed by run_until
  double run_s = 0.0;
};

/// Replays `schedule` on `network` with exactly the public calls
/// trafficx::run_workload makes — postbox registration per destination,
/// schedule_control -> inject per flow, one run_until — and times each
/// inject() call. Produces the same flow records as run_workload.
TrafficRun drive_flows(core::CityMeshNetwork& network,
                       const trafficx::FlowSchedule& schedule,
                       SpanRecorder* recorder = nullptr);

/// Behavioural digest: FNV-1a over each flow's index, injected and delivered
/// flags, latency and transmissions.
std::uint64_t flows_digest(std::span<const core::FlowRecord> flows);

// --- paper-eval --------------------------------------------------------------

struct PaperEvalDef {
  std::vector<osmx::CityProfile> profiles;
  core::NetworkConfig network;
  std::size_t reachability_pairs = 1000;
  std::size_t sends_per_city = 100;
  std::size_t workers = 4;  ///< runx workers of the closed send loop
  std::uint64_t seed = 0;  ///< pair sampling and recipient identities
};

PaperEvalDef paper_eval_def(std::uint64_t seed);

struct SendRecord {
  bool route_found = false;
  bool delivered = false;
  double latency_s = 0.0;  ///< simulated, send start -> first postbox store
  std::size_t transmissions = 0;
  std::size_t header_bits = 0;
  std::optional<double> overhead;
  double host_s = 0.0;  ///< wall time of the send() call
};

struct CitySends {
  std::vector<SendRecord> sends;
  std::vector<std::pair<osmx::BuildingId, core::PostboxInfo>> calls;  ///< in order
  double busy_s = 0.0;  ///< wall time of this city's job
};

struct PaperEvalRun {
  std::vector<CitySends> cities;  ///< profile order
  std::vector<std::unique_ptr<core::CityMeshNetwork>> networks;
  double setup_s = 0.0;
  double run_s = 0.0;  ///< wall time of the send phase on the runx workers
  std::size_t city_compiles = 0;
  double compile_hwm_mib = 0.0;
  /// Traced runs: one recorder per city for set-up and one per city for the
  /// send loop (each job runs on one worker thread).
  std::vector<SpanRecorder> setup_spans;
  std::vector<SpanRecorder> send_spans;
};

/// One repetition: set up every city on `jobs` runx workers (through a
/// runx::CityCache, or with spanned generate/compile calls when traced),
/// then run each city's closed send loop as one runx job. The benchmark
/// passes def.workers; the tests vary `jobs`.
PaperEvalRun run_paper_eval(const PaperEvalDef& def, std::size_t jobs, bool traced);

std::uint64_t sends_digest(const std::vector<CitySends>& cities);

// --- One benchmark run ------------------------------------------------------------

struct Options {
  Workload workload = Workload::kHotspot;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< traced runs: span JSONL path, empty = none
};

struct Report {
  Options options;
  std::size_t attempted = 0;  ///< flows or sends simulated, over all reps
  std::size_t failed = 0;     ///< operations that errored or disagreed
  bool correct = true;        ///< every check below passed
  std::uint64_t digest = 0;
  std::size_t reps = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< checks and context, one line each
};

Report run(const Options& options);

/// One JSON object on one line: workload, seed, trace, correct, attempted,
/// failed, digest, reps, notes and metrics {name: {value, unit, label}}.
void write_report(std::ostream& out, const Report& report);

}  // namespace perfbench
