// Figure 12 (extension): conduit flooding vs QF-Geo bounded-region greedy
// forwarding as *live* protocol families (src/qfgeo).
//
// The paper's §5 argument dismisses classical mesh routing on state-
// maintenance grounds but never runs a stateless geographic competitor.
// QF-Geo (arXiv 2305.05718) is the closest published relative: no planned
// route, no per-node routing state — packets are forwarded greedily by
// distance to the destination, but only inside a bounded ellipse between
// source and destination, with each forwarding election penalized by the
// candidate's transmit-queue depth (capacity awareness).
//
// This bench re-runs the repo's three headline cells with the protocol as a
// grid axis:
//   eval       the Figure-6 reachability/deliverability/overhead protocol
//   blackout   the Figure-8 shape: a standing central blackout, then the
//              snapshot protocol over the surviving mesh (override the
//              built-in scenario with --scenario FILE)
//   load@R     the Figure-9 shape: an airtime-contention workload at two
//              offered rates spanning the capacity knee
//
// Expected shape: conduit wins overhead (the corridor scopes the flood
// tighter than the ellipse scopes the election), QF-Geo wins deliverability
// at the margins — its region needs no plannable building route, so it
// delivers where the planner's corridor misses, and under load its queue
// penalty routes around the saturating hotspot.
//
// Composes with --jobs N (worker threads), --policy NAME (relayx policy: the
// conduit rebroadcast decision, and QF-Geo's fallback-flood/geo-broadcast
// path), --scenario FILE, and --quick. Rows and digest are byte-identical
// for any --jobs.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/evaluation.hpp"
#include "core/network.hpp"
#include "faultx/engine.hpp"
#include "faultx/scenario.hpp"
#include "faultx/spec.hpp"
#include "geo/geometry.hpp"
#include "osmx/citygen.hpp"
#include "relayx/policy.hpp"
#include "runx/city_cache.hpp"
#include "runx/engine.hpp"
#include "trafficx/runner.hpp"
#include "trafficx/workload.hpp"
#include "viz/ascii.hpp"

namespace core = citymesh::core;
namespace faultx = citymesh::faultx;
namespace geo = citymesh::geo;
namespace osmx = citymesh::osmx;
namespace relayx = citymesh::relayx;
namespace runx = citymesh::runx;
namespace trafficx = citymesh::trafficx;
namespace viz = citymesh::viz;

namespace {

constexpr core::Protocol kProtocols[] = {core::Protocol::kConduit,
                                         core::Protocol::kQfgeo};
constexpr double kRates[] = {2.0, 10.0};
constexpr double kQuickRates[] = {4.0};
constexpr double kDurationS = 15.0;
constexpr double kQuickDurationS = 5.0;
constexpr double kBitrateBps = 125e3;
constexpr std::size_t kQueueSlots = 2;
constexpr std::size_t kPairs = 300;
constexpr std::size_t kDeliver = 25;
constexpr std::size_t kQuickPairs = 120;
constexpr std::size_t kQuickDeliver = 10;
constexpr std::uint64_t kWorkloadSeed = 1212;
constexpr double kBlackoutFraction = 0.25;

core::NetworkConfig network_config(core::Protocol protocol,
                                   std::optional<relayx::PolicyKind> policy) {
  core::NetworkConfig config;
  config.placement.seed = 7;
  config.seed = 99;
  config.medium.bitrate_bps = kBitrateBps;
  config.medium.tx_queue_capacity = kQueueSlots;
  // Draw-free regime (the fig10 discipline): zero jitter and zero loss.
  config.medium.jitter_s = 0.0;
  config.medium.loss_probability = 0.0;
  config.protocol = protocol;
  if (policy) config.relay.kind = *policy;
  return config;
}

trafficx::WorkloadSpec workload_spec(double rate_per_s, double duration_s) {
  trafficx::WorkloadSpec spec;
  spec.name = "fig12";
  spec.seed = kWorkloadSeed;
  spec.duration_s = duration_s;
  spec.rate_per_s = rate_per_s;
  spec.spatial = trafficx::SpatialMode::kHotspot;
  spec.hotspot_bias = 16.0;
  spec.payload_min_bytes = 256;
  spec.payload_max_bytes = 512;
  return spec;
}

// The central block of the city extent, blacked out at t=0 (the fig11
// standing-outage shape); --scenario FILE replaces it.
faultx::Scenario blackout_scenario(const osmx::City& city) {
  const geo::Rect& e = city.extent();
  const geo::Point c{(e.min.x + e.max.x) / 2.0, (e.min.y + e.max.y) / 2.0};
  const double s = std::sqrt(kBlackoutFraction);
  const double hw = e.width() * s / 2.0;
  const double hh = e.height() * s / 2.0;
  faultx::Scenario scenario;
  scenario.name = "fig12-blackout";
  scenario.seed = 812;
  faultx::BlackoutEvent blackout;
  blackout.region =
      geo::Polygon::rectangle({{c.x - hw, c.y - hh}, {c.x + hw, c.y + hh}});
  blackout.at_s = 0.0;
  scenario.blackouts.push_back(std::move(blackout));
  return scenario;
}

/// The three cell kinds of the matrix; load appears once per rate.
enum class Cell : std::uint8_t { kEval, kBlackout, kLoad };

}  // namespace

int main(int argc, char** argv) {
  citymesh::benchutil::ManifestEmitter emit{"fig12_baselines", argc, argv};
  const std::size_t n_jobs = citymesh::benchutil::parse_jobs(argc, argv);
  bool quick = false;
  std::optional<relayx::PolicyKind> policy;
  std::string scenario_file;
  {
    int out = 1;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--quick") == 0) {
        quick = true;
      } else if (std::strcmp(argv[i], "--policy") == 0 && i + 1 < argc) {
        policy = relayx::policy_kind_from(argv[++i]);
        if (!policy) {
          std::cerr << "unknown --policy " << argv[i] << '\n';
          return 2;
        }
      } else if (std::strcmp(argv[i], "--scenario") == 0 && i + 1 < argc) {
        scenario_file = argv[++i];
      } else {
        argv[out++] = argv[i];
      }
    }
    argc = out;
    argv[argc] = nullptr;
  }
  const double duration_s = quick ? kQuickDurationS : kDurationS;
  const std::size_t pairs = quick ? kQuickPairs : kPairs;
  const std::size_t deliver = quick ? kQuickDeliver : kDeliver;
  const std::span<const double> rates =
      quick ? std::span<const double>{kQuickRates} : std::span<const double>{kRates};

  // An explicit scenario file is parsed once, up front, on this thread.
  std::optional<faultx::Scenario> file_scenario;
  if (!scenario_file.empty()) {
    std::ifstream file{scenario_file};
    if (!file) {
      std::cerr << "cannot open " << scenario_file << '\n';
      return 1;
    }
    std::string error;
    const auto parsed = faultx::parse_scenario(file, &error);
    if (!parsed) {
      std::cerr << scenario_file << ": " << error << '\n';
      return 1;
    }
    file_scenario = parsed->scenario;
  }

  std::cout << "CityMesh extension - Figure 12 (conduit vs QF-Geo baselines)\n"
            << "both live protocol families over the eval / blackout / load"
               " matrix (" << runx::resolve_jobs(n_jobs) << " worker thread(s)"
            << (quick ? ", --quick grid" : "") << ")\n";

  std::vector<osmx::CityProfile> profiles;
  if (argc > 1) {
    for (int i = 1; i < argc; ++i) profiles.push_back(osmx::profile_by_name(argv[i]));
  } else {
    profiles.push_back(osmx::profile_by_name("boston"));
  }

  emit.manifest().city = profiles.size() == 1 ? profiles.front().name : "all";
  emit.manifest().seeds["workload"] = kWorkloadSeed;
  emit.manifest().set_param("duration_s", duration_s);
  emit.manifest().set_param("bitrate_bps", kBitrateBps);
  emit.manifest().set_param("pairs", static_cast<std::uint64_t>(pairs));
  emit.manifest().set_param("deliver", static_cast<std::uint64_t>(deliver));
  emit.manifest().set_param("quick", quick ? std::uint64_t{1} : std::uint64_t{0});
  if (policy) emit.manifest().set_param("policy", relayx::to_string(*policy));
  if (!scenario_file.empty()) emit.manifest().set_param("scenario", scenario_file);
  // --jobs is deliberately NOT recorded: manifests from any worker count
  // must stay byte-identical (wall_clock_s aside).

  // One run per (city, protocol, cell). The compiled mesh is shared through
  // the cache (neither the protocol nor the relay policy keys the compile);
  // each run owns a fresh network.
  std::vector<Cell> cells{Cell::kEval, Cell::kBlackout};
  std::vector<double> cell_rates{0.0, 0.0};
  for (const double rate : rates) {
    cells.push_back(Cell::kLoad);
    cell_rates.push_back(rate);
  }
  const std::size_t n_points = std::size(kProtocols) * cells.size();
  std::vector<runx::RunJob> grid;
  for (const auto& profile : profiles) {
    emit.manifest().seeds[profile.name] = profile.seed;
    for (const auto protocol : kProtocols) {
      for (std::size_t c = 0; c < cells.size(); ++c) {
        runx::RunJob job;
        job.city = profile.name;
        job.seed = kWorkloadSeed;
        job.point = std::string{core::to_string(protocol)} + " " +
                    (cells[c] == Cell::kEval       ? std::string{"eval"}
                     : cells[c] == Cell::kBlackout ? std::string{"blackout"}
                                                   : "load@" + viz::fmt(cell_rates[c], 1));
        grid.push_back(std::move(job));
      }
    }
  }
  runx::CityCache cache;
  const runx::RunFn fn = [&](const runx::RunJob& job) {
    const auto& profile = profiles[job.index / n_points];
    const std::size_t local = job.index % n_points;
    const auto protocol = kProtocols[local / cells.size()];
    const std::size_t c = local % cells.size();
    const Cell cell = cells[c];

    const core::NetworkConfig config = network_config(protocol, policy);
    const auto compiled = cache.get(profile, config);

    runx::RunResult result;
    result.cells = {profile.name, std::string{core::to_string(protocol)}};
    switch (cell) {
      case Cell::kEval: {
        core::EvaluationConfig cfg;
        cfg.reachability_pairs = pairs;
        cfg.deliverability_pairs = deliver;
        cfg.network = config;
        cfg.seed = kWorkloadSeed;
        const core::CityEvaluation eval = core::evaluate_city(compiled, cfg);
        result.cells.insert(
            result.cells.end(),
            {std::string{"eval"}, std::to_string(eval.aps),
             viz::fmt(eval.reachability(), 3), viz::fmt(eval.deliverability(), 3),
             eval.overheads.empty() ? "-" : viz::fmt(eval.median_overhead(), 1),
             eval.header_bits.empty() ? "-"
                                      : viz::fmt(eval.median_header_bits(), 0),
             "-", "-"});
        result.metrics = eval.metrics;
        break;
      }
      case Cell::kBlackout: {
        core::CityMeshNetwork network{compiled, config};
        faultx::ScenarioEngine engine{
            network, file_scenario ? *file_scenario
                                   : blackout_scenario(compiled->city)};
        engine.apply_all();
        core::SnapshotConfig snap_cfg;
        snap_cfg.pairs = pairs;
        snap_cfg.deliver_pairs = deliver;
        snap_cfg.seed = kWorkloadSeed;
        const core::NetworkSnapshot snap = core::evaluate_snapshot(network, snap_cfg);
        result.cells.insert(
            result.cells.end(),
            {std::string{"blackout"},
             std::to_string(snap.aps_up) + "/" + std::to_string(snap.aps_total),
             viz::fmt(snap.reachability(), 3), viz::fmt(snap.deliverability(), 3),
             "-", "-",
             std::to_string(snap.rescues_succeeded) + "/" +
                 std::to_string(snap.rescues_attempted),
             "-"});
        result.metrics = network.merged_metrics();
        break;
      }
      case Cell::kLoad: {
        core::CityMeshNetwork network{compiled, config};
        const auto schedule = trafficx::compile(
            workload_spec(cell_rates[c], duration_s), compiled->city);
        trafficx::RunConfig run_config;
        run_config.measure_overhead = true;
        const auto run = trafficx::run_workload(network, schedule, run_config);
        const core::CapacitySummary& s = run.summary;
        result.cells.insert(
            result.cells.end(),
            {"load@" + viz::fmt(cell_rates[c], 1), std::to_string(s.flows_offered),
             "-", viz::fmt(s.delivery_rate(), 3), viz::fmt(s.overhead_median, 1),
             "-", std::to_string(s.queue_drops),
             viz::fmt(s.latency_p50_s * 1e3, 1)});
        result.metrics = run.metrics;
        break;
      }
    }
    return result;
  };
  const runx::SweepReport report = runx::run_jobs(std::move(grid), fn, {n_jobs});

  std::vector<std::vector<std::string>> rows;
  for (std::size_t i = 0; i < report.jobs.size(); ++i) {
    if (!report.results[i].ok()) {
      std::cerr << "  [" << report.jobs[i].city << " " << report.jobs[i].point
                << "] failed: " << report.results[i].error << '\n';
      rows.push_back({report.jobs[i].city, report.jobs[i].point,
                      "ERROR: " + report.results[i].error});
      continue;
    }
    emit.add_metrics(report.results[i].metrics);
    rows.push_back(report.results[i].cells);
  }

  viz::print_table(std::cout,
                   "Figure 12: conduit vs QF-Geo (eval / blackout / load matrix)",
                   {"city", "protocol", "cell", "APs|offered", "reach", "deliver",
                    "overhead", "hdr bits", "rescued|drops", "p50 ms"},
                   rows);

  // Head-to-head summary: QF-Geo vs the conduit run of the same (city, cell).
  std::vector<std::vector<std::string>> duel;
  for (std::size_t ci = 0; ci < profiles.size(); ++ci) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const std::size_t conduit_i = ci * n_points + c;
      const std::size_t qfgeo_i = ci * n_points + cells.size() + c;
      if (!report.results[conduit_i].ok() || !report.results[qfgeo_i].ok()) continue;
      const auto& cc = report.results[conduit_i].cells;
      const auto& qc = report.results[qfgeo_i].cells;
      const double d_deliver = (std::stod(qc[5]) - std::stod(cc[5])) * 100.0;
      std::string overhead = "-";
      if (cc[6] != "-" && qc[6] != "-") {
        const double q = std::stod(qc[6]);
        overhead = q > 0.0 ? viz::fmt(std::stod(cc[6]) / q, 2) + "x" : "-";
      }
      duel.push_back({cc[0], cc[2],
                      (d_deliver >= 0.0 ? "+" : "") + viz::fmt(d_deliver, 1) + "pp",
                      overhead});
    }
  }
  viz::print_table(std::cout,
                   "QF-Geo vs conduit (deliverability delta, conduit/qfgeo overhead)",
                   {"city", "cell", "deliver delta", "overhead ratio"}, duel);

  citymesh::benchutil::digest_rows(emit, rows);
  citymesh::benchutil::digest_rows(emit, duel);
  std::cout << "\nDeterminism digest: " << emit.digest_hex()
            << "  (same seed => same digest for any --jobs)\n"
            << "Expected shape: conduit's corridor scopes the flood tighter\n"
            << "(lower overhead); QF-Geo's plan-free region delivers where the\n"
            << "corridor misses and its queue penalty defers around hotspots.\n";
  return emit.finish();
}
