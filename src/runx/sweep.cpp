#include "runx/sweep.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <istream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "core/evaluation.hpp"
#include "faultx/engine.hpp"
#include "faultx/spec.hpp"
#include "trafficx/runner.hpp"
#include "trafficx/spec.hpp"
#include "viz/ascii.hpp"

namespace citymesh::runx {

namespace {

bool parse_number(const std::string& s, double& out) {
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  // from_chars also accepts "inf" and "nan"; no spec value may be either.
  return ec == std::errc{} && ptr == s.data() + s.size() && std::isfinite(out);
}

/// True when `v` truncates to a value of the unsigned integer type T; the
/// cast is undefined behavior otherwise. 2^digits is exact as a double, so
/// the upper bound is exclusive.
template <typename T>
bool fits(double v) {
  return v >= 0.0 && v < std::ldexp(1.0, std::numeric_limits<T>::digits);
}

/// File stem for point labels: "specs/blackout.spec" -> "blackout".
std::string stem_of(const std::string& path) {
  const std::size_t slash = path.find_last_of("/\\");
  const std::size_t begin = slash == std::string::npos ? 0 : slash + 1;
  std::size_t end = path.find_last_of('.');
  if (end == std::string::npos || end <= begin) end = path.size();
  return path.substr(begin, end - begin);
}

bool parse_line(const std::vector<std::string>& parts, SweepSpec& spec) {
  const std::string& key = parts[0];
  double v = 0.0;
  if (key == "name") {
    if (parts.size() != 2) return false;
    spec.name = parts[1];
    return true;
  }
  if (key == "cities") {
    if (parts.size() < 2) return false;
    spec.cities.insert(spec.cities.end(), parts.begin() + 1, parts.end());
    return true;
  }
  if (key == "seeds") {
    if (parts.size() < 2) return false;
    for (std::size_t i = 1; i < parts.size(); ++i) {
      if (!parse_number(parts[i], v) || !fits<std::uint64_t>(v)) return false;
      spec.seeds.push_back(static_cast<std::uint64_t>(v));
    }
    return true;
  }
  if (key == "pairs" || key == "deliver") {
    if (parts.size() != 2 || !parse_number(parts[1], v) || v < 1.0 ||
        !fits<std::size_t>(v)) {
      return false;
    }
    (key == "pairs" ? spec.pairs : spec.deliver) = static_cast<std::size_t>(v);
    return true;
  }
  if (key == "point") {
    if (parts.size() < 2) return false;
    SweepPoint point;
    if (parts[1] == "eval") {
      if (parts.size() != 2) return false;
      point.kind = SweepPoint::Kind::kEval;
      point.label = "eval";
    } else if (parts[1] == "scenario" || parts[1] == "workload") {
      if (parts.size() != 3) return false;
      point.kind = parts[1] == "scenario" ? SweepPoint::Kind::kScenario
                                          : SweepPoint::Kind::kWorkload;
      point.path = parts[2];
      point.label = parts[1] + ":" + stem_of(parts[2]);
    } else {
      return false;
    }
    spec.points.push_back(std::move(point));
    return true;
  }
  if (key == "protocol") {
    if (parts.size() < 2) return false;
    for (std::size_t i = 1; i < parts.size(); ++i) {
      const auto proto = core::protocol_from(parts[i]);
      if (!proto) return false;
      spec.protocols.push_back(*proto);
    }
    return true;
  }
  return false;
}

}  // namespace

std::optional<SweepSpec> parse_sweep(std::istream& in, std::string* error) {
  SweepSpec spec;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    std::istringstream tokens{line};
    std::vector<std::string> parts;
    for (std::string tok; tokens >> tok;) parts.push_back(std::move(tok));
    if (parts.empty()) continue;
    if (!parse_line(parts, spec)) {
      if (error) {
        *error = "sweep spec: cannot parse line " + std::to_string(line_no) +
                 ": " + line;
      }
      return std::nullopt;
    }
  }
  if (spec.cities.empty()) {
    if (error) *error = "sweep spec: no `cities` line";
    return std::nullopt;
  }
  return spec;
}

std::optional<SweepSpec> parse_sweep(const std::string& text, std::string* error) {
  std::istringstream in{text};
  return parse_sweep(in, error);
}

std::vector<RunJob> expand(const SweepSpec& spec) {
  const std::vector<std::uint64_t> seeds =
      spec.seeds.empty() ? std::vector<std::uint64_t>{1} : spec.seeds;
  const std::vector<SweepPoint> points =
      spec.points.empty() ? std::vector<SweepPoint>{SweepPoint{}} : spec.points;
  // No protocol line = one pass with the base config's protocol; the labels
  // stay unprefixed so pre-protocol sweep specs expand byte-identically.
  const std::size_t protos_n = std::max<std::size_t>(1, spec.protocols.size());
  const bool prefix_protocol = spec.protocols.size() > 1;

  std::vector<RunJob> jobs;
  jobs.reserve(spec.cities.size() * seeds.size() * protos_n * points.size());
  for (const std::string& city : spec.cities) {
    for (const std::uint64_t seed : seeds) {
      for (std::size_t p = 0; p < protos_n; ++p) {
        for (const SweepPoint& point : points) {
          RunJob job;
          job.index = jobs.size();
          job.city = city;
          job.seed = seed;
          job.point = point.label.empty() ? std::string{"eval"} : point.label;
          if (prefix_protocol) {
            job.point =
                std::string{core::to_string(spec.protocols[p])} + "/" + job.point;
          }
          jobs.push_back(std::move(job));
        }
      }
    }
  }
  return jobs;
}

namespace {

/// Spec files resolved once, up front, on the calling thread; workers only
/// read these parsed values.
struct ResolvedPoint {
  SweepPoint point;
  faultx::Scenario scenario;       ///< kScenario
  trafficx::WorkloadSpec workload; ///< kWorkload
};

std::vector<ResolvedPoint> resolve_points(const SweepSpec& spec) {
  std::vector<SweepPoint> points =
      spec.points.empty() ? std::vector<SweepPoint>{SweepPoint{}} : spec.points;
  std::vector<ResolvedPoint> resolved;
  resolved.reserve(points.size());
  for (SweepPoint& point : points) {
    ResolvedPoint r;
    if (point.kind != SweepPoint::Kind::kEval) {
      std::ifstream file{point.path};
      if (!file) {
        throw std::runtime_error("sweep: cannot open point spec " + point.path);
      }
      std::string error;
      if (point.kind == SweepPoint::Kind::kScenario) {
        const auto parsed = faultx::parse_scenario(file, &error);
        if (!parsed) throw std::runtime_error(point.path + ": " + error);
        r.scenario = parsed->scenario;
      } else {
        const auto parsed = trafficx::parse_workload(file, &error);
        if (!parsed) throw std::runtime_error(point.path + ": " + error);
        r.workload = *parsed;
      }
    }
    if (point.label.empty()) point.label = "eval";
    r.point = std::move(point);
    resolved.push_back(std::move(r));
  }
  return resolved;
}

std::vector<std::string> eval_cells(const core::CityEvaluation& eval) {
  return {std::to_string(eval.aps), viz::fmt(eval.reachability(), 3),
          viz::fmt(eval.deliverability(), 3),
          eval.overheads.empty() ? "-" : viz::fmt(eval.median_overhead(), 1),
          eval.header_bits.empty() ? "-" : viz::fmt(eval.median_header_bits(), 0)};
}

std::vector<std::string> scenario_cells(const core::NetworkSnapshot& snap) {
  return {std::to_string(snap.aps_up) + "/" + std::to_string(snap.aps_total),
          viz::fmt(snap.reachability(), 3), viz::fmt(snap.deliverability(), 3),
          std::to_string(snap.rescues_succeeded) + "/" +
              std::to_string(snap.rescues_attempted),
          viz::fmt(snap.deliverability_with_rescue(), 3)};
}

std::vector<std::string> workload_cells(const core::CapacitySummary& s) {
  return {std::to_string(s.flows_delivered) + "/" + std::to_string(s.flows_offered),
          viz::fmt(s.delivery_rate(), 3), viz::fmt(s.goodput_bytes_per_s, 1),
          viz::fmt(s.latency_p99_s * 1e3, 1), std::to_string(s.queue_drops)};
}

}  // namespace

SweepReport run_sweep(const SweepSpec& spec, CityCache& cache,
                      const SweepRunConfig& config) {
  const std::vector<ResolvedPoint> points = resolve_points(spec);
  const std::size_t points_n = points.size();
  const core::NetworkConfig config_base = config.network;

  const RunFn fn = [&cache, &points, points_n, config_base, &spec](const RunJob& job) {
    // profile_by_name throws for unknown cities -> captured as the row's
    // error by the engine.
    const osmx::CityProfile profile = osmx::profile_by_name(job.city);
    // The cache keys on graph + placement only, so every protocol on the
    // axis shares the same compiled city.
    const auto compiled = cache.get(profile, config_base);
    const ResolvedPoint& point = points[job.index % points_n];
    core::NetworkConfig base = config_base;
    if (!spec.protocols.empty()) {
      base.protocol =
          spec.protocols[(job.index / points_n) % spec.protocols.size()];
    }

    RunResult result;
    switch (point.point.kind) {
      case SweepPoint::Kind::kEval: {
        core::EvaluationConfig cfg;
        cfg.reachability_pairs = spec.pairs;
        cfg.deliverability_pairs = spec.deliver;
        cfg.network = base;
        cfg.seed = job.seed;
        const core::CityEvaluation eval = core::evaluate_city(compiled, cfg);
        result.cells = eval_cells(eval);
        result.metrics = eval.metrics;
        break;
      }
      case SweepPoint::Kind::kScenario: {
        core::CityMeshNetwork network{compiled, base};
        faultx::ScenarioEngine engine{network, point.scenario};
        engine.apply_all();
        core::SnapshotConfig snap_cfg;
        snap_cfg.pairs = spec.pairs;
        snap_cfg.deliver_pairs = spec.deliver;
        snap_cfg.seed = job.seed;
        const core::NetworkSnapshot snap = core::evaluate_snapshot(network, snap_cfg);
        result.cells = scenario_cells(snap);
        result.metrics = network.merged_metrics();
        break;
      }
      case SweepPoint::Kind::kWorkload: {
        core::CityMeshNetwork network{compiled, base};
        trafficx::WorkloadSpec wspec = point.workload;
        wspec.seed = job.seed;  // the grid seed drives the schedule
        const trafficx::FlowSchedule schedule =
            trafficx::compile(wspec, compiled->city);
        const trafficx::WorkloadResult run = trafficx::run_workload(network, schedule);
        result.cells = workload_cells(run.summary);
        result.metrics = run.metrics;
        break;
      }
    }
    return result;
  };

  EngineConfig engine_cfg;
  engine_cfg.jobs = config.jobs;
  return run_jobs(expand(spec), fn, engine_cfg);
}

std::vector<std::string> sweep_headers(const SweepSpec& spec) {
  bool scenario = false;
  bool workload = false;
  bool eval = spec.points.empty();
  for (const SweepPoint& p : spec.points) {
    scenario |= p.kind == SweepPoint::Kind::kScenario;
    workload |= p.kind == SweepPoint::Kind::kWorkload;
    eval |= p.kind == SweepPoint::Kind::kEval;
  }
  const int kinds = int(scenario) + int(workload) + int(eval);
  if (kinds > 1) {
    // Mixed sweeps share column slots; the point label disambiguates.
    return {"city", "seed", "point", "v1", "v2", "v3", "v4", "v5"};
  }
  if (scenario) {
    return {"city", "seed", "point", "APs up", "reach", "deliver", "rescued",
            "deliver+rescue"};
  }
  if (workload) {
    return {"city", "seed", "point", "delivered", "rate", "goodput B/s",
            "p99 ms", "drops"};
  }
  return {"city", "seed", "point", "APs", "reach", "deliver", "overhead(med)",
          "hdr bits(med)"};
}

obsx::RunManifest sweep_manifest(const SweepSpec& spec, const SweepReport& report) {
  obsx::RunManifest manifest;
  manifest.name = spec.name;
  manifest.city = spec.cities.size() == 1 ? spec.cities.front() : "multi";
  manifest.set_param("cities", static_cast<std::uint64_t>(spec.cities.size()));
  manifest.set_param("pairs", static_cast<std::uint64_t>(spec.pairs));
  manifest.set_param("deliver", static_cast<std::uint64_t>(spec.deliver));
  manifest.set_param(
      "points", static_cast<std::uint64_t>(std::max<std::size_t>(1, spec.points.size())));
  // Only multi-protocol sweeps record the axis: single-protocol (and
  // no-protocol-line) manifests stay byte-identical to the legacy grammar.
  if (spec.protocols.size() > 1) {
    manifest.set_param("protocols", static_cast<std::uint64_t>(spec.protocols.size()));
  }
  manifest.set_param("runs", static_cast<std::uint64_t>(report.jobs.size()));
  manifest.set_param("errors", static_cast<std::uint64_t>(report.errors));
  for (std::size_t i = 0; i < spec.seeds.size(); ++i) {
    manifest.seeds["grid" + std::to_string(i)] = spec.seeds[i];
  }
  for (std::size_t i = 0; i < report.jobs.size(); ++i) {
    if (!report.results[i].ok()) {
      manifest.notes["error/" + report.jobs[i].city + "/" +
                     std::to_string(report.jobs[i].seed) + "/" +
                     report.jobs[i].point] = report.results[i].error;
    }
    for (const auto& [key, value] : report.results[i].notes) {
      manifest.notes[key] = value;
    }
  }
  manifest.metrics = report.metrics;
  manifest.digest = report.digest;
  return manifest;
}

}  // namespace citymesh::runx
