// Sweep specs (src/runx): a declarative grid of experiment runs.
//
// A sweep expands cities x seeds x grid points into independent RunJobs for
// the engine. The line-oriented text format mirrors faultx/spec and
// trafficx/spec so sweeps can be checked into a repo or handed to
// `citymesh sweep` without recompiling:
//
//   # comments and blank lines are skipped
//   name fig6-nightly
//   cities boston chicago washington_dc
//   seeds 1 2 3 4
//   pairs 300
//   deliver 25
//   point eval
//   point scenario specs/blackout.spec
//   point workload specs/rush-hour.spec
//
// `seeds`, `pairs` and `deliver` take finite numbers that fit their integer
// type ("inf" and "nan" are rejected). `cities` and `seeds` accumulate
// across repeated lines. A sweep with no
// `point` line runs one `eval` point (the Fig-6 protocol). Point kinds:
//   eval            reachability/deliverability protocol, `pairs`/`deliver`
//                   sampled with the grid seed
//   scenario FILE   apply the faultx scenario fully, then measure the
//                   surviving mesh with the Fig-6 snapshot protocol
//   workload FILE   run the trafficx workload (its spec seed replaced by
//                   the grid seed) and report the capacity summary
//
// A `protocol` line turns the live protocol family (core::Protocol:
// conduit | qfgeo) into a grid axis:
//
//   protocol conduit qfgeo
//
// Each listed protocol runs the full seed x point grid. With no protocol
// line the sweep runs the base config's protocol and rows/labels/manifests
// are byte-identical to the pre-qfgeo grammar; a single-protocol line
// behaves the same (it only overrides the base config). With two or more,
// point labels gain a "<protocol>/" prefix so rows stay distinguishable.
//
// Expansion order — and therefore merged row order and digest — is
// city-major, then seed, then protocol, then point, independent of worker
// count.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "core/network.hpp"
#include "obsx/manifest.hpp"
#include "runx/city_cache.hpp"
#include "runx/engine.hpp"

namespace citymesh::runx {

struct SweepPoint {
  enum class Kind : std::uint8_t { kEval, kScenario, kWorkload };
  Kind kind = Kind::kEval;
  std::string label;  ///< row label: "eval" or the spec file's stem
  std::string path;   ///< spec file (scenario/workload kinds)
};

struct SweepSpec {
  std::string name = "sweep";
  std::vector<std::string> cities;
  std::vector<std::uint64_t> seeds;
  std::size_t pairs = 300;    ///< reachability pairs per run
  std::size_t deliver = 25;   ///< deliverability pairs per run
  std::vector<SweepPoint> points;  ///< empty = one kEval point
  /// Protocol axis (empty = the base config's protocol, legacy labels).
  std::vector<core::Protocol> protocols;
};

/// Parse a sweep spec. On failure returns nullopt and, when `error` is
/// non-null, a one-line description naming the offending line.
std::optional<SweepSpec> parse_sweep(std::istream& in, std::string* error = nullptr);
std::optional<SweepSpec> parse_sweep(const std::string& text,
                                     std::string* error = nullptr);

/// Expand the grid in city-major order. Seeds default to {1} and points to
/// {eval} when unset.
std::vector<RunJob> expand(const SweepSpec& spec);

struct SweepRunConfig {
  std::size_t jobs = 1;  ///< worker threads (0 = hardware concurrency)
  /// Base network parameters shared by every run; graph + placement also key
  /// the compiled-city cache.
  core::NetworkConfig network;
};

/// Execute a sweep end-to-end: pre-parse point spec files (throws
/// std::runtime_error naming the file on I/O or parse errors), expand the
/// grid, run it on `config.jobs` workers sharing `cache`, and merge.
/// Per-run failures (e.g. an unknown city name) are captured in their row,
/// not thrown.
SweepReport run_sweep(const SweepSpec& spec, CityCache& cache,
                      const SweepRunConfig& config);

/// Table headers matching the rows of a report produced by run_sweep.
std::vector<std::string> sweep_headers(const SweepSpec& spec);

/// Fold a finished sweep into a deterministic manifest (no wall clock and
/// no worker count recorded, so manifests from different `--jobs` runs are
/// byte-identical; the caller may stamp wall_clock_s afterwards).
obsx::RunManifest sweep_manifest(const SweepSpec& spec, const SweepReport& report);

}  // namespace citymesh::runx
