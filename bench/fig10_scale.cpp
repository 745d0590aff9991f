// Figure 10 (extension): one metro-scale run on a ladder of growing cities.
//
// The paper simulates each city sequentially; a metro-scale fabric (tens of
// thousands of APs under offered load) makes one run's wall clock and
// memory the quantities to watch. This bench runs the same airtime-
// contention workload on a ladder of growing synthetic cities and reports,
// per rung, the behavioral cells (offered flows, delivery rate,
// transmissions, p50 latency) next to wall clock, events/s, the process
// peak RSS (VmHWM) and the rung's additional peak bytes per AP.
//
// The workload runs in the draw-free regime (no jitter, no loss, flood
// relay). Only the behavioral cells fold into the determinism digest; wall
// clock, events/s and memory vary between machines and stay outside it.
//
// VmHWM is monotonic, so on the full ladder only a row that lifts the
// process peak shows a nonzero B/AP; `--rung NAME` restricts the ladder to
// one rung for a clean fresh-process memory measurement of that city size.
// `--quick` shrinks the ladder for smoke/CI.
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/network.hpp"
#include "osmx/citygen.hpp"
#include "runx/city_cache.hpp"
#include "trafficx/runner.hpp"
#include "trafficx/workload.hpp"
#include "viz/ascii.hpp"

namespace core = citymesh::core;
namespace osmx = citymesh::osmx;
namespace runx = citymesh::runx;
namespace trafficx = citymesh::trafficx;
namespace viz = citymesh::viz;

namespace {

constexpr std::uint64_t kWorkloadSeed = 1010;
constexpr double kBitrateBps = 250e3;
constexpr double kRatePerS = 4.0;
constexpr double kDurationS = 12.0;
constexpr double kQuickDurationS = 4.0;

struct Rung {
  const char* name;
  double width_m;
  double height_m;
};
constexpr Rung kLadder[] = {{"metro-s", 900, 700},
                            {"metro-m", 1500, 1100},
                            {"metro-l", 2200, 1600},
                            {"metro-xl", 3000, 2200},
                            {"metro-xxl", 4200, 3100}};
constexpr Rung kQuickLadder[] = {{"metro-s", 900, 700}};

osmx::CityProfile rung_profile(const Rung& rung) {
  osmx::CityProfile p;
  p.name = rung.name;
  p.width_m = rung.width_m;
  p.height_m = rung.height_m;
  p.seed = 101;
  return p;
}

// Draw-free regime: serialization timing is deterministic (finite bitrate,
// zero jitter), nothing is lost, and the flood policy draws no randomness.
core::NetworkConfig network_config() {
  core::NetworkConfig config;
  config.placement.seed = 7;
  config.placement.density_per_m2 = 1.0 / 60.0;
  config.seed = 99;
  config.medium.bitrate_bps = kBitrateBps;
  config.medium.jitter_s = 0.0;
  config.medium.loss_probability = 0.0;
  return config;
}

trafficx::WorkloadSpec workload_spec(double duration_s) {
  trafficx::WorkloadSpec spec;
  spec.name = "fig10";
  spec.seed = kWorkloadSeed;
  spec.duration_s = duration_s;
  spec.rate_per_s = kRatePerS;
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  citymesh::benchutil::ManifestEmitter emit{"fig10_scale", argc, argv};
  bool quick = false;
  const char* rung_filter = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--rung") == 0 && i + 1 < argc) {
      rung_filter = argv[i + 1];
    }
  }
  const double duration_s = quick ? kQuickDurationS : kDurationS;
  std::vector<Rung> ladder;
  for (const Rung& rung :
       quick ? std::span<const Rung>{kQuickLadder} : std::span<const Rung>{kLadder}) {
    if (rung_filter == nullptr || std::strcmp(rung.name, rung_filter) == 0) {
      ladder.push_back(rung);
    }
  }
  if (ladder.empty()) {
    std::cerr << "fig10_scale: --rung '" << rung_filter
              << "' matches no ladder rung\n";
    return 2;
  }

  std::cout << "CityMesh extension - Figure 10 (metro scale ladder)\n"
            << "one draw-free workload per city size"
            << (quick ? " (--quick ladder)" : "") << "\n";

  emit.manifest().city = "ladder";
  emit.manifest().seeds["workload"] = kWorkloadSeed;
  emit.manifest().set_param("duration_s", duration_s);
  emit.manifest().set_param("bitrate_bps", kBitrateBps);
  emit.manifest().set_param("quick", quick ? std::uint64_t{1} : std::uint64_t{0});

  runx::CityCache cache;
  std::vector<std::vector<std::string>> rows;
  for (const Rung& rung : ladder) {
    const osmx::CityProfile profile = rung_profile(rung);
    emit.manifest().seeds[profile.name] = profile.seed;
    const core::NetworkConfig config = network_config();
    const auto compiled = cache.get(profile, config);
    const auto schedule =
        trafficx::compile(workload_spec(duration_s), compiled->city);

    // VmHWM delta across build + run = this rung's additional peak RSS. The
    // ladder ascends, so each rung grows the process peak and its bytes/AP
    // is meaningful. Memory cells (like wall clock) stay out of the digest.
    const auto mem_before = citymesh::benchutil::read_mem_usage();
    core::CityMeshNetwork network{compiled, config};
    const auto t0 = std::chrono::steady_clock::now();
    const auto run = trafficx::run_workload(network, schedule);
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    const auto mem_after = citymesh::benchutil::read_mem_usage();
    const std::uint64_t hwm_delta_kib = mem_after.vm_hwm_kib - mem_before.vm_hwm_kib;
    const double bytes_per_ap = static_cast<double>(hwm_delta_kib) * 1024.0 /
                                static_cast<double>(compiled->aps.ap_count());
    const double events = static_cast<double>(network.simulator().events_processed());
    const core::CapacitySummary& s = run.summary;

    // Behavioral cells only — the determinism digest.
    std::vector<std::string> row = {profile.name,
                                    std::to_string(compiled->aps.ap_count()),
                                    std::to_string(s.flows_offered),
                                    viz::fmt(s.delivery_rate(), 3),
                                    std::to_string(s.transmissions),
                                    viz::fmt(s.latency_p50_s * 1e3, 2)};
    for (const auto& cell : row) emit.row(cell);
    emit.add_metrics(run.metrics);

    row.push_back(viz::fmt(wall_s, 3));
    row.push_back(viz::fmt(static_cast<double>(mem_after.vm_hwm_kib) / 1024.0, 1));
    row.push_back(viz::fmt(bytes_per_ap, 0));
    row.push_back(wall_s > 0.0 ? viz::fmt(events / wall_s, 0) : "-");
    rows.push_back(std::move(row));
  }

  viz::print_table(std::cout, "Figure 10: metro scale ladder",
                   {"city", "aps", "offered", "deliver", "tx", "p50 ms", "wall s",
                    "peak MiB", "B/AP", "events/s"},
                   rows);

  std::cout << "\nDeterminism digest: " << emit.digest_hex()
            << "  (behavioral cells only)\n";
  return emit.finish(0);
}
