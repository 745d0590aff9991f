// Summary statistics and metric records for the CityMesh benchmark.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Which side of the system a metric describes: what the simulator costs on
/// the host, what the modelled network does in simulated time, or one layer
/// of the traced run.
enum class Label : std::uint8_t { kHost, kSim, kLayer };

std::string_view to_string(Label label);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  Label label = Label::kHost;
};

/// Linear-interpolation quantile (q in [0, 1]) of `values`; 0 when empty.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// Samples ranked beyond quantile `q` among `n` samples: n - ceil(q * n).
/// 1000 samples keep 10 beyond p99; 999 keep 9.
std::size_t samples_beyond(std::size_t n, double q);

/// The percentile rule: a tail percentile is reported only when at least
/// this many samples lie beyond it.
inline constexpr std::size_t kMinTailSamples = 10;

/// The highest percentile (in percent, whole or tenths) with at least
/// kMinTailSamples samples beyond it; 0 when n is too small for any.
double highest_supported_percentile(std::size_t n);

/// True when the named percentile `q` (e.g. 0.99) keeps kMinTailSamples
/// samples beyond it.
bool percentile_supported(std::size_t n, double q);

/// Process peak resident set (VmHWM) in MiB; 0 when /proc is unavailable.
double peak_rss_mib();

/// Hands freed heap pages back to the OS and restarts VmHWM from the current
/// resident set (Linux clear_refs "5"), so the next peak_rss_mib() reads one
/// phase's own peak. False if unsupported.
bool reset_peak_rss();

}  // namespace perfbench
