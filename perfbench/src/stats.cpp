#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <malloc.h>

namespace perfbench {

std::string_view to_string(Label label) {
  switch (label) {
    case Label::kHost: return "host";
    case Label::kSim: return "sim";
    case Label::kLayer: return "layer";
  }
  return "?";
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

std::size_t samples_beyond(std::size_t n, double q) {
  // The small slack keeps q * n from rounding just above a whole rank.
  const double rank = std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(n) - 1e-9);
  return n - std::min(n, static_cast<std::size_t>(std::max(rank, 0.0)));
}

bool percentile_supported(std::size_t n, double q) {
  return samples_beyond(n, q) >= kMinTailSamples;
}

double highest_supported_percentile(std::size_t n) {
  for (int tenths = 999; tenths >= 1; --tenths) {
    if (percentile_supported(n, tenths / 1000.0)) return tenths / 10.0;
  }
  return 0.0;
}

double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

bool reset_peak_rss() {
  malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
