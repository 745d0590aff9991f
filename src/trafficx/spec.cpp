#include "trafficx/spec.hpp"

#include <charconv>
#include <cmath>
#include <istream>
#include <limits>
#include <sstream>
#include <vector>

namespace citymesh::trafficx {

namespace {

/// True when `v` truncates to a value of the unsigned integer type T; the
/// cast is undefined behavior otherwise. 2^digits is exact as a double, so
/// the upper bound is exclusive.
template <typename T>
bool fits(double v) {
  return v >= 0.0 && v < std::ldexp(1.0, std::numeric_limits<T>::digits);
}

/// Token cursor over one spec line (same shape as faultx's parser).
class Cursor {
 public:
  explicit Cursor(std::vector<std::string> tokens) : tokens_(std::move(tokens)) {}

  bool done() const { return pos_ >= tokens_.size(); }
  std::string take() { return tokens_[pos_++]; }

  bool accept(std::string_view keyword) {
    if (done() || tokens_[pos_] != keyword) return false;
    ++pos_;
    return true;
  }

  bool number(double& out) {
    if (done()) return false;
    const std::string& s = tokens_[pos_];
    const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
    // from_chars also accepts "inf" and "nan"; no spec value may be either.
    if (ec != std::errc{} || ptr != s.data() + s.size() || !std::isfinite(out)) {
      return false;
    }
    ++pos_;
    return true;
  }

 private:
  std::vector<std::string> tokens_;
  std::size_t pos_ = 0;
};

bool parse_spatial(Cursor& cur, WorkloadSpec& spec) {
  if (cur.done()) return false;
  const auto mode = spatial_mode_from(cur.take());
  if (!mode) return false;
  spec.spatial = *mode;
  double v = 0.0;
  while (!cur.done()) {
    if (cur.accept("bias")) {
      if (*mode != SpatialMode::kHotspot || !cur.number(v) || v <= 0.0) return false;
      spec.hotspot_bias = v;
    } else if (cur.accept("origin")) {
      if (*mode != SpatialMode::kEmergency || !cur.number(v)) return false;
      if (!fits<osmx::BuildingId>(v)) return false;
      spec.emergency_origin = static_cast<osmx::BuildingId>(v);
    } else {
      return false;
    }
  }
  return true;
}

bool parse_line(Cursor& cur, WorkloadSpec& spec) {
  double v = 0.0;
  if (cur.accept("name")) {
    if (cur.done()) return false;
    spec.name = cur.take();
    return cur.done();
  }
  if (cur.accept("seed")) {
    if (!cur.number(v) || !fits<std::uint64_t>(v)) return false;
    spec.seed = static_cast<std::uint64_t>(v);
    return cur.done();
  }
  if (cur.accept("duration")) {
    if (!cur.number(v) || v <= 0.0) return false;
    spec.duration_s = v;
    return cur.done();
  }
  if (cur.accept("rate")) {
    if (!cur.number(v) || v <= 0.0) return false;
    spec.rate_per_s = v;
    return cur.done();
  }
  if (cur.accept("spatial")) return parse_spatial(cur, spec);
  if (cur.accept("payload")) {
    double lo = 0.0, hi = 0.0;
    if (!cur.number(lo) || lo < 1.0) return false;
    hi = lo;
    if (!cur.done() && (!cur.number(hi) || hi < lo)) return false;
    if (!fits<std::size_t>(hi)) return false;
    spec.payload_min_bytes = static_cast<std::size_t>(lo);
    spec.payload_max_bytes = static_cast<std::size_t>(hi);
    return cur.done();
  }
  return false;
}

}  // namespace

std::optional<WorkloadSpec> parse_workload(std::istream& in, std::string* error) {
  WorkloadSpec spec;
  std::string line;
  std::size_t line_no = 0;
  // The later of the `rate`/`duration` lines: the one that completes the
  // expected flow count checked after the last line.
  std::size_t load_line_no = 0;
  std::string load_line;
  while (std::getline(in, line)) {
    ++line_no;
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    std::istringstream tokens{line};
    std::vector<std::string> parts;
    for (std::string tok; tokens >> tok;) parts.push_back(std::move(tok));
    if (parts.empty()) continue;

    const bool sets_load = parts.front() == "rate" || parts.front() == "duration";
    Cursor cur{std::move(parts)};
    if (!parse_line(cur, spec)) {
      if (error) {
        *error = "workload spec: cannot parse line " + std::to_string(line_no) +
                 ": " + line;
      }
      return std::nullopt;
    }
    if (sets_load) {
      load_line_no = line_no;
      load_line = line;
    }
  }
  if (spec.rate_per_s * spec.duration_s > kMaxExpectedFlows) {
    if (error) {
      *error = "workload spec: line " + std::to_string(load_line_no) +
               ": rate x duration exceeds " +
               std::to_string(static_cast<std::uint64_t>(kMaxExpectedFlows)) +
               " expected flows: " + load_line;
    }
    return std::nullopt;
  }
  return spec;
}

std::optional<WorkloadSpec> parse_workload(const std::string& text, std::string* error) {
  std::istringstream in{text};
  return parse_workload(in, error);
}

}  // namespace citymesh::trafficx
