// Line-oriented text format for workload specs, mirroring faultx/spec: a
// traffic profile can be checked into a repo or handed to `citymesh load`
// without recompiling.
//
//   # comments and blank lines are skipped
//   name rush-hour
//   seed 7
//   duration 20
//   rate 8
//   spatial hotspot bias 4
//   spatial emergency origin 12
//   payload 64 512
//
// `spatial uniform` takes no clause; `bias` (hotspot) and `origin`
// (emergency) are optional and default per WorkloadSpec. `payload MIN MAX`
// sets the uniform payload-size range in bytes (one value = fixed size).
// Numbers must be finite ("inf" and "nan" are rejected), and values stored
// as integers (seed, origin, payload) must fit their integer type.
// The expected flow count `rate x duration` may not exceed
// kMaxExpectedFlows; the error names whichever of the two lines came last.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>

#include "trafficx/workload.hpp"

namespace citymesh::trafficx {

/// Cap on a parsed spec's expected flow count (rate_per_s * duration_s).
/// The schedule compiler reserves and generates that many flows up front.
inline constexpr double kMaxExpectedFlows = 1e6;

/// Parse a workload spec. On failure returns nullopt and, when `error` is
/// non-null, a one-line description naming the offending line.
std::optional<WorkloadSpec> parse_workload(std::istream& in,
                                           std::string* error = nullptr);

/// Convenience: parse from a string (tests, inline CLI specs).
std::optional<WorkloadSpec> parse_workload(const std::string& text,
                                           std::string* error = nullptr);

}  // namespace citymesh::trafficx
