// A small line-oriented text format for scenario specs, so disaster scripts
// can be checked into a repo or passed to the CLI without recompiling.
//
//   # comments and blank lines are skipped
//   name downtown-blackout
//   seed 7
//   blackout rect 400 400 1200 1200 at 10 restore 300 stages 3 every 60
//   blackout poly 0 0 500 0 500 500 at 20
//   churn frac 0.15 up 200 down 80 from 0 to 900
//   brownout axis x width 200 from 100 duration 400
//   degrade rect 0 0 800 800 loss 0.4 from 50 to 600
//   checkpoints 0 60 120 300 600
//
// Region clauses: `rect X0 Y0 X1 Y1` (axis-aligned) or `poly x1 y1 x2 y2
// ... xn yn` (>= 3 vertices). Trailing clauses of an event line are
// optional and may appear in any order. Numbers must be finite ("inf" and
// "nan" are rejected), and `seed` and `stages` must fit their integer type.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "faultx/scenario.hpp"

namespace citymesh::faultx {

struct ParsedScenario {
  Scenario scenario;
  /// From the optional `checkpoints` line (ascending not enforced).
  std::vector<sim::SimTime> checkpoints;
};

/// Parse a scenario spec. On failure returns nullopt and, when `error` is
/// non-null, a one-line description naming the offending line.
std::optional<ParsedScenario> parse_scenario(std::istream& in,
                                             std::string* error = nullptr);

/// Convenience: parse from a string (tests, inline CLI specs).
std::optional<ParsedScenario> parse_scenario(const std::string& text,
                                             std::string* error = nullptr);

}  // namespace citymesh::faultx
