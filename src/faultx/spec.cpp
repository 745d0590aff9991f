#include "faultx/spec.hpp"

#include <charconv>
#include <cmath>
#include <istream>
#include <limits>
#include <sstream>

namespace citymesh::faultx {

namespace {

/// True when `v` truncates to a value of the unsigned integer type T; the
/// cast is undefined behavior otherwise. 2^digits is exact as a double, so
/// the upper bound is exclusive.
template <typename T>
bool fits(double v) {
  return v >= 0.0 && v < std::ldexp(1.0, std::numeric_limits<T>::digits);
}

/// Token cursor over one spec line.
class Cursor {
 public:
  explicit Cursor(std::vector<std::string> tokens) : tokens_(std::move(tokens)) {}

  bool done() const { return pos_ >= tokens_.size(); }
  const std::string& peek() const { return tokens_[pos_]; }
  std::string take() { return tokens_[pos_++]; }

  /// Consume `keyword` if it is next.
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

/// `rect X0 Y0 X1 Y1` or `poly x1 y1 ... xn yn` (n >= 3).
bool parse_region(Cursor& cur, geo::Polygon& out) {
  if (cur.accept("rect")) {
    double x0, y0, x1, y1;
    if (!cur.number(x0) || !cur.number(y0) || !cur.number(x1) || !cur.number(y1)) {
      return false;
    }
    out = geo::Polygon::rectangle({{std::min(x0, x1), std::min(y0, y1)},
                                   {std::max(x0, x1), std::max(y0, y1)}});
    return true;
  }
  if (cur.accept("poly")) {
    std::vector<geo::Point> vertices;
    double x, y;
    while (cur.number(x)) {
      if (!cur.number(y)) return false;
      vertices.push_back({x, y});
    }
    if (vertices.size() < 3) return false;
    out = geo::Polygon{std::move(vertices)};
    return true;
  }
  return false;
}

bool parse_blackout(Cursor& cur, Scenario& scenario) {
  BlackoutEvent event;
  if (!parse_region(cur, event.region)) return false;
  double restore = 0.0, stages = 0.0, every = 0.0, at = 0.0;
  while (!cur.done()) {
    if (cur.accept("at")) {
      if (!cur.number(at)) return false;
      event.at_s = at;
    } else if (cur.accept("restore")) {
      if (!cur.number(restore)) return false;
      event.restore_at_s = restore;
    } else if (cur.accept("stages")) {
      if (!cur.number(stages) || stages < 1 || !fits<std::size_t>(stages)) return false;
      event.restore_stages = static_cast<std::size_t>(stages);
    } else if (cur.accept("every")) {
      if (!cur.number(every)) return false;
      event.stage_interval_s = every;
    } else {
      return false;
    }
  }
  scenario.blackouts.push_back(std::move(event));
  return true;
}

bool parse_churn(Cursor& cur, Scenario& scenario) {
  ChurnEvent event;
  double v = 0.0;
  while (!cur.done()) {
    if (cur.accept("frac")) {
      if (!cur.number(v)) return false;
      event.ap_fraction = v;
    } else if (cur.accept("up")) {
      if (!cur.number(v)) return false;
      event.mean_up_s = v;
    } else if (cur.accept("down")) {
      if (!cur.number(v)) return false;
      event.mean_down_s = v;
    } else if (cur.accept("from")) {
      if (!cur.number(v)) return false;
      event.start_s = v;
    } else if (cur.accept("to")) {
      if (!cur.number(v)) return false;
      event.end_s = v;
    } else {
      return false;
    }
  }
  scenario.churn.push_back(event);
  return true;
}

bool parse_brownout(Cursor& cur, Scenario& scenario) {
  BrownoutEvent event;
  double v = 0.0;
  while (!cur.done()) {
    if (cur.accept("axis")) {
      if (cur.done()) return false;
      const std::string axis = cur.take();
      if (axis != "x" && axis != "y") return false;
      event.sweep_x = axis == "x";
    } else if (cur.accept("width")) {
      if (!cur.number(v)) return false;
      event.front_width_m = v;
    } else if (cur.accept("from")) {
      if (!cur.number(v)) return false;
      event.start_s = v;
    } else if (cur.accept("duration")) {
      if (!cur.number(v)) return false;
      event.duration_s = v;
    } else {
      return false;
    }
  }
  scenario.brownouts.push_back(event);
  return true;
}

bool parse_degrade(Cursor& cur, Scenario& scenario) {
  DegradedLinkEvent event;
  if (!parse_region(cur, event.region)) return false;
  double v = 0.0;
  while (!cur.done()) {
    if (cur.accept("loss")) {
      if (!cur.number(v) || v < 0.0 || v > 1.0) return false;
      event.extra_loss = v;
    } else if (cur.accept("from")) {
      if (!cur.number(v)) return false;
      event.start_s = v;
    } else if (cur.accept("to")) {
      if (!cur.number(v)) return false;
      event.end_s = v;
    } else {
      return false;
    }
  }
  scenario.degraded_links.push_back(std::move(event));
  return true;
}

bool parse_line(Cursor& cur, ParsedScenario& out) {
  if (cur.accept("name")) {
    if (cur.done()) return false;
    out.scenario.name = cur.take();
    return cur.done();
  }
  if (cur.accept("seed")) {
    double v = 0.0;
    if (!cur.number(v) || !fits<std::uint64_t>(v)) return false;
    out.scenario.seed = static_cast<std::uint64_t>(v);
    return cur.done();
  }
  if (cur.accept("checkpoints")) {
    double v = 0.0;
    while (cur.number(v)) out.checkpoints.push_back(v);
    return cur.done() && !out.checkpoints.empty();
  }
  if (cur.accept("blackout")) return parse_blackout(cur, out.scenario);
  if (cur.accept("churn")) return parse_churn(cur, out.scenario);
  if (cur.accept("brownout")) return parse_brownout(cur, out.scenario);
  if (cur.accept("degrade")) return parse_degrade(cur, out.scenario);
  return false;
}

}  // namespace

std::optional<ParsedScenario> parse_scenario(std::istream& in, std::string* error) {
  ParsedScenario out;
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

    Cursor cur{std::move(parts)};
    if (!parse_line(cur, out)) {
      if (error) {
        *error = "scenario spec: cannot parse line " + std::to_string(line_no) +
                 ": " + line;
      }
      return std::nullopt;
    }
  }
  return out;
}

std::optional<ParsedScenario> parse_scenario(const std::string& text,
                                             std::string* error) {
  std::istringstream in{text};
  return parse_scenario(in, error);
}

}  // namespace citymesh::faultx
