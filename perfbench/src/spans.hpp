// In-memory span recorder for the benchmark's traced runs.
//
// The benchmark opens a span around each call it makes into a layer
// (city generation, postbox registration, inject, run_until, send, ...).
// A span records its name, start, end, the span that was open when it began
// (its parent) and a flow id shared by every span of one flow or send.
// Spans stay in memory and are written out once, after the run.
//
// One recorder belongs to one thread; runs with several workers give each
// job its own recorder and merge the per-name totals afterwards.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Span {
  std::uint32_t name = 0;     ///< index into SpanRecorder::names()
  std::int64_t start_ns = 0;  ///< steady-clock nanoseconds
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;   ///< index of the enclosing span, -1 = root
  std::uint32_t flow = 0;     ///< shared by the spans of one flow; 0 = none
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
std::vector<std::int64_t> self_times_ns(std::span<const Span> spans);

class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  /// Opens a span on construction and closes it on destruction.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, std::string_view name, std::uint32_t flow);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
    std::int32_t index_ = -1;
  };

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& names() const { return names_; }

  /// Sum of span durations per name, in seconds.
  std::map<std::string, double> total_seconds() const;
  /// Sum of span self times per name, in seconds.
  std::map<std::string, double> self_seconds() const;
  /// Number of spans per name.
  std::map<std::string, std::size_t> counts() const;

  /// One JSON object per line: name, start_ns, end_ns, parent, flow.
  void write_jsonl(std::ostream& out) const;

 private:
  std::uint32_t intern(std::string_view name);
  static std::int64_t now_ns();

  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;  ///< stack of open span indices
};

/// Opens a span when `recorder` is non-null; a no-op otherwise, so the
/// untraced run shares the traced run's code path.
inline SpanRecorder::Scope span(SpanRecorder* recorder, std::string_view name,
                                std::uint32_t flow = 0) {
  return SpanRecorder::Scope{recorder, name, flow};
}

}  // namespace perfbench
