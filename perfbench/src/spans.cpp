#include "spans.hpp"

#include <algorithm>
#include <ostream>

namespace perfbench {

std::vector<std::int64_t> self_times_ns(std::span<const Span> spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int32_t p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size()) {
      children[static_cast<std::size_t>(p)].push_back(i);
    }
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  std::vector<std::pair<std::int64_t, std::int64_t>> cover;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    cover.clear();
    for (const std::size_t c : children[i]) {
      const std::int64_t lo = std::max(spans[c].start_ns, s.start_ns);
      const std::int64_t hi = std::min(spans[c].end_ns, s.end_ns);
      if (hi > lo) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : cover) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

SpanRecorder::Scope::Scope(SpanRecorder* recorder, std::string_view name,
                           std::uint32_t flow)
    : recorder_(recorder) {
  if (recorder_ == nullptr) return;
  Span s;
  s.name = recorder_->intern(name);
  s.parent = recorder_->open_.empty() ? -1 : recorder_->open_.back();
  s.flow = flow;
  index_ = static_cast<std::int32_t>(recorder_->spans_.size());
  recorder_->spans_.push_back(s);
  recorder_->open_.push_back(index_);
  // Read the clock last so the bookkeeping above is not charged to the span.
  recorder_->spans_[static_cast<std::size_t>(index_)].start_ns = now_ns();
}

SpanRecorder::Scope::~Scope() {
  if (recorder_ == nullptr) return;
  recorder_->spans_[static_cast<std::size_t>(index_)].end_ns = now_ns();
  recorder_->open_.pop_back();
}

std::uint32_t SpanRecorder::intern(std::string_view name) {
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it != names_.end()) return static_cast<std::uint32_t>(it - names_.begin());
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::int64_t SpanRecorder::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

std::map<std::string, double> SpanRecorder::total_seconds() const {
  std::map<std::string, double> out;
  for (const Span& s : spans_) {
    out[names_[s.name]] += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }
  return out;
}

std::map<std::string, double> SpanRecorder::self_seconds() const {
  const std::vector<std::int64_t> self = self_times_ns(spans_);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[names_[spans_[i].name]] += static_cast<double>(self[i]) * 1e-9;
  }
  return out;
}

std::map<std::string, std::size_t> SpanRecorder::counts() const {
  std::map<std::string, std::size_t> out;
  for (const Span& s : spans_) ++out[names_[s.name]];
  return out;
}

void SpanRecorder::write_jsonl(std::ostream& out) const {
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << names_[s.name] << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"flow\":" << s.flow << "}\n";
  }
}

}  // namespace perfbench
