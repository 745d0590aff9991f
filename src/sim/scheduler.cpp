#include "sim/scheduler.hpp"

#include <algorithm>
#include <cmath>

namespace citymesh::sim {

CalendarQueue::CalendarQueue() : buckets_(kMinBuckets) {}

void CalendarQueue::insert_sorted(std::vector<EventRecord>& v, EventRecord&& ev) {
  // Descending (time, seq): the minimum sits at back() for O(1) removal.
  const auto pos = std::lower_bound(
      v.begin(), v.end(), ev,
      [](const EventRecord& a, const EventRecord& b) { return b.before(a); });
  v.insert(pos, std::move(ev));
}

void CalendarQueue::place(EventRecord&& ev, Where* where, std::size_t* bucket) {
  if (in_overflow(ev.time)) {
    insert_sorted(overflow_, std::move(ev));
    if (where != nullptr) *where = Where::kOverflow;
    return;
  }
  const std::size_t idx = bucket_index(ev.time);
  insert_sorted(buckets_[idx], std::move(ev));
  if (where != nullptr) {
    *where = Where::kBucket;
    *bucket = idx;
  }
}

void CalendarQueue::push(EventRecord&& ev) {
  // Cache maintenance: a still-valid cached minimum stays valid (it remains
  // its bucket's back() even when the new event joins the same bucket,
  // because a non-smaller event sorts in front of it); a new smaller event
  // simply retargets the cache.
  const EventRecord* cur = cached_min();
  const bool smaller = cur != nullptr && ev.before(*cur);
  // The ring scan starts at floor_time_ (normally the last pop time, which
  // no Simulator push can undercut). A raw-queue user inserting into the
  // past just drags the scan start back with it.
  if (ev.time < floor_time_) floor_time_ = ev.time;
  Where where = Where::kNone;
  std::size_t bucket = 0;
  place(std::move(ev), &where, &bucket);
  ++size_;
  if (smaller) {
    cached_ = where;
    cached_bucket_ = bucket;
  }
  maybe_resize();
}

const EventRecord* CalendarQueue::cached_min() const {
  switch (cached_) {
    case Where::kBucket: return &buckets_[cached_bucket_].back();
    case Where::kOverflow: return &overflow_.back();
    case Where::kNone: break;
  }
  return nullptr;
}

const EventRecord* CalendarQueue::peek() const {
  if (size_ == 0) return nullptr;
  if (cached_ == Where::kNone) locate_min();
  return cached_min();
}

EventRecord CalendarQueue::pop() {
  if (cached_ == Where::kNone) locate_min();
  EventRecord ev;
  if (cached_ == Where::kOverflow) {
    ev = std::move(overflow_.back());
    overflow_.pop_back();
  } else {
    std::vector<EventRecord>& b = buckets_[cached_bucket_];
    ev = std::move(b.back());
    b.pop_back();
    if (b.size() > serviced_occupancy_) serviced_occupancy_ = b.size();
  }
  --size_;
  floor_time_ = ev.time;
  cached_ = Where::kNone;
  maybe_resize();
  return ev;
}

void CalendarQueue::locate_min() const {
  // Precondition: size_ > 0. Overflow events all lie at or beyond day
  // kMaxDay — strictly after every bucketed event — so the overflow list is
  // the minimum only when the buckets are empty.
  if (overflow_.size() == size_) {
    cached_ = Where::kOverflow;
    return;
  }
  // Scan one lap of days starting at the last pop time (every pending event
  // is >= floor_time_). An event qualifies only inside its own day window
  // (time < top): a bucket's min might belong to a later lap of the ring.
  SimTime start = floor_time_;
  if (!(start > 0.0)) start = 0.0;
  std::uint64_t day = day_of(start);
  std::size_t idx = static_cast<std::size_t>(day) & mask_;
  SimTime top = (static_cast<SimTime>(day) + 1.0) * width_;
  const std::size_t lap = buckets_.size();
  for (std::size_t step = 0; step < lap; ++step) {
    const std::vector<EventRecord>& b = buckets_[idx];
    if (!b.empty() && b.back().time < top) {
      cached_ = Where::kBucket;
      cached_bucket_ = idx;
      return;
    }
    idx = (idx + 1) & mask_;
    top += width_;
  }
  // Sparse year (no event within one lap of day windows): direct search over
  // the bucket minima.
  const EventRecord* best = nullptr;
  std::size_t best_idx = 0;
  for (std::size_t i = 0; i < lap; ++i) {
    const std::vector<EventRecord>& b = buckets_[i];
    if (!b.empty() && (best == nullptr || b.back().before(*best))) {
      best = &b.back();
      best_idx = i;
    }
  }
  cached_ = Where::kBucket;
  cached_bucket_ = best_idx;
}

void CalendarQueue::maybe_resize() {
  const std::size_t nb = buckets_.size();
  if (size_ > nb * 2) {
    rebuild(nb * 2, Rederive::kFree);
    return;
  }
  if (nb > kMinBuckets && size_ < nb / 2) {
    rebuild(nb / 2, Rederive::kFree);
    return;
  }
  if (serviced_occupancy_ > kOccupancyLimit) {
    // A pop just serviced a bucket holding > kOccupancyLimit events: the
    // head of the queue is packed much denser than one event per ~3 days,
    // so insertion into that sorted bucket is degrading toward O(n). The
    // true head spacing is at most width / occupancy; jump the width down
    // proportionally in a single rebuild instead of creeping there. The
    // clamp keeps the current head's day index far below the overflow
    // cutoff so narrowing can never push live events into the overflow
    // list. No quantile estimator replaces this signal: a global spacing
    // statistic is blind to a bimodal pending set (dense recycled head +
    // sparse far tail) where the head density is a tiny fraction of the
    // events.
    const double occ = static_cast<double>(serviced_occupancy_);
    const int shift = static_cast<int>(std::ceil(std::log2(occ / 3.0)));
    const int cur_exp = std::ilogb(width_);
    const int head_exp = std::ilogb(std::max(floor_time_, 1.0));
    const int new_exp = std::max(cur_exp - shift, std::max(head_exp - 50, -62));
    if (new_exp < cur_exp) {
      width_ = std::ldexp(1.0, new_exp);
      inv_width_ = std::ldexp(1.0, -new_exp);
      rebuild(nb, Rederive::kKeep);
      return;
    }
    serviced_occupancy_ = 0;
  }
}

void CalendarQueue::rebuild(std::size_t bucket_count, Rederive rederive) {
  serviced_occupancy_ = 0;
  std::vector<EventRecord> all;
  all.reserve(size_);
  for (std::vector<EventRecord>& b : buckets_)
    for (EventRecord& ev : b) all.push_back(std::move(ev));
  for (EventRecord& ev : overflow_) all.push_back(std::move(ev));

  // Re-derive the day width from the spacing of the *soonest quarter* of
  // pending events. Pop cost is governed by the occupancy of the buckets the
  // ring scan visits next, so the width tracks the event density toward the
  // head of the queue rather than an interquartile estimate that lets a
  // handful of far-future timers blow the width up. Snapped to a power of
  // two so day boundaries are exact in binary floating point. (The
  // occupancy trigger in maybe_resize handles the case no quantile can:
  // a dense head that is a tiny fraction of a sparse pending set.)
  std::vector<SimTime> times;
  if (rederive == Rederive::kFree) {
    times.reserve(all.size());
    for (const EventRecord& ev : all)
      if (std::isfinite(ev.time)) times.push_back(ev.time);
  }
  if (times.size() >= 8) {
    std::sort(times.begin(), times.end());
    const std::size_t hi = times.size() / 4;
    const SimTime span = times[hi] - times[0];
    if (span > 0.0 && std::isfinite(span)) {
      // ~3 day widths of spacing per event keeps bucket occupancy near one.
      const double target = 3.0 * span / static_cast<double>(hi);
      const int exp = static_cast<int>(
          std::lround(std::clamp(std::log2(target), -62.0, 62.0)));
      width_ = std::ldexp(1.0, exp);
      inv_width_ = std::ldexp(1.0, -exp);
    }
  }

  buckets_.clear();
  buckets_.resize(bucket_count);
  mask_ = bucket_count - 1;
  overflow_.clear();
  cached_ = Where::kNone;
  for (EventRecord& ev : all) place(std::move(ev), nullptr, nullptr);
}

}  // namespace citymesh::sim
