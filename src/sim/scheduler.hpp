// Pending-event storage for the simulator: a calendar queue realizing the
// strictly increasing (time, seq) total order. The differential harness in
// tests/test_scheduler.cpp replays randomized schedule/cancel streams
// through the Simulator and a test-local binary-heap reference and asserts
// identical pop sequences.
//
// The calendar queue (Brown 1988, the ns-2 scheduler) hashes each event by
// its "day" — floor(time / width) — into one of 2^k bucket "slots" of a
// circular year. Pops scan forward from the current day; each bucket holds
// its events sorted, so the scan touches O(1) buckets when the width matches
// the observed event spacing. The width is re-derived (snapped to a power of
// two, so day boundaries are exact in binary floating point) from the
// spacing of the soonest quarter of pending events every time the bucket
// count resizes; between resizes, a pop that services an over-packed bucket
// triggers an occupancy-proportional narrowing rebuild (the signal a spacing
// quantile cannot see on a bimodal pending set). A far-future/overflow
// bucket catches events whose day index would not fit — including +infinity
// timers. Equal times always land in the same bucket, so the in-bucket
// (time, seq) sort yields the FIFO tie-break exactly.
//
// Event records carry their handler inline (sim/handler.hpp) or a pointer to
// a BatchEvent — a multi-shot event the medium uses to fan one transmission
// out to N receptions from a single queue node (sim/medium.hpp): after each
// firing the batch reports the (time, seq) of its next entry and is
// reinserted, so the global interleaving is identical to N independent
// events at the same timestamps.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/handler.hpp"

namespace citymesh::sim {

/// Simulated time in seconds.
using SimTime = double;

constexpr SimTime kForever = std::numeric_limits<SimTime>::infinity();

/// What a BatchEvent::fire returns: the key of its next pending entry, or
/// more == false when the batch is exhausted (after which the queue drops
/// its pointer; the batch owner reclaims the object).
struct BatchFire {
  bool more = false;
  SimTime time = 0.0;
  std::uint64_t seq = 0;
};

class BatchEvent {
 public:
  virtual ~BatchEvent() = default;
  /// Deliver exactly one entry (the one this record was keyed by), then
  /// report the next entry's key. Entries must be (time, seq) sorted and
  /// every seq must come from Simulator::reserve_seq().
  virtual BatchFire fire(SimTime now) = 0;
};

struct EventRecord {
  SimTime time = 0.0;
  std::uint64_t seq = 0;
  BatchEvent* batch = nullptr;  ///< non-null: multi-shot, fn unused
  InlineFn fn;

  bool before(const EventRecord& other) const {
    if (time != other.time) return time < other.time;
    return seq < other.seq;
  }
};

/// Calendar-queue storage. Buckets hold events sorted descending (min at
/// back() for O(1) removal); the peek cache remembers where the current
/// minimum lives so peek-then-pop costs one scan, not two.
class CalendarQueue {
 public:
  CalendarQueue();

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void push(EventRecord&& ev);
  /// Minimum (time, seq) record, or nullptr when empty. The pointer is
  /// invalidated by the next push/pop.
  const EventRecord* peek() const;
  /// Remove and return the minimum record. Precondition: !empty().
  EventRecord pop();

  /// Current bucket count (tests observe resize behavior).
  std::size_t bucket_count() const { return buckets_.size(); }
  SimTime day_width() const { return width_; }

 private:
  enum class Where : std::uint8_t { kNone, kBucket, kOverflow };

  std::uint64_t day_of(SimTime t) const {
    // Sim time is nonnegative; the guard keeps a stray negative from hitting
    // the UB of a negative double-to-unsigned cast.
    return t > 0.0 ? static_cast<std::uint64_t>(t * inv_width_) : 0;
  }
  bool in_overflow(SimTime t) const {
    // Also catches +infinity and NaN: !(x < limit) is true for both.
    return !(t * inv_width_ < kMaxDay);
  }
  std::size_t bucket_index(SimTime t) const {
    return static_cast<std::size_t>(day_of(t)) & mask_;
  }

  static void insert_sorted(std::vector<EventRecord>& v, EventRecord&& ev);
  void place(EventRecord&& ev, Where* where, std::size_t* bucket);
  const EventRecord* cached_min() const;
  void locate_min() const;
  enum class Rederive : std::uint8_t {
    kKeep,  ///< redistribute only, keep the current width
    kFree,  ///< re-derive the width from pending spacing (may widen)
  };
  void rebuild(std::size_t bucket_count, Rederive rederive);
  void maybe_resize();

  static constexpr std::size_t kMinBuckets = 16;
  /// Serviced-bucket occupancy beyond which the day width is declared too
  /// wide and narrowed in one occupancy-proportional jump.
  static constexpr std::size_t kOccupancyLimit = 64;
  /// Largest day index stored in a bucket: 2^53 keeps the index exact as a
  /// double and far from uint64 overflow. Anything beyond (plus inf/NaN)
  /// goes to the overflow list.
  static constexpr double kMaxDay = 9007199254740992.0;  // 2^53

  std::vector<std::vector<EventRecord>> buckets_;
  std::vector<EventRecord> overflow_;  ///< sorted descending, min at back()
  std::size_t size_ = 0;
  /// Largest occupancy seen in a bucket a pop serviced since the last
  /// rebuild; direct evidence the width is too wide for the head density.
  std::size_t serviced_occupancy_ = 0;
  std::size_t mask_ = kMinBuckets - 1;
  SimTime width_ = 1.0;  ///< power of two
  SimTime inv_width_ = 1.0;
  SimTime floor_time_ = 0.0;  ///< no pending event is earlier (last pop time)

  // Peek cache (mutable: peek() is logically const).
  mutable Where cached_ = Where::kNone;
  mutable std::size_t cached_bucket_ = 0;
};

}  // namespace citymesh::sim
