// Discrete-event simulation engine.
//
// Replaces the paper's SimPy harness. Events are (time, sequence) ordered —
// ties break on insertion order, so runs are deterministic for a given seed.
// The pending set lives in a CalendarQueue (sim/scheduler.hpp). The engine
// knows nothing about radios — the broadcast medium (medium.hpp) and the
// protocol agents are layered on top.
//
// Handlers are stored inline in the event record (sim/handler.hpp), so
// scheduling an ordinary closure performs no allocation. The schedule_*
// entry points are templates accepting any void() callable — std::function
// still works, it is just no longer required.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "obsx/metrics.hpp"
#include "sim/scheduler.hpp"

namespace citymesh::sim {

class Simulator {
 public:
  using Handler = std::function<void()>;
  /// Token identifying one cancelable scheduled event (its sequence number).
  using EventId = std::uint64_t;
  static constexpr EventId kInvalidEvent = std::numeric_limits<EventId>::max();

  SimTime now() const { return now_; }

  /// Schedule `fn` at absolute time `t` (must be >= now()).
  template <typename F>
  void schedule_at(SimTime t, F&& fn) {
    if (t < now_) throw std::invalid_argument{"Simulator: cannot schedule in the past"};
    if (latency_) latency_->record(t - now_);
    queue_.push({t, next_seq_++, nullptr, InlineFn(std::forward<F>(fn))});
  }

  /// Schedule `fn` after `delay` seconds (must be >= 0).
  template <typename F>
  void schedule_in(SimTime delay, F&& fn) {
    schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Like schedule_at, but returns a token that cancel() accepts. A
  /// cancelled event still occupies its queue slot and advances now() when
  /// popped — identical timing to a handler that no-ops — but its handler is
  /// dropped (backoff timers, src/relayx).
  template <typename F>
  EventId schedule_cancelable_at(SimTime t, F&& fn) {
    const EventId id = next_seq_;
    schedule_at(t, std::forward<F>(fn));
    cancelable_.insert(id);
    return id;
  }
  template <typename F>
  EventId schedule_cancelable_in(SimTime delay, F&& fn) {
    return schedule_cancelable_at(now_ + delay, std::forward<F>(fn));
  }

  /// Cancel a pending cancelable event. Returns false when the token was
  /// already cancelled, already ran, or never cancelable *here* (e.g. it
  /// belongs to another simulator) — a counted no-op, never UB. O(1)
  /// amortized — the queue is not touched; the event is skipped when it
  /// surfaces.
  bool cancel(EventId id);

  /// Cancelable events scheduled and not yet run or cancelled.
  std::size_t cancelable_pending() const { return cancelable_.size(); }

  /// cancel() calls that found nothing to cancel (already fired, already
  /// cancelled, or a foreign event id).
  std::uint64_t cancel_misses() const { return cancel_misses_; }

  /// Run until the queue drains, `until` is reached, or `max_events` have
  /// been processed. Returns the number of events processed by this call.
  std::size_t run(SimTime until = kForever,
                  std::size_t max_events = std::numeric_limits<std::size_t>::max());

  // --- Batched events (sim/medium.hpp) -----------------------------------
  // A batched transmission consumes one sequence number per reception at
  // schedule time — in the exact order the unbatched path would have
  // scheduled them — then occupies a single queue node keyed by its earliest
  // entry. The run loop fires one entry per pop and reinserts the batch at
  // its next (time, seq), so the global event interleaving, sequence
  // consumption, and now() trajectory are identical to N separate events.

  /// Claim the next sequence number without scheduling anything.
  std::uint64_t reserve_seq() { return next_seq_++; }

  /// Feed the queue-latency histogram exactly as schedule_at would have
  /// (batched entries are scheduled out-of-band, but their latency is known
  /// at creation time like any other event's).
  void record_queue_latency(SimTime dt) {
    if (latency_) latency_->record(dt);
  }

  /// Insert `batch` keyed by its first entry. `seq` must come from
  /// reserve_seq() and `t` must be >= now(). The batch object must stay
  /// alive until its fire() returns more == false.
  void schedule_batch(SimTime t, std::uint64_t seq, BatchEvent* batch);

  bool empty() const { return queue_.empty(); }
  std::size_t pending() const { return queue_.size(); }
  std::size_t events_processed() const { return processed_; }

  /// Attach a histogram recording, per scheduled event, how long it will sit
  /// in the queue (execution time minus schedule time, simulated seconds —
  /// events run exactly at their timestamp, so the latency is known at
  /// schedule time). nullptr detaches. The histogram must outlive the
  /// simulator.
  void set_latency_histogram(obsx::Histogram* hist) { latency_ = hist; }

 private:
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::size_t processed_ = 0;
  std::uint64_t cancel_misses_ = 0;
  obsx::Histogram* latency_ = nullptr;
  CalendarQueue queue_;
  // Cancelable-event bookkeeping; both empty unless schedule_cancelable_*
  // is used, so the run loop pays only an empty() branch per event.
  std::unordered_set<EventId> cancelable_;  ///< scheduled, not yet run/cancelled
  std::unordered_set<EventId> cancelled_;   ///< cancelled, not yet popped
};

}  // namespace citymesh::sim
