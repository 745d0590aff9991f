#include "sim/simulator.hpp"

namespace citymesh::sim {

bool Simulator::cancel(EventId id) {
  if (cancelable_.erase(id) == 0) {
    ++cancel_misses_;
    return false;
  }
  cancelled_.insert(id);
  return true;
}

void Simulator::schedule_batch(SimTime t, std::uint64_t seq, BatchEvent* batch) {
  if (t < now_) throw std::invalid_argument{"Simulator: cannot schedule in the past"};
  queue_.push({t, seq, batch, InlineFn{}});
}

std::size_t Simulator::run(SimTime until, std::size_t max_events) {
  std::size_t count = 0;
  while (count < max_events) {
    const EventRecord* top = queue_.peek();
    if (top == nullptr || top->time > until) break;
    // The queue owns its storage, so the pop moves the record out cleanly
    // (the old std::priority_queue forced a copy through its const top()).
    EventRecord ev = queue_.pop();
    now_ = ev.time;
    ++count;
    ++processed_;
    if (ev.batch != nullptr) {
      // One reception of a batched transmission; each pop counts as one
      // processed event, exactly like the unbatched schedule would have.
      const BatchFire next = ev.batch->fire(now_);
      if (next.more) queue_.push({next.time, next.seq, ev.batch, InlineFn{}});
      continue;
    }
    // A cancelled event advances time and counts like a no-op handler would
    // have — cancellation changes *what* runs, never the event timeline.
    if (!cancelled_.empty() && cancelled_.erase(ev.seq) > 0) continue;
    if (!cancelable_.empty()) cancelable_.erase(ev.seq);
    ev.fn();
  }
  if (queue_.empty() && until != kForever && now_ < until) now_ = until;
  return count;
}

}  // namespace citymesh::sim
