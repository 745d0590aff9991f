// Differential lockdown for the allocation-free event hot path (sim/):
//
//  - the calendar-queue Simulator against a test-local binary-heap
//    reference, over randomized schedule / cancel / reschedule streams (the
//    two must realize the identical (time, seq) total order, cancel
//    accounting included);
//  - batched medium delivery against per-reception scheduling;
//  - inline handler storage;
//  - the resumable-Dijkstra route cache against independent targeted runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_set>
#include <vector>

#include "core/route_planner.hpp"
#include "geo/rng.hpp"
#include "graphx/graph.hpp"
#include "graphx/shortest_path.hpp"
#include "sim/medium.hpp"
#include "sim/scheduler.hpp"
#include "sim/simulator.hpp"

namespace citymesh {
namespace {

// ------------------------------------------- scheduler differential ---------

/// Reference engine for the differential: a plain binary heap over
/// (time, seq) with the Simulator's cancel semantics — a cancelled event
/// keeps its slot, advances now() and counts as processed, but its handler
/// is dropped.
class HeapSimulator {
 public:
  using EventId = std::uint64_t;

  double now() const { return now_; }

  void schedule_at(double t, std::function<void()> fn) {
    heap_.push_back({t, next_seq_++, std::move(fn)});
    std::push_heap(heap_.begin(), heap_.end(), &later);
  }
  void schedule_in(double delay, std::function<void()> fn) {
    schedule_at(now_ + delay, std::move(fn));
  }
  EventId schedule_cancelable_at(double t, std::function<void()> fn) {
    const EventId id = next_seq_;
    schedule_at(t, std::move(fn));
    cancelable_.insert(id);
    return id;
  }
  bool cancel(EventId id) {
    if (cancelable_.erase(id) == 0) {
      ++cancel_misses_;
      return false;
    }
    cancelled_.insert(id);
    return true;
  }

  std::size_t run() {
    std::size_t count = 0;
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), &later);
      Event ev = std::move(heap_.back());
      heap_.pop_back();
      now_ = ev.time;
      ++count;
      if (cancelled_.erase(ev.seq) > 0) continue;
      cancelable_.erase(ev.seq);
      ev.fn();
    }
    return count;
  }

  std::uint64_t cancel_misses() const { return cancel_misses_; }
  std::size_t cancelable_pending() const { return cancelable_.size(); }

 private:
  struct Event {
    double time;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  /// Max-heap comparator, so the minimum (time, seq) sits at front().
  static bool later(const Event& a, const Event& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }

  std::vector<Event> heap_;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t cancel_misses_ = 0;
  std::unordered_set<EventId> cancelable_;
  std::unordered_set<EventId> cancelled_;
};

/// One fired event: when it ran and which scripted op it was.
struct Fired {
  double time;
  std::uint64_t label;

  bool operator==(const Fired& o) const { return time == o.time && label == o.label; }
};

/// Everything observable about one simulator's execution of a script.
struct Execution {
  std::vector<Fired> log;
  std::size_t processed = 0;
  std::uint64_t cancel_misses = 0;
  std::size_t cancelable_pending = 0;
};

/// Replay one randomized schedule/cancel/reschedule stream on engine `Sim`.
/// The script is derived purely from `seed`, so both engines see the
/// byte-identical op stream. Times are drawn from a quantized grid to force
/// frequent ties (the FIFO tie-break is the part a calendar queue gets
/// wrong first), handlers re-schedule children mid-run, and cancellers
/// fire from inside the run so some cancels chase already-fired events.
template <typename Sim>
Execution replay(std::uint64_t seed, std::size_t events) {
  Sim s;
  Execution out;
  std::uint64_t state = seed;
  std::vector<typename Sim::EventId> tokens;
  tokens.reserve(events);

  const auto grid_time = [&state]() {
    // 1e-2 grid over [0, 100): ~10k distinct instants, heavy tie traffic.
    return static_cast<double>(geo::splitmix64(state) % 10'000) * 1e-2;
  };

  for (std::uint64_t i = 0; i < events; ++i) {
    const std::uint64_t roll = geo::splitmix64(state) % 100;
    const double t = grid_time();
    if (roll < 55) {
      const std::uint64_t label = i;
      if (roll % 7 == 0) {
        // Handler reschedules a child at now (+ quantized delay for some):
        // insertion during the run, at and ahead of the queue's floor.
        const double delay = (roll % 14 == 0) ? 0.0 : 0.25;
        s.schedule_at(t, [&s, &out, label, delay] {
          out.log.push_back({s.now(), label});
          s.schedule_in(delay, [&s, &out, label] {
            out.log.push_back({s.now(), label | (1ull << 32)});
          });
        });
      } else {
        s.schedule_at(t, [&s, &out, label] { out.log.push_back({s.now(), label}); });
      }
    } else if (roll < 80) {
      const std::uint64_t label = i;
      tokens.push_back(s.schedule_cancelable_at(
          t, [&s, &out, label] { out.log.push_back({s.now(), label | (2ull << 32)}); }));
    } else if (!tokens.empty()) {
      // A canceller event: cancels a previously issued token when it runs.
      // Depending on the draw it fires before or after its target — the
      // latter must count as a miss, identically on both engines.
      const std::size_t victim = geo::splitmix64(state) % tokens.size();
      const auto id = tokens[victim];
      s.schedule_at(t, [&s, id] { s.cancel(id); });
    } else {
      s.schedule_at(t, [&s, &out, i] { out.log.push_back({s.now(), i}); });
    }
  }
  // A few far-future stragglers exercise the overflow path.
  s.schedule_at(1e12, [&s, &out] { out.log.push_back({s.now(), 1ull << 40}); });
  s.schedule_at(1e300, [&s, &out] { out.log.push_back({s.now(), 2ull << 40}); });

  out.processed = s.run();
  out.cancel_misses = s.cancel_misses();
  out.cancelable_pending = s.cancelable_pending();
  return out;
}

TEST(SchedulerDifferential, CalendarMatchesHeapOnRandomizedStreams) {
  for (const std::uint64_t seed : {11ull, 22ull, 33ull, 44ull, 55ull}) {
    const Execution heap = replay<HeapSimulator>(seed, 10'000);
    const Execution cal = replay<sim::Simulator>(seed, 10'000);
    ASSERT_EQ(heap.log.size(), cal.log.size()) << "seed " << seed;
    for (std::size_t i = 0; i < heap.log.size(); ++i) {
      ASSERT_EQ(heap.log[i], cal.log[i])
          << "seed " << seed << " divergence at pop " << i;
    }
    EXPECT_EQ(heap.processed, cal.processed) << "seed " << seed;
    EXPECT_EQ(heap.cancel_misses, cal.cancel_misses) << "seed " << seed;
    EXPECT_EQ(heap.cancelable_pending, cal.cancelable_pending) << "seed " << seed;
  }
}

TEST(SchedulerDifferential, PopOrderMatchesSortedReferenceAcrossMagnitudes) {
  // Raw CalendarQueue check with pathological time distributions:
  // denormal-ish, zero, identical, and overflow-bucket times in one queue.
  sim::CalendarQueue q;
  std::uint64_t state = 99;
  std::vector<std::pair<double, std::uint64_t>> reference;
  std::uint64_t seq = 0;
  const double magnitudes[] = {0.0,   1e-9,  1.0,   1.0,  3.5,
                               1e4,   1e9,   1e300, 5e-7, 2.5};
  for (int round = 0; round < 500; ++round) {
    const double t = magnitudes[geo::splitmix64(state) % 10];
    q.push({t, seq, nullptr, sim::InlineFn{}});
    reference.emplace_back(t, seq);
    ++seq;
    // Interleave pops so the queue's floor moves while inserts continue.
    if (round % 5 == 4) {
      const sim::EventRecord rec = q.pop();
      std::sort(reference.begin(), reference.end());
      EXPECT_EQ(rec.time, reference.front().first);
      EXPECT_EQ(rec.seq, reference.front().second);
      reference.erase(reference.begin());
    }
  }
  std::sort(reference.begin(), reference.end());
  for (const auto& [t, expect_seq] : reference) {
    ASSERT_FALSE(q.empty());
    const sim::EventRecord rec = q.pop();
    EXPECT_EQ(rec.time, t);
    EXPECT_EQ(rec.seq, expect_seq);
  }
  EXPECT_TRUE(q.empty());
}

// ---------------------------------------------- batched medium delivery -----

struct ProbePacket {
  std::uint32_t id = 0;
};

struct Delivery {
  double time;
  sim::NodeId to;
  sim::NodeId from;
  std::uint32_t id;

  bool operator==(const Delivery& o) const {
    return time == o.time && to == o.to && from == o.from && id == o.id;
  }
};

graphx::Graph probe_topology() {
  graphx::GraphBuilder b{8};
  // A ring with chords: every node has 3-4 neighbors, so one transmission
  // fans to several receptions with distinct propagation delays.
  for (graphx::VertexId v = 0; v < 8; ++v) b.add_edge(v, (v + 1) % 8, 40.0 + v);
  b.add_edge(0, 4, 120.0);
  b.add_edge(1, 5, 90.0);
  b.add_edge(2, 6, 75.0);
  return b.build();
}

/// Fire a burst of overlapping broadcasts (with loss + jitter draws and a
/// down node) and record every delivery the handler sees.
std::vector<Delivery> run_medium(bool batched) {
  sim::Simulator s;
  const graphx::Graph topo = probe_topology();
  sim::MediumConfig cfg;
  cfg.loss_probability = 0.25;
  cfg.jitter_s = 2e-3;
  cfg.seed = 1234;
  cfg.batched_delivery = batched;
  sim::BroadcastMedium<ProbePacket> medium{s, topo, cfg};
  medium.set_node_filter([](sim::NodeId node) { return node != 6; });

  std::vector<Delivery> log;
  medium.set_delivery_handler(
      [&](sim::NodeId to, sim::NodeId from, const std::shared_ptr<const ProbePacket>& p) {
        log.push_back({s.now(), to, from, p->id});
      });

  for (std::uint32_t i = 0; i < 40; ++i) {
    const auto packet = std::make_shared<const ProbePacket>(ProbePacket{i});
    const sim::NodeId from = i % 8;
    // Clustered start times: many broadcasts in flight at once, so batch
    // reinserts interleave with other transmissions' events.
    s.schedule_at(static_cast<double>(i / 8) * 1e-3,
                  [&medium, from, packet] { medium.transmit(from, packet); });
  }
  s.run();

  // Counter parity rides along with the delivery log.
  EXPECT_GT(medium.deliveries(), 0u);
  EXPECT_GT(medium.losses(), 0u);
  EXPECT_GT(medium.blocked_receptions(), 0u);
  return log;
}

TEST(BatchedDelivery, MatchesPerReceptionSchedulingExactly) {
  const std::vector<Delivery> reference = run_medium(/*batched=*/false);
  const std::vector<Delivery> log = run_medium(/*batched=*/true);
  ASSERT_EQ(log.size(), reference.size());
  for (std::size_t i = 0; i < log.size(); ++i) {
    ASSERT_EQ(log[i], reference[i]) << "delivery " << i;
  }
}

// ------------------------------------------------------ inline handlers ---

TEST(InlineFn, SmallCapturesStayInline) {
  const std::uint64_t before = sim::InlineFn::heap_fallbacks();
  int hits = 0;
  std::array<char, 32> payload{};
  sim::InlineFn fn{[&hits, payload] { hits += 1 + payload[0]; }};
  fn();
  fn();
  EXPECT_EQ(hits, 2);
  EXPECT_EQ(sim::InlineFn::heap_fallbacks(), before);
}

TEST(InlineFn, OversizeCapturesFallBackToHeapCounted) {
  const std::uint64_t before = sim::InlineFn::heap_fallbacks();
  std::array<char, 128> big{};
  big[0] = 41;
  int result = 0;
  sim::InlineFn fn{[&result, big] { result = big[0] + 1; }};
  sim::InlineFn moved{std::move(fn)};
  moved();
  EXPECT_EQ(result, 42);
  EXPECT_EQ(sim::InlineFn::heap_fallbacks(), before + 1);
}

// ------------------------------------------------- route cache identity -----

graphx::Graph random_geometric_graph(std::uint64_t seed, std::size_t n) {
  std::uint64_t state = seed;
  graphx::GraphBuilder b{n};
  // A connected chain plus random chords with irregular weights — enough
  // structure for distinct shortest paths, enough randomness for tie traffic.
  for (graphx::VertexId v = 0; v + 1 < n; ++v)
    b.add_edge(v, v + 1, 1.0 + static_cast<double>(geo::splitmix64(state) % 16));
  for (std::size_t i = 0; i < 3 * n; ++i) {
    const auto a = static_cast<graphx::VertexId>(geo::splitmix64(state) % n);
    const auto c = static_cast<graphx::VertexId>(geo::splitmix64(state) % n);
    if (a == c) continue;
    b.add_edge(a, c, 1.0 + static_cast<double>(geo::splitmix64(state) % 64));
  }
  return b.build();
}

TEST(SptCache, ResumedTreesMatchIndependentTargetedRuns) {
  for (const std::uint64_t seed : {3ull, 17ull, 71ull}) {
    const graphx::Graph g = random_geometric_graph(seed, 200);
    core::SptCache cache{g};
    std::uint64_t state = seed ^ 0xabcdefull;
    for (int query = 0; query < 200; ++query) {
      const auto from = static_cast<graphx::VertexId>(geo::splitmix64(state) % 200);
      const auto to = static_cast<graphx::VertexId>(geo::splitmix64(state) % 200);
      const auto& cached = cache.tree(from, to);
      const auto fresh = graphx::dijkstra(g, from, to);
      ASSERT_EQ(cached.path_to(to), fresh.path_to(to))
          << "seed " << seed << " query " << query;
      ASSERT_EQ(cached.distance[to], fresh.distance[to]);
    }
  }
}

TEST(SptCache, RepeatedSourcesHitWithoutRecomputing) {
  const graphx::Graph g = random_geometric_graph(9, 150);
  core::SptCache cache{g};
  // Emergency-style traffic: every flow originates at one node.
  for (graphx::VertexId to = 1; to < 100; ++to) cache.tree(0, to);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 98u);
}

TEST(IncrementalDijkstra, GrowsMonotonicallyAcrossTargets) {
  const graphx::Graph g = random_geometric_graph(5, 120);
  graphx::IncrementalDijkstra inc{g, 7};
  // Querying near targets first, then far ones, must yield the same final
  // answers as any other order (the settled region only grows).
  std::vector<graphx::VertexId> order;
  for (graphx::VertexId v = 0; v < 120; ++v) order.push_back(v);
  std::reverse(order.begin() + 60, order.end());
  for (const graphx::VertexId target : order) {
    const auto& sp = inc.ensure(target);
    const auto fresh = graphx::dijkstra(g, 7, target);
    ASSERT_EQ(sp.path_to(target), fresh.path_to(target)) << "target " << target;
  }
}

}  // namespace
}  // namespace citymesh
