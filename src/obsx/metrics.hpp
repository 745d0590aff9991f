// Metrics registry (src/obsx): named monotonic counters and fixed-bucket
// histograms, registered once per subsystem and read everywhere.
//
// The §4 evaluation is built on counting what the mesh did; before this
// module the counts lived in ad-hoc member variables duplicated between
// sim::BroadcastMedium, core::CityMeshNetwork, and the benches. Subsystems
// now register their counters here (the medium's transmission/delivery tally
// is the single source of truth) and consumers take a MetricsSnapshot —
// a plain value that merges across runs/seeds and serializes into the run
// manifest (manifest.hpp).
//
// Handles returned by counter()/histogram() are stable for the registry's
// lifetime, so hot paths hold a pointer and pay one increment per event.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace citymesh::obsx {

/// A monotonically increasing event count. reset() exists for per-run reuse
/// of a long-lived registry (benches measuring deltas); within a run the
/// value only grows.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Snapshot of one histogram: `bounds` are ascending inclusive upper bucket
/// edges; `counts` has bounds.size()+1 entries, the last being the overflow
/// bucket (> bounds.back()). A value v lands in the first bucket with
/// v <= bounds[i].
struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;
  std::uint64_t total = 0;
  double sum = 0.0;

  double mean() const { return total ? sum / static_cast<double>(total) : 0.0; }
  bool operator==(const HistogramSnapshot&) const = default;
};

/// Fixed-bucket histogram. Buckets never reallocate, so record() is a
/// branchless-ish upper_bound plus two adds — cheap enough for per-packet
/// paths.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void record(double v);
  std::uint64_t total() const { return total_; }
  double sum() const { return sum_; }
  const std::vector<double>& bounds() const { return bounds_; }
  const std::vector<std::uint64_t>& counts() const { return counts_; }
  HistogramSnapshot snapshot() const { return {bounds_, counts_, total_, sum_}; }
  void reset();

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  double sum_ = 0.0;
};

/// Evenly spaced bucket bounds: first, first+step, ..., n of them.
std::vector<double> linear_buckets(double first, double step, std::size_t n);
/// Geometric bucket bounds: first, first*ratio, ..., n of them.
std::vector<double> exponential_buckets(double first, double ratio, std::size_t n);

/// A mergeable, serializable value capture of a registry. Counters merge by
/// summation; histograms merge bucket-wise and require identical bounds.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Merge another run/seed into this one. Throws std::invalid_argument on
  /// histogram bound mismatches (merging incompatible runs is a bug).
  void merge(const MetricsSnapshot& other);

  /// Deterministic JSON object (keys sorted by std::map, numbers via
  /// shortest-round-trip formatting): same state => byte-identical output.
  void write_json(std::ostream& os, int indent = 0) const;
  std::string to_json() const;

  bool operator==(const MetricsSnapshot&) const = default;
};

/// Owner of named metrics. get-or-create semantics; re-requesting a
/// histogram with different bounds throws (two subsystems disagreeing about
/// a metric's shape is a bug, not a runtime condition).
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name);
  Histogram& histogram(std::string_view name, std::span<const double> bounds);

  const Counter* find_counter(std::string_view name) const;
  const Histogram* find_histogram(std::string_view name) const;

  MetricsSnapshot snapshot() const;
  /// Zero every metric (per-run reuse); registrations survive.
  void reset();

 private:
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace citymesh::obsx
