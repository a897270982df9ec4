// Metrics registry: counters, gauges, and fixed-bucket histograms with a
// deterministic snapshot order.
//
// Design contract (every instrumented layer relies on it):
//
//  * Near-zero disabled cost. Instruments are plain atomics bumped with
//    relaxed operations; hot paths cache a raw pointer to their instrument
//    and pay one predictable null test when the owning component has
//    metrics disabled. Nothing allocates, locks, or formats on the record
//    path — the registry mutex is touched only at create and snapshot time.
//
//  * Determinism. Recording a metric never consumes randomness and never
//    reorders simulation events, so honest sweep aggregates stay
//    bit-identical whether metrics are on or off. Snapshots list entries
//    sorted by name, and MetricsSnapshot::merge is order-commutative
//    (counter = sum, gauge = max, histogram = bucket-wise sum) — merged
//    through the trial pool's fixed chunk tree the result is bit-identical
//    for every thread count, which tests/test_obs.cpp asserts.
//
//  * Bounded memory. FixedHistogram takes its bucket bounds up front
//    (stats/histogram.h keeps raw samples for exact quantiles — right for
//    offline analysis, wrong for an always-on instrument), so per-trial
//    metric state is O(instruments), not O(events).
//
// Hand-rolled tally fields outside src/obs/ are rejected by the
// `no-adhoc-counters` lint rule (tools/lint/abe_lint.py); legacy aggregate
// surfaces that predate the registry carry explicit allow-file pragmas.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/thread_annotations.h"

namespace abe {

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

// "counter" | "gauge" | "histogram" — the strings the sweep JSON emits.
const char* metric_kind_name(MetricKind kind);

// Monotonic event count. Relaxed increments: per-instrument totals are
// exact, cross-instrument ordering is unobservable by design.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

// Point-in-time level. Snapshots and merges take the maximum, so a gauge
// reads as the high-water mark of whatever it tracks (queue depth, mailbox
// backlog) — the quantity the ROADMAP's capacity questions ask about.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  // Lock-free max: lost CAS races retry, so the final value is the true
  // maximum over all update_max calls.
  void update_max(double v);
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

// Histogram over fixed bucket upper bounds (strictly increasing), plus an
// implicit overflow bucket — bucket_counts() has bounds().size() + 1
// entries. Sample x lands in the first bucket whose bound is >= x.
class FixedHistogram {
 public:
  // `upper_bounds` must be non-empty and strictly increasing.
  explicit FixedHistogram(std::vector<double> upper_bounds);
  FixedHistogram(const FixedHistogram&) = delete;
  FixedHistogram& operator=(const FixedHistogram&) = delete;

  void record(double x);

  const std::vector<double>& bounds() const { return bounds_; }
  std::vector<std::uint64_t> bucket_counts() const;
  std::uint64_t total() const;

  // Approximate q-quantile (q in [0, 1]) by linear interpolation inside the
  // containing bucket, assuming nonnegative samples (the first bucket's
  // lower edge is 0). Overflow-bucket quantiles clamp to the last bound.
  double quantile(double q) const;

  // Geometric bounds center·2^k for k in [-below, above] — the right shape
  // for delay-like quantities whose scale is known (the ABE δ) but whose
  // tail is the interesting part. center must be > 0.
  static std::vector<double> log2_bounds(double center, int below, int above);

  // quantile() over already-harvested (bounds, counts) pairs, used by
  // MetricsSnapshot rendering after merges.
  static double quantile_of(const std::vector<double>& bounds,
                            const std::vector<std::uint64_t>& counts,
                            double q);

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
};

// One harvested instrument. Counters and gauges carry `value`; histograms
// carry (bounds, buckets) with buckets.size() == bounds.size() + 1.
struct MetricValue {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;

  bool operator==(const MetricValue& other) const {
    return name == other.name && kind == other.kind && value == other.value &&
           bounds == other.bounds && buckets == other.buckets;
  }
};

// A point-in-time harvest: entries sorted by name (the deterministic
// serialization order the schema-v5 validator checks), merged across trials
// with order-commutative semantics.
class MetricsSnapshot {
 public:
  // add_* upserts: a counter accumulates, a gauge keeps the max, a
  // histogram sums buckets. Registering the same name under two different
  // kinds (or two bound vectors) is a caller bug and aborts.
  void add_counter(std::string_view name, double value);
  void add_gauge(std::string_view name, double value);
  void add_histogram(std::string_view name, std::vector<double> bounds,
                     std::vector<std::uint64_t> buckets);

  // One walk over both name-sorted lists: entries of the same name combine
  // as add_* would, and only names this side lacks are inserted.
  void merge(const MetricsSnapshot& other);

  const std::vector<MetricValue>& entries() const { return entries_; }
  bool empty() const { return entries_.empty(); }
  // nullptr when absent.
  const MetricValue* find(const std::string& name) const;
  // 0 when absent — convenient in tests and table rendering.
  double value_of(const std::string& name) const;

  // Aligned human-readable table (histograms render count + p50/p90/p99).
  std::string render() const;
  // Deterministic JSON array of {name, kind, value | bounds+counts},
  // appended to `out`; the per-cell "metrics" block of sweep schema v5.
  void append_json(std::string* out) const;

  bool operator==(const MetricsSnapshot& other) const {
    return entries_ == other.entries_;
  }
  bool operator!=(const MetricsSnapshot& other) const {
    return !(*this == other);
  }

 private:
  // Entry `name`, created when absent. A name sorting after every entry
  // held is appended, so a harvest in name order never shifts entries.
  MetricValue& upsert(std::string_view name, MetricKind kind);
  // Inserts a fresh entry before `at`. The first insertion makes room for
  // kInitialRows, which holds a whole network harvest (15 rows at most),
  // so a per-trial snapshot allocates its row array once.
  std::vector<MetricValue>::iterator insert_entry(
      std::vector<MetricValue>::iterator at, std::string_view name,
      MetricKind kind);
  static constexpr std::size_t kInitialRows = 16;
  std::vector<MetricValue> entries_;  // sorted by name
};

// Owner of live instruments. Create/lookup is mutex-guarded; the returned
// references are stable for the registry's lifetime (instruments live
// behind unique_ptr), so components resolve their instruments once at
// setup and record through cached pointers ever after.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name) EXCLUDES(mutex_);
  Gauge& gauge(const std::string& name) EXCLUDES(mutex_);
  // Re-registering an existing histogram name requires identical bounds.
  FixedHistogram& histogram(const std::string& name,
                            std::vector<double> bounds) EXCLUDES(mutex_);

  // Harvest every instrument, sorted by name.
  MetricsSnapshot snapshot() const EXCLUDES(mutex_);

 private:
  mutable AnnotatedMutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<FixedHistogram>> histograms_
      GUARDED_BY(mutex_);
};

}  // namespace abe
