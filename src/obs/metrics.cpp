#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "util/check.h"
#include "util/json_number.h"

namespace abe {

const char* metric_kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

void Gauge::update_max(double v) {
  double cur = v_.load(std::memory_order_relaxed);
  while (v > cur &&
         !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

FixedHistogram::FixedHistogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  ABE_CHECK(!bounds_.empty());
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    ABE_CHECK_LT(bounds_[i - 1], bounds_[i]);
  }
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

void FixedHistogram::record(double x) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  const std::size_t i = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
}

std::vector<std::uint64_t> FixedHistogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

std::uint64_t FixedHistogram::total() const {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    sum += buckets_[i].load(std::memory_order_relaxed);
  }
  return sum;
}

double FixedHistogram::quantile(double q) const {
  return quantile_of(bounds_, bucket_counts(), q);
}

std::vector<double> FixedHistogram::log2_bounds(double center, int below,
                                                int above) {
  ABE_CHECK_GT(center, 0.0);
  ABE_CHECK_GE(above, -below);
  std::vector<double> bounds;
  bounds.reserve(static_cast<std::size_t>(above + below + 1));
  for (int k = -below; k <= above; ++k) {
    bounds.push_back(center * std::ldexp(1.0, k));
  }
  return bounds;
}

double FixedHistogram::quantile_of(const std::vector<double>& bounds,
                                   const std::vector<std::uint64_t>& counts,
                                   double q) {
  ABE_CHECK_EQ(counts.size(), bounds.size() + 1);
  q = std::min(1.0, std::max(0.0, q));
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  const double target = q * static_cast<double>(total);
  double cum = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const double next = cum + static_cast<double>(counts[i]);
    if (next >= target) {
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      // Overflow bucket has no finite upper edge; clamp to the last bound.
      const double hi = i < bounds.size() ? bounds[i] : bounds.back();
      const double fraction =
          std::max(0.0, target - cum) / static_cast<double>(counts[i]);
      return lo + fraction * (hi - lo);
    }
    cum = next;
  }
  return bounds.back();
}

namespace {

// The combine rules shared by add_* and merge: a counter sums, a gauge keeps
// the max.
void combine_scalar(MetricValue& slot, double value) {
  if (slot.kind == MetricKind::kCounter) {
    slot.value += value;
  } else {
    slot.value = std::max(slot.value, value);
  }
}

// A histogram adopts the first (bounds, buckets) it sees and sums buckets
// after; the bounds must agree. Forwarding lets add_histogram move its
// vectors in and merge copy only when it adopts.
template <typename Bounds, typename Buckets>
void combine_histogram(MetricValue& slot, Bounds&& bounds,
                       Buckets&& buckets) {
  ABE_CHECK_EQ(buckets.size(), bounds.size() + 1);
  if (slot.bounds.empty()) {
    slot.bounds = std::forward<Bounds>(bounds);
    slot.buckets = std::forward<Buckets>(buckets);
    return;
  }
  ABE_CHECK(slot.bounds == bounds);
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    slot.buckets[i] += buckets[i];
  }
}

}  // namespace

void MetricsSnapshot::add_counter(std::string_view name, double value) {
  combine_scalar(upsert(name, MetricKind::kCounter), value);
}

void MetricsSnapshot::add_gauge(std::string_view name, double value) {
  combine_scalar(upsert(name, MetricKind::kGauge), value);
}

void MetricsSnapshot::add_histogram(std::string_view name,
                                    std::vector<double> bounds,
                                    std::vector<std::uint64_t> buckets) {
  combine_histogram(upsert(name, MetricKind::kHistogram), std::move(bounds),
                    std::move(buckets));
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  auto it = entries_.begin();
  for (const MetricValue& entry : other.entries_) {
    while (it != entries_.end() && it->name < entry.name) ++it;
    if (it == entries_.end() || it->name != entry.name) {
      it = insert_entry(it, entry.name, entry.kind);
    }
    MetricValue& slot = *it++;
    ABE_CHECK(slot.kind == entry.kind);
    if (entry.kind == MetricKind::kHistogram) {
      combine_histogram(slot, entry.bounds, entry.buckets);
    } else {
      combine_scalar(slot, entry.value);
    }
  }
}

const MetricValue* MetricsSnapshot::find(const std::string& name) const {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), name,
      [](const MetricValue& e, const std::string& n) { return e.name < n; });
  if (it == entries_.end() || it->name != name) return nullptr;
  return &*it;
}

double MetricsSnapshot::value_of(const std::string& name) const {
  const MetricValue* entry = find(name);
  return entry != nullptr ? entry->value : 0.0;
}

MetricValue& MetricsSnapshot::upsert(std::string_view name, MetricKind kind) {
  auto it = entries_.end();
  if (!entries_.empty() && !(entries_.back().name < name)) {
    it = std::lower_bound(
        entries_.begin(), entries_.end(), name,
        [](const MetricValue& e, std::string_view n) { return e.name < n; });
  }
  if (it == entries_.end() || it->name != name) {
    it = insert_entry(it, name, kind);
  }
  ABE_CHECK(it->kind == kind);
  return *it;
}

std::vector<MetricValue>::iterator MetricsSnapshot::insert_entry(
    std::vector<MetricValue>::iterator at, std::string_view name,
    MetricKind kind) {
  if (entries_.capacity() == 0) {
    entries_.reserve(kInitialRows);
    at = entries_.begin();  // entries_ was empty: `at` was its end
  }
  MetricValue entry;
  entry.name = name;
  entry.kind = kind;
  return entries_.insert(at, std::move(entry));
}

std::string MetricsSnapshot::render() const {
  std::size_t width = 6;
  for (const MetricValue& entry : entries_) {
    width = std::max(width, entry.name.size());
  }
  std::ostringstream os;
  for (const MetricValue& entry : entries_) {
    os << "  " << std::left << std::setw(static_cast<int>(width + 2))
       << entry.name << std::right << std::setw(9)
       << metric_kind_name(entry.kind) << "  ";
    if (entry.kind == MetricKind::kHistogram) {
      std::uint64_t total = 0;
      for (const std::uint64_t c : entry.buckets) total += c;
      os << "n=" << total;
      for (const double q : {0.5, 0.9, 0.99}) {
        os << "  p" << static_cast<int>(q * 100) << "="
           << json_number(FixedHistogram::quantile_of(entry.bounds,
                                                      entry.buckets, q));
      }
    } else {
      os << json_number(entry.value);
    }
    os << "\n";
  }
  return os.str();
}

void MetricsSnapshot::append_json(std::string* out) const {
  out->push_back('[');
  bool first = true;
  for (const MetricValue& entry : entries_) {
    if (!first) out->append(", ");
    first = false;
    out->append("{\"name\": \"");
    out->append(entry.name);  // names are code-controlled identifiers
    out->append("\", \"kind\": \"");
    out->append(metric_kind_name(entry.kind));
    out->append("\"");
    if (entry.kind == MetricKind::kHistogram) {
      out->append(", \"bounds\": [");
      for (std::size_t i = 0; i < entry.bounds.size(); ++i) {
        if (i > 0) out->append(", ");
        append_json_number(out, entry.bounds[i]);
      }
      out->append("], \"counts\": [");
      for (std::size_t i = 0; i < entry.buckets.size(); ++i) {
        if (i > 0) out->append(", ");
        append_json_number(out, static_cast<double>(entry.buckets[i]));
      }
      out->append("]");
    } else {
      out->append(", \"value\": ");
      append_json_number(out, entry.value);
    }
    out->push_back('}');
  }
  out->push_back(']');
}

Counter& MetricsRegistry::counter(const std::string& name) {
  MutexLock lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  MutexLock lock(mutex_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

FixedHistogram& MetricsRegistry::histogram(const std::string& name,
                                           std::vector<double> bounds) {
  MutexLock lock(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<FixedHistogram>(std::move(bounds));
  } else {
    ABE_CHECK(slot->bounds() == bounds);
  }
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MutexLock lock(mutex_);
  MetricsSnapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.add_counter(name, static_cast<double>(counter->value()));
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.add_gauge(name, gauge->value());
  }
  for (const auto& [name, histogram] : histograms_) {
    snap.add_histogram(name, histogram->bounds(), histogram->bucket_counts());
  }
  return snap;
}

}  // namespace abe
