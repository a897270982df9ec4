#include "clock/local_clock.h"

#include <algorithm>

namespace abe {

const char* drift_model_name(DriftModel model) {
  switch (model) {
    case DriftModel::kNone:
      return "none";
    case DriftModel::kFixedRandomRate:
      return "fixed-random";
    case DriftModel::kPiecewiseRandom:
      return "piecewise-random";
  }
  return "?";
}

LocalClock::LocalClock(ClockBounds bounds, DriftModel model, Rng rng,
                       double segment_mean)
    : bounds_(bounds), model_(model), rng_(rng), segment_mean_(segment_mean) {
  bounds_.validate();
  ABE_CHECK_GT(segment_mean_, 0.0);
  rate_ = draw_rate();
  if (model_ != DriftModel::kPiecewiseRandom) return;
  Segment first;
  first.real_start = 0.0;
  first.local_start = 0.0;
  first.rate = rate_;
  first.real_end = rng_.exponential(segment_mean_);
  segments_.push_back(first);
}

double LocalClock::draw_rate() {
  switch (model_) {
    case DriftModel::kNone:
      return 1.0;
    case DriftModel::kFixedRandomRate:
    case DriftModel::kPiecewiseRandom:
      return rng_.uniform(bounds_.s_low, bounds_.s_high);
  }
  return 1.0;
}

void LocalClock::extend_to(SimTime real) {
  while (segments_.back().real_end < real) {
    const Segment& prev = segments_.back();
    Segment next;
    next.real_start = prev.real_end;
    next.local_start =
        prev.local_start + prev.rate * (prev.real_end - prev.real_start);
    next.rate = draw_rate();
    next.real_end = next.real_start + rng_.exponential(segment_mean_);
    segments_.push_back(next);
  }
}

double LocalClock::local_at(SimTime real) {
  ABE_CHECK_GE(real, 0.0);
  // The single-rate models: the one open segment from (0, 0), evaluated
  // with the same expression as below so results are bit-identical.
  if (segments_.empty()) return 0.0 + rate_ * (real - 0.0);
  extend_to(real);
  // Binary search for the covering segment (queries are mostly at the end,
  // so check the last segment first).
  const Segment& last = segments_.back();
  if (real >= last.real_start) {
    return last.local_start + last.rate * (real - last.real_start);
  }
  auto it = std::upper_bound(
      segments_.begin(), segments_.end(), real,
      [](SimTime t, const Segment& s) { return t < s.real_start; });
  ABE_CHECK(it != segments_.begin());
  --it;
  return it->local_start + it->rate * (real - it->real_start);
}

SimTime LocalClock::real_at(double local) {
  ABE_CHECK_GE(local, 0.0);
  if (segments_.empty()) return 0.0 + (local - 0.0) / rate_;
  // Extend until the local reading at the last segment start exceeds local.
  // Rates are >= s_low > 0, so local time diverges and this terminates.
  while (true) {
    const Segment& last = segments_.back();
    if (last.real_end == kTimeInfinity) break;
    const double local_end =
        last.local_start + last.rate * (last.real_end - last.real_start);
    if (local_end >= local) break;
    extend_to(last.real_end + 1e-12);
  }
  auto it = std::upper_bound(
      segments_.begin(), segments_.end(), local,
      [](double l, const Segment& s) { return l < s.local_start; });
  ABE_CHECK(it != segments_.begin());
  --it;
  return it->real_start + (local - it->local_start) / it->rate;
}

double LocalClock::rate_at(SimTime real) {
  ABE_CHECK_GE(real, 0.0);
  if (segments_.empty()) return rate_;
  extend_to(real);
  auto it = std::upper_bound(
      segments_.begin(), segments_.end(), real,
      [](SimTime t, const Segment& s) { return t < s.real_start; });
  ABE_CHECK(it != segments_.begin());
  --it;
  return it->rate;
}

}  // namespace abe
