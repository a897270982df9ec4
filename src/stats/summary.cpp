#include "stats/summary.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "util/check.h"
#include "util/json_number.h"

namespace abe {

void Summary::add(double x) {
  if (n_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void Summary::merge(const Summary& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double Summary::mean() const { return n_ == 0 ? 0.0 : mean_; }

double Summary::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double Summary::stddev() const { return std::sqrt(variance()); }

double Summary::min() const {
  return n_ == 0 ? std::numeric_limits<double>::quiet_NaN() : min_;
}

double Summary::max() const {
  return n_ == 0 ? std::numeric_limits<double>::quiet_NaN() : max_;
}

double Summary::std_error() const {
  if (n_ < 2) return 0.0;
  return stddev() / std::sqrt(static_cast<double>(n_));
}

double Summary::ci95_half_width() const {
  if (n_ < 2) return 0.0;
  return t_critical_975(n_ - 1) * std_error();
}

std::string Summary::to_string() const {
  std::ostringstream os;
  os << mean() << " ± " << ci95_half_width() << " (n=" << n_ << ")";
  return os.str();
}

void Summary::append_json(std::string* out) const {
  // min()/max() are NaN when empty, which JSON cannot carry — an empty
  // summary (count 0 says it all) serializes as zeros.
  const double lo = n_ == 0 ? 0.0 : min();
  const double hi = n_ == 0 ? 0.0 : max();
  out->append("{\"count\": ");
  append_json_number(out, static_cast<double>(n_));
  out->append(", \"mean\": ");
  append_json_number(out, mean());
  out->append(", \"stddev\": ");
  append_json_number(out, stddev());
  out->append(", \"min\": ");
  append_json_number(out, lo);
  out->append(", \"max\": ");
  append_json_number(out, hi);
  out->append(", \"ci95\": ");
  append_json_number(out, ci95_half_width());
  out->push_back('}');
}

std::string Summary::to_json() const {
  std::string out;
  append_json(&out);
  return out;
}

double t_critical_975(std::uint64_t dof) {
  // Standard two-sided 95% table; beyond 30 dof the normal value is within
  // ~2% and we interpolate through a few anchors down to 1.96.
  static const double kSmall[] = {
      0,      12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365,
      2.306,  2.262,  2.228, 2.201, 2.179, 2.160, 2.145, 2.131,
      2.120,  2.110,  2.101, 2.093, 2.086, 2.080, 2.074, 2.069,
      2.064,  2.060,  2.056, 2.052, 2.048, 2.045, 2.042};
  if (dof == 0) return std::numeric_limits<double>::infinity();
  if (dof <= 30) return kSmall[dof];
  if (dof <= 40) return 2.021;
  if (dof <= 60) return 2.000;
  if (dof <= 120) return 1.980;
  return 1.960;
}

}  // namespace abe
