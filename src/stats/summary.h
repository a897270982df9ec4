// Streaming summary statistics (Welford) with confidence intervals.
//
// Every experiment in bench/ reports mean ± CI over repeated seeded trials;
// this is the single implementation they all share.
#pragma once

#include <cstdint>
#include <string>

namespace abe {

class Summary {
 public:
  Summary() = default;

  void add(double x);

  // Merges another summary (parallel Welford combination).
  void merge(const Summary& other);

  std::uint64_t count() const { return n_; }
  double mean() const;
  // Unbiased sample variance; 0 when fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const;
  double max() const;
  double sum() const { return mean() * static_cast<double>(n_); }

  // Standard error of the mean (stddev / sqrt(n)).
  double std_error() const;

  // Half-width of a ~95% confidence interval for the mean, using Student-t
  // critical values for small n and the normal 1.96 asymptote otherwise.
  double ci95_half_width() const;

  // "mean ± hw (n=…)" for logs.
  std::string to_string() const;

  // JSON object {"count", "mean", "stddev", "min", "max", "ci95"} in the
  // library's one number style (util/json_number.h: integral values bare,
  // the rest at round-trip precision) — the single serialization point for
  // summaries in emitted artefacts (scenario sweep JSON), so bit-identical
  // aggregates serialize to byte-identical JSON. Every field is a finite
  // JSON number: ci95 is 0 below two samples, and an empty summary
  // serializes min/max as 0 (NaN has no JSON form).
  std::string to_json() const;
  // The same object appended to `out`.
  void append_json(std::string* out) const;

  // Exact (==) state comparison: true when both summaries hold identical
  // counts and identical floating-point accumulators. Used by tests to
  // assert parallel trial aggregation is bit-identical to serial.
  friend bool operator==(const Summary& a, const Summary& b) {
    return a.n_ == b.n_ && a.mean_ == b.mean_ && a.m2_ == b.m2_ &&
           a.min_ == b.min_ && a.max_ == b.max_;
  }
  friend bool operator!=(const Summary& a, const Summary& b) {
    return !(a == b);
  }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Two-sided Student-t 97.5% critical value for `dof` degrees of freedom.
// Exact table for small dof, 1.96 asymptotically.
double t_critical_975(std::uint64_t dof);

}  // namespace abe
