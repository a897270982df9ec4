// Online estimation of the expected-delay bound δ.
//
// The paper argues (Section 2) for assuming a *bound* on the expected delay
// rather than the expectation itself: real link parameters wander over time
// and can only be bracketed. This module is the operational side of that
// argument — a deployment measures delays (e.g. through acked probes) and
// maintains a defensible upper bound on the current expected delay:
//
//   * a windowed EWMA tracks the drifting mean,
//   * a confidence-style margin (based on the observed dispersion) turns
//     the point estimate into an upper bound,
//   * the reported δ̂ only ever tightens slowly but widens immediately,
//     the safe direction for a bound.
//
// Tests verify the bracketing property on stationary and regime-switching
// delay streams; bench_e11_extensions tracks its bound through a delay
// regime shift. No scenario or example uses it to tune an election yet.
#pragma once

#include <cstdint>

namespace abe {

struct DeltaEstimatorOptions {
  // EWMA smoothing factor per sample, in (0, 1]; smaller = smoother.
  double alpha = 0.05;
  // Multiplier on the EWMA mean absolute deviation added as safety margin.
  double margin_factor = 3.0;
  // Widening is immediate; tightening is limited to this fraction per
  // sample (keeps the bound conservative through quiet spells).
  double max_tighten_rate = 0.01;
};

class DeltaEstimator {
 public:
  explicit DeltaEstimator(DeltaEstimatorOptions options = {});

  // Feed one observed delay (>= 0).
  void observe(double delay);

  // Current point estimate of the expected delay (EWMA).
  double mean_estimate() const { return mean_; }

  // Current upper bound δ̂ — what an ABE deployment would advertise.
  double upper_bound() const { return bound_; }

  // EWMA mean absolute deviation (dispersion proxy).
  double deviation_estimate() const { return deviation_; }

  std::uint64_t samples() const { return samples_; }

 private:
  DeltaEstimatorOptions options_;
  double mean_ = 0.0;
  double deviation_ = 0.0;
  double bound_ = 0.0;
  std::uint64_t samples_ = 0;
};

}  // namespace abe
