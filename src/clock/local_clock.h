// Local clocks with bounded drift — Definition 1(2) of the ABE model.
//
// Each node owns a clock whose rate r(t) stays within known bounds
// [s_low, s_high]: for any real interval [t1, t2],
//   s_low·(t2−t1) ≤ |C(t2) − C(t1)| ≤ s_high·(t2−t1).
// Two rate models are provided:
//  * Fixed: one rate for the whole run (drawn once within bounds).
//  * PiecewiseRandom: the rate is re-drawn inside the bounds at random
//    segment boundaries; this models oscillators wandering over time while
//    never leaving the bound — the adversarial shape Definition 1 permits.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/rng.h"
#include "sim/time.h"
#include "util/check.h"

namespace abe {

// Known bounds on local clock speed; part of the ABE parameters.
struct ClockBounds {
  double s_low = 1.0;
  double s_high = 1.0;

  void validate() const {
    ABE_CHECK_GT(s_low, 0.0);
    ABE_CHECK_GE(s_high, s_low);
  }
  double ratio() const { return s_high / s_low; }
};

// Strategy for how a clock's instantaneous rate evolves within the bounds.
enum class DriftModel : std::uint8_t {
  kNone,             // rate exactly 1 (ideal clock)
  kFixedRandomRate,  // one uniform draw in [s_low, s_high] per node
  kPiecewiseRandom,  // rate re-drawn at random segment boundaries
};

const char* drift_model_name(DriftModel model);

// Monotone map between real simulated time and one node's local time.
// Only kPiecewiseRandom keeps segments, built lazily: they are appended as
// real time advances. kNone and kFixedRandomRate keep just their one rate
// and no heap storage; their maps are the one-segment expressions
// 0 + rate·(t − 0) and 0 + (l − 0) / rate.
class LocalClock {
 public:
  // `rng` seeds the per-clock rate draws; `segment_mean` is the expected real
  // length of a constant-rate segment for kPiecewiseRandom.
  LocalClock(ClockBounds bounds, DriftModel model, Rng rng,
             double segment_mean = 10.0);

  const ClockBounds& bounds() const { return bounds_; }
  DriftModel model() const { return model_; }

  // Local reading C(t) at real time t (t >= every earlier query; clocks are
  // queried monotonically by the simulator, and earlier times are answered
  // from recorded segments).
  double local_at(SimTime real);

  // Inverse map: earliest real time at which the local reading is >= local.
  // Requires local >= local_at(0) = 0.
  SimTime real_at(double local);

  // Instantaneous rate at real time t.
  double rate_at(SimTime real);

 private:
  struct Segment {
    SimTime real_start;
    double local_start;
    double rate;
    SimTime real_end;  // where the next segment starts
  };

  // Ensures segments cover real time `real`.
  void extend_to(SimTime real);
  double draw_rate();

  ClockBounds bounds_;
  DriftModel model_;
  Rng rng_;
  double segment_mean_;
  // The whole-run rate; for kPiecewiseRandom, the first segment's.
  double rate_ = 1.0;
  // kPiecewiseRandom only; empty for the single-rate models.
  std::vector<Segment> segments_;
};

}  // namespace abe
