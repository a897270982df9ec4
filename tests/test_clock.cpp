// Unit tests for drifting local clocks (Definition 1(2)).
#include "clock/local_clock.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

namespace abe {
namespace {

TEST(ClockBounds, ValidateAcceptsSane) {
  ClockBounds b{0.5, 2.0};
  b.validate();
  EXPECT_EQ(b.ratio(), 4.0);
}

TEST(ClockBounds, ValidateRejectsInverted) {
  ClockBounds b{2.0, 0.5};
  EXPECT_DEATH(b.validate(), "");
}

TEST(LocalClock, IdealClockIsIdentity) {
  LocalClock c({1.0, 1.0}, DriftModel::kNone, Rng(1));
  for (double t : {0.0, 0.5, 10.0, 1234.5}) {
    EXPECT_DOUBLE_EQ(c.local_at(t), t);
    EXPECT_DOUBLE_EQ(c.real_at(t), t);
    EXPECT_DOUBLE_EQ(c.rate_at(t), 1.0);
  }
}

TEST(LocalClock, FixedRateWithinBounds) {
  const ClockBounds bounds{0.8, 1.3};
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    LocalClock c(bounds, DriftModel::kFixedRandomRate, Rng(seed));
    const double rate = c.rate_at(5.0);
    EXPECT_GE(rate, bounds.s_low);
    EXPECT_LE(rate, bounds.s_high);
    // Fixed model: same rate everywhere.
    EXPECT_DOUBLE_EQ(c.rate_at(100.0), rate);
    EXPECT_NEAR(c.local_at(10.0), 10.0 * rate, 1e-9);
  }
}

TEST(LocalClock, SingleRateMapsAreExactProductAndQuotient) {
  // kNone and kFixedRandomRate keep one rate and no segments; the maps must
  // be exactly rate·t and l/rate, bit for bit, out to t = 1e7, and the rate
  // must be the clock rng's first draw.
  const ClockBounds bounds{0.8, 1.3};
  for (DriftModel model : {DriftModel::kNone, DriftModel::kFixedRandomRate}) {
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
      SCOPED_TRACE(std::string(drift_model_name(model)) + " seed " +
                   std::to_string(seed));
      LocalClock c(bounds, model, Rng(seed));
      Rng draw(seed);
      const double rate = model == DriftModel::kNone
                              ? 1.0
                              : draw.uniform(bounds.s_low, bounds.s_high);
      EXPECT_EQ(c.rate_at(0.0), rate);
      std::vector<double> grid{0.0};
      for (double t = 1e-3; t <= 1e7; t *= 1.37) grid.push_back(t);
      for (double t = 1.0; t <= 1e7; t *= 10.0) grid.push_back(t + 0.25);
      grid.push_back(1e7);
      std::sort(grid.begin(), grid.end());
      for (double t : grid) {
        EXPECT_EQ(c.local_at(t), rate * t) << "t = " << t;
        EXPECT_EQ(c.real_at(t), t / rate) << "l = " << t;
        EXPECT_EQ(c.rate_at(t), rate) << "t = " << t;
      }
    }
  }
}

TEST(LocalClock, PiecewiseRespectsDefinitionBounds) {
  const ClockBounds bounds{0.5, 2.0};
  LocalClock c(bounds, DriftModel::kPiecewiseRandom, Rng(99), 3.0);
  // Definition 1(2): for every interval, s_low*(t2-t1) <= C(t2)-C(t1)
  // <= s_high*(t2-t1).
  double prev_local = 0.0;
  double prev_real = 0.0;
  for (int i = 1; i <= 300; ++i) {
    const double real = i * 0.7;
    const double local = c.local_at(real);
    const double dt = real - prev_real;
    const double dl = local - prev_local;
    ASSERT_GE(dl, bounds.s_low * dt - 1e-9);
    ASSERT_LE(dl, bounds.s_high * dt + 1e-9);
    prev_local = local;
    prev_real = real;
  }
}

TEST(LocalClock, LocalTimeStrictlyIncreases) {
  LocalClock c({0.5, 2.0}, DriftModel::kPiecewiseRandom, Rng(7), 1.0);
  double prev = -1.0;
  for (int i = 0; i <= 500; ++i) {
    const double local = c.local_at(i * 0.31);
    ASSERT_GT(local, prev);
    prev = local;
  }
}

TEST(LocalClock, RealAtInvertsLocalAt) {
  LocalClock c({0.5, 2.0}, DriftModel::kPiecewiseRandom, Rng(21), 2.0);
  for (double real : {0.1, 1.0, 3.7, 12.0, 55.5, 200.0}) {
    const double local = c.local_at(real);
    EXPECT_NEAR(c.real_at(local), real, 1e-6);
  }
}

TEST(LocalClock, RealAtBeyondExploredTerritory) {
  LocalClock c({0.5, 2.0}, DriftModel::kPiecewiseRandom, Rng(22), 1.0);
  // Querying far-future local times must extend segments on demand.
  const double real = c.real_at(500.0);
  EXPECT_GT(real, 500.0 / 2.0 - 1e-9);   // cannot be faster than s_high
  EXPECT_LT(real, 500.0 / 0.5 + 1e-9);   // cannot be slower than s_low
  EXPECT_NEAR(c.local_at(real), 500.0, 1e-6);
}

TEST(LocalClock, QueryingPastStaysConsistent) {
  LocalClock c({0.5, 2.0}, DriftModel::kPiecewiseRandom, Rng(23), 1.5);
  const double at10 = c.local_at(10.0);
  c.local_at(100.0);  // extend far ahead
  EXPECT_DOUBLE_EQ(c.local_at(10.0), at10);  // history is immutable
}

TEST(LocalClock, SeedDeterminesTrajectory) {
  LocalClock a({0.5, 2.0}, DriftModel::kPiecewiseRandom, Rng(5), 1.0);
  LocalClock b({0.5, 2.0}, DriftModel::kPiecewiseRandom, Rng(5), 1.0);
  for (int i = 0; i < 100; ++i) {
    ASSERT_DOUBLE_EQ(a.local_at(i * 0.9), b.local_at(i * 0.9));
  }
}

TEST(LocalClock, DriftModelNames) {
  EXPECT_STREQ(drift_model_name(DriftModel::kNone), "none");
  EXPECT_STREQ(drift_model_name(DriftModel::kFixedRandomRate),
               "fixed-random");
  EXPECT_STREQ(drift_model_name(DriftModel::kPiecewiseRandom),
               "piecewise-random");
}

}  // namespace
}  // namespace abe
