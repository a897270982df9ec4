// E8 — Definition 1(2): bounded clock drift.
//
// The ABE model only requires known bounds [s_low, s_high] on clock speed.
// This bench sweeps the bound ratio s_high/s_low from 1 (ideal) to 16
// (wildly heterogeneous hardware) under both drift shapes, and shows the
// election stays correct with gracefully degrading cost. (Contrast with
// E6c, where the same drift silently corrupts the ABD synchronizer.)
#include <cmath>

#include "bench_util.h"
#include "core/harness.h"

namespace abe {
namespace {

constexpr std::size_t kN = 64;
constexpr std::uint64_t kTrials = 15;

}  // namespace

namespace benchutil {

void print_experiment_tables() {
  print_header("E8",
               "the election tolerates any known clock-speed bounds; cost "
               "degrades smoothly with the bound ratio");

  Table table({"ratio", "drift_model", "msgs", "msgs/n", "time", "time/n",
               "failures", "safety_violations"});
  for (double ratio : {1.0, 2.0, 4.0, 16.0}) {
    for (DriftModel drift :
         {DriftModel::kFixedRandomRate, DriftModel::kPiecewiseRandom}) {
      ScenarioSpec spec = ring_spec(kN);
      const double s = std::sqrt(ratio);
      spec.clock_bounds = ClockBounds{1.0 / s, s};
      spec.drift = ratio == 1.0 ? DriftModel::kNone : drift;
      const RingTally agg =
          ring_trials(spec, linear_regime_a0(kN), kTrials, 4200);
      table.add_row(
          {Table::fmt(ratio, 0), drift_model_name(spec.drift),
           Table::fmt(agg.messages.mean(), 1),
           Table::fmt(agg.messages.mean() / kN, 2),
           Table::fmt(agg.time.mean(), 1),
           Table::fmt(agg.time.mean() / kN, 2),
           Table::fmt_int(static_cast<std::int64_t>(agg.failures)),
           Table::fmt_int(
               static_cast<std::int64_t>(agg.safety_violations))});
      if (ratio == 1.0) break;  // both drift models degenerate to none
    }
  }
  std::printf(
      "%s\n",
      table.render("E8: clock-drift sweep at n = 64 (s_low = 1/sqrt(r), "
                   "s_high = sqrt(r))")
          .c_str());
  std::printf("shape: zero failures and zero safety violations in every "
              "row; msgs/n and time/n grow mildly with the ratio.\n\n");
}

}  // namespace benchutil

static void BM_ElectionUnderDrift(benchmark::State& state) {
  const double ratio = static_cast<double>(state.range(0));
  ScenarioSpec spec = benchutil::ring_spec(kN);
  const double s = std::sqrt(ratio);
  spec.clock_bounds = ClockBounds{1.0 / s, s};
  spec.drift = DriftModel::kPiecewiseRandom;
  const double a0 = linear_regime_a0(kN);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(benchutil::ring_trial(spec, a0, seed++).messages);
  }
}
BENCHMARK(BM_ElectionUnderDrift)->Arg(1)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMillisecond);

}  // namespace abe

ABE_BENCH_MAIN()
