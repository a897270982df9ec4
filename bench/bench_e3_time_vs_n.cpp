// E3 — Expected time complexity vs ring size.
//
// Paper claim (Sections 1 & 3): the ABE election elects in expected linear
// *time* (real time, with the expected message delay and the tick period as
// the time units). The table reports the election time mean ± CI, the
// normalised time/n column and the mean number of activations.
#include <vector>

#include "bench_util.h"
#include "core/harness.h"
#include "stats/regression.h"

namespace abe {
namespace {

constexpr std::size_t kSizes[] = {8, 16, 32, 64, 128, 256};
constexpr std::uint64_t kTrials = 20;

}  // namespace

namespace benchutil {

void print_experiment_tables() {
  print_header("E3",
               "expected election time is linear in n (time unit = expected "
               "delay = tick period)");

  Table table({"n", "time", "ci95", "time/n", "activations"});
  std::vector<double> xs, ys;
  for (std::size_t n : kSizes) {
    const RingTally agg =
        ring_trials(ring_spec(n), linear_regime_a0(n), kTrials, 500);
    xs.push_back(static_cast<double>(n));
    ys.push_back(agg.time.mean());
    table.add_row({Table::fmt_int(static_cast<std::int64_t>(n)),
                   Table::fmt(agg.time.mean(), 1),
                   Table::fmt(agg.time.ci95_half_width(), 1),
                   Table::fmt(agg.time.mean() / n, 2),
                   Table::fmt(agg.activations.mean(), 1)});
  }
  std::printf("%s\n",
              table.render("E3: time to election (ring size sweep)").c_str());
  const double slope = fit_loglog(xs, ys).slope;
  std::printf("log-log slope of time vs n: %.3f (paper: ~1)\n", slope);
  std::printf("paper-shape check: %s\n\n",
              slope > 0.7 && slope < 1.3 ? "HOLDS" : "VIOLATED");
}

}  // namespace benchutil

static void BM_ElectionTimeSim(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  double total_sim_time = 0;
  std::uint64_t runs = 0;
  const ScenarioSpec spec = benchutil::ring_spec(n);
  const double a0 = linear_regime_a0(n);
  for (auto _ : state) {
    const auto result = benchutil::ring_trial(spec, a0, seed++);
    total_sim_time += result.election_time;
    ++runs;
  }
  state.counters["sim_time_per_n"] =
      total_sim_time / static_cast<double>(runs) / static_cast<double>(n);
}
BENCHMARK(BM_ElectionTimeSim)->Arg(32)->Arg(128)
    ->Unit(benchmark::kMillisecond);

}  // namespace abe

ABE_BENCH_MAIN()
