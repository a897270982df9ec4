// E10 — "Every asynchronous execution is an ABE execution; long delays are
// merely improbable", and the ABE election's cost is close to the
// synchronous/ABD optimum.
//
// (a) Delay-tail table: per delay law (all mean 1), the quantiles and the
//     empirical P(delay > k) — bounded models hit a hard ceiling, ABE laws
//     put positive mass on every threshold (the executions-inclusion
//     argument behind Theorem 1).
// (b) Sync-gap table: election cost under fixed delay (the ABD/synchronous
//     limit) vs genuinely asynchronous laws at the same mean — the paper's
//     "efficiency comparable to the most optimal … synchronous rings" claim
//     as a measured ratio.
#include "bench_util.h"
#include "core/harness.h"
#include "net/delay.h"
#include "stats/histogram.h"

namespace abe {
namespace {

constexpr std::size_t kN = 64;
constexpr std::uint64_t kTrials = 20;

}  // namespace

namespace benchutil {

void print_experiment_tables() {
  print_header("E10",
               "all async executions possible, long delays improbable; ABE "
               "election cost ~ synchronous optimum");

  Table tails({"delay_model", "p50", "p90", "p99", "p99.9", "max_seen",
               "P(>4)", "P(>16)"});
  for (const auto& name : standard_delay_model_names()) {
    Rng rng(3);
    const auto model = make_delay_model(name, 1.0);
    Histogram h;
    for (int i = 0; i < 200000; ++i) h.add(model->sample(rng));
    tails.add_row({name, Table::fmt(h.quantile(0.5), 2),
                   Table::fmt(h.quantile(0.9), 2),
                   Table::fmt(h.quantile(0.99), 2),
                   Table::fmt(h.quantile(0.999), 2),
                   Table::fmt(h.quantile(1.0), 2),
                   Table::fmt(h.tail_fraction(4.0), 5),
                   Table::fmt(h.tail_fraction(16.0), 6)});
  }
  std::printf("%s\n",
              tails.render("E10a: delay tails at equal mean 1 (200k samples)")
                  .c_str());

  Table gap({"delay_model", "msgs", "time", "msgs_ratio_vs_fixed",
             "time_ratio_vs_fixed"});
  double fixed_msgs = 0, fixed_time = 0;
  for (const char* name : {"fixed", "uniform", "exponential", "lomax"}) {
    ScenarioSpec spec = ring_spec(kN);
    spec.delay_name = name;
    const RingTally agg =
        ring_trials(spec, linear_regime_a0(kN), kTrials, 900);
    if (std::string(name) == "fixed") {
      fixed_msgs = agg.messages.mean();
      fixed_time = agg.time.mean();
    }
    gap.add_row({name, Table::fmt(agg.messages.mean(), 1),
                 Table::fmt(agg.time.mean(), 1),
                 Table::fmt(agg.messages.mean() / fixed_msgs, 2),
                 Table::fmt(agg.time.mean() / fixed_time, 2)});
  }
  std::printf("%s\n",
              gap.render("E10b: election cost vs the ABD/synchronous limit "
                         "(fixed delay), n = 64")
                  .c_str());
  std::printf("shape: ratios stay O(1) — asynchrony with bounded expected "
              "delay costs only a constant factor.\n\n");
}

}  // namespace benchutil

static void BM_TailSampling(benchmark::State& state) {
  Rng rng(3);
  const auto model = lomax_delay(2.5, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->sample(rng));
  }
}
BENCHMARK(BM_TailSampling);

static void BM_FixedVsExpElection(benchmark::State& state) {
  const bool fixed = state.range(0) == 1;
  ScenarioSpec spec = benchutil::ring_spec(kN);
  spec.delay_name = fixed ? "fixed" : "exponential";
  const double a0 = linear_regime_a0(kN);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(benchutil::ring_trial(spec, a0, seed++).messages);
  }
  state.SetLabel(fixed ? "fixed" : "exponential");
}
BENCHMARK(BM_FixedVsExpElection)->Arg(1)->Arg(0)
    ->Unit(benchmark::kMillisecond);

}  // namespace abe

ABE_BENCH_MAIN()
