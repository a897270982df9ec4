// E5 — Only the *bound on the expected delay* matters.
//
// Paper claim (Section 2): the ABE model assumes nothing about the delay
// law beyond a bound on its mean — algorithms must behave comparably under
// any distribution honouring that bound. This bench runs the election at
// n = 64 under eight delay laws, all normalised to mean 1 (the same δ),
// from the degenerate ABD case (fixed) to a heavy-tailed Lomax with
// infinite variance and the paper's retransmission channel.
#include <algorithm>

#include "bench_util.h"
#include "core/harness.h"
#include "net/delay.h"

namespace abe {
namespace {

constexpr std::size_t kN = 64;
constexpr std::uint64_t kTrials = 20;

}  // namespace

namespace benchutil {

void print_experiment_tables() {
  print_header("E5",
               "election cost depends on the delay law only through its "
               "mean: all rows share delta = 1 and stay within a small "
               "factor of each other");

  Table table({"delay_model", "bounded", "msgs", "msgs_ci", "msgs/n", "time",
               "time/n", "failures"});
  double min_msgs = 1e18, max_msgs = 0;
  for (const auto& name : standard_delay_model_names()) {
    ScenarioSpec spec = ring_spec(kN);
    spec.delay_name = name;
    const RingTally agg =
        ring_trials(spec, linear_regime_a0(kN), kTrials, 250);
    const auto model = make_delay_model(name, 1.0);
    min_msgs = std::min(min_msgs, agg.messages.mean());
    max_msgs = std::max(max_msgs, agg.messages.mean());
    table.add_row({name, model->bounded() ? "yes" : "no",
                   Table::fmt(agg.messages.mean(), 1),
                   Table::fmt(agg.messages.ci95_half_width(), 1),
                   Table::fmt(agg.messages.mean() / kN, 2),
                   Table::fmt(agg.time.mean(), 1),
                   Table::fmt(agg.time.mean() / kN, 2),
                   Table::fmt_int(static_cast<std::int64_t>(agg.failures))});
  }
  std::printf(
      "%s\n",
      table.render("E5: delay-law sweep at n = 64, all means = 1").c_str());
  std::printf("max/min message ratio across laws: %.2f (claim: O(1), "
              "typically < 2)\n\n",
              max_msgs / min_msgs);
}

}  // namespace benchutil

static void BM_ElectionUnderLaw(benchmark::State& state) {
  const auto& names = standard_delay_model_names();
  const auto& name = names[static_cast<std::size_t>(state.range(0))];
  ScenarioSpec spec = benchutil::ring_spec(kN);
  spec.delay_name = name;
  const double a0 = linear_regime_a0(kN);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(benchutil::ring_trial(spec, a0, seed++).messages);
  }
  state.SetLabel(name);
}
BENCHMARK(BM_ElectionUnderLaw)->DenseRange(0, 7)
    ->Unit(benchmark::kMillisecond);

}  // namespace abe

ABE_BENCH_MAIN()
