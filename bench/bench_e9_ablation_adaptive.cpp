// E9 — Ablation: the adaptive activation probability is what makes the
// algorithm linear.
//
// Paper claim (Section 3): "By taking 1 − (1−A0)^d as wake-up probability …
// the overall wake-up probability for all nodes stays constant over time.
// This ensures that the algorithm has linear time and message complexity."
// The ablation replaces only that rule, keeping everything else identical:
//   adaptive — the paper's 1 − (1−A0)^d;
//   constant — plain A0: the combined wake-up rate of survivors decays as
//              nodes are knocked out, so late phases stall (time blows up
//              towards Θ(n²) while messages stay flat);
//   linear   — min(1, A0·d): a first-order approximation of adaptive; for
//              the tiny A0 of the linear regime the two nearly coincide.
#include <vector>

#include "bench_util.h"
#include "core/harness.h"
#include "stats/regression.h"

namespace abe {
namespace {

constexpr std::size_t kSizes[] = {16, 32, 64, 128};
constexpr std::uint64_t kTrials = 12;
// c = 4 makes concurrent candidates (and hence knockouts) common enough
// that the policies separate clearly; at c = 1 most elections finish on the
// very first activation and every policy looks alike.
constexpr double kC = 4.0;

ScenarioSpec policy_spec(std::size_t n) {
  ScenarioSpec spec = benchutil::ring_spec(n);
  spec.deadline = 5e7;  // the constant policy genuinely needs long runs
  return spec;
}

benchutil::RingTally run_policy(std::size_t n, ActivationPolicy policy) {
  return benchutil::ring_trials(policy_spec(n), linear_regime_a0(n, kC),
                                kTrials, 600, /*threads=*/0, policy);
}

}  // namespace

namespace benchutil {

void print_experiment_tables() {
  print_header("E9",
               "ablating the adaptive wake-up rule destroys the linear time "
               "bound (constant policy stalls in the endgame)");

  Table table({"n", "policy", "msgs", "msgs/n", "time", "time/n",
               "failures"});
  std::vector<double> xs;
  std::vector<double> time_adaptive, time_constant;
  for (std::size_t n : kSizes) {
    xs.push_back(static_cast<double>(n));
    for (ActivationPolicy policy :
         {ActivationPolicy::kAdaptive, ActivationPolicy::kConstant,
          ActivationPolicy::kLinear}) {
      const auto agg = run_policy(n, policy);
      if (policy == ActivationPolicy::kAdaptive) {
        time_adaptive.push_back(agg.time.mean());
      }
      if (policy == ActivationPolicy::kConstant) {
        time_constant.push_back(agg.time.mean());
      }
      table.add_row(
          {Table::fmt_int(static_cast<std::int64_t>(n)),
           activation_policy_name(policy), Table::fmt(agg.messages.mean(), 1),
           Table::fmt(agg.messages.mean() / n, 2),
           Table::fmt(agg.time.mean(), 1),
           Table::fmt(agg.time.mean() / n, 2),
           Table::fmt_int(static_cast<std::int64_t>(agg.failures))});
    }
  }
  std::printf("%s\n",
              table.render("E9: activation-policy ablation (A0 = 4/n^2)")
                  .c_str());
  const double slope_adaptive = fit_loglog(xs, time_adaptive).slope;
  const double slope_constant = fit_loglog(xs, time_constant).slope;
  std::printf("time log-log slopes: adaptive=%.2f (~1), constant=%.2f "
              "(→ ~2: the stalled endgame)\n",
              slope_adaptive, slope_constant);
  std::printf("paper-shape check: %s\n\n",
              slope_adaptive < 1.4 && slope_constant > slope_adaptive + 0.3
                  ? "HOLDS"
                  : "VIOLATED");
}

}  // namespace benchutil

static void BM_PolicyRun(benchmark::State& state) {
  const auto policy = static_cast<ActivationPolicy>(state.range(0));
  const ScenarioSpec spec = policy_spec(32);
  const double a0 = linear_regime_a0(32, kC);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        benchutil::ring_trial(spec, a0, seed++, policy).messages);
  }
  state.SetLabel(activation_policy_name(policy));
}
BENCHMARK(BM_PolicyRun)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

}  // namespace abe

ABE_BENCH_MAIN()
