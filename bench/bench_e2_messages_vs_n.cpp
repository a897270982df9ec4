// E2 — Expected message complexity vs ring size.
//
// Paper claim (Sections 1 & 3): the ABE election has expected *linear*
// message complexity, beating the Ω(n log n) bound that applies to classic
// asynchronous election, and matching the best anonymous synchronous-ring
// algorithms. Baselines: Itai–Rodeh (anonymous, O(n log n) expected) and
// Chang–Roberts (unique ids, Θ(n log n) average).
//
// The table prints messages per election (mean ± 95% CI) and the normalised
// msgs/n column — flat for the ABE election, growing ~log n for the
// baselines. A log-log slope fit over the sweep summarises each curve.
#include <cmath>
#include <vector>

#include "algo/chang_roberts.h"
#include "algo/itai_rodeh.h"
#include "bench_util.h"
#include "core/harness.h"
#include "net/topology.h"
#include "stats/regression.h"

namespace abe {
namespace {

constexpr std::size_t kSizes[] = {8, 16, 32, 64, 128, 256};
constexpr std::uint64_t kTrials = 20;

benchutil::RingTally abe_runs(std::size_t n) {
  return benchutil::ring_trials(benchutil::ring_spec(n), linear_regime_a0(n),
                                kTrials, 1000);
}

// One trial of a baseline election `driver` on a fresh n-node ring with
// exponential delays of mean 1; metrics off, as for the ABE rows.
TrialOutcome baseline_trial(AlgorithmDriver& driver, std::size_t n,
                            std::uint64_t seed) {
  RuntimeConfig config =
      scenario_runtime_config(ScenarioSpec{}, unidirectional_ring(n), seed);
  config.metrics = false;
  return run_algorithm_trial(RuntimeKind::kSim, std::move(config), driver);
}

}  // namespace

namespace benchutil {

void print_experiment_tables() {
  print_header("E2",
               "expected message complexity of the ABE election is linear "
               "in n; IR and CR baselines pay n log n");

  Table table({"n", "abe_msgs", "abe_ci95", "abe_msgs/n", "ir_msgs",
               "ir_msgs/n", "cr_msgs", "cr_msgs/n"});
  std::vector<double> xs, abe_ys, ir_ys, cr_ys;
  for (std::size_t n : kSizes) {
    const auto abe_agg = abe_runs(n);
    Summary ir_msgs, cr_msgs;  // over elected trials
    for (std::uint64_t t = 0; t < kTrials; ++t) {
      const TrialOutcome ir = baseline_trial(
          *make_itai_rodeh_driver(/*id_range=*/0, nullptr), n, 2000 + t);
      if (ir.completed) ir_msgs.add(static_cast<double>(ir.messages));
      const TrialOutcome cr =
          baseline_trial(*make_chang_roberts_driver(), n, 3000 + t);
      if (cr.completed) cr_msgs.add(static_cast<double>(cr.messages));
    }

    xs.push_back(static_cast<double>(n));
    abe_ys.push_back(abe_agg.messages.mean());
    ir_ys.push_back(ir_msgs.mean());
    cr_ys.push_back(cr_msgs.mean());

    table.add_row({Table::fmt_int(static_cast<std::int64_t>(n)),
                   Table::fmt(abe_agg.messages.mean(), 1),
                   Table::fmt(abe_agg.messages.ci95_half_width(), 1),
                   Table::fmt(abe_agg.messages.mean() / n, 2),
                   Table::fmt(ir_msgs.mean(), 1),
                   Table::fmt(ir_msgs.mean() / n, 2),
                   Table::fmt(cr_msgs.mean(), 1),
                   Table::fmt(cr_msgs.mean() / n, 2)});
  }
  std::printf("%s\n",
              table.render("E2: messages per election (ring size sweep)")
                  .c_str());

  const double abe_slope = fit_loglog(xs, abe_ys).slope;
  const double ir_slope = fit_loglog(xs, ir_ys).slope;
  const double cr_slope = fit_loglog(xs, cr_ys).slope;
  std::printf("log-log slopes: ABE=%.3f (linear => ~1), IR=%.3f, CR=%.3f "
              "(n log n => >1)\n",
              abe_slope, ir_slope, cr_slope);
  std::printf("paper-shape check: ABE slope ~1 and ABE msgs/n flat: %s\n\n",
              (abe_slope < 1.25 && abe_ys.back() / xs.back() <
                                       ir_ys.back() / xs.back())
                  ? "HOLDS"
                  : "VIOLATED");
}

}  // namespace benchutil

// Wall-time microbenchmarks of one full election at each size.
static void BM_AbeElection(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const ScenarioSpec spec = benchutil::ring_spec(n);
  const double a0 = linear_regime_a0(n);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto result = benchutil::ring_trial(spec, a0, seed++);
    benchmark::DoNotOptimize(result.messages);
    state.counters["sim_msgs"] = static_cast<double>(result.messages);
  }
}
BENCHMARK(BM_AbeElection)->Arg(16)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond);

static void BM_ItaiRodeh(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const TrialOutcome result =
        baseline_trial(*make_itai_rodeh_driver(0, nullptr), n, seed++);
    benchmark::DoNotOptimize(result.messages);
  }
}
BENCHMARK(BM_ItaiRodeh)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

}  // namespace abe

ABE_BENCH_MAIN()
