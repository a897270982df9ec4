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
#include "stats/regression.h"

namespace abe {
namespace {

constexpr std::size_t kSizes[] = {8, 16, 32, 64, 128, 256};
constexpr std::uint64_t kTrials = 20;

benchutil::RingTally abe_runs(std::size_t n) {
  return benchutil::ring_trials(benchutil::ring_spec(n), linear_regime_a0(n),
                                kTrials, 1000);
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
    IrExperiment ir;
    ir.n = n;
    const auto ir_agg = run_itai_rodeh_trials(ir, kTrials, 2000);
    CrExperiment cr;
    cr.n = n;
    const auto cr_agg = run_chang_roberts_trials(cr, kTrials, 3000);

    xs.push_back(static_cast<double>(n));
    abe_ys.push_back(abe_agg.messages.mean());
    ir_ys.push_back(ir_agg.messages.mean());
    cr_ys.push_back(cr_agg.messages.mean());

    table.add_row({Table::fmt_int(static_cast<std::int64_t>(n)),
                   Table::fmt(abe_agg.messages.mean(), 1),
                   Table::fmt(abe_agg.messages.ci95_half_width(), 1),
                   Table::fmt(abe_agg.messages.mean() / n, 2),
                   Table::fmt(ir_agg.messages.mean(), 1),
                   Table::fmt(ir_agg.messages.mean() / n, 2),
                   Table::fmt(cr_agg.messages.mean(), 1),
                   Table::fmt(cr_agg.messages.mean() / n, 2)});
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
    abe::IrExperiment e;
    e.n = n;
    e.seed = seed++;
    const auto result = abe::run_itai_rodeh(e);
    benchmark::DoNotOptimize(result.messages);
  }
}
BENCHMARK(BM_ItaiRodeh)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

}  // namespace abe

ABE_BENCH_MAIN()
