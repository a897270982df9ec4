// E4 — The role of the base activation parameter A0.
//
// Paper claim (Section 3): A0 ∈ (0,1) parameterises the algorithm; the
// adaptive wake-up probability keeps the overall activation rate constant
// over time. This sweep charts the real trade-off on a fixed ring (n = 64):
// A0 is swept as c/n² across four decades of c.
//   * small c  — activations are rare: few messages (→ the n lower bound)
//                but long waits before the first candidate appears;
//   * moderate c — the sweet spot the paper's linear claim lives in;
//   * large c  — concurrent candidates knock each other out repeatedly:
//                message and time cost explode (the duel regime).
#include <vector>

#include "bench_util.h"
#include "core/harness.h"

namespace abe {
namespace {

constexpr std::size_t kN = 64;
constexpr std::uint64_t kTrials = 20;
const double kCs[] = {0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 16.0,
                      64.0,  256.0, 1024.0};

}  // namespace

namespace benchutil {

void print_experiment_tables() {
  print_header("E4",
               "A0 trades waiting time against collision messages; the "
               "adaptive rule is calibrated by c = n^2*A0");

  Table table({"c=n^2*A0", "A0", "msgs", "msgs/n", "time", "time/n",
               "activations", "purges"});
  for (double c : kCs) {
    const double a0 = linear_regime_a0(kN, c);
    const RingTally agg = ring_trials(ring_spec(kN), a0, kTrials, 800);
    table.add_row({Table::fmt(c, 3), Table::fmt(a0, 6),
                   Table::fmt(agg.messages.mean(), 1),
                   Table::fmt(agg.messages.mean() / kN, 2),
                   Table::fmt(agg.time.mean(), 1),
                   Table::fmt(agg.time.mean() / kN, 2),
                   Table::fmt(agg.activations.mean(), 1),
                   Table::fmt(agg.purges.mean(), 1)});
  }
  std::printf("%s\n",
              table.render("E4: A0 sweep at n = 64 (A0 = c/n^2)").c_str());
  std::printf("shape: msgs/n rises monotonically with c; time/n is "
              "U-shaped with its minimum near c in [1, 16].\n\n");
}

}  // namespace benchutil

static void BM_ElectionAtC(benchmark::State& state) {
  const double c = static_cast<double>(state.range(0)) / 100.0;
  const ScenarioSpec spec = benchutil::ring_spec(kN);
  const double a0 = linear_regime_a0(kN, c);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(benchutil::ring_trial(spec, a0, seed++).messages);
  }
}
BENCHMARK(BM_ElectionAtC)->Arg(50)->Arg(100)->Arg(1600)
    ->Unit(benchmark::kMillisecond);

}  // namespace abe

ABE_BENCH_MAIN()
