// E6 — Theorem 1: synchronising an ABE network costs ≥ n messages/round.
//
// Three sub-tables:
//  (a) the α-synchronizer (correct on any asynchronous network, hence on
//      ABE) sends exactly |E| messages per round; on a unidirectional ring
//      that is exactly n — it meets the paper's lower bound with equality,
//      and no strongly-connected digraph goes below n;
//  (b) the ABD synchronizer of Tel–Korach–Zaks runs with ZERO overhead
//      messages — legal only when a sure delay bound exists: on fixed
//      (ABD) delays it reproduces the reference execution perfectly;
//  (c) on genuine ABE delays the ABD synchronizer's assumed bound P = c·δ
//      is overshot with probability ~e^{-c} per message: the violation rate
//      and output corruption it causes are charted per period multiplier
//      and per delay law, plus a clock-drift row (Definition 1(2)).
#include <optional>
#include <vector>

#include "bench_util.h"
#include "net/topology.h"
#include "syncr/abd_sync.h"
#include "syncr/alpha.h"
#include "syncr/apps.h"
#include "syncr/sync_runner.h"

namespace abe {
namespace {

constexpr std::uint64_t kRounds = 30;

// The app under the α-synchronizer on `topology` with `delay` or, given a
// round period (a multiple of the mean delay), under the ABD synchronizer,
// on clocks per `clock_bounds` and `drift`. Metrics stay off: the BM_* rows
// time the bare trial.
SynchronizerResult run_sync(const Topology& topology,
                            const SyncAppFactory& factory,
                            std::uint64_t rounds, DelayModelPtr delay,
                            std::uint64_t seed,
                            std::optional<double> abd_period = std::nullopt,
                            ClockBounds clock_bounds = {},
                            DriftModel drift = DriftModel::kNone) {
  RuntimeConfig config =
      scenario_runtime_config(ScenarioSpec{}, topology, seed);
  config.delay = std::move(delay);
  config.clock_bounds = clock_bounds;
  config.drift = drift;
  config.metrics = false;
  config.deadline = 1e9;
  SynchronizerResult result;
  const auto driver =
      abd_period ? make_abd_sync_driver(factory, rounds, *abd_period, &result)
                 : make_alpha_sync_driver(factory, rounds, &result);
  run_algorithm_trial(RuntimeKind::kSim, std::move(config), *driver);
  return result;
}

}  // namespace

namespace benchutil {

void print_experiment_tables() {
  print_header("E6",
               "Theorem 1: no synchroniser for ABE networks uses fewer than "
               "n messages/round; the cheaper ABD synchroniser breaks on "
               "ABE delays");

  // (a) alpha synchronizer message floor.
  Table alpha({"topology", "n", "edges", "msgs/round", ">=n"});
  struct Shape {
    const char* label;
    Topology topology;
  };
  const Shape shapes[] = {
      {"uni-ring(8)", unidirectional_ring(8)},
      {"uni-ring(32)", unidirectional_ring(32)},
      {"uni-ring(128)", unidirectional_ring(128)},
      {"grid(6x6)", grid(6, 6)},
      {"torus(6x6)", torus(6, 6)},
      {"complete(16)", complete(16)},
  };
  for (const auto& shape : shapes) {
    const auto result = run_sync(shape.topology, counter_app_factory(),
                                 kRounds, exponential_delay(1.0), 7);
    alpha.add_row(
        {shape.label, Table::fmt_int(static_cast<std::int64_t>(shape.topology.n)),
         Table::fmt_int(static_cast<std::int64_t>(shape.topology.edge_count())),
         Table::fmt(result.messages_per_round, 1),
         result.messages_per_round >= static_cast<double>(shape.topology.n)
             ? "yes"
             : "NO (bound violated!)"});
  }
  std::printf("%s\n",
              alpha.render("E6a: alpha synchronizer messages per round "
                           "(lower bound n; ring meets it with equality)")
                  .c_str());

  // (b) ABD synchronizer on a true ABD network.
  // A run is correct when its outputs equal the lock-step execution's.
  const Topology ring16 = bidirectional_ring(16);
  const auto broadcast_ref =
      run_synchronous(ring16, broadcast_app_factory(0), kRounds).outputs;
  Table abd({"delay", "period_mult", "msgs/round", "late", "outputs_ok"});
  for (double mult : {1.25, 2.0}) {
    const auto r = run_sync(ring16, broadcast_app_factory(0), kRounds,
                            fixed_delay(1.0), 11, /*abd_period=*/mult);
    abd.add_row({"fixed(1.0)", Table::fmt(mult, 2),
                 Table::fmt(r.messages_per_round, 2),
                 Table::fmt_int(static_cast<std::int64_t>(r.late_messages)),
                 r.outputs == broadcast_ref ? "yes" : "NO"});
  }
  {
    const auto r = run_sync(ring16, counter_app_factory(), kRounds,
                            fixed_delay(1.0), 11, /*abd_period=*/1.25);
    const auto ref = run_synchronous(ring16, counter_app_factory(), kRounds);
    abd.add_row({"fixed(1.0)+silent app", "1.25",
                 Table::fmt(r.messages_per_round, 2),
                 Table::fmt_int(static_cast<std::int64_t>(r.late_messages)),
                 r.outputs == ref.outputs ? "yes" : "NO"});
  }
  std::printf("%s\n",
              abd.render("E6b: ABD synchronizer on an ABD network — zero "
                         "overhead, still correct (impossible on ABE)")
                  .c_str());

  // (c) ABD synchronizer on ABE networks: violation rates.
  Table viol({"delay_law", "period_mult", "late_msgs", "late_frac",
              "runs_corrupted/10"});
  const struct {
    const char* label;
    DelayModelPtr delay;
  } laws[] = {
      {"exponential(1)", exponential_delay(1.0)},
      {"lomax(2.5, mean 1)", lomax_delay(2.5, 1.0)},
      {"georetx(p=.5)", geometric_retransmission_delay(0.5, 0.5)},
  };
  for (const auto& law : laws) {
    for (double mult : {1.0, 2.0, 4.0, 8.0}) {
      std::uint64_t late = 0, msgs = 0;
      int corrupted = 0;
      for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        const auto r = run_sync(ring16, broadcast_app_factory(0), kRounds,
                                law.delay, seed, /*abd_period=*/mult);
        late += r.late_messages;
        msgs += r.messages_total;
        corrupted += r.outputs == broadcast_ref ? 0 : 1;
      }
      viol.add_row({law.label, Table::fmt(mult, 1),
                    Table::fmt_int(static_cast<std::int64_t>(late)),
                    Table::fmt(msgs == 0 ? 0.0
                                         : static_cast<double>(late) /
                                               static_cast<double>(msgs),
                               4),
                    Table::fmt_int(corrupted)});
    }
  }
  // Drift row: bounded delays, drifting clocks.
  {
    std::uint64_t late = 0, msgs = 0;
    int corrupted = 0;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      const auto r = run_sync(ring16, broadcast_app_factory(0), kRounds,
                              fixed_delay(1.0), seed, /*abd_period=*/1.25,
                              ClockBounds{0.7, 1.4},
                              DriftModel::kFixedRandomRate);
      late += r.late_messages;
      msgs += r.messages_total;
      corrupted += r.outputs == broadcast_ref ? 0 : 1;
    }
    viol.add_row({"fixed(1)+drift[0.7,1.4]", "1.25",
                  Table::fmt_int(static_cast<std::int64_t>(late)),
                  Table::fmt(msgs == 0 ? 0.0
                                       : static_cast<double>(late) /
                                             static_cast<double>(msgs),
                             4),
                  Table::fmt_int(corrupted)});
  }
  std::printf("%s\n",
              viol.render("E6c: ABD synchronizer on ABE networks — "
                          "violations vs period multiplier")
                  .c_str());
  std::printf("shape: late_frac ~ e^{-mult} for exponential delays; "
              "heavier tails decay slower; drift alone also corrupts.\n\n");
}

}  // namespace benchutil

static void BM_AlphaRound(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto r = run_sync(unidirectional_ring(n), counter_app_factory(), 10,
                            exponential_delay(1.0), seed++);
    benchmark::DoNotOptimize(r.messages_total);
  }
}
BENCHMARK(BM_AlphaRound)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

}  // namespace abe

ABE_BENCH_MAIN()
