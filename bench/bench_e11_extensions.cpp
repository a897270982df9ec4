// E11 — extension experiments beyond the brief announcement's core claims.
//
// These chart the library's extensions, each rooted in a sentence of the
// paper:
//  (a) announced election (full termination): total cost = election + n —
//      the "usable primitive" version stays linear;
//  (b) α vs β synchronizer trade-off on ABE networks (Theorem 1 both ways:
//      both pay ≥ n/round; β trades messages for tree-height latency);
//  (c) gossip on ad-hoc (random geometric) ABE networks — the deployment
//      class the paper motivates the model with;
//  (d) the online δ̂ estimator bracketing a drifting expected delay
//      (Section 2's "the best we can deduce is an upper bound").
#include "bench_util.h"
#include "core/announce.h"
#include "core/delta_estimator.h"
#include "algo/gossip.h"
#include "net/topology.h"
#include "stats/summary.h"
#include "syncr/alpha.h"
#include "syncr/beta.h"
#include "syncr/apps.h"

namespace abe {
namespace {

// The counter app under the β-synchronizer on `topology`: exponential
// delays of mean 1, the default ScenarioSpec environment.
BetaRunResult run_beta(const Topology& topology, std::uint64_t rounds,
                       std::uint64_t seed) {
  RuntimeConfig config =
      scenario_runtime_config(ScenarioSpec{}, topology, seed);
  config.metrics = false;
  config.deadline = 1e9;
  const SyncAppFactory factory = counter_app_factory();
  BetaRunResult result;
  run_algorithm_trial(RuntimeKind::kSim, std::move(config),
                      *make_beta_sync_driver(factory, rounds, &result));
  return result;
}

GossipResult run_gossip_from_0(const Topology& topology,
                               const std::string& delay,
                               std::uint64_t seed) {
  ScenarioSpec spec;
  spec.delay_name = delay;
  RuntimeConfig config = scenario_runtime_config(spec, topology, seed);
  config.metrics = false;
  config.deadline = 1e6;
  GossipResult result;
  run_algorithm_trial(RuntimeKind::kSim, std::move(config),
                      *make_gossip_driver(/*source=*/0, &result));
  return result;
}

}  // namespace

namespace benchutil {

void print_experiment_tables() {
  print_header("E11",
               "extensions: announced election, alpha-vs-beta, ad-hoc "
               "gossip, online delta bound");

  // (a) announced election stays linear.
  Table announce({"n", "msgs(total)", "msgs/n", "time", "time/n",
                  "indexing_ok"});
  for (std::size_t n : {8, 32, 128}) {
    Summary msgs, time;
    bool consistent = true;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      const auto r =
          run_announced_election(n, linear_regime_a0(n), seed * 11);
      if (!r.all_done) continue;
      msgs.add(static_cast<double>(r.messages));
      time.add(r.completion_time);
      consistent = consistent && r.distances_consistent;
    }
    announce.add_row({Table::fmt_int(static_cast<std::int64_t>(n)),
                      Table::fmt(msgs.mean(), 1),
                      Table::fmt(msgs.mean() / n, 2),
                      Table::fmt(time.mean(), 1),
                      Table::fmt(time.mean() / n, 2),
                      consistent ? "yes" : "NO"});
  }
  std::printf("%s\n",
              announce.render("E11a: election + announcement wave "
                              "(every node learns; ring gets indexed)")
                  .c_str());

  // (b) alpha vs beta on a dense and a deep topology.
  Table sync({"topology", "sync", "msgs/round", "completion_time"});
  const struct {
    const char* label;
    Topology topology;
  } shapes[] = {{"complete(12)", complete(12)}, {"line(16)", line(16)}};
  for (const auto& shape : shapes) {
    const auto alpha = run_alpha_synchronizer(
        shape.topology, counter_app_factory(), 20, exponential_delay(1.0),
        3);
    const auto beta = run_beta(shape.topology, 20, 3);
    sync.add_row({shape.label, "alpha",
                  Table::fmt(alpha.messages_per_round, 1),
                  Table::fmt(alpha.completion_time, 1)});
    sync.add_row({shape.label, "beta",
                  Table::fmt(beta.messages_per_round, 1),
                  Table::fmt(beta.completion_time, 1)});
  }
  std::printf("%s\n",
              sync.render("E11b: alpha vs beta (messages vs latency; both "
                          ">= n per round, per Theorem 1)")
                  .c_str());

  // (c) gossip on random geometric graphs under different delay laws.
  Table gossip({"n", "delay", "spread_time", "messages"});
  for (std::size_t n : {25, 64}) {
    for (const char* delay : {"fixed", "exponential", "lomax"}) {
      Summary time, msgs;
      for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        Rng rng(seed * 7);
        const auto r =
            run_gossip_from_0(random_geometric(n, 0.25, rng), delay, seed);
        if (!r.all_informed) continue;
        time.add(r.spread_time);
        msgs.add(static_cast<double>(r.messages));
      }
      gossip.add_row({Table::fmt_int(static_cast<std::int64_t>(n)), delay,
                      Table::fmt(time.mean(), 1),
                      Table::fmt(msgs.mean(), 0)});
    }
  }
  std::printf("%s\n",
              gossip.render("E11c: rumor spreading on ad-hoc geometric "
                            "ABE networks")
                  .c_str());

  // (d) delta estimator through a calm -> storm -> calm day.
  Table est({"phase", "true_mean", "est_mean", "advertised_bound",
             "bound>=true"});
  DeltaEstimator estimator;
  Rng rng(5);
  const struct {
    const char* phase;
    double mean;
  } day[] = {{"calm", 1.0}, {"storm", 6.0}, {"calm_again", 1.0}};
  for (const auto& phase : day) {
    const auto model = exponential_delay(phase.mean);
    for (int i = 0; i < 3000; ++i) estimator.observe(model->sample(rng));
    est.add_row({phase.phase, Table::fmt(phase.mean, 1),
                 Table::fmt(estimator.mean_estimate(), 2),
                 Table::fmt(estimator.upper_bound(), 2),
                 estimator.upper_bound() >= phase.mean ? "yes" : "NO"});
  }
  std::printf("%s\n",
              est.render("E11d: online delta-hat through a delay regime "
                         "shift (bounds widen fast, tighten slowly)")
                  .c_str());
}

}  // namespace benchutil

static void BM_AnnouncedElection(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        run_announced_election(n, linear_regime_a0(n), seed++).messages);
  }
}
BENCHMARK(BM_AnnouncedElection)->Arg(32)->Arg(128)
    ->Unit(benchmark::kMillisecond);

static void BM_BetaSync(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_beta(grid(4, 4), 10, seed++).messages_total);
  }
}
BENCHMARK(BM_BetaSync)->Unit(benchmark::kMillisecond);

static void BM_GossipGeometric(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    Rng rng(seed);
    benchmark::DoNotOptimize(
        run_gossip_from_0(random_geometric(36, 0.25, rng), "exponential",
                          seed++)
            .messages);
  }
}
BENCHMARK(BM_GossipGeometric)->Unit(benchmark::kMillisecond);

}  // namespace abe

ABE_BENCH_MAIN()
