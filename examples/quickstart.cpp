// Quickstart: elect a leader on an anonymous unidirectional ABE ring.
//
//   ./quickstart --n 16 --a0-scale 1.0 --delay exponential --seed 42
//   ./quickstart --n 12 --runtime thread   # same election, real OS threads
//
// Builds a ring of anonymous nodes whose channels have exponentially
// distributed delays (mean 1 — the known bound δ), runs the paper's
// election, and prints what happened.
//
// The environment is the registered `ring-election` scenario with the
// flags applied; the execution goes through the unified Runtime contract
// (runtime/runtime.h): the identical ring-election AlgorithmDriver runs on
// the deterministic discrete-event simulator, on one OS thread per node
// with wall-clock delays, or over loopback UDP — pick with --runtime.
#include <cstdio>
#include <string>

#include "core/harness.h"
#include "scenario/drivers.h"
#include "scenario/scenario.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  abe::CliFlags flags(argc, argv);
  const std::int64_t n_flag = flags.get_int("n", 16);
  if (n_flag < 1) {
    std::fprintf(stderr, "--n must be at least 1\n");
    return 2;
  }
  const auto n = static_cast<std::size_t>(n_flag);
  const double a0_scale = flags.get_double("a0-scale", 1.0);
  const std::string delay = flags.get_string("delay", "exponential");
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.get_int("seed", 42));
  const std::string runtime_name = flags.get_string("runtime", "sim");

  abe::ScenarioSpec spec = *abe::find_scenario("ring-election");
  spec.topology.n = n;
  spec.delay_name = delay;
  // The linear-complexity calibration from the paper: A0 = c/n².
  spec.a0 = abe::linear_regime_a0(n, a0_scale);
  spec.settle_time = 50.0;
  if (!abe::runtime_kind_from_name(runtime_name, &spec.runtime)) {
    std::fprintf(stderr, "unknown runtime '%s'; known: sim thread udp\n",
                 runtime_name.c_str());
    return 2;
  }
  const std::string problem = abe::runtime_cell_problem(spec);
  if (!problem.empty()) {
    std::fprintf(stderr, "cannot run on the %s runtime: %s\n",
                 runtime_name.c_str(), problem.c_str());
    return 2;
  }

  std::printf("ABE ring election: n=%zu, delay=%s (delta=1), A0=%g, "
              "runtime=%s\n",
              n, delay.c_str(), spec.a0, runtime_name.c_str());

  abe::ElectionOptions options;
  options.a0 = spec.a0;
  abe::ElectionRunResult result;
  const auto driver = abe::make_ring_election_driver(
      options, spec.settle_time, /*adversarial=*/false, &result);
  const abe::RuntimeConfig config = abe::scenario_runtime_config(
      spec, abe::trial_plan(spec.topology, seed), seed);
  abe::run_algorithm_trial(spec.runtime, config, *driver);
  if (!result.elected) {
    std::printf("no leader before the deadline — try a larger a0-scale\n");
    return 1;
  }
  std::printf("leader elected: node %zu (anonymous — the index is only the "
              "observer's name for it)\n",
              result.leader_index);
  std::printf("  time to election : %.2f time units  (%.2f per node)\n",
              result.election_time, result.election_time / n);
  std::printf("  messages         : %llu  (%.2f per node)\n",
              static_cast<unsigned long long>(result.messages),
              static_cast<double>(result.messages) / n);
  std::printf("  activations      : %llu, knockout purges: %llu\n",
              static_cast<unsigned long long>(result.activations),
              static_cast<unsigned long long>(result.purges));
  std::printf("  safety           : %s\n",
              result.safety_ok ? "exactly one leader, all others passive"
                               : result.safety_detail.c_str());
  return result.safety_ok ? 0 : 2;
}
