// Real threads, real queues: the election outside the simulator.
//
//   ./threaded_ring --n 12 --a0 0.05 --scale-us 200 --loss 0.01
//
// Spawns one OS thread per node with blocking mailboxes; channel delays are
// realised as wall-clock due times sampled from the same exponential model.
// The identical ElectionNode code that runs on the discrete-event simulator
// runs here unchanged — a fidelity check that nothing in the results depends
// on simulator artefacts. The trial is one ring-election scenario cell on
// the thread runtime (scenario/sweep.h), with optional failure injection
// (--loss) that the thread runtime honors and counts.
#include <cstdio>

#include "core/election.h"
#include "runtime/runtime.h"
#include "scenario/scenario.h"
#include "scenario/sweep.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  abe::CliFlags flags(argc, argv);
  const std::size_t n = static_cast<std::size_t>(flags.get_int("n", 12));
  const double a0 = flags.get_double("a0", abe::linear_regime_a0(12, 8.0));
  const double scale_us = flags.get_double("scale-us", 200.0);
  const double loss = flags.get_double("loss", 0.0);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.get_int("seed", 1));

  if (n > abe::kMaxThreadRuntimeNodes) {
    std::fprintf(stderr, "one OS thread per node; max n is %zu\n",
                 abe::kMaxThreadRuntimeNodes);
    return 2;
  }
  if (loss < 0.0 || loss >= 1.0) {
    std::fprintf(stderr, "--loss must be in [0, 1)\n");
    return 2;
  }

  std::printf("threaded ABE ring: %zu OS threads, A0=%g, 1 sim unit = %.0f "
              "microseconds%s\n",
              n, a0, scale_us,
              loss > 0.0 ? " (lossy channels)" : "");

  abe::ScenarioSpec spec;
  spec.algorithm = abe::ScenarioAlgorithm::kRingElection;
  spec.topology = abe::TopologySpec{abe::TopologyFamily::kRingUni, n, 0.0};
  spec.runtime = abe::RuntimeKind::kThread;
  spec.a0 = a0;
  spec.drift = abe::DriftModel::kFixedRandomRate;
  spec.failure = loss > 0.0 ? abe::FailureProfile::loss(loss)
                            : abe::FailureProfile::none();
  spec.settle_time = 1.0;
  spec.thread_time_scale_us = scale_us;
  spec.thread_wall_timeout_ms = 30000.0;
  const abe::TrialOutcome result = abe::run_scenario_trial(spec, seed);

  if (!result.completed) {
    const abe::MetricValue* sent = result.metrics.find("net.sent");
    std::printf("no leader within the wall-clock budget (%.0f messages "
                "sent)\n",
                sent != nullptr ? sent->value : 0.0);
    return 1;
  }
  std::printf("leader: node %lld after ~%.1f sim units (wall time), "
              "%llu messages\n",
              static_cast<long long>(result.decision_node), result.time,
              static_cast<unsigned long long>(result.messages));
  std::printf("safety: %s\n", result.safety_ok
                                  ? "exactly one leader, others passive"
                                  : "VIOLATED");
  return result.safety_ok ? 0 : 2;
}
