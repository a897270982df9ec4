// Shared scaffolding for the experiment benches.
//
// Every bench binary prints its experiment table(s) first — the rows a paper
// would report — and then hands over to google-benchmark for wall-time
// microbenchmarks of the same workloads. ABE_BENCH_MAIN wires that order.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <thread>

#include "core/harness.h"
#include "core/trial_pool.h"
#include "scenario/drivers.h"
#include "sim/equeue/backend.h"
#include "stats/summary.h"
#include "stats/table.h"

// Build provenance, injected by bench/CMakeLists.txt so every BENCH_*.json
// in the perf trajectory is attributable to a commit and toolchain. The git
// sha arrives via a build-time generated header (bench/gitsha.cmake) so it
// tracks HEAD across incremental rebuilds; the fallbacks keep stray
// compilations working.
#ifdef ABE_BENCH_HAVE_SHA_HEADER
#include "abe_bench_git_sha.h"
#endif
#ifndef ABE_BENCH_GIT_SHA
#define ABE_BENCH_GIT_SHA "unknown"
#endif
#ifndef ABE_BENCH_COMPILER
#define ABE_BENCH_COMPILER "unknown"
#endif
#ifndef ABE_BENCH_BUILD_TYPE
#define ABE_BENCH_BUILD_TYPE "unknown"
#endif

namespace abe::benchutil {

// Experiment-table phase; each bench defines its own.
void print_experiment_tables();

inline void print_header(const char* id, const char* claim) {
  std::printf(
      "\n############################################################\n");
  std::printf("# Experiment %s\n# Paper claim: %s\n", id, claim);
  std::printf(
      "############################################################\n\n");
}

// Embeds run metadata into google-benchmark's JSON "context" block so
// BENCH_*.json trajectories stay comparable across PRs: which commit,
// which compiler, which build type, how much hardware.
inline void add_run_metadata() {
  ::benchmark::AddCustomContext("abe_git_sha", ABE_BENCH_GIT_SHA);
  ::benchmark::AddCustomContext("abe_compiler", ABE_BENCH_COMPILER);
  ::benchmark::AddCustomContext("abe_build_type", ABE_BENCH_BUILD_TYPE);
  ::benchmark::AddCustomContext(
      "abe_hardware_threads",
      std::to_string(std::thread::hardware_concurrency()));
  // The process-wide scheduler default (ABE_EQUEUE override included), so
  // a baseline recorded under a pinned backend is never mistaken for the
  // auto default.
  ::benchmark::AddCustomContext(
      "abe_equeue_default",
      ::abe::equeue_backend_name(
          ::abe::resolve_equeue_backend(::abe::EqueueBackend::kAuto)));
}

// --- ring-election trials ---------------------------------------------------
//
// The E-tables print per-node tallies (activations, purges) that only the
// ring driver's own result carries, so the ring benches run the driver
// directly on a ScenarioSpec's environment rather than through
// run_scenario_trials.

// The paper's unidirectional ring of n nodes with the spec defaults
// (exponential delay of mean 1, ideal clocks) and no settle window.
inline ScenarioSpec ring_spec(std::size_t n) {
  ScenarioSpec spec;
  spec.topology = TopologySpec{TopologyFamily::kRingUni, n, 0.0};
  spec.settle_time = 0.0;
  return spec;
}

// One election with base activation parameter `a0` and `policy` on `spec`'s
// environment. Metrics stay off: the BM_* rows time the bare trial.
inline ElectionRunResult ring_trial(
    const ScenarioSpec& spec, double a0, std::uint64_t seed,
    ActivationPolicy policy = ActivationPolicy::kAdaptive) {
  RuntimeConfig config =
      scenario_runtime_config(spec, trial_plan(spec.topology, seed), seed);
  config.metrics = false;
  ElectionOptions options;
  options.a0 = a0;
  options.policy = policy;
  ElectionRunResult result;
  const auto driver = make_ring_election_driver(options, spec.settle_time,
                                                /*adversarial=*/false, &result);
  run_algorithm_trial(RuntimeKind::kSim, std::move(config), *driver);
  return result;
}

struct RingTally {
  Summary messages;  // over elected trials
  Summary time;
  Summary activations;
  Summary purges;
  std::uint64_t trials = 0;
  std::uint64_t failures = 0;  // no leader before the deadline
  std::uint64_t safety_violations = 0;

  void merge(const RingTally& other) {
    messages.merge(other.messages);
    time.merge(other.time);
    activations.merge(other.activations);
    purges.merge(other.purges);
    trials += other.trials;
    failures += other.failures;
    safety_violations += other.safety_violations;
  }
};

// `trials` elections with seeds seed_base…, through the seed-chunked pool
// (core/trial_pool.h): bit-identical for every thread count.
inline RingTally ring_trials(
    const ScenarioSpec& spec, double a0, std::uint64_t trials,
    std::uint64_t seed_base, unsigned threads = 0,
    ActivationPolicy policy = ActivationPolicy::kAdaptive) {
  return run_seed_chunked_trials<RingTally>(
      trials, seed_base, threads,
      [&](std::uint64_t seed_lo, std::uint64_t seed_hi, RingTally& out) {
        for (std::uint64_t seed = seed_lo; seed < seed_hi; ++seed) {
          const ElectionRunResult run = ring_trial(spec, a0, seed, policy);
          ++out.trials;
          if (!run.elected) {
            ++out.failures;
            continue;
          }
          if (!run.safety_ok) ++out.safety_violations;
          out.messages.add(static_cast<double>(run.messages));
          out.time.add(run.election_time);
          out.activations.add(static_cast<double>(run.activations));
          out.purges.add(static_cast<double>(run.purges));
        }
      });
}

}  // namespace abe::benchutil

#define ABE_BENCH_MAIN()                                          \
  int main(int argc, char** argv) {                               \
    ::abe::benchutil::print_experiment_tables();                  \
    ::benchmark::Initialize(&argc, argv);                         \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) {   \
      return 1;                                                   \
    }                                                             \
    ::abe::benchutil::add_run_metadata();                         \
    ::benchmark::RunSpecifiedBenchmarks();                        \
    ::benchmark::Shutdown();                                      \
    return 0;                                                     \
  }
