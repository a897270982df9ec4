// Parallel trial harness: run_scenario_trials over a thread pool must be a
// pure speedup — the aggregate it returns is required to be BIT-identical to
// the serial run for every thread count (fixed-chunk aggregation merged in
// seed order), so experiments never trade reproducibility for throughput.
#include <cstdlib>

#include <gtest/gtest.h>

#include "scenario/scenario.h"
#include "scenario/sweep.h"

namespace abe {
namespace {

// The ring election on an 8-node ring at a hot A0.
ScenarioSpec small_ring() {
  ScenarioSpec spec;
  spec.topology = TopologySpec{TopologyFamily::kRingUni, 8, 0.0};
  spec.a0 = 0.3;
  spec.settle_time = 5.0;
  return spec;
}

void expect_identical(const ScenarioAggregate& a, const ScenarioAggregate& b) {
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.stalled, b.stalled);
  EXPECT_EQ(a.safety_violations, b.safety_violations);
  EXPECT_TRUE(a.messages == b.messages);
  EXPECT_TRUE(a.time == b.time);
  EXPECT_TRUE(a.metrics == b.metrics);
}

TEST(HarnessParallel, AggregatesBitIdenticalToSerialForEveryThreadCount) {
  // 29 trials: three full chunks of 8 plus a remainder of 5, so the test
  // covers uneven chunking too.
  const auto serial = run_scenario_trials(small_ring(), 29, 500, 1);
  EXPECT_EQ(serial.trials, 29u);
  for (unsigned threads : {2u, 3u, 4u, 8u}) {
    const auto parallel = run_scenario_trials(small_ring(), 29, 500, threads);
    expect_identical(serial, parallel);
  }
}

TEST(HarnessParallel, RepeatRunsAreDeterministic) {
  const auto a = run_scenario_trials(small_ring(), 16, 700, 4);
  const auto b = run_scenario_trials(small_ring(), 16, 700, 4);
  expect_identical(a, b);
}

TEST(HarnessParallel, SingleTrialAndMoreThreadsThanChunks) {
  const auto one = run_scenario_trials(small_ring(), 1, 123, 16);
  EXPECT_EQ(one.trials, 1u);
  EXPECT_EQ(one.messages.count() + one.failures, 1u);
  expect_identical(one, run_scenario_trials(small_ring(), 1, 123, 1));
}

// The aggregate must cover exactly the seeds seed_base … seed_base+trials-1:
// cross-check against manual per-seed runs.
TEST(HarnessParallel, CoversExactlyTheSeedRange) {
  const auto agg = run_scenario_trials(small_ring(), 10, 300, 4);
  Summary manual;
  for (std::uint64_t s = 300; s < 310; ++s) {
    const ScenarioTrialResult run = run_scenario_trial(small_ring(), s);
    ASSERT_TRUE(run.completed);
    manual.add(static_cast<double>(run.messages));
  }
  ASSERT_EQ(agg.messages.count(), manual.count());
  // Chunked merging may reassociate floating point, so compare within a
  // relative epsilon rather than bitwise against the flat accumulation.
  EXPECT_NEAR(agg.messages.mean(), manual.mean(),
              1e-12 * (1.0 + manual.mean()));
  EXPECT_EQ(agg.messages.min(), manual.min());
  EXPECT_EQ(agg.messages.max(), manual.max());
}

TEST(HarnessParallel, EnvironmentKnobSelectsThreadsWithoutChangingResults) {
  ASSERT_EQ(setenv("ABE_TRIAL_THREADS", "3", 1), 0);
  const auto via_env = run_scenario_trials(small_ring(), 13, 900, 0);
  ASSERT_EQ(setenv("ABE_TRIAL_THREADS", "all", 1), 0);
  const auto via_all = run_scenario_trials(small_ring(), 13, 900, 0);
  ASSERT_EQ(unsetenv("ABE_TRIAL_THREADS"), 0);
  // Without the knob the default is serial (parallelism is opt-in).
  const auto serial = run_scenario_trials(small_ring(), 13, 900, 0);
  expect_identical(via_env, serial);
  expect_identical(via_all, serial);
}

// The scenario sweep drives its cells through the same seed-chunked pool,
// so a full cell aggregate — including a random per-trial topology — must
// be bit-identical for every thread count too (ISSUE 3 acceptance).
TEST(HarnessParallel, ScenarioCellBitIdenticalForEveryThreadCount) {
  ScenarioSpec cell;
  cell.algorithm = ScenarioAlgorithm::kPollingElection;
  cell.topology = TopologySpec{TopologyFamily::kGeometric, 12, 0.0};
  // 21 trials: two full chunks of 8 plus a remainder of 5.
  const ScenarioAggregate serial = run_scenario_trials(cell, 21, 400, 1);
  EXPECT_EQ(serial.trials, 21u);
  EXPECT_EQ(serial.safety_violations, 0u);
  for (unsigned threads : {2u, 3u, 8u}) {
    const ScenarioAggregate parallel =
        run_scenario_trials(cell, 21, 400, threads);
    EXPECT_EQ(serial.trials, parallel.trials);
    EXPECT_EQ(serial.failures, parallel.failures);
    EXPECT_EQ(serial.safety_violations, parallel.safety_violations);
    EXPECT_TRUE(serial.messages == parallel.messages);
    EXPECT_TRUE(serial.time == parallel.time);
  }
}

TEST(HarnessParallel, MergeCombinesCountersAndSummaries) {
  ScenarioAggregate a;
  a.trials = 3;
  a.failures = 1;
  a.messages.add(10.0);
  a.messages.add(20.0);
  ScenarioAggregate b;
  b.trials = 2;
  b.safety_violations = 1;
  b.messages.add(30.0);
  a.merge(b);
  EXPECT_EQ(a.trials, 5u);
  EXPECT_EQ(a.failures, 1u);
  EXPECT_EQ(a.safety_violations, 1u);
  EXPECT_EQ(a.messages.count(), 3u);
  EXPECT_DOUBLE_EQ(a.messages.mean(), 20.0);
  EXPECT_EQ(a.messages.min(), 10.0);
  EXPECT_EQ(a.messages.max(), 30.0);
}

}  // namespace
}  // namespace abe
