// Heap-allocation budget of one polling trial, and of the small observed
// trials a sweep runs.
//
// This binary replaces the global operator new/delete with counting
// wrappers, so it is built without sanitizers (they install their own
// allocator). The polling trial's setup keeps every per-node list in flat
// arrays: the network plan's spanning tree and its out-channels are CSR
// over the BFS order, each node's wiring is a view into them, and
// single-rate clocks hold no segment vector. What remains is one
// allocation per message payload and one per node object, plus a
// per-trial constant that does not grow with n. A per-node vector creeping
// back onto the trial path adds n allocations and fails the budget.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "scenario/scenario.h"
#include "scenario/sweep.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace abe {
namespace {

// Allocations of one trial beyond one per message and one per node: 31 at
// n = 1024, and 27 to 35 for n from 256 to 4096, on x86-64 Linux with
// gcc 12 and libstdc++ (about 70 while the scheduler and metrics containers
// still regrew per trial). The slack absorbs standard-library differences;
// a per-node vector would add hundreds.
constexpr std::uint64_t kPerTrialConstant = 160;

TEST(AllocBudget, PollingTorusTrialIsMessagesPlusNodesPlusConstant) {
  const ScenarioSpec* registered = find_scenario("polling-torus");
  ASSERT_NE(registered, nullptr);
  ScenarioSpec spec = *registered;
  spec.topology = TopologySpec{TopologyFamily::kTorus, 1024, 0.0};
  ASSERT_EQ(runtime_cell_problem(spec), "");
  const std::uint64_t n = spec.topology.n;

  // A first trial pays any one-time lazy initialisation (registries,
  // locale, iostream state) so the counted trial sees only its own cost.
  ASSERT_TRUE(run_scenario_trial(spec, /*seed=*/1).completed);

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const ScenarioTrialResult trial = run_scenario_trial(spec, /*seed=*/2);
  const std::uint64_t allocations =
      g_allocations.load(std::memory_order_relaxed) - before;

  ASSERT_TRUE(trial.completed);
  ASSERT_TRUE(trial.safety_ok) << trial.safety_detail;
  ASSERT_TRUE(trial.has_metrics);
  const auto sent =
      static_cast<std::uint64_t>(trial.metrics.value_of("net.sent"));
  EXPECT_GE(sent, 3 * (n - 1));  // WAKE, ECHO and RESULT on every tree edge
  EXPECT_LE(allocations, sent + n + kPerTrialConstant)
      << "net.sent = " << sent << ", n = " << n << ": "
      << allocations - sent - n << " allocations beyond one per message "
      << "and one per node";
  // The budget is tight enough to catch a single per-node vector.
  EXPECT_LT(kPerTrialConstant, n);
}

// The same allocations on a warm cell, whose network plan (graph, channel
// lists, tree) the scenario engine's cache already holds: 31 at n = 1024,
// and 27 to 39 for n from 256 to 10^4, on x86-64 Linux with gcc 12 and
// libstdc++. Rebuilding the plan per trial would add about 20.
constexpr std::uint64_t kWarmTrialConstant = 100;

TEST(AllocBudget, WarmCellTrialAllocatesNoGraphStructure) {
  ScenarioSpec spec = *find_scenario("polling-torus");
  spec.topology = TopologySpec{TopologyFamily::kTorus, 1024, 0.0};
  const std::uint64_t n = spec.topology.n;
  ASSERT_TRUE(run_scenario_trial(spec, /*seed=*/1).completed);
  ASSERT_EQ(trial_plan(spec.topology, 1).get(),
            trial_plan(spec.topology, 2).get());

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const ScenarioTrialResult trial = run_scenario_trial(spec, /*seed=*/2);
  const std::uint64_t allocations =
      g_allocations.load(std::memory_order_relaxed) - before;

  ASSERT_TRUE(trial.completed);
  const auto sent =
      static_cast<std::uint64_t>(trial.metrics.value_of("net.sent"));
  EXPECT_LE(allocations, sent + n + kWarmTrialConstant)
      << "net.sent = " << sent << ", n = " << n << ": "
      << allocations - sent - n << " allocations beyond one per message "
      << "and one per node";
}

// Allocations of one observed sweep-size trial (n = 16, causal history,
// time series every sim unit) beyond one per message and one per node: 31
// for ring-election and 28 for polling-ring on x86-64 Linux with gcc 12 and
// libstdc++. The scheduler slab and heap, the metrics rows, the sample grid
// and the critical path's edge shares are each allocated once; regrowing
// any of them step by step costs several more (81 and 60 before they were).
constexpr std::uint64_t kObservedSmallTrialConstant = 55;

TEST(AllocBudget, ObservedSmallTrialsAllocateNoContainerChurn) {
  for (const char* name : {"ring-election", "polling-ring"}) {
    SCOPED_TRACE(name);
    ScenarioSpec spec = *find_scenario(name);
    ASSERT_EQ(spec.topology.n, 16u);
    spec.causal_history = true;
    spec.timeseries_interval = 1.0;
    const std::uint64_t n = spec.topology.n;
    ASSERT_TRUE(run_scenario_trial(spec, /*seed=*/1).completed);

    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    const ScenarioTrialResult trial = run_scenario_trial(spec, /*seed=*/2);
    const std::uint64_t allocations =
        g_allocations.load(std::memory_order_relaxed) - before;

    ASSERT_TRUE(trial.completed);
    ASSERT_TRUE(trial.has_timeseries);
    ASSERT_TRUE(trial.has_critical_path);
    const auto sent =
        static_cast<std::uint64_t>(trial.metrics.value_of("net.sent"));
    EXPECT_LE(allocations, sent + n + kObservedSmallTrialConstant)
        << "net.sent = " << sent << ", n = " << n << ": "
        << allocations - sent - n << " allocations beyond one per message "
        << "and one per node";
  }
}

}  // namespace
}  // namespace abe
