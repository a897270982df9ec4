// E1 — Scheduler hot path: events/s under the workloads the simulator
// actually generates.
//
// The paper's results are Monte-Carlo estimates over many independent
// election trials, so simulator events/s is the binding constraint on every
// experiment downstream (ROADMAP "Scheduler scalability"). This bench pins
// the scheduler's throughput under four mixes:
//
//   hold    — classic hold model: steady-state pending set, each event
//             schedules its successor (message traffic in flight).
//   drain   — schedule a batch at random times, run it dry (startup bursts,
//             settle windows).
//   churn   — schedule/cancel cycles with the occasional live event (ARQ
//             retransmission timers that almost always get cancelled). The
//             pre-overhaul lazy-deletion design left a stale heap entry per
//             cancel; direct cancellation keeps the heap exactly live-sized.
//   arq mix — paired data+timeout events where delivery cancels the timeout,
//             the end-to-end shape of net/arq.h.
//
// Plus one end-to-end row: a full ring election (the real consumer).
#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "core/harness.h"
#include "sim/equeue/backend.h"
#include "sim/rng.h"
#include "sim/scheduler.h"
#include "stats/table.h"

namespace abe {
namespace {

// Self-rescheduling event: the steady-state "hold" workload. 16 bytes, so it
// exercises the no-allocation inline path of the scheduler's action storage.
struct HoldEvent {
  Scheduler* s;
  Rng* rng;
  void operator()() const { s->schedule_in(rng->exponential(1.0), *this); }
};

void prefill_hold(Scheduler& s, Rng& rng, std::size_t pending) {
  for (std::size_t i = 0; i < pending; ++i) {
    s.schedule_in(rng.exponential(1.0), HoldEvent{&s, &rng});
  }
}

// Second benchmark argument for the scheduler mixes: which event-queue
// backend the Scheduler is constructed with (sim/equeue). 0 = auto (the
// production default), 1..3 pin a concrete backend; results are
// bit-identical, only throughput differs (bench_e12 tracks the raw-queue
// grid, these rows track the same choice seen through the full scheduler).
constexpr EqueueBackend kBenchBackends[] = {
    EqueueBackend::kAuto, EqueueBackend::kHeap, EqueueBackend::kCalendar,
    EqueueBackend::kLadder};

EqueueBackend bench_backend(std::int64_t index) {
  return kBenchBackends[static_cast<std::size_t>(index)];
}

// Small sizes stay on the auto default (their historical rows); the 16k
// and 65k points fan out across every backend (ISSUE 4 satellite).
void scheduler_mix_args(benchmark::internal::Benchmark* b,
                        std::initializer_list<int> small_sizes) {
  for (int pending : small_sizes) b->Args({pending, 0});
  for (int pending : {16384, 65536}) {
    for (int backend = 1; backend <= 3; ++backend) {
      b->Args({pending, backend});
    }
  }
  b->ArgNames({"pending", "be"});
}

}  // namespace

namespace benchutil {

void print_experiment_tables() {
  print_header("E1",
               "simulator events/s bounds every Monte-Carlo estimate; "
               "direct cancellation keeps churny workloads heap-bounded");

  Table table({"workload", "pending", "events", "seconds", "events/s"});
  const auto time_events = [&](const char* name, std::size_t pending,
                               std::uint64_t events, auto&& body) {
    const auto t0 = std::chrono::steady_clock::now();
    body();
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    table.add_row({name, Table::fmt_int(static_cast<std::int64_t>(pending)),
                   Table::fmt_int(static_cast<std::int64_t>(events)),
                   Table::fmt(secs, 3),
                   Table::fmt(static_cast<double>(events) / secs, 0)});
  };

  constexpr std::uint64_t kHoldEvents = 1u << 21;
  for (std::size_t pending : {64u, 4096u, 65536u}) {
    Scheduler s;
    Rng rng(42);
    prefill_hold(s, rng, pending);
    time_events("hold", pending, kHoldEvents,
                [&] { s.run_steps(kHoldEvents); });
  }
  // The same steady-state mix per pinned backend at the scales where the
  // heap bends (the e12 grid shows the raw-queue view of the same choice).
  for (EqueueBackend backend :
       {EqueueBackend::kHeap, EqueueBackend::kCalendar,
        EqueueBackend::kLadder}) {
    for (std::size_t pending : {16384u, 65536u}) {
      Scheduler s(backend);
      Rng rng(42);
      prefill_hold(s, rng, pending);
      const std::string label =
          std::string("hold/") + equeue_backend_name(backend);
      time_events(label.c_str(), pending, kHoldEvents,
                  [&] { s.run_steps(kHoldEvents); });
    }
  }

  {
    constexpr std::uint64_t kChurn = 1u << 20;
    Scheduler s;
    Rng rng(7);
    time_events("churn", 1, kChurn, [&] {
      for (std::uint64_t i = 0; i < kChurn; ++i) {
        const EventId id = s.schedule_in(1.0 + rng.uniform01(), [] {});
        s.cancel(id);
        if ((i & 1023u) == 0u) {
          s.schedule_in(rng.uniform01(), [] {});
          s.run_steps(1);
        }
      }
    });
  }

  std::printf("%s\n", table.render("E1: scheduler throughput").c_str());

  // Trial-level parallelism: identical aggregates, wall-clock divided by
  // the pool (near-linear up to hardware threads on multi-core hosts).
  const unsigned hw = std::thread::hardware_concurrency();
  Table trials_table({"threads", "trials", "seconds", "trials/s"});
  constexpr std::uint64_t kTrials = 64;
  for (unsigned threads : {1u, hw == 0 ? 1u : hw}) {
    const auto t0 = std::chrono::steady_clock::now();
    const RingTally agg =
        ring_trials(ring_spec(64), linear_regime_a0(64), kTrials, 1, threads);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    trials_table.add_row(
        {Table::fmt_int(threads), Table::fmt_int(static_cast<std::int64_t>(
                                      agg.trials)),
         Table::fmt(secs, 3),
         Table::fmt(static_cast<double>(agg.trials) / secs, 1)});
    if (hw <= 1) break;
  }
  std::printf("%s\n",
              trials_table
                  .render("E1b: election trial throughput (n=64, "
                          "seed-chunked trial pool)")
                  .c_str());
}

}  // namespace benchutil

// --- microbenchmarks (the tracked perf trajectory) -------------------------

// The acceptance workload: mixed schedule/run at a steady pending set.
static void BM_SchedulerHold(benchmark::State& state) {
  const auto pending = static_cast<std::size_t>(state.range(0));
  constexpr std::uint64_t kBatch = 4096;
  Scheduler s(bench_backend(state.range(1)));
  Rng rng(42);
  prefill_hold(s, rng, pending);
  for (auto _ : state) {
    s.run_steps(kBatch);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_SchedulerHold)->Apply([](benchmark::internal::Benchmark* b) {
  scheduler_mix_args(b, {64, 4096});
});

// Batch schedule then drain: startup bursts and settle windows.
static void BM_SchedulerDrain(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  Rng rng(42);
  for (auto _ : state) {
    Scheduler s(bench_backend(state.range(1)));
    for (std::size_t i = 0; i < batch; ++i) {
      s.schedule_at(rng.uniform01() * 1000.0, [] {});
    }
    benchmark::DoNotOptimize(s.run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_SchedulerDrain)->Apply([](benchmark::internal::Benchmark* b) {
  scheduler_mix_args(b, {4096});
});

// Schedule/cancel churn: nearly every event is cancelled before it fires,
// layered over a passive pending set of size range(0) (0 = the historical
// bare-churn row). Items = schedule+cancel pairs.
static void BM_SchedulerChurn(benchmark::State& state) {
  constexpr std::uint64_t kBatch = 4096;
  const auto pending = static_cast<std::size_t>(state.range(0));
  Scheduler s(bench_backend(state.range(1)));
  Rng rng(7);
  for (std::size_t i = 0; i < pending; ++i) {
    s.schedule_at(1e9 + static_cast<double>(i), [] {});
  }
  for (auto _ : state) {
    for (std::uint64_t i = 0; i < kBatch; ++i) {
      const EventId id = s.schedule_in(1.0 + rng.uniform01(), [] {});
      benchmark::DoNotOptimize(s.cancel(id));
      if ((i & 255u) == 0u) {
        s.schedule_in(rng.uniform01() * 0.5, [] {});
        s.run_steps(1);
      }
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_SchedulerChurn)->Apply([](benchmark::internal::Benchmark* b) {
  scheduler_mix_args(b, {0});
});

// ARQ-shaped mix: a delivery event cancels its paired retransmission timer
// and schedules the next pair. Items = events run (half the schedules).
static void BM_SchedulerArqMix(benchmark::State& state) {
  const auto pairs = static_cast<std::size_t>(state.range(0));
  constexpr std::uint64_t kBatch = 4096;
  Scheduler s;
  Rng rng(11);
  std::vector<EventId> timeouts(pairs);
  std::function<void(std::size_t)> send = [&](std::size_t i) {
    timeouts[i] = s.schedule_in(10.0, [] {});  // retransmission timer
    s.schedule_in(rng.exponential(1.0), [&s, &send, &timeouts, i] {
      s.cancel(timeouts[i]);  // ack arrived: timer almost always pending
      send(i);
    });
  };
  for (std::size_t i = 0; i < pairs; ++i) send(i);
  for (auto _ : state) {
    s.run_steps(kBatch);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_SchedulerArqMix)->Arg(256)->Arg(8192);

// Trial-level parallelism: wall-clock throughput of the Monte-Carlo outer
// loop. Aggregates are bit-identical across thread counts (see
// test_harness_parallel), so this is pure speedup; real time is what
// matters, CPU time sums the workers.
static void BM_TrialThroughput(benchmark::State& state) {
  const auto threads = static_cast<unsigned>(state.range(0));
  constexpr std::uint64_t kTrials = 32;
  std::uint64_t seed = 1;
  const ScenarioSpec spec = benchutil::ring_spec(64);
  const double a0 = linear_regime_a0(64);
  for (auto _ : state) {
    const auto agg = benchutil::ring_trials(spec, a0, kTrials, seed, threads);
    benchmark::DoNotOptimize(agg.trials);
    seed += kTrials;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kTrials));
}
BENCHMARK(BM_TrialThroughput)->Arg(1)->Arg(2)->Arg(4)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

// End-to-end: one full ring election per iteration (the real consumer of
// the scheduler; e2/e3 sweep this across sizes and models).
static void BM_SchedulerElection(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const ScenarioSpec spec = benchutil::ring_spec(n);
  const double a0 = linear_regime_a0(n);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto result = benchutil::ring_trial(spec, a0, seed++);
    benchmark::DoNotOptimize(result.messages);
  }
}
BENCHMARK(BM_SchedulerElection)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond);

}  // namespace abe

ABE_BENCH_MAIN()
