// Event-queue subsystem tests: backend selection, per-backend unit
// behavior, the auto heap->ladder migration, and the randomized
// differential trace that pins the subsystem's core contract — every
// backend pops the bit-identical sequence for the same schedule/cancel/run
// trace, so backend choice can never change a seeded simulation.
//
// The tier-1 differential here runs at n ≈ 4k live events; the n ≈ 10^5
// version (and the n ≥ 10^4 scenario-level cross-backend check) lives in
// test_equeue_stress.cpp under the `slow` label.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <vector>

#include "sim/equeue/backend.h"
#include "sim/equeue/event_queue.h"
#include "sim/rng.h"
#include "sim/scheduler.h"

namespace abe {
namespace {

constexpr EqueueBackend kConcreteBackends[] = {
    EqueueBackend::kHeap, EqueueBackend::kCalendar, EqueueBackend::kLadder};

std::uint64_t bits_of(double t) {
  std::uint64_t b;
  std::memcpy(&b, &t, sizeof(b));
  return b;
}

// --- backend selection ------------------------------------------------------

// Backend-selection tests assert specific backends, which an ABE_EQUEUE
// override legitimately defeats (it wins by design); skip under one so the
// whole suite stays green when swept across backends via the environment.
bool equeue_env_pinned() {
  const char* env = std::getenv("ABE_EQUEUE");
  return env != nullptr && env[0] != '\0';
}

TEST(EqueueBackendNames, RoundTrip) {
  for (EqueueBackend b :
       {EqueueBackend::kAuto, EqueueBackend::kHeap, EqueueBackend::kCalendar,
        EqueueBackend::kLadder}) {
    EqueueBackend parsed;
    ASSERT_TRUE(equeue_backend_from_name(equeue_backend_name(b), &parsed));
    EXPECT_EQ(parsed, b);
  }
  EqueueBackend unused = EqueueBackend::kAuto;
  EXPECT_FALSE(equeue_backend_from_name("bogus", &unused));
  EXPECT_FALSE(equeue_backend_from_name("", &unused));
  EXPECT_EQ(unused, EqueueBackend::kAuto);  // untouched on failure
}

TEST(EqueueBackendNames, EnvOverrideWinsAndInvalidIsIgnored) {
  if (equeue_env_pinned()) GTEST_SKIP() << "ABE_EQUEUE pinned externally";
  ::unsetenv("ABE_EQUEUE");  // may be set-but-empty
  EXPECT_EQ(resolve_equeue_backend(EqueueBackend::kHeap),
            EqueueBackend::kHeap);

  ::setenv("ABE_EQUEUE", "ladder", 1);
  EXPECT_EQ(resolve_equeue_backend(EqueueBackend::kHeap),
            EqueueBackend::kLadder);
  {
    Scheduler s(EqueueBackend::kHeap);  // env overrides the explicit choice
    EXPECT_STREQ(s.backend_name(), "ladder");
  }
  ::setenv("ABE_EQUEUE", "not-a-backend", 1);
  EXPECT_EQ(resolve_equeue_backend(EqueueBackend::kCalendar),
            EqueueBackend::kCalendar);
  ::unsetenv("ABE_EQUEUE");
}

TEST(Equeue, SchedulerReportsBackendAndPending) {
  if (equeue_env_pinned()) GTEST_SKIP() << "ABE_EQUEUE pinned externally";
  for (EqueueBackend b : kConcreteBackends) {
    Scheduler s(b);
    EXPECT_STREQ(s.backend_name(), equeue_backend_name(b));
    EXPECT_EQ(s.pending(), 0u);
    s.schedule_at(1.0, [] {});
    s.schedule_at(2.0, [] {});
    EXPECT_EQ(s.pending(), 2u);
    EXPECT_EQ(s.pending(), s.live_count());
  }
}

// --- EventQueue unit behavior ----------------------------------------------

TEST(Equeue, PopsInKeyOrderWithFifoTies) {
  for (EqueueBackend b : kConcreteBackends) {
    auto q = make_event_queue(b);
    // Three distinct times, each with three FIFO-tied entries.
    std::uint64_t seq = 0;
    for (double t : {5.0, 1.0, 3.0}) {
      for (int i = 0; i < 3; ++i) {
        q->push(QueueEntry{bits_of(t), seq, static_cast<std::uint32_t>(seq)});
        ++seq;
      }
    }
    ASSERT_EQ(q->size(), 9u) << q->name();
    std::uint64_t prev_seq = 0;
    double prev_t = -1.0;
    for (int i = 0; i < 9; ++i) {
      const QueueEntry e = q->pop_min();
      const double t = entry_time(e);
      ASSERT_GE(t, prev_t) << q->name();
      if (t == prev_t) {
        EXPECT_GT(e.seq, prev_seq) << q->name() << ": ties must pop FIFO";
      }
      prev_t = t;
      prev_seq = e.seq;
    }
    EXPECT_TRUE(q->empty()) << q->name();
    EXPECT_EQ(q->peek_min(), nullptr) << q->name();
  }
}

TEST(Equeue, PeekMatchesPopAndEraseRemoves) {
  for (EqueueBackend b : kConcreteBackends) {
    auto q = make_event_queue(b);
    q->push(QueueEntry{bits_of(2.0), 0, 10});
    q->push(QueueEntry{bits_of(1.0), 1, 20});
    q->push(QueueEntry{bits_of(3.0), 2, 30});
    const QueueEntry* top = q->peek_min();
    ASSERT_NE(top, nullptr) << q->name();
    EXPECT_EQ(top->slot, 20u) << q->name();
    EXPECT_TRUE(q->erase_slot(20)) << q->name();
    EXPECT_EQ(q->size(), 2u);
    EXPECT_EQ(q->pop_min().slot, 10u) << q->name();
    EXPECT_EQ(q->pop_min().slot, 30u) << q->name();
  }
}

TEST(Equeue, DrainMovesEverythingOut) {
  for (EqueueBackend b : kConcreteBackends) {
    auto q = make_event_queue(b);
    Rng rng(3);
    for (std::uint32_t i = 0; i < 100; ++i) {
      q->push(QueueEntry{bits_of(rng.uniform01() * 50.0), i, i});
    }
    std::vector<QueueEntry> out;
    q->drain_into(out);
    EXPECT_EQ(out.size(), 100u) << q->name();
    EXPECT_TRUE(q->empty()) << q->name();
    // The queue is reusable after a drain.
    q->push(QueueEntry{bits_of(1.0), 1000, 7});
    EXPECT_EQ(q->pop_min().slot, 7u) << q->name();
  }
}

TEST(Equeue, InfinityAndZeroTimesStayOrdered) {
  for (EqueueBackend b : kConcreteBackends) {
    auto q = make_event_queue(b);
    q->push(QueueEntry{bits_of(kTimeInfinity), 0, 0});
    q->push(QueueEntry{bits_of(0.0), 1, 1});
    q->push(QueueEntry{bits_of(1e300), 2, 2});
    q->push(QueueEntry{bits_of(kTimeInfinity), 3, 3});
    EXPECT_EQ(q->pop_min().slot, 1u) << q->name();
    EXPECT_EQ(q->pop_min().slot, 2u) << q->name();
    EXPECT_EQ(q->pop_min().slot, 0u) << q->name();
    EXPECT_EQ(q->pop_min().slot, 3u) << q->name();
  }
}

// --- auto policy ------------------------------------------------------------

TEST(Equeue, AutoMigratesToLadderPastThreshold) {
  if (equeue_env_pinned()) GTEST_SKIP() << "ABE_EQUEUE pinned externally";
  Scheduler s;  // default: auto
  EXPECT_STREQ(s.backend_name(), "heap");
  std::vector<EventId> ids;
  for (std::size_t i = 0; i < kEqueueAutoThreshold; ++i) {
    ids.push_back(s.schedule_at(static_cast<double>(i), [] {}));
  }
  EXPECT_STREQ(s.backend_name(), "heap");  // exactly at the threshold
  ids.push_back(
      s.schedule_at(0.5, [] {}));  // crosses the threshold: migrate
  EXPECT_STREQ(s.backend_name(), "ladder");
  EXPECT_EQ(s.pending(), kEqueueAutoThreshold + 1);

  // Handles issued before the migration still cancel the right events.
  EXPECT_TRUE(s.cancel(ids[3]));
  EXPECT_FALSE(s.cancel(ids[3]));
  // And execution order is unaffected: event at 0 first, 0.5 second.
  s.run_steps(2);
  EXPECT_EQ(s.now(), 0.5);
}

TEST(Equeue, ExplicitBackendNeverMigrates) {
  if (equeue_env_pinned()) GTEST_SKIP() << "ABE_EQUEUE pinned externally";
  Scheduler s(EqueueBackend::kHeap);
  for (std::size_t i = 0; i < kEqueueAutoThreshold + 64; ++i) {
    s.schedule_at(static_cast<double>(i), [] {});
  }
  EXPECT_STREQ(s.backend_name(), "heap");
}

// --- randomized differential trace -----------------------------------------

// One trace event: (time, tag) in execution order.
using Trace = std::vector<std::pair<double, int>>;

// Drives `s` through a deterministic pseudo-random schedule/cancel/run
// trace (seeded by `seed`) and records every executed action. The trace
// covers: schedule_at/schedule_in (with time clusters, exact ties, lattice
// times, heavy tails), direct cancels, cancels of stale ids (already run /
// already cancelled), run_steps, run_until with request_stop fired from
// inside actions, and a final drain.
Trace drive(Scheduler& s, std::uint64_t seed, int rounds, int target_live) {
  Trace trace;
  Rng rng(seed);
  std::vector<EventId> handles;   // mix of live and stale handles
  std::vector<EventId> retired;   // known-stale (cancelled or likely run)
  int tag = 0;

  const auto schedule_one = [&] {
    const double r = rng.uniform01();
    double t;
    if (r < 0.35) {
      t = s.now() + rng.exponential(1.0);
    } else if (r < 0.5) {
      t = s.now() + rng.uniform01() * 100.0;
    } else if (r < 0.6) {
      t = s.now();  // simultaneous with the current instant
    } else if (r < 0.7) {
      t = s.now() + 10.0 + rng.uniform01() * 1e-7;  // tight cluster
    } else if (r < 0.8) {
      t = s.now() + static_cast<double>(1 + rng.uniform_int(5));  // lattice
    } else if (r < 0.9) {
      t = s.now() + rng.exponential(1.0) * 1000.0;  // far tail
    } else {
      t = s.now() + 0.25 * static_cast<double>(rng.uniform_int(4));
    }
    const int this_tag = tag++;
    const bool stopper = rng.bernoulli(0.02);
    handles.push_back(s.schedule_at(t, [&trace, &s, this_tag, stopper] {
      trace.emplace_back(s.now(), this_tag);
      if (stopper) s.request_stop();
    }));
  };

  for (int round = 0; round < rounds; ++round) {
    const int burst = 1 + static_cast<int>(rng.uniform_int(
                              static_cast<std::size_t>(target_live / 8)));
    for (int i = 0; i < burst && s.pending() <
                                     static_cast<std::uint64_t>(target_live);
         ++i) {
      schedule_one();
    }
    // Cancels: a mix of live, already-cancelled and already-run handles.
    const int cancels = static_cast<int>(rng.uniform_int(8));
    for (int i = 0; i < cancels && !handles.empty(); ++i) {
      const std::size_t pick = rng.uniform_int(handles.size());
      if (s.cancel(handles[pick])) {
        retired.push_back(handles[pick]);
      }
      handles.erase(handles.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    if (!retired.empty() && rng.bernoulli(0.5)) {
      // Stale-handle cancels must be rejected (and must not disturb state).
      const std::size_t pick = rng.uniform_int(retired.size());
      EXPECT_FALSE(s.cancel(retired[pick]));
    }
    // Run: steps or a deadline window (which exercises peek-then-pop and
    // the request_stop/run_until interleaving semantics).
    if (rng.bernoulli(0.5)) {
      s.run_steps(1 + rng.uniform_int(16));
    } else {
      s.run_until(s.now() + rng.uniform01() * 10.0);
    }
  }
  s.run();  // drain
  return trace;
}

TEST(EqueueDifferential, IdenticalTraceAcrossAllBackends) {
  for (std::uint64_t seed : {1u, 7u, 23u}) {
    Scheduler heap(EqueueBackend::kHeap);
    const Trace reference = drive(heap, seed, /*rounds=*/300,
                                  /*target_live=*/4096);
    ASSERT_FALSE(reference.empty());
    // Times must be nondecreasing (sanity of the reference itself).
    for (std::size_t i = 1; i < reference.size(); ++i) {
      ASSERT_GE(reference[i].first, reference[i - 1].first);
    }
    for (EqueueBackend b :
         {EqueueBackend::kCalendar, EqueueBackend::kLadder,
          EqueueBackend::kAuto}) {
      Scheduler other(b);
      const Trace got = drive(other, seed, 300, 4096);
      ASSERT_EQ(got.size(), reference.size())
          << equeue_backend_name(b) << " seed " << seed;
      EXPECT_TRUE(got == reference)
          << equeue_backend_name(b) << " seed " << seed
          << ": pop sequence diverged from the heap reference";
    }
  }
}

// The start shape of a large polling trial: Network::start() schedules n
// on_start events at exactly t = 0, which carries kAuto across the
// threshold mid-burst, and the run then mixes follow-ups (some
// simultaneous with the burst) and cancels into the drain. Under kAuto the
// burst lands on the ladder; pinned on the calendar it is one day the pop
// scan walks. Every backend must still execute the same trace.
class BurstDriver {
 public:
  BurstDriver(Scheduler& s, std::uint64_t seed) : s_(s), rng_(seed) {}

  Trace run() {
    for (std::size_t i = 0; i < kEqueueAutoThreshold + 2000; ++i) {
      schedule(0.0);
    }
    for (int i = 0; i < 64; ++i) cancel_one();  // some before any pop
    s_.run();
    return std::move(trace_);
  }

 private:
  static constexpr int kMaxEvents = 40000;

  void schedule(double when) {
    const int tag = tag_++;
    handles_.push_back(s_.schedule_at(when, [this, tag] { fire(tag); }));
  }

  void cancel_one() {
    // Live, already-run or already-cancelled: the scheduler sorts it out.
    s_.cancel(handles_[rng_.uniform_int(handles_.size())]);
  }

  void fire(int tag) {
    trace_.emplace_back(s_.now(), tag);
    if (tag_ >= kMaxEvents) return;
    const double r = rng_.uniform01();
    if (r < 0.4) {
      schedule(s_.now() + rng_.exponential(1.0));
    } else if (r < 0.5) {
      schedule(s_.now());  // joins the burst when now() is still 0
    } else if (r < 0.55) {
      schedule(s_.now() + rng_.exponential(1.0));
      schedule(s_.now() + rng_.exponential(1.0));
    } else if (r < 0.6) {
      cancel_one();
    }
  }

  Scheduler& s_;
  Rng rng_;
  Trace trace_;
  std::vector<EventId> handles_;
  int tag_ = 0;
};

TEST(EqueueDifferential, SimultaneousStartBurstIdenticalAcrossBackends) {
  for (std::uint64_t seed : {3u, 11u}) {
    Scheduler heap(EqueueBackend::kHeap);
    const Trace reference = BurstDriver(heap, seed).run();
    ASSERT_GT(reference.size(), kEqueueAutoThreshold);
    for (EqueueBackend b : {EqueueBackend::kCalendar, EqueueBackend::kLadder,
                            EqueueBackend::kAuto}) {
      Scheduler other(b);
      const Trace got = BurstDriver(other, seed).run();
      if (b == EqueueBackend::kAuto && !equeue_env_pinned()) {
        EXPECT_STREQ(other.backend_name(), "ladder");
      }
      ASSERT_EQ(got.size(), reference.size())
          << equeue_backend_name(b) << " seed " << seed;
      EXPECT_TRUE(got == reference)
          << equeue_backend_name(b) << " seed " << seed
          << ": pop sequence diverged from the heap reference";
    }
  }
}

}  // namespace
}  // namespace abe
