// Tests for the real-thread runtime: mailbox semantics, end-to-end threaded
// elections (the "threads and queues" realisation of the ABE model), thread
// failure injection, condition-variable wakeups, and the cross-runtime
// parity suite over the unified Runtime contract (runtime/runtime.h).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "runtime/mailbox.h"
#include "runtime/runtime.h"
#include "runtime/wall_net.h"
#include "scenario/drivers.h"
#include "scenario/scenario.h"
#include "scenario/sweep.h"
#include "sim/rng.h"
#include "stats/summary.h"
#include "trace/trace.h"

namespace abe {
namespace {

MailItem message_item(std::int64_t value,
                      std::chrono::milliseconds delay = {}) {
  MailItem item;
  item.kind = MailItem::Kind::kMessage;
  item.due = MailItem::Clock::now() + delay;
  item.payload = std::make_shared<IntPayload>(value);
  return item;
}

TEST(Mailbox, DeliversInDueOrder) {
  Mailbox box;
  box.push(message_item(2, std::chrono::milliseconds(30)));
  box.push(message_item(1, std::chrono::milliseconds(5)));
  MailItem out;
  ASSERT_TRUE(box.pop(out));
  EXPECT_EQ(payload_as<IntPayload>(*out.payload).value(), 1);
  ASSERT_TRUE(box.pop(out));
  EXPECT_EQ(payload_as<IntPayload>(*out.payload).value(), 2);
}

TEST(Mailbox, BlocksUntilDue) {
  Mailbox box;
  const auto start = MailItem::Clock::now();
  box.push(message_item(1, std::chrono::milliseconds(50)));
  MailItem out;
  ASSERT_TRUE(box.pop(out));
  const auto waited = MailItem::Clock::now() - start;
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(waited)
                .count(),
            45);
}

TEST(Mailbox, CloseUnblocksConsumer) {
  Mailbox box;
  std::atomic<bool> returned{false};
  std::thread consumer([&] {
    MailItem out;
    const bool alive = box.pop(out);
    EXPECT_FALSE(alive);
    returned = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  box.close();
  consumer.join();
  EXPECT_TRUE(returned);
}

TEST(Mailbox, ProducerWakesBlockedConsumer) {
  Mailbox box;
  std::atomic<std::int64_t> got{-1};
  std::thread consumer([&] {
    MailItem out;
    if (box.pop(out)) {
      got = payload_as<IntPayload>(*out.payload).value();
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  box.push(message_item(77));
  consumer.join();
  EXPECT_EQ(got.load(), 77);
}

TEST(Mailbox, CancelledTimerSkipped) {
  Mailbox box;
  MailItem timer;
  timer.kind = MailItem::Kind::kTimer;
  timer.timer_id = 5;
  timer.due = MailItem::Clock::now();
  box.push(timer);
  box.cancel_timer(5);
  box.push(message_item(9));
  MailItem out;
  ASSERT_TRUE(box.pop(out));
  EXPECT_EQ(out.kind, MailItem::Kind::kMessage);
}

TEST(Mailbox, EarlierItemPreemptsWait) {
  Mailbox box;
  box.push(message_item(2, std::chrono::milliseconds(500)));
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    box.push(message_item(1, std::chrono::milliseconds(0)));
  });
  const auto start = MailItem::Clock::now();
  MailItem out;
  ASSERT_TRUE(box.pop(out));
  producer.join();
  EXPECT_EQ(payload_as<IntPayload>(*out.payload).value(), 1);
  const auto waited =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          MailItem::Clock::now() - start)
          .count();
  EXPECT_LT(waited, 400);
}

// ---------------------------------------------------------------------

// The ring election on real threads through the scenario driver stack:
// fixed-rate clocks, the full wall budget, one settle window.
ScenarioSpec thread_ring_spec(std::size_t n, double a0, double mean_delay,
                              double time_scale_us) {
  ScenarioSpec spec;
  spec.algorithm = ScenarioAlgorithm::kRingElection;
  spec.topology = TopologySpec{TopologyFamily::kRingUni, n, 0.0};
  spec.runtime = RuntimeKind::kThread;
  spec.a0 = a0;
  spec.mean_delay = mean_delay;
  spec.drift = DriftModel::kFixedRandomRate;
  spec.settle_time = 1.0;
  spec.thread_time_scale_us = time_scale_us;
  spec.thread_wall_timeout_ms = 30000.0;
  return spec;
}

TEST(ThreadNet, ElectsExactlyOneLeader) {
  const TrialOutcome result = run_scenario_trial(
      thread_ring_spec(/*n=*/8, /*a0=*/0.4, /*mean_delay=*/1.0,
                       /*time_scale_us=*/200.0),
      /*seed=*/1);
  ASSERT_TRUE(result.completed);
  EXPECT_TRUE(result.safety_ok);
  EXPECT_GE(result.messages, 8u);
}

TEST(ThreadNet, RepeatedRunsStaySafe) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const TrialOutcome result = run_scenario_trial(
        thread_ring_spec(6, 0.4, 0.5, /*time_scale_us=*/150.0), seed);
    ASSERT_TRUE(result.completed) << "seed=" << seed;
    EXPECT_TRUE(result.safety_ok) << "seed=" << seed;
  }
}

TEST(ThreadNet, LargerRingStillElects) {
  const TrialOutcome result = run_scenario_trial(
      thread_ring_spec(16, 0.3, 0.5, /*time_scale_us=*/100.0), 5);
  ASSERT_TRUE(result.completed);
  EXPECT_TRUE(result.safety_ok);
}

TEST(ThreadNet, PiecewiseDriftRejected) {
  RuntimeConfig config;
  config.plan = make_plan(unidirectional_ring(3));
  config.drift = DriftModel::kPiecewiseRandom;
  EXPECT_DEATH(WallNetwork net(RuntimeKind::kThread, std::move(config)),
               "thread runtime");
}

// Simulator-vs-thread parity smoke (ROADMAP "thread runtime parity"): the
// same election under the same drift band must reach the same qualitative
// outcome on both runtimes — one leader, n−1 passive, plausible message
// count. Wall-clock scheduling can't reproduce the simulator trial
// bit-for-bit, so parity here means the model-level postconditions, not the
// trace.
TEST(ThreadNet, DriftBandParityWithSimulatorOnSmallRing) {
  constexpr std::size_t kN = 6;
  constexpr double kA0 = 0.4;
  const ClockBounds band{0.8, 1.25};

  ScenarioSpec sim_spec;
  sim_spec.topology = TopologySpec{TopologyFamily::kRingUni, kN, 0.0};
  sim_spec.a0 = kA0;
  sim_spec.clock_bounds = band;
  sim_spec.drift = DriftModel::kFixedRandomRate;
  sim_spec.settle_time = 5.0;
  const TrialOutcome sim_result = run_scenario_trial(sim_spec, /*seed=*/11);
  ASSERT_TRUE(sim_result.completed);
  EXPECT_TRUE(sim_result.safety_ok) << sim_result.safety_detail;

  ScenarioSpec thread_spec =
      thread_ring_spec(kN, kA0, /*mean_delay=*/1.0, /*time_scale_us=*/150.0);
  thread_spec.clock_bounds = band;
  const TrialOutcome threaded = run_scenario_trial(thread_spec, /*seed=*/11);
  ASSERT_TRUE(threaded.completed);
  EXPECT_TRUE(threaded.safety_ok);

  // Both runtimes drive the same algorithm: a ring election needs at least
  // one full circulation on either substrate.
  EXPECT_GE(sim_result.messages, kN);
  EXPECT_GE(threaded.messages, kN);
}

// ---------------------------------------------------------------------
// Condition-variable wakeups (wait_until must not busy-poll)

// Terminates when its one local timer fires.
class TimerTerminator final : public Node {
 public:
  explicit TimerTerminator(double local_delay) : local_delay_(local_delay) {}
  void on_start(Context& ctx) override {
    ctx.set_timer_local(local_delay_, 0);
  }
  void on_message(Context&, std::size_t, const Payload&) override {}
  void on_timer(Context&, TimerId, std::uint64_t) override { done_ = true; }
  bool is_terminated() const override { return done_; }

 private:
  double local_delay_;
  bool done_ = false;
};

RuntimeConfig two_node_config(double time_scale_us = 1000.0) {
  RuntimeConfig config;
  config.plan = make_plan(bidirectional_ring(2));
  config.time_scale_us = time_scale_us;
  config.drift = DriftModel::kNone;
  return config;
}

TEST(ThreadNet, AddNodeFillsSlotsInOrderAndRejectsExtra) {
  WallNetwork net(RuntimeKind::kThread, two_node_config());
  std::vector<const Node*> made;
  for (std::size_t i = 0; i < 2; ++i) {
    auto node = std::make_unique<TimerTerminator>(1.0);
    made.push_back(node.get());
    net.add_node(std::move(node));
  }
  EXPECT_EQ(&net.node(0), made[0]);
  EXPECT_EQ(&net.node(1), made[1]);
  EXPECT_DEATH(net.add_node(std::make_unique<TimerTerminator>(1.0)),
               "more nodes than topology slots");
}

TEST(ThreadNet, WaitUntilAlreadyTruePredicateReturnsImmediately) {
  WallNetwork net(RuntimeKind::kThread, two_node_config());
  net.build_nodes([](std::size_t) -> NodePtr {
    return std::make_unique<TimerTerminator>(1e9);
  });
  net.start();
  const auto start = MailItem::Clock::now();
  EXPECT_TRUE(net.wait_until([] { return true; },
                             std::chrono::milliseconds(60000)));
  const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
      MailItem::Clock::now() - start);
  EXPECT_LT(waited.count(), 1000);
}

// The regression the condition variable fixes: a predicate satisfied by a
// node event must wake the waiter promptly, not after the wall timeout.
TEST(ThreadNet, WaitUntilSatisfiedMidWaitReturnsPromptly) {
  WallNetwork net(RuntimeKind::kThread, two_node_config());
  net.build_nodes([](std::size_t) -> NodePtr {
    // Timer fires at ~50 ms wall (50 sim units at 1000 us/unit).
    return std::make_unique<TimerTerminator>(50.0);
  });
  net.start();
  const auto start = MailItem::Clock::now();
  const bool held = net.wait_until(
      [&] { return net.terminated(0) && net.terminated(1); },
      std::chrono::milliseconds(60000));
  const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
      MailItem::Clock::now() - start);
  EXPECT_TRUE(held);
  // Generous bound — the point is "well under the 60 s timeout", immune to
  // CI scheduling noise.
  EXPECT_LT(waited.count(), 5000);
}

// ---------------------------------------------------------------------
// Failure injection on real threads

// Sends `count` messages to its successor in on_start, then idles.
class Flooder final : public Node {
 public:
  explicit Flooder(std::uint64_t count) : count_(count) {}
  void on_start(Context& ctx) override {
    for (std::uint64_t i = 0; i < count_; ++i) {
      ctx.send(0, std::make_unique<IntPayload>(static_cast<std::int64_t>(i)));
    }
  }
  void on_message(Context&, std::size_t, const Payload&) override {}

 private:
  std::uint64_t count_;
};

TEST(ThreadNet, LossInjectionCountsDropsAndConservesMessages) {
  RuntimeConfig config = two_node_config(/*time_scale_us=*/100.0);
  config.loss_probability = 0.3;
  config.delay = fixed_delay(0.1);
  WallNetwork net(RuntimeKind::kThread, std::move(config));
  net.build_nodes([](std::size_t i) -> NodePtr {
    return std::make_unique<Flooder>(i == 0 ? 400 : 0);
  });
  net.start();
  ASSERT_TRUE(net.wait_quiescent(std::chrono::milliseconds(10000)));
  net.stop();

  EXPECT_EQ(net.messages_sent(), 400u);
  EXPECT_GT(net.messages_dropped(), 0u) << "p=0.3 over 400 sends";
  EXPECT_LT(net.messages_dropped(), 400u);
  EXPECT_EQ(net.messages_sent(),
            net.messages_delivered() + net.messages_dropped());
}

// ---------------------------------------------------------------------
// Context::cancel_timer on both wall-clock kinds answers like the
// simulator's Scheduler::cancel: true only while the timer is still queued.

class CancelProbe final : public Node {
 public:
  static constexpr std::uint64_t kFirst = 1;
  static constexpr std::uint64_t kDoomed = 2;
  static constexpr std::uint64_t kLast = 3;

  void on_start(Context& ctx) override {
    ctx.set_timer_local(1.0, kFirst);
    doomed_ = ctx.set_timer_local(3.0, kDoomed);
  }
  void on_message(Context&, std::size_t, const Payload&) override {}
  void on_timer(Context& ctx, TimerId id, std::uint64_t tag) override {
    if (tag == kFirst) {
      self_cancel_ = ctx.cancel_timer(id);
      early_cancel_ = ctx.cancel_timer(doomed_);
      repeat_cancel_ = ctx.cancel_timer(doomed_);
      // Due well after the doomed timer would have fired.
      ctx.set_timer_local(6.0, kLast);
    } else if (tag == kDoomed) {
      doomed_fired_ = true;
    } else {
      done_ = true;
    }
  }
  bool is_terminated() const override { return done_; }

  bool self_cancel_ = true;
  bool early_cancel_ = false;
  bool repeat_cancel_ = true;
  bool doomed_fired_ = false;

 private:
  TimerId doomed_{};
  bool done_ = false;
};

class WallCancelTimer : public ::testing::TestWithParam<RuntimeKind> {};

TEST_P(WallCancelTimer, AnswersWhetherTheTimerWasStillQueued) {
  WallNetwork net(GetParam(), two_node_config());
  net.build_nodes(
      [](std::size_t) -> NodePtr { return std::make_unique<CancelProbe>(); });
  net.start();
  ASSERT_TRUE(
      net.wait_until([&] { return net.terminated(0) && net.terminated(1); },
                     std::chrono::milliseconds(10000)));
  net.stop();
  for (std::size_t i = 0; i < 2; ++i) {
    const auto& probe = static_cast<const CancelProbe&>(net.node(i));
    EXPECT_FALSE(probe.self_cancel_) << "a fired timer is no longer queued";
    EXPECT_TRUE(probe.early_cancel_);
    EXPECT_FALSE(probe.repeat_cancel_) << "already cancelled";
    EXPECT_FALSE(probe.doomed_fired_) << "a cancelled timer fired";
  }
}

INSTANTIATE_TEST_SUITE_P(
    ThreadAndUdp, WallCancelTimer,
    ::testing::Values(RuntimeKind::kThread, RuntimeKind::kUdp),
    [](const ::testing::TestParamInfo<RuntimeKind>& info) {
      return std::string(runtime_kind_name(info.param));
    });

// ---------------------------------------------------------------------
// The wall-clock metric rows: the harvested name set of each kind is part
// of the JSON surface, so a rename must fail here.

std::set<std::string> metric_names(const TrialOutcome& trial) {
  std::set<std::string> names;
  for (const MetricValue& entry : trial.metrics.entries()) {
    names.insert(entry.name);
  }
  return names;
}

TEST(WallMetricRows, EachKindHarvestsExactlyItsRows) {
  ScenarioSpec spec;
  spec.algorithm = ScenarioAlgorithm::kRingElection;
  spec.topology = TopologySpec{TopologyFamily::kRingUni, 6, 0.0};
  spec.settle_time = 5.0;
  spec.deadline = 2e4;
  spec.thread_time_scale_us = 100.0;
  spec.thread_wall_timeout_ms = 10000.0;

  const std::set<std::string> shared = {
      "net.sent",  "net.delivered", "net.dropped",
      "net.ticks", "net.timers",    "trace.recorded"};
  const auto rows = [&](const std::string& prefix) {
    std::set<std::string> names = shared;
    for (const char* row : {"cv_wakeups", "mailbox_high_water",
                            "handler_us.sum", "handler_us.max"}) {
      names.insert(prefix + row);
    }
    return names;
  };

  spec.runtime = RuntimeKind::kThread;
  const TrialOutcome thread = run_scenario_trial(spec, 1);
  ASSERT_TRUE(thread.has_metrics);
  EXPECT_EQ(metric_names(thread), rows("thread."));

  std::set<std::string> udp_rows = rows("udp.");
  for (const char* row :
       {"udp.datagrams_tx", "udp.datagrams_rx", "udp.acks_tx", "udp.acks_rx",
        "udp.retransmits", "udp.duplicates", "udp.attempt_drops",
        "udp.giveups", "udp.orphans", "udp.transit_us"}) {
    udp_rows.insert(row);
  }
  spec.runtime = RuntimeKind::kUdp;
  const TrialOutcome udp = run_scenario_trial(spec, 1);
  ASSERT_TRUE(udp.has_metrics);
  EXPECT_EQ(metric_names(udp), udp_rows);

  spec.udp_reliable = true;
  udp_rows.insert("arq.rtt");
  const TrialOutcome reliable = run_scenario_trial(spec, 1);
  ASSERT_TRUE(reliable.has_metrics);
  EXPECT_EQ(metric_names(reliable), udp_rows);
}

// ---------------------------------------------------------------------
// Cross-runtime parity suite (the Runtime-contract acceptance): the same
// scenario cell on the simulator and on real threads must agree at the
// model level — every completed trial satisfies the algorithm's safety
// postconditions (leader uniqueness), and message counts land in the same
// regime. Wall-clock runs are nondeterministic by design, so lossy cells
// may legitimately fail trials (a dropped WAKE stalls polling); what they
// must never do is mint two leaders.

struct ParityCase {
  const char* name;
  ScenarioAlgorithm algorithm;
  double loss;
  // Behavior-profile token (adversary/behavior.h grammar). Adversarial
  // cells may legitimately stall — crashing or equivocating nodes can
  // starve the election — but a completed trial must still elect exactly
  // one leader on EVERY substrate. That is the safety property under test.
  const char* behavior = "honest";
  // Run the real-socket leg too (sim × thread × udp). Lossy udp cells run
  // the ARQ reliable channel, so they complete rather than stall — real
  // loss is masked, not simulated away.
  bool udp = false;
};

// gtest would otherwise print the case as a raw byte dump (pointers and
// padding included), which makes the ctest name change with every build.
void PrintTo(const ParityCase& c, std::ostream* os) { *os << c.name; }

class CrossRuntimeParity : public ::testing::TestWithParam<ParityCase> {};

TEST_P(CrossRuntimeParity, CompletedTrialsAreSafeAndMessagesComparable) {
  const ParityCase& c = GetParam();

  ScenarioSpec spec;
  spec.algorithm = c.algorithm;
  spec.topology = c.algorithm == ScenarioAlgorithm::kRingElection
                      ? TopologySpec{TopologyFamily::kRingUni, 6, 0.0}
                      : TopologySpec{TopologyFamily::kTorus, 9, 0.0};
  spec.failure = c.loss > 0.0 ? FailureProfile::loss(c.loss)
                              : FailureProfile::none();
  ASSERT_TRUE(behavior_spec_from_name(c.behavior, &spec.behavior));
  const bool adversarial = !spec.behavior.is_honest();
  spec.settle_time = 5.0;
  // Lossy cells can stall; fail fast on both substrates (cf. the failure
  // sweep). 2e4 units at 100 us/unit is a 2 s wall budget per trial.
  spec.deadline = 2e4;
  spec.thread_time_scale_us = 100.0;
  spec.thread_wall_timeout_ms = 10000.0;

  const std::size_t n = spec.topology.n;

  // Simulator side: deterministic, several seeds.
  Summary sim_messages;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    spec.runtime = RuntimeKind::kSim;
    const ScenarioTrialResult trial = run_scenario_trial(spec, seed);
    if (!trial.completed) {
      ASSERT_TRUE(c.loss > 0.0 || adversarial)
          << "reliable honest sim trial missed its deadline";
      continue;
    }
    EXPECT_TRUE(trial.safety_ok) << "seed=" << seed << ": "
                                 << trial.safety_detail;
    EXPECT_GE(trial.messages, n - 1);
    sim_messages.add(static_cast<double>(trial.messages));
  }

  // Thread side: two wall-clock trials.
  Summary thread_messages;
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    spec.runtime = RuntimeKind::kThread;
    ASSERT_EQ(runtime_cell_problem(spec), "");
    const ScenarioTrialResult trial = run_scenario_trial(spec, seed);
    if (!trial.completed) {
      ASSERT_TRUE(c.loss > 0.0 || adversarial)
          << "reliable honest thread trial did not complete";
      continue;
    }
    EXPECT_TRUE(trial.safety_ok) << "seed=" << seed << ": "
                                 << trial.safety_detail;
    EXPECT_GE(trial.messages, n - 1);
    thread_messages.add(static_cast<double>(trial.messages));
  }

  // Udp side: two real-datagram trials. Lossy cells ride the ARQ reliable
  // channel, so completion is expected, not merely tolerated.
  Summary udp_messages;
  if (c.udp) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      spec.runtime = RuntimeKind::kUdp;
      spec.udp_reliable = c.loss > 0.0;
      ASSERT_EQ(runtime_cell_problem(spec), "");
      const ScenarioTrialResult trial = run_scenario_trial(spec, seed);
      ASSERT_TRUE(trial.completed)
          << "udp trial (ARQ masks loss) did not complete, seed=" << seed;
      EXPECT_TRUE(trial.safety_ok) << "seed=" << seed << ": "
                                   << trial.safety_detail;
      EXPECT_GE(trial.messages, n - 1);
      udp_messages.add(static_cast<double>(trial.messages));
    }
  }

  if (c.loss == 0.0 && !adversarial) {
    // Reliable honest cells must complete everywhere.
    EXPECT_EQ(sim_messages.count(), 6u);
    EXPECT_EQ(thread_messages.count(), 2u);
  }
  const auto comparable = [&](const char* name, const Summary& other) {
    // Same algorithm, same graph, same model regime: per-trial message
    // aggregates agree within an order of magnitude (the election is
    // stochastic and wall scheduling differs; bit-equality is impossible).
    if (sim_messages.count() == 0 || other.count() == 0) return;
    const double ratio = other.mean() / sim_messages.mean();
    EXPECT_GT(ratio, 0.1) << name << " mean " << other.mean()
                          << " vs sim mean " << sim_messages.mean();
    EXPECT_LT(ratio, 10.0) << name << " mean " << other.mean()
                           << " vs sim mean " << sim_messages.mean();
  };
  comparable("thread", thread_messages);
  comparable("udp", udp_messages);
}

INSTANTIATE_TEST_SUITE_P(
    RingAndPolling, CrossRuntimeParity,
    ::testing::Values(
        ParityCase{"ring_reliable", ScenarioAlgorithm::kRingElection, 0.0,
                   "honest", /*udp=*/true},
        ParityCase{"ring_lossy", ScenarioAlgorithm::kRingElection, 0.01,
                   "honest", /*udp=*/true},
        ParityCase{"polling_reliable", ScenarioAlgorithm::kPollingElection,
                   0.0, "honest", /*udp=*/true},
        ParityCase{"polling_lossy", ScenarioAlgorithm::kPollingElection,
                   0.01, "honest", /*udp=*/true},
        ParityCase{"ring_equivocate", ScenarioAlgorithm::kRingElection, 0.0,
                   "equivocate-1"},
        ParityCase{"ring_reorder", ScenarioAlgorithm::kRingElection, 0.0,
                   "reorder-1x4"}),
    [](const ::testing::TestParamInfo<ParityCase>& info) {
      return std::string(info.param.name);
    });

// The RuntimeConfig::trace flag must be honored on BOTH substrates (the
// thread runtime used to silently drop it). Run one reliable honest ring
// cell with full tracing on each runtime and check the recorder against
// the stats counters: a trace is only trustworthy evidence if it saw every
// message the network counted.
TEST(CrossRuntimeParity, TraceSendDeliverCountsMatchStats) {
  ScenarioSpec spec;
  spec.algorithm = ScenarioAlgorithm::kRingElection;
  spec.topology = TopologySpec{TopologyFamily::kRingUni, 6, 0.0};
  spec.failure = FailureProfile::none();
  spec.settle_time = 5.0;
  spec.deadline = 2e4;
  spec.thread_time_scale_us = 100.0;
  spec.thread_wall_timeout_ms = 10000.0;

  const std::uint64_t seed = 7;
  Rng topo_rng = Rng(seed).substream("scenario-topology");
  const Topology topology = spec.topology.build(topo_rng);

  for (const RuntimeKind kind :
       {RuntimeKind::kSim, RuntimeKind::kThread, RuntimeKind::kUdp}) {
    SCOPED_TRACE(runtime_kind_name(kind));
    ScenarioTrialDriver binding = make_scenario_driver(spec, topology, seed);
    RuntimeConfig config = scenario_runtime_config(spec, topology, seed);
    config.trace = true;

    // run_algorithm_trial's lifecycle, inlined so the runtime survives for
    // inspection after the trial.
    binding.driver->configure(config);
    const SimTime deadline = config.deadline;
    std::unique_ptr<Runtime> rt = make_runtime(kind, std::move(config));
    rt->build_nodes(
        [&](std::size_t i) { return binding.driver->make_node(i); });
    rt->start();
    const bool completed = rt->run_until_done(
        [&] { return binding.driver->done(*rt); }, deadline);
    ASSERT_TRUE(completed) << "reliable honest ring cell must complete";
    binding.driver->on_complete(*rt);
    binding.driver->settle(*rt, completed);
    rt->stop();

    const RunStats stats = rt->stats();
    const Trace trace = rt->trace_snapshot();
    EXPECT_TRUE(trace.enabled()) << "trace flag was dropped by the runtime";
    EXPECT_GT(stats.messages_sent, 0u);
    // count() is monotonic past ring eviction, so these hold even if the
    // run outgrew the ring.
    EXPECT_EQ(trace.count(TraceKind::kSend), stats.messages_sent);
    EXPECT_EQ(trace.count(TraceKind::kDeliver), stats.messages_delivered);
    EXPECT_EQ(trace.count(TraceKind::kDrop), stats.messages_dropped);
  }
}

// RunStats wall accounting: each phase boundary is ONE monotonic-clock
// read shared by the phase before and after it, and total_ms is measured
// between the first and last of those same reads — so build + run +
// settle must equal total up to floating-point summation on every
// substrate. (The regression this pins: the thread runtime's start() used
// to take a second clock read for its wall deadline, and total was not
// measured at all.)
TEST(CrossRuntimeParity, WallPhaseTimesSumToTotal) {
  ScenarioSpec spec;
  spec.algorithm = ScenarioAlgorithm::kRingElection;
  spec.topology = TopologySpec{TopologyFamily::kRingUni, 6, 0.0};
  spec.settle_time = 5.0;
  spec.deadline = 2e4;
  spec.thread_time_scale_us = 100.0;
  spec.thread_wall_timeout_ms = 10000.0;

  for (const RuntimeKind kind :
       {RuntimeKind::kSim, RuntimeKind::kThread, RuntimeKind::kUdp}) {
    SCOPED_TRACE(runtime_kind_name(kind));
    spec.runtime = kind;
    const ScenarioTrialResult trial = run_scenario_trial(spec, 3);
    ASSERT_TRUE(trial.completed);
    const WallPhaseTimes& wall = trial.wall;
    EXPECT_GT(wall.total_ms, 0.0);
    EXPECT_GE(wall.build_ms, 0.0);
    EXPECT_GE(wall.run_ms, 0.0);
    EXPECT_GE(wall.settle_ms, 0.0);
    EXPECT_NEAR(wall.build_ms + wall.run_ms + wall.settle_ms, wall.total_ms,
                1e-6);
  }
}

}  // namespace
}  // namespace abe
