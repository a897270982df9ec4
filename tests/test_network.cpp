// Integration-level tests for the discrete-event network runtime.
#include "net/network.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/topology.h"
#include "runtime/runtime.h"
#include "scenario/drivers.h"
#include "scenario/scenario.h"
#include "sim/equeue/backend.h"

namespace abe {
namespace {

// Records everything it receives; optionally echoes back on channel 0.
class SinkNode final : public Node {
 public:
  struct Received {
    SimTime when;
    std::size_t in_index;
    std::int64_t value;
  };

  explicit SinkNode(bool echo = false) : echo_(echo) {}

  void on_message(Context& ctx, std::size_t in_index,
                  const Payload& payload) override {
    const auto& msg = payload_as<IntPayload>(payload);
    received_.push_back(Received{ctx.real_now(), in_index, msg.value()});
    if (echo_ && ctx.out_degree() > 0) {
      ctx.send(0, std::make_unique<IntPayload>(msg.value() + 1000));
    }
  }

  const std::vector<Received>& received() const { return received_; }

 private:
  bool echo_;
  std::vector<Received> received_;
};

// Sends a burst of numbered messages on start.
class BurstNode final : public Node {
 public:
  explicit BurstNode(int count) : count_(count) {}
  void on_start(Context& ctx) override {
    for (int i = 0; i < count_; ++i) {
      ctx.send(0, std::make_unique<IntPayload>(i));
    }
  }
  void on_message(Context&, std::size_t, const Payload&) override {}

 private:
  int count_;
};

NetworkConfig two_node_config(DelayModelPtr delay, ChannelOrdering ordering) {
  NetworkConfig config;
  config.topology = line(2);
  config.delay = std::move(delay);
  config.ordering = ordering;
  config.seed = 5;
  return config;
}

TEST(Network, DeliversWithFixedDelay) {
  Network net(two_node_config(fixed_delay(2.0), ChannelOrdering::kFifo));
  auto* sink = new SinkNode();
  net.add_node(std::make_unique<BurstNode>(1));
  net.add_node(NodePtr(sink));
  net.start();
  net.run_until_quiescent();
  ASSERT_EQ(sink->received().size(), 1u);
  EXPECT_EQ(sink->received()[0].when, 2.0);
  EXPECT_EQ(sink->received()[0].value, 0);
  EXPECT_EQ(net.metrics().messages_sent, 1u);
  EXPECT_EQ(net.metrics().messages_delivered, 1u);
  EXPECT_EQ(net.metrics().in_flight(), 0u);
}

TEST(Network, FifoPreservesSendOrderUnderRandomDelay) {
  Network net(two_node_config(exponential_delay(1.0),
                              ChannelOrdering::kFifo));
  auto* sink = new SinkNode();
  net.add_node(std::make_unique<BurstNode>(100));
  net.add_node(NodePtr(sink));
  net.start();
  net.run_until_quiescent();
  ASSERT_EQ(sink->received().size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(sink->received()[static_cast<std::size_t>(i)].value, i);
  }
}

TEST(Network, ArbitraryOrderReordersEventually) {
  bool reordered = false;
  for (std::uint64_t seed = 0; seed < 10 && !reordered; ++seed) {
    NetworkConfig config = two_node_config(exponential_delay(1.0),
                                           ChannelOrdering::kArbitrary);
    config.seed = seed;
    Network net(std::move(config));
    auto* sink = new SinkNode();
    net.add_node(std::make_unique<BurstNode>(50));
    net.add_node(NodePtr(sink));
    net.start();
    net.run_until_quiescent();
    for (std::size_t i = 1; i < sink->received().size(); ++i) {
      if (sink->received()[i].value < sink->received()[i - 1].value) {
        reordered = true;
        break;
      }
    }
  }
  EXPECT_TRUE(reordered) << "arbitrary ordering never reordered messages";
}

TEST(Network, PerChannelDelayOverride) {
  NetworkConfig config;
  config.topology = unidirectional_ring(2);  // edges 0->1 and 1->0
  config.delay = fixed_delay(1.0);
  config.seed = 1;
  Network net(std::move(config));
  net.set_channel_delay(0, fixed_delay(7.0));
  auto* sink = new SinkNode();
  net.add_node(std::make_unique<BurstNode>(1));
  net.add_node(NodePtr(sink));
  net.start();
  net.run_until_quiescent();
  ASSERT_EQ(sink->received().size(), 1u);
  EXPECT_EQ(sink->received()[0].when, 7.0);
  EXPECT_EQ(net.expected_delay_bound(), 7.0);
}

TEST(Network, LossDropsMessages) {
  NetworkConfig config = two_node_config(fixed_delay(1.0),
                                         ChannelOrdering::kFifo);
  config.loss_probability = 0.5;
  Network net(std::move(config));
  auto* sink = new SinkNode();
  net.add_node(std::make_unique<BurstNode>(1000));
  net.add_node(NodePtr(sink));
  net.start();
  net.run_until_quiescent();
  const auto& m = net.metrics();
  EXPECT_EQ(m.messages_sent, 1000u);
  EXPECT_EQ(m.messages_delivered + m.messages_dropped, 1000u);
  EXPECT_NEAR(static_cast<double>(m.messages_dropped), 500.0, 60.0);
  EXPECT_EQ(sink->received().size(), m.messages_delivered);
}

TEST(Network, ProcessingDelaySerialisesHandlers) {
  NetworkConfig config = two_node_config(fixed_delay(1.0),
                                         ChannelOrdering::kFifo);
  config.processing = ProcessingModel::fixed(2.0);
  Network net(std::move(config));
  auto* sink = new SinkNode();
  net.add_node(std::make_unique<BurstNode>(3));
  net.add_node(NodePtr(sink));
  net.start();
  net.run_until_quiescent();
  ASSERT_EQ(sink->received().size(), 3u);
  // All arrive at t=1, but the node is busy 2.0 per message: handlers at
  // 3, 5, 7.
  EXPECT_EQ(sink->received()[0].when, 3.0);
  EXPECT_EQ(sink->received()[1].when, 5.0);
  EXPECT_EQ(sink->received()[2].when, 7.0);
}

TEST(Network, ZeroProcessingDeliversAtArrival) {
  Network net(two_node_config(fixed_delay(1.5), ChannelOrdering::kFifo));
  auto* sink = new SinkNode();
  net.add_node(std::make_unique<BurstNode>(2));
  net.add_node(NodePtr(sink));
  net.start();
  net.run_until_quiescent();
  EXPECT_EQ(sink->received()[0].when, 1.5);
  EXPECT_EQ(sink->received()[1].when, 1.5);
}

class TimerNode final : public Node {
 public:
  void on_start(Context& ctx) override {
    kept_ = ctx.set_timer_local(5.0, 1);
    cancelled_ = ctx.set_timer_local(3.0, 2);
    ctx.cancel_timer(cancelled_);
  }
  void on_message(Context&, std::size_t, const Payload&) override {}
  void on_timer(Context& ctx, TimerId id, std::uint64_t tag) override {
    fired_.push_back(tag);
    fired_ids_.push_back(id.value());
    fire_time_ = ctx.real_now();
    EXPECT_EQ(id.value(), kept_.value());
  }

  std::vector<std::uint64_t> fired_;
  std::vector<std::int64_t> fired_ids_;
  TimerId kept_{}, cancelled_{};
  SimTime fire_time_ = -1;
};

TEST(Network, TimersFireAndCancel) {
  NetworkConfig config;
  config.topology = unidirectional_ring(1);
  config.seed = 3;
  Network net(std::move(config));
  auto* node = new TimerNode();
  net.add_node(NodePtr(node));
  net.start();
  net.run_until_quiescent();
  ASSERT_EQ(node->fired_.size(), 1u);
  EXPECT_EQ(node->fired_[0], 1u);
  EXPECT_EQ(node->fire_time_, 5.0);
  EXPECT_EQ(net.metrics().timers_fired, 1u);
}

TEST(Network, TimerHonoursClockRate) {
  NetworkConfig config;
  config.topology = unidirectional_ring(1);
  config.clock_bounds = {2.0, 2.0};  // clock runs 2x fast
  config.drift = DriftModel::kFixedRandomRate;
  config.seed = 3;
  Network net(std::move(config));
  auto* node = new TimerNode();
  net.add_node(NodePtr(node));
  net.start();
  net.run_until_quiescent();
  ASSERT_EQ(node->fired_.size(), 1u);
  // 5 local units at rate 2.0 = 2.5 real units.
  EXPECT_NEAR(node->fire_time_, 2.5, 1e-9);
}

class TickCounter final : public Node {
 public:
  explicit TickCounter(std::uint64_t stop_after) : stop_after_(stop_after) {}
  void on_message(Context&, std::size_t, const Payload&) override {}
  void on_tick(Context& ctx, std::uint64_t tick) override {
    ++ticks_;
    times_.push_back(ctx.real_now());
    EXPECT_EQ(tick, ticks_);
  }
  bool is_terminated() const override { return ticks_ >= stop_after_; }

  std::uint64_t ticks_ = 0;
  std::uint64_t stop_after_;
  std::vector<SimTime> times_;
};

TEST(Network, TicksFireAtLocalPeriodAndStopOnTermination) {
  NetworkConfig config;
  config.topology = unidirectional_ring(1);
  config.enable_ticks = true;
  config.tick_local_period = 1.0;
  config.tick_phase = TickPhase::kAligned;  // pin exact tick instants
  config.seed = 4;
  Network net(std::move(config));
  auto* node = new TickCounter(5);
  net.add_node(NodePtr(node));
  net.start();
  net.run_until_quiescent(100.0);
  EXPECT_EQ(node->ticks_, 5u);  // termination stopped the tick train
  ASSERT_EQ(node->times_.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_NEAR(node->times_[static_cast<std::size_t>(i)], i + 1.0, 1e-9);
  }
  EXPECT_EQ(net.metrics().ticks_fired, 5u);
}

TEST(Network, SlowClockTicksLater) {
  NetworkConfig config;
  config.topology = unidirectional_ring(1);
  config.enable_ticks = true;
  config.clock_bounds = {0.5, 0.5};
  config.drift = DriftModel::kFixedRandomRate;
  config.tick_phase = TickPhase::kAligned;
  config.seed = 4;
  Network net(std::move(config));
  auto* node = new TickCounter(3);
  net.add_node(NodePtr(node));
  net.start();
  net.run_until_quiescent(100.0);
  ASSERT_EQ(node->times_.size(), 3u);
  // Local period 1 at rate 0.5 = real period 2.
  EXPECT_NEAR(node->times_[0], 2.0, 1e-9);
  EXPECT_NEAR(node->times_[2], 6.0, 1e-9);
}

// The default tick phase desynchronises nodes: each tick train keeps the
// exact local period, but distinct nodes start at distinct offsets inside
// the first period, so ideal-clock nodes never tick in lockstep. (That
// lockstep regime made fixed-delay elections cycle through symmetric
// activation/purge rounds; see ElectionModelSweep.)
TEST(Network, RandomTickPhaseDesynchronisesNodesButKeepsPeriod) {
  NetworkConfig config;
  config.topology = unidirectional_ring(3);
  config.enable_ticks = true;
  config.tick_local_period = 1.0;
  config.seed = 4;
  Network net(std::move(config));
  std::vector<TickCounter*> nodes;
  for (int i = 0; i < 3; ++i) {
    nodes.push_back(new TickCounter(4));
    net.add_node(NodePtr(nodes.back()));
  }
  net.start();
  net.run_until_quiescent(100.0);
  std::vector<double> phases;
  for (TickCounter* node : nodes) {
    ASSERT_EQ(node->times_.size(), 4u);
    // First tick lands inside (0, 2) — phase in [0,1) plus one period.
    EXPECT_GT(node->times_[0], 0.0);
    EXPECT_LT(node->times_[0], 2.0);
    for (std::size_t k = 1; k < node->times_.size(); ++k) {
      EXPECT_NEAR(node->times_[k] - node->times_[k - 1], 1.0, 1e-9);
    }
    phases.push_back(node->times_[0]);
  }
  EXPECT_NE(phases[0], phases[1]);
  EXPECT_NE(phases[1], phases[2]);
  EXPECT_NE(phases[0], phases[2]);
}

TEST(Network, RunUntilPredicate) {
  Network net(two_node_config(fixed_delay(1.0), ChannelOrdering::kFifo));
  auto* sink = new SinkNode();
  net.add_node(std::make_unique<BurstNode>(10));
  net.add_node(NodePtr(sink));
  net.start();
  const bool hit = net.run_until(
      [&] { return sink->received().size() >= 4; }, 100.0);
  EXPECT_TRUE(hit);
  EXPECT_GE(sink->received().size(), 4u);
  EXPECT_LT(sink->received().size(), 10u);
}

TEST(Network, RunUntilDeadlineMiss) {
  Network net(two_node_config(fixed_delay(50.0), ChannelOrdering::kFifo));
  auto* sink = new SinkNode();
  net.add_node(std::make_unique<BurstNode>(1));
  net.add_node(NodePtr(sink));
  net.start();
  const bool hit = net.run_until(
      [&] { return !sink->received().empty(); }, 10.0);
  EXPECT_FALSE(hit);
}

TEST(Network, TraceRecordsSendAndDeliver) {
  Network net(two_node_config(fixed_delay(1.0), ChannelOrdering::kFifo));
  net.trace().enable();
  auto* sink = new SinkNode();
  net.add_node(std::make_unique<BurstNode>(2));
  net.add_node(NodePtr(sink));
  net.start();
  net.run_until_quiescent();
  EXPECT_EQ(net.trace().count(TraceKind::kSend), 2u);
  EXPECT_EQ(net.trace().count(TraceKind::kDeliver), 2u);
  const auto sends = net.trace().filter(TraceKind::kSend);
  EXPECT_EQ(sends[0].node.value(), 0);
}

TEST(Network, MetricsPerNodeAndChannel) {
  NetworkConfig config;
  config.topology = unidirectional_ring(3);
  config.delay = fixed_delay(1.0);
  config.seed = 1;
  Network net(std::move(config));
  net.add_node(std::make_unique<BurstNode>(4));
  net.add_node(std::make_unique<SinkNode>());
  net.add_node(std::make_unique<SinkNode>());
  net.start();
  net.run_until_quiescent();
  EXPECT_EQ(net.sent_by_node()[0], 4u);
  EXPECT_EQ(net.sent_by_node()[1], 0u);
  EXPECT_EQ(net.sent_by_channel()[0], 4u);
  EXPECT_EQ(net.metrics().mean_channel_delay(), 1.0);
  EXPECT_EQ(net.metrics().max_channel_delay, 1.0);
}

TEST(Network, EchoRoundTrip) {
  NetworkConfig config;
  config.topology = unidirectional_ring(2);
  config.delay = fixed_delay(1.0);
  config.seed = 1;
  Network net(std::move(config));
  auto* b = new SinkNode(/*echo=*/true);
  // Node 0 bursts via its ring channel to node 1, node 1 echoes back.
  net.add_node(std::make_unique<BurstNode>(1));
  net.add_node(NodePtr(b));
  net.start();
  net.run_until_quiescent();
  ASSERT_EQ(b->received().size(), 1u);
  EXPECT_EQ(net.metrics().messages_sent, 2u);  // original + echo
}

TEST(Network, StartRequiresAllNodes) {
  NetworkConfig config;
  config.topology = unidirectional_ring(2);
  Network net(std::move(config));
  net.add_node(std::make_unique<SinkNode>());
  EXPECT_DEATH(net.start(), "missing");
}

TEST(Network, ExtraNodeRejected) {
  NetworkConfig config;
  config.topology = unidirectional_ring(1);
  Network net(std::move(config));
  net.add_node(std::make_unique<SinkNode>());
  EXPECT_DEATH(net.add_node(std::make_unique<SinkNode>()), "more nodes");
}

// --- payload lifetime -------------------------------------------------------

// Counts its own destructions, so a test can check that every payload the
// network carried was freed exactly once.
class CountingPayload final : public Payload {
 public:
  explicit CountingPayload(std::size_t* freed) : freed_(freed) {}
  ~CountingPayload() override { ++*freed_; }
  std::unique_ptr<Payload> clone() const override {
    return std::make_unique<CountingPayload>(freed_);
  }
  std::string describe() const override { return "Counting"; }

 private:
  std::size_t* freed_;
};

// Sends `burst` counting payloads on every out-channel at start, then
// forwards on channel 0 for its first `forwards` deliveries, so payloads are
// also created and freed from inside handlers.
class CountingFloodNode final : public Node {
 public:
  CountingFloodNode(std::size_t* freed, int burst, int forwards)
      : freed_(freed), burst_(burst), forwards_left_(forwards) {}

  void on_start(Context& ctx) override {
    for (std::size_t k = 0; k < ctx.out_degree(); ++k) {
      for (int b = 0; b < burst_; ++b) {
        ctx.send(k, std::make_unique<CountingPayload>(freed_));
      }
    }
  }
  void on_message(Context& ctx, std::size_t, const Payload& payload) override {
    ASSERT_NE(payload_cast<CountingPayload>(payload), nullptr);
    if (forwards_left_ > 0) {
      --forwards_left_;
      ctx.send(0, std::make_unique<CountingPayload>(freed_));
    }
  }

 private:
  std::size_t* freed_;
  int burst_;
  int forwards_left_;
};

enum class Teardown { kAfterQuiescence, kInFlight };

// Runs a counting flood on a 6-node bidirectional ring and checks that the
// payloads freed equal the payloads sent: at quiescence already (each one is
// freed on delivery or drop, not held until teardown), and after the
// Network is destroyed with messages still queued (pending delivery events
// and processing continuations free theirs).
void expect_payloads_freed_once(ProcessingModel processing, double loss,
                                Teardown teardown) {
  std::size_t freed = 0;
  std::uint64_t sent = 0;
  {
    NetworkConfig config;
    config.topology = bidirectional_ring(6);
    config.delay = exponential_delay(1.0);
    config.processing = processing;
    config.loss_probability = loss;
    config.seed = 11;
    Network net(std::move(config));
    net.build_nodes([&freed](std::size_t) {
      return std::make_unique<CountingFloodNode>(&freed, /*burst=*/3,
                                                 /*forwards=*/5);
    });
    net.start();
    if (teardown == Teardown::kInFlight) {
      net.run_until([&net] { return net.metrics().messages_delivered >= 10; });
      sent = net.metrics().messages_sent;
      EXPECT_GT(net.metrics().in_flight(), 0u);
      EXPECT_LT(freed, sent);
    } else {
      net.run_until_quiescent();
      sent = net.metrics().messages_sent;
      EXPECT_EQ(net.metrics().in_flight(), 0u);
      EXPECT_EQ(freed, sent) << "payloads must be freed when delivered";
      if (loss > 0.0) {
        EXPECT_GT(net.metrics().messages_dropped, 0u);
      }
    }
  }
  EXPECT_GT(sent, 36u);  // 6 nodes x 2 channels x burst 3, plus forwards
  EXPECT_EQ(freed, sent);
}

TEST(Network, PayloadFreedOncePerSendZeroProcessing) {
  expect_payloads_freed_once(ProcessingModel::zero(), 0.0,
                             Teardown::kAfterQuiescence);
}

TEST(Network, PayloadFreedOncePerSendFixedProcessing) {
  expect_payloads_freed_once(ProcessingModel::fixed(0.5), 0.0,
                             Teardown::kAfterQuiescence);
}

TEST(Network, PayloadFreedOncePerSendExponentialProcessing) {
  expect_payloads_freed_once(ProcessingModel::exponential(0.5), 0.0,
                             Teardown::kAfterQuiescence);
}

TEST(Network, PayloadFreedOncePerSendWhenDropped) {
  for (const ProcessingModel& processing :
       {ProcessingModel::zero(), ProcessingModel::fixed(0.5)}) {
    expect_payloads_freed_once(processing, 0.4, Teardown::kAfterQuiescence);
  }
}

TEST(Network, PayloadFreedOncePerSendWhenDestroyedInFlight) {
  for (const ProcessingModel& processing :
       {ProcessingModel::zero(), ProcessingModel::fixed(2.0),
        ProcessingModel::exponential(2.0)}) {
    expect_payloads_freed_once(processing, 0.0, Teardown::kInFlight);
  }
}

// --- start semantics ---------------------------------------------------------

bool equeue_env_pinned() {
  const char* env = std::getenv("ABE_EQUEUE");
  return env != nullptr && env[0] != '\0';
}

// Appends its index to a shared log in on_start; node 0 also arms a
// zero-delay timer that appends -1 when it fires.
class StartLogNode final : public Node {
 public:
  StartLogNode(std::vector<std::int64_t>* log, std::vector<SimTime>* times)
      : log_(log), times_(times) {}
  void on_start(Context& ctx) override {
    log_->push_back(ctx.self().value());
    times_->push_back(ctx.real_now());
    if (ctx.self().value() == 0) ctx.set_timer_local(0.0, 0);
  }
  void on_timer(Context&, TimerId, std::uint64_t) override {
    log_->push_back(-1);
  }
  void on_message(Context&, std::size_t, const Payload&) override {}

 private:
  std::vector<std::int64_t>* log_;
  std::vector<SimTime>* times_;
};

TEST(NetworkStart, OnStartOncePerNodeInIndexOrderBeforeZeroDelayTimer) {
  constexpr std::size_t kN = 6;
  NetworkConfig config;
  config.topology = bidirectional_ring(kN);
  config.seed = 3;
  Network net(std::move(config));
  std::vector<std::int64_t> log;
  std::vector<SimTime> times;
  net.build_nodes([&](std::size_t) -> NodePtr {
    return std::make_unique<StartLogNode>(&log, &times);
  });
  net.start();
  net.run_until_quiescent();
  // Every on_start ran exactly once, in index order, at t = 0; the timer
  // node 0 armed with zero delay fired only after node n - 1's on_start.
  const std::vector<std::int64_t> expected = {0, 1, 2, 3, 4, 5, -1};
  EXPECT_EQ(log, expected);
  ASSERT_EQ(times.size(), kN);
  for (SimTime t : times) EXPECT_EQ(t, 0.0);
  EXPECT_EQ(net.metrics().timers_fired, 1u);
}

TEST(NetworkStart, SchedulesOneStartEventPlusFirstTicks) {
  for (const bool ticks : {false, true}) {
    constexpr std::size_t kN = 9;
    NetworkConfig config;
    config.topology = bidirectional_ring(kN);
    config.enable_ticks = ticks;
    config.seed = 4;
    Network net(std::move(config));
    net.build_nodes(
        [](std::size_t) -> NodePtr { return std::make_unique<SinkNode>(); });
    net.start();
    const std::uint64_t tick_count = ticks ? kN : 0;
    EXPECT_EQ(net.scheduler().scheduled_count(), 1 + tick_count)
        << "ticks " << ticks;
    EXPECT_EQ(net.scheduler().pending(), 1 + tick_count) << "ticks " << ticks;
  }
}

// Appends (node, time) for every tick: the execution order of a tick-only
// network.
class TickLogNode final : public Node {
 public:
  explicit TickLogNode(std::vector<std::pair<std::int64_t, SimTime>>* log)
      : log_(log) {}
  void on_tick(Context& ctx, std::uint64_t) override {
    log_->emplace_back(ctx.self().value(), ctx.real_now());
  }
  void on_message(Context&, std::size_t, const Payload&) override {}

 private:
  std::vector<std::pair<std::int64_t, SimTime>>* log_;
};

std::vector<std::pair<std::int64_t, SimTime>> run_tick_network(
    std::size_t n, EqueueBackend backend, std::string* backend_end) {
  NetworkConfig config;
  config.topology = unidirectional_ring(n);
  config.enable_ticks = true;
  config.equeue = backend;
  config.seed = 21;
  Network net(std::move(config));
  std::vector<std::pair<std::int64_t, SimTime>> log;
  net.build_nodes([&log](std::size_t) -> NodePtr {
    return std::make_unique<TickLogNode>(&log);
  });
  net.start();
  net.run_until_quiescent(3.0);
  *backend_end = net.scheduler().backend_name();
  return log;
}

// The start burst no longer crosses the auto threshold, so kAuto migration
// is pinned here by n + 1 pending first ticks (plus the start event).
TEST(NetworkStart, AutoMigratesOnTickTrainsAndMatchesHeapOrder) {
  if (equeue_env_pinned()) GTEST_SKIP() << "ABE_EQUEUE pinned externally";
  const std::size_t n = kEqueueAutoThreshold + 1;
  std::string auto_end;
  std::string heap_end;
  const auto on_auto = run_tick_network(n, EqueueBackend::kAuto, &auto_end);
  const auto on_heap = run_tick_network(n, EqueueBackend::kHeap, &heap_end);
  EXPECT_EQ(auto_end, "ladder");
  EXPECT_EQ(heap_end, "heap");
  ASSERT_GE(on_heap.size(), 2 * n);  // every node ticked at least twice
  EXPECT_TRUE(on_auto == on_heap)
      << "auto -> ladder diverged from the heap's execution order";
}

// A polling election at n = 10^4 keeps at most a wave of messages pending,
// so kAuto stays on the heap for the whole trial.
TEST(NetworkStart, PollingTorus10kStaysOnHeap) {
  if (equeue_env_pinned()) GTEST_SKIP() << "ABE_EQUEUE pinned externally";
  const ScenarioSpec* registered = find_scenario("polling-torus");
  ASSERT_NE(registered, nullptr);
  ScenarioSpec spec = *registered;
  spec.topology.n = 10000;
  ASSERT_EQ(spec.equeue, EqueueBackend::kAuto);
  const std::uint64_t seed = 1;
  Rng topo_rng = Rng(seed).substream("scenario-topology");
  Topology topology = spec.topology.build(topo_rng);
  ScenarioTrialDriver binding = make_scenario_driver(spec, topology, seed);
  RuntimeConfig config =
      scenario_runtime_config(spec, std::move(topology), seed);
  binding.driver->configure(config);
  const SimTime deadline = config.deadline;
  SimRuntime rt(std::move(config));
  rt.build_nodes([&](std::size_t i) { return binding.driver->make_node(i); });
  rt.start();
  ASSERT_TRUE(rt.run_until_done([&] { return binding.driver->done(rt); },
                                deadline));
  binding.driver->settle(rt, true);
  const Scheduler& sched = rt.network().scheduler();
  EXPECT_STREQ(sched.backend_name(), "heap");
  EXPECT_LT(sched.queue_high_water(), kEqueueAutoThreshold);
}

// --- per-channel counts ------------------------------------------------------

// Floods every out-channel at start and echoes each delivery once on the
// same local channel index (mod out-degree).
class EchoFloodNode final : public Node {
 public:
  void on_start(Context& ctx) override {
    for (int b = 0; b < 5; ++b) {
      for (std::size_t c = 0; c < ctx.out_degree(); ++c) {
        ctx.send(c, std::make_unique<IntPayload>(0));
      }
    }
  }
  void on_message(Context& ctx, std::size_t in_index,
                  const Payload& payload) override {
    if (payload_as<IntPayload>(payload).value() == 0) {
      ctx.send(in_index % ctx.out_degree(), std::make_unique<IntPayload>(1));
    }
  }
};

struct ChannelCountCase {
  const char* name;
  ChannelOrdering ordering;
  ProcessingModel processing;
  double loss;
  bool overrides;  // set_channel_delay / set_channel_loss on a few edges
};

void PrintTo(const ChannelCountCase& c, std::ostream* os) { *os << c.name; }

class NetworkChannelCounts
    : public ::testing::TestWithParam<ChannelCountCase> {};

// The derived per-channel and per-node vectors equal a brute-force count of
// the full trace's send, deliver and drop records.
TEST_P(NetworkChannelCounts, AccessorsMatchTraceCounts) {
  const ChannelCountCase& c = GetParam();
  NetworkConfig config;
  config.topology = grid(3, 3);
  config.delay = exponential_delay(1.0);
  config.ordering = c.ordering;
  config.processing = c.processing;
  config.loss_probability = c.loss;
  config.seed = 99;
  Network net(std::move(config));
  net.trace().enable();
  if (c.overrides) {
    net.set_channel_delay(0, fixed_delay(3.0));
    net.set_channel_delay(5, lomax_delay(2.5, 2.0));
    net.set_channel_loss(2, 0.6);
    net.set_channel_loss(7, 0.0);
  }
  net.build_nodes(
      [](std::size_t) -> NodePtr { return std::make_unique<EchoFloodNode>(); });
  net.start();
  net.run_until_quiescent();

  const Topology& topo = net.topology();
  const std::size_t edges = topo.edge_count();
  std::vector<std::uint64_t> sent(edges, 0);
  std::vector<std::uint64_t> delivered(edges, 0);
  std::vector<std::uint64_t> dropped(edges, 0);
  std::vector<std::uint64_t> by_node(topo.n, 0);
  for (const TraceEvent& ev : net.trace().events()) {
    const auto e = static_cast<std::size_t>(ev.arg);
    switch (ev.kind) {
      case TraceKind::kSend:
        ASSERT_EQ(static_cast<std::size_t>(ev.node.value()),
                  topo.edges[e].from);
        ++sent[e];
        ++by_node[topo.edges[e].from];
        break;
      case TraceKind::kDeliver:
        ASSERT_EQ(static_cast<std::size_t>(ev.node.value()),
                  topo.edges[e].to);
        ++delivered[e];
        break;
      case TraceKind::kDrop:
        ASSERT_EQ(static_cast<std::size_t>(ev.node.value()),
                  topo.edges[e].to);
        ++dropped[e];
        break;
      default:
        break;
    }
  }
  ASSERT_EQ(net.trace().total_recorded(), net.trace().events().size())
      << "the trace ring must hold the whole run";
  EXPECT_EQ(net.sent_by_channel(), sent);
  EXPECT_EQ(net.delivered_by_channel(), delivered);
  EXPECT_EQ(net.dropped_by_channel(), dropped);
  EXPECT_EQ(net.sent_by_node(), by_node);
  if (c.loss > 0.0 || c.overrides) {
    EXPECT_GT(net.metrics().messages_dropped, 0u);
  }
  if (c.overrides) {
    EXPECT_EQ(dropped[7], 0u);  // the override turned this channel lossless
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, NetworkChannelCounts,
    ::testing::Values(
        ChannelCountCase{"arbitrary", ChannelOrdering::kArbitrary,
                         ProcessingModel::zero(), 0.0, false},
        ChannelCountCase{"lossy", ChannelOrdering::kArbitrary,
                         ProcessingModel::zero(), 0.3, false},
        ChannelCountCase{"fifo_lossy", ChannelOrdering::kFifo,
                         ProcessingModel::zero(), 0.2, false},
        ChannelCountCase{"exp_processing", ChannelOrdering::kFifo,
                         ProcessingModel::exponential(0.5), 0.1, false},
        ChannelCountCase{"overrides", ChannelOrdering::kArbitrary,
                         ProcessingModel::fixed(0.25), 0.1, true}),
    [](const ::testing::TestParamInfo<ChannelCountCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace abe
