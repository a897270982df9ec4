// Lazy tick trains (net/network.h): a node that declares its tick demand
// (Node::tick_demand) must see exactly the run it would see if every tick
// were delivered. The differential tests run the same seeded trial twice —
// once with the plain node, once wrapped so it demands every tick — and
// require identical outcomes down to each node's counters.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "adversary/faulty_node.h"
#include "core/announce.h"
#include "core/election.h"
#include "net/network.h"
#include "net/topology.h"
#include "runtime/runtime.h"
#include "scenario/drivers.h"
#include "scenario/scenario.h"
#include "scenario/sweep.h"
#include "stats/summary.h"

namespace abe {
namespace {

// Demands every tick and forwards everything else, so the network runs the
// wrapped node on a per-tick train. Like a per-tick train, it stops after
// the first tick that finds the node terminated.
class EveryTick final : public Node {
 public:
  explicit EveryTick(NodePtr inner) : inner_(std::move(inner)) {}

  void on_start(Context& ctx) override { inner_->on_start(ctx); }
  void on_message(Context& ctx, std::size_t in_index,
                  const Payload& payload) override {
    inner_->on_message(ctx, in_index, payload);
  }
  void on_tick(Context& ctx, std::uint64_t tick) override {
    inner_->on_tick(ctx, tick);
    stopped_ = inner_->is_terminated();
  }
  void on_timer(Context& ctx, TimerId id, std::uint64_t tag) override {
    inner_->on_timer(ctx, id, tag);
  }
  std::string state_string() const override { return inner_->state_string(); }
  bool is_terminated() const override { return inner_->is_terminated(); }
  TickDemand tick_demand() const override {
    return stopped_ ? TickDemand::none() : TickDemand::every();
  }
  Node& algorithm_node() override { return inner_->algorithm_node(); }
  const Node& algorithm_node() const override {
    return inner_->algorithm_node();
  }

 private:
  NodePtr inner_;
  bool stopped_ = false;
};

struct LeaderWatch final : ElectionObserver {
  std::uint64_t leaders = 0;
  void on_state_change(NodeId, ElectionState, ElectionState to,
                       SimTime) override {
    if (to == ElectionState::kLeader) ++leaders;
  }
};

struct RingCase {
  std::string delay = "exponential";
  DriftModel drift = DriftModel::kNone;
  ProcessingModel processing = ProcessingModel::zero();
  double loss = 0.0;
  ActivationPolicy policy = ActivationPolicy::kAdaptive;
  double a0 = 0.0;  // 0: the calibrated linear_regime_a0(n)
  std::size_t n = 16;
  TickPhase phase = TickPhase::kRandomPerNode;
  SimTime deadline = 5000.0;
  SimTime settle = 20.0;
  double timeseries = 0.0;  // sampling interval; 0 = off

  std::string name() const {
    return delay + "/" + drift_model_name(drift) + "/proc" +
           std::to_string(static_cast<int>(processing.kind)) + "/loss" +
           std::to_string(loss) + "/" + activation_policy_name(policy) +
           "/n" + std::to_string(n) + "/a0=" + std::to_string(a0);
  }
};

struct NodeCounters {
  std::string state;
  std::uint64_t d = 0;
  std::uint64_t activations = 0;
  std::uint64_t purges = 0;
  std::uint64_t forwards = 0;

  bool operator==(const NodeCounters& o) const {
    return state == o.state && d == o.d && activations == o.activations &&
           purges == o.purges && forwards == o.forwards;
  }
};

struct RingRun {
  bool elected = false;
  std::size_t leader = 0;
  SimTime election_time = -1.0;
  std::uint64_t messages = 0;        // up to the election
  std::uint64_t messages_total = 0;  // after the settle window
  std::uint64_t leaders_ever = 0;
  std::uint64_t activations = 0;
  std::vector<NodeCounters> nodes;
  // Event accounting of the run up to the election (or the deadline).
  std::uint64_t popped = 0;
  std::uint64_t ticks = 0;
  // Time-series samples as (t, in_flight, live); the pending gauge counts
  // scheduler events and is left out.
  std::vector<std::vector<double>> samples;
};

RingRun run_ring(const RingCase& c, std::uint64_t seed, bool every_tick) {
  NetworkConfig config;
  config.topology = unidirectional_ring(c.n);
  config.delay = make_delay_model(c.delay, 1.0);
  if (c.drift != DriftModel::kNone) {
    config.clock_bounds = ClockBounds{0.8, 1.25};
    config.drift = c.drift;
  }
  config.processing = c.processing;
  config.loss_probability = c.loss;
  config.enable_ticks = true;
  config.tick_phase = c.phase;
  config.seed = seed;
  config.timeseries_interval = c.timeseries;
  Network net(std::move(config));

  LeaderWatch watch;
  ElectionOptions options;
  options.a0 = c.a0 > 0.0 ? c.a0 : linear_regime_a0(c.n);
  options.policy = c.policy;
  options.observer = &watch;
  net.build_nodes([&](std::size_t) -> NodePtr {
    NodePtr node = std::make_unique<ElectionNode>(options);
    if (every_tick) return std::make_unique<EveryTick>(std::move(node));
    return node;
  });
  net.start();

  RingRun run;
  run.elected = net.run_until([&] { return watch.leaders > 0; }, c.deadline);
  run.messages = net.metrics().messages_sent;
  run.popped = net.scheduler().processed_count();
  run.ticks = net.metrics().ticks_fired;
  if (run.elected) {
    run.election_time = net.now();
    net.run_until([] { return false; }, net.now() + c.settle);
  }
  run.messages_total = net.metrics().messages_sent;
  run.leaders_ever = watch.leaders;
  for (const TimeSeriesSample& sample : net.timeseries().samples) {
    run.samples.push_back({sample.t, sample.in_flight, sample.live});
  }
  for (std::size_t i = 0; i < net.size(); ++i) {
    const auto& node =
        static_cast<const ElectionNode&>(net.node(i).algorithm_node());
    if (node.state() == ElectionState::kLeader) run.leader = i;
    run.activations += node.activations();
    run.nodes.push_back({node.state_string(), node.d(), node.activations(),
                         node.purges(), node.forwards()});
  }
  return run;
}

// Runs `c` lazily and on a per-tick train for each seed and requires the
// same leader, messages, election time and per-node counters. Returns how
// many of the trials elected.
int expect_same_runs(const RingCase& c, std::uint64_t seeds) {
  int elected = 0;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    const RingRun lazy = run_ring(c, seed, /*every_tick=*/false);
    const RingRun every = run_ring(c, seed, /*every_tick=*/true);
    const std::string where = c.name() + " seed " + std::to_string(seed);
    EXPECT_EQ(lazy.elected, every.elected) << where;
    EXPECT_EQ(lazy.leader, every.leader) << where;
    EXPECT_EQ(lazy.election_time, every.election_time) << where;
    EXPECT_EQ(lazy.messages, every.messages) << where;
    EXPECT_EQ(lazy.messages_total, every.messages_total) << where;
    EXPECT_EQ(lazy.leaders_ever, every.leaders_ever) << where;
    EXPECT_TRUE(lazy.nodes == every.nodes) << where;
    if (lazy.elected) ++elected;
  }
  return elected;
}

// Ties: a lazy train schedules a node's tick when it arms, not when the
// previous lattice tick fires, so events at the very same instant can pop in
// another order than on a per-tick train. With ideal clocks and a delay law
// whose support is commensurate with the tick period (fixed: 1 period;
// georetx: multiples of half a period), tokens land exactly on their
// originator's tick lattice and such ties happen. There a seed may diverge
// (the first tied sends draw their delays in swapped order); each run must
// still be safe, and the distribution is checked separately
// (expect_same_distribution). Every other cell must match seed by seed.
bool ties_possible(const RingCase& c) {
  return c.drift == DriftModel::kNone &&
         (c.delay == "fixed" || c.delay == "georetx");
}

// The environment grid of one delay model: drift x processing x loss x
// policy x n. Linear activation with A0 = 0.3 reaches p >= 1 (a tick that
// draws nothing) once d >= 4.
void expect_grid_matches(const std::string& delay) {
  const DriftModel drifts[] = {DriftModel::kNone, DriftModel::kFixedRandomRate,
                               DriftModel::kPiecewiseRandom};
  const ProcessingModel processing[] = {ProcessingModel::zero(),
                                        ProcessingModel::fixed(0.1),
                                        ProcessingModel::exponential(0.1)};
  const double losses[] = {0.0, 0.005};
  const ActivationPolicy policies[] = {ActivationPolicy::kAdaptive,
                                       ActivationPolicy::kConstant,
                                       ActivationPolicy::kLinear};
  const std::size_t sizes[] = {1, 2, 16};
  const std::uint64_t seeds = 2;
  int elected = 0;
  int trials = 0;
  int tied_trials = 0;
  int diverged = 0;
  for (DriftModel drift : drifts) {
    for (const ProcessingModel& proc : processing) {
      for (double loss : losses) {
        for (ActivationPolicy policy : policies) {
          for (std::size_t n : sizes) {
            RingCase c;
            c.delay = delay;
            c.drift = drift;
            c.processing = proc;
            c.loss = loss;
            c.policy = policy;
            c.n = n;
            if (policy == ActivationPolicy::kLinear) c.a0 = 0.3;
            if (!ties_possible(c)) {
              elected += expect_same_runs(c, seeds);
              trials += static_cast<int>(seeds);
              continue;
            }
            for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
              const RingRun lazy = run_ring(c, seed, /*every_tick=*/false);
              const RingRun every = run_ring(c, seed, /*every_tick=*/true);
              EXPECT_LE(lazy.leaders_ever, 1u) << c.name() << " seed " << seed;
              EXPECT_LE(every.leaders_ever, 1u) << c.name() << " seed " << seed;
              ++tied_trials;
              if (lazy.messages_total != every.messages_total ||
                  lazy.election_time != every.election_time ||
                  !(lazy.nodes == every.nodes)) {
                ++diverged;
              }
            }
          }
        }
      }
    }
  }
  // The grid exercises elections, not just deadline misses.
  EXPECT_GT(elected, trials * 3 / 4);
  // Ties stay rare even where they are possible.
  EXPECT_LE(diverged, tied_trials / 10);
}

TEST(LazyTicks, MatchesEveryTickUnderFixedDelay) {
  expect_grid_matches("fixed");
}

TEST(LazyTicks, MatchesEveryTickUnderExponentialDelay) {
  expect_grid_matches("exponential");
}

TEST(LazyTicks, MatchesEveryTickUnderLomaxDelay) {
  expect_grid_matches("lomax");
}

TEST(LazyTicks, MatchesEveryTickUnderGeometricRetransmissionDelay) {
  expect_grid_matches("georetx");
}

// A small A0 keeps nodes idle for hundreds of ticks, far beyond one lazy
// run, so the trains pass through several checkpoints before activating.
TEST(LazyTicks, CheckpointsKeepLongIdleStretchesExact) {
  for (const char* delay : {"fixed", "exponential"}) {
    for (DriftModel drift : {DriftModel::kNone, DriftModel::kPiecewiseRandom}) {
      for (const ProcessingModel& proc :
           {ProcessingModel::zero(), ProcessingModel::exponential(0.1)}) {
        RingCase c;
        c.delay = delay;
        c.drift = drift;
        c.processing = proc;
        c.a0 = 1e-4;
        c.deadline = 1e5;
        EXPECT_EQ(expect_same_runs(c, 4), 4) << c.name();
      }
    }
  }
  // The first activation alone waits ~1/(n·A0) = 625 periods on average,
  // ten times a first lazy run: the checkpoint events exist and are all
  // that is popped besides the start, the on_tick calls and the deliveries.
  RingCase c;
  c.a0 = 1e-4;
  c.deadline = 1e5;
  const RingRun run = run_ring(c, 1, /*every_tick=*/false);
  ASSERT_TRUE(run.elected);
  EXPECT_GT(run.election_time, 2 * 64.0);
  EXPECT_GT(run.popped, 1 + run.ticks + run.messages);
  EXPECT_LT(run.popped, 1 + run.ticks + run.messages + 8 * c.n);
}

TEST(LazyTicks, RingTrialPopsAboutOneEventPerMessage) {
  RingCase c;  // n = 16, calibrated A0, exponential delay, ideal clocks
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const RingRun run = run_ring(c, seed, /*every_tick=*/false);
    ASSERT_TRUE(run.elected) << "seed " << seed;
    // One start event, one delivery per message, one tick per activation,
    // and a few checkpoints per node.
    EXPECT_LE(run.popped, run.messages + run.activations + 3 * c.n)
        << "seed " << seed;
    EXPECT_EQ(run.ticks, run.activations) << "seed " << seed;
    // A per-tick train pops one event per node per period.
    const RingRun every = run_ring(c, seed, /*every_tick=*/true);
    EXPECT_GT(every.popped, c.n * static_cast<std::uint64_t>(
                                      std::floor(every.election_time) - 1));
  }
}

// ring-lossy's deadlock corner: every node passive, every token lost. The
// trial still classifies as stalled, but its scheduler drains as soon as
// the last token dies instead of ticking idle-less nodes to the deadline.
TEST(LazyTicks, StalledLossyRingDrainsLongBeforeItsDeadline) {
  const ScenarioSpec* spec = find_scenario("ring-lossy");
  ASSERT_NE(spec, nullptr);
  bool found = false;
  for (std::uint64_t seed = 1; seed <= 200 && !found; ++seed) {
    ScenarioTrialDriver binding = make_scenario_driver(
        *spec, unidirectional_ring(spec->topology.n), seed);
    RuntimeConfig config = scenario_runtime_config(
        *spec, unidirectional_ring(spec->topology.n), seed);
    binding.driver->configure(config);
    SimRuntime rt(config);
    rt.build_nodes(
        [&binding](std::size_t i) { return binding.driver->make_node(i); });
    rt.start();
    const bool completed = rt.run_until_done(
        [&] { return binding.driver->done(rt); }, spec->deadline);
    if (completed) continue;
    const std::uint64_t popped =
        rt.network().scheduler().processed_count();
    const SimTime stopped_at = rt.now();
    const TrialOutcome outcome = binding.driver->extract(rt, false);
    ASSERT_TRUE(outcome.stalled) << "seed " << seed << ": "
                                 << outcome.safety_detail;
    found = true;
    EXPECT_TRUE(rt.network().scheduler().idle());
    EXPECT_LT(stopped_at, spec->deadline / 20) << "seed " << seed;
    // A per-tick train pops ~n events per period up to the deadline
    // (about 3.2e5 here).
    EXPECT_LT(popped, 2000u) << "seed " << seed;
  }
  EXPECT_TRUE(found) << "no stalled ring-lossy seed in 1..200";
}

class PlainTicker final : public Node {
 public:
  explicit PlainTicker(TickDemand demand) : demand_(demand) {}
  void on_message(Context&, std::size_t, const Payload&) override {}
  void on_tick(Context& ctx, std::uint64_t tick) override {
    if (times_.empty()) first_tick_ = tick;
    times_.push_back(ctx.real_now());
  }
  TickDemand tick_demand() const override { return demand_; }

  TickDemand demand_;
  std::uint64_t first_tick_ = 0;
  std::vector<SimTime> times_;
};

TEST(LazyTicks, EveryTickNodesKeepPerTickEvents) {
  NetworkConfig config;
  config.topology = unidirectional_ring(4);
  config.enable_ticks = true;
  config.seed = 9;
  Network net(std::move(config));
  std::vector<PlainTicker*> nodes;
  net.build_nodes([&](std::size_t) -> NodePtr {
    auto node = std::make_unique<PlainTicker>(TickDemand::every());
    nodes.push_back(node.get());
    return node;
  });
  net.start();
  const SimTime deadline = 100.5;
  net.run_until([] { return false; }, deadline);
  std::uint64_t ticks = 0;
  for (const PlainTicker* node : nodes) {
    ASSERT_FALSE(node->times_.empty());
    EXPECT_EQ(node->first_tick_, 1u);
    const double phase = node->times_.front() - 1.0;
    // Every lattice tick phase + k (k >= 1) up to the deadline, in order.
    EXPECT_EQ(node->times_.size(),
              static_cast<std::size_t>(std::floor(deadline - phase)));
    for (std::size_t k = 0; k < node->times_.size(); ++k) {
      EXPECT_NEAR(node->times_[k], phase + static_cast<double>(k + 1), 1e-9);
    }
    ticks += node->times_.size();
  }
  EXPECT_EQ(net.metrics().ticks_fired, ticks);
  // One start event plus one event per tick; nothing cancelled, and each
  // node keeps exactly its next tick pending.
  EXPECT_EQ(net.scheduler().processed_count(), 1 + ticks);
  EXPECT_EQ(net.scheduler().cancelled_count(), 0u);
  EXPECT_EQ(net.scheduler().pending(), nodes.size());
}

TEST(LazyTicks, NoneDemandSchedulesNothing) {
  NetworkConfig config;
  config.topology = unidirectional_ring(4);
  config.enable_ticks = true;
  config.seed = 9;
  Network net(std::move(config));
  std::vector<PlainTicker*> nodes;
  net.build_nodes([&](std::size_t i) -> NodePtr {
    // p = 0 draws nothing and fails: the same as kNone.
    auto node = std::make_unique<PlainTicker>(
        i % 2 == 0 ? TickDemand::none() : TickDemand::bernoulli(0.0));
    nodes.push_back(node.get());
    return node;
  });
  net.start();
  net.run_until_quiescent(1000.0);
  for (const PlainTicker* node : nodes) EXPECT_TRUE(node->times_.empty());
  EXPECT_EQ(net.metrics().ticks_fired, 0u);
  EXPECT_EQ(net.scheduler().processed_count(), 1u);  // the start event
}

// The decorators declare their own demand: the announcement wave forwards
// the election's, FaultyNode keeps every tick for crash and reorder and
// forwards it for equivocation.
TEST(LazyTicks, DecoratedNodesMatchEveryTick) {
  const auto run = [](int kind, std::uint64_t seed, bool every_tick) {
    const std::size_t n = 12;
    NetworkConfig config;
    config.topology = unidirectional_ring(n);
    config.delay = exponential_delay(1.0);
    config.processing = ProcessingModel::exponential(0.1);
    config.enable_ticks = true;
    config.seed = seed;
    Network net(std::move(config));
    ElectionOptions options;
    options.a0 = linear_regime_a0(n);
    options.tolerate_protocol_violation = true;
    net.build_nodes([&](std::size_t i) -> NodePtr {
      NodePtr node;
      if (kind == 0) {
        node = std::make_unique<AnnouncingElectionNode>(options);
      } else {
        node = std::make_unique<ElectionNode>(options);
        if (i == n - 1) {
          const BehaviorProfile profiles[] = {BehaviorProfile::kCrashAtT,
                                              BehaviorProfile::kEquivocate,
                                              BehaviorProfile::kReorder};
          node = std::make_unique<FaultyNode>(std::move(node),
                                              profiles[kind - 1], 20.0, 2);
        }
      }
      if (every_tick) {
        return NodePtr(std::make_unique<EveryTick>(std::move(node)));
      }
      return node;
    });
    net.start();
    net.run_until([] { return false; }, 400.0);
    std::vector<std::string> states;
    for (std::size_t i = 0; i < n; ++i) {
      states.push_back(net.node(i).state_string());
      const auto* election =
          dynamic_cast<const ElectionNode*>(&net.node(i).algorithm_node());
      if (election != nullptr) {
        states.back() += " d=" + std::to_string(election->d()) +
                         " act=" + std::to_string(election->activations()) +
                         " purges=" + std::to_string(election->purges());
      }
    }
    states.push_back("sent=" + std::to_string(net.metrics().messages_sent));
    return states;
  };
  for (int kind = 0; kind < 4; ++kind) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      EXPECT_EQ(run(kind, seed, false), run(kind, seed, true))
          << "kind " << kind << " seed " << seed;
    }
  }
}

// The time-series grid is sampled after the first event at or past each
// grid point. A per-tick train pops a tick event per node per period, so
// the sampler sees the state as of the skipped ticks too: the lazy train
// must reproduce those samples (pending aside), through the election, the
// settle window and a stalled run's drain.
TEST(LazyTicks, TimeSeriesMatchesEveryTick) {
  int unelected = 0;
  for (const char* delay : {"exponential", "lomax"}) {
    for (double loss : {0.0, 0.005}) {
      for (DriftModel drift :
           {DriftModel::kNone, DriftModel::kPiecewiseRandom}) {
        RingCase c;
        c.delay = delay;
        c.loss = loss;
        c.drift = drift;
        c.timeseries = 0.5;
        c.deadline = 300.0;
        for (std::uint64_t seed = 1; seed <= 6; ++seed) {
          const RingRun lazy = run_ring(c, seed, /*every_tick=*/false);
          const RingRun every = run_ring(c, seed, /*every_tick=*/true);
          ASSERT_FALSE(every.samples.empty());
          EXPECT_EQ(lazy.samples, every.samples)
              << c.name() << " seed " << seed;
          if (!every.elected) ++unelected;
        }
      }
    }
  }
  EXPECT_GT(unelected, 0);  // some lossy run stalled and ran to the deadline
}

// FNV-1a over the bit patterns of every sample's (t, pending, in_flight,
// live), in grid order.
std::uint64_t sample_digest(const TimeSeries& series) {
  std::uint64_t h = 1469598103934665603ull;
  for (const TimeSeriesSample& sample : series.samples) {
    for (double v : {sample.t, sample.pending, sample.in_flight, sample.live}) {
      std::uint64_t bits;
      std::memcpy(&bits, &v, sizeof(bits));
      for (int byte = 0; byte < 8; ++byte) {
        h ^= (bits >> (8 * byte)) & 0xff;
        h *= 1099511628211ull;
      }
    }
  }
  return h;
}

// Seeds 1-4 of the sweep ring cells (the robustness sweep's three, the
// lossy ring, the drift sweep's piecewise-drift ring) and one polling cell,
// observed as `abe_scenarios critical-path --timeseries 1` observes them.
// Pins what the lazy train and the sampler decide: every time-series sample
// (including the pending gauge the differential tests leave out) and the
// event-accounting rows.
TEST(LazyTicks, SeededSweepObservabilityIsPinned) {
  struct Pinned {
    std::uint64_t seed;
    std::size_t samples;
    std::uint64_t digest;
    double popped, scheduled, cancelled, high_water, ticks, recorded;
  };
  struct Cell {
    const char* id;
    Pinned trials[4];
  };
  const Cell pinned[] = {
      {"abe-ring/ring-uni-16/fixed/ideal/none",
       {{1, 133, 0xc24f007e9854e053ull, 56, 71, 15, 16, 5, 126},
        {2, 82, 0xc7176cffaf68c5f7ull, 26, 41, 15, 16, 1, 50},
        {3, 51, 0x39728f4b0a77f1caull, 36, 51, 15, 16, 3, 88},
        {4, 158, 0x0d0aeb69a0a9220dull, 72, 87, 15, 16, 7, 164}}},
      {"abe-ring/ring-uni-16/exponential/ideal/none",
       {{1, 45, 0x6a685efd4878fd8full, 36, 51, 15, 16, 3, 88},
        {2, 86, 0x95b4407663a2bf96ull, 28, 43, 15, 16, 1, 50},
        {3, 45, 0xe0045d10ae7aad9aull, 36, 51, 15, 16, 3, 88},
        {4, 161, 0x8937914260f710feull, 72, 87, 15, 16, 7, 164}}},
      {"abe-ring/ring-uni-16/lomax/ideal/none",
       {{1, 45, 0xe48b7e0fd80d1c6full, 36, 51, 15, 16, 3, 88},
        {2, 90, 0x753a806268df05b9ull, 29, 44, 15, 16, 1, 50},
        {3, 45, 0xb9cec809cba0e17aull, 36, 51, 15, 16, 3, 88},
        {4, 42, 0xa2c33b36d8c9541eull, 18, 33, 15, 16, 1, 50}}},
      {"abe-ring/ring-uni-16/exponential/ideal/loss-0.005",
       {{1, 44, 0x436951f0dae5ac60ull, 36, 51, 15, 16, 3, 88},
        {2, 82, 0xa2c195ef4c5aa85full, 22, 37, 15, 16, 1, 50},
        {3, 45, 0x3586763a6433e4caull, 36, 51, 15, 16, 3, 88},
        {4, 512, 0xdebfbcd4ffda4f96ull, 28, 42, 14, 16, 3, 69}}},
      {"abe-ring/ring-uni-16/exponential/piecewise-random[0.666667,1.5]/none",
       {{1, 121, 0x321719208b81d957ull, 56, 71, 15, 16, 5, 126},
        {2, 70, 0xbbf6a07ed31c4fb0ull, 18, 33, 15, 16, 1, 50},
        {3, 41, 0x4cfc715ede2a08bbull, 36, 51, 15, 16, 3, 88},
        {4, 41, 0x17f4240c0a97e538ull, 18, 33, 15, 16, 1, 50}}},
      {"polling/torus-16/exponential/ideal/none",
       {{1, 9, 0x3f3c269d3eef6fc8ull, 46, 46, 0, 6, 0, 90},
        {2, 11, 0xeca5946db49f73beull, 46, 46, 0, 6, 0, 90},
        {3, 12, 0x4248853f133874dcull, 46, 46, 0, 7, 0, 90},
        {4, 11, 0x4cdf4c157b12854aull, 46, 46, 0, 6, 0, 90}}},
  };

  std::vector<ScenarioSpec> cells = find_sweep("robustness")->expand();
  const std::vector<ScenarioSpec> drift = find_sweep("drift")->expand();
  cells.insert(cells.end(), drift.begin(), drift.end());
  cells.push_back(*find_scenario("ring-lossy"));
  for (const Cell& cell : pinned) {
    SCOPED_TRACE(cell.id);
    const ScenarioSpec* found = nullptr;
    for (const ScenarioSpec& spec : cells) {
      if (spec.cell_id() == cell.id) {
        found = &spec;
        break;
      }
    }
    ASSERT_NE(found, nullptr);
    ScenarioSpec spec = *found;
    spec.causal_history = true;
    spec.timeseries_interval = 1.0;
    for (const Pinned& p : cell.trials) {
      SCOPED_TRACE("seed " + std::to_string(p.seed));
      const TrialOutcome trial = run_scenario_trial(spec, p.seed);
      ASSERT_TRUE(trial.has_timeseries);
      ASSERT_TRUE(trial.has_metrics);
      EXPECT_EQ(trial.timeseries.samples.size(), p.samples);
      EXPECT_EQ(sample_digest(trial.timeseries), p.digest);
      const MetricsSnapshot& m = trial.metrics;
      EXPECT_EQ(m.value_of("sched.popped"), p.popped);
      EXPECT_EQ(m.value_of("sched.scheduled"), p.scheduled);
      EXPECT_EQ(m.value_of("sched.cancelled"), p.cancelled);
      EXPECT_EQ(m.value_of("sched.queue_high_water"), p.high_water);
      EXPECT_EQ(m.value_of("net.ticks"), p.ticks);
      EXPECT_EQ(m.value_of("trace.recorded"), p.recorded);
    }
  }
}

// Sends one message from on_start; demands no ticks.
class OneShotSender final : public Node {
 public:
  void on_start(Context& ctx) override {
    ctx.send(0, std::make_unique<HopPayload>(1));
  }
  void on_message(Context&, std::size_t, const Payload&) override {}
  TickDemand tick_demand() const override { return TickDemand::none(); }
};

// A Bernoulli(p) ticker that also draws from its stream on every message,
// so the order of tick draws and message draws shows in the values.
class DrawingTicker final : public Node {
 public:
  explicit DrawingTicker(double p) : p_(p) {}
  void on_message(Context& ctx, std::size_t, const Payload&) override {
    message_draws.push_back(ctx.rng().uniform01());
  }
  void on_tick(Context& ctx, std::uint64_t tick) override {
    if (ctx.rng().bernoulli(p_)) fired.push_back(tick);
  }
  TickDemand tick_demand() const override { return TickDemand::bernoulli(p_); }

  std::vector<double> message_draws;
  std::vector<std::uint64_t> fired;

 private:
  double p_;
};

// The tie rule, pinned: aligned phases and a fixed delay of three periods
// deliver node 1's message exactly at its third lattice tick. The draws of
// ticks 1 and 2 come first, then the message's, and tick 3's after it.
TEST(LazyTicks, TickAtTheSameInstantCountsAfterTheEvent) {
  const std::uint64_t seed = 5;
  const double p = 1e-9;  // no tick fires: every tick is one failed draw
  NetworkConfig config;
  config.topology = unidirectional_ring(2);
  config.delay = fixed_delay(3.0);
  config.enable_ticks = true;
  config.tick_phase = TickPhase::kAligned;
  config.seed = seed;
  Network net(std::move(config));
  auto* ticker = new DrawingTicker(p);
  net.add_node(std::make_unique<OneShotSender>());
  net.add_node(NodePtr(ticker));
  net.start();
  net.run_until([&] { return !ticker->message_draws.empty(); }, 10.0);
  ASSERT_EQ(ticker->message_draws.size(), 1u);
  EXPECT_EQ(net.now(), 3.0);

  Rng stream = Rng(seed).substream("node", 1);  // node 1's own stream
  ASSERT_FALSE(stream.bernoulli(p));  // tick 1
  ASSERT_FALSE(stream.bernoulli(p));  // tick 2
  EXPECT_EQ(ticker->message_draws[0], stream.uniform01());
  net.run_until([] { return false; }, 10.0);
  EXPECT_TRUE(ticker->fired.empty());
}

// Where ties happen, runs may differ seed by seed; what must hold is
// safety on every seed and the same distribution of messages and time.
void expect_same_distribution(const RingCase& c, std::uint64_t seeds) {
  Summary lazy_messages;
  Summary every_messages;
  Summary lazy_time;
  Summary every_time;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    const RingRun lazy = run_ring(c, seed, /*every_tick=*/false);
    const RingRun every = run_ring(c, seed, /*every_tick=*/true);
    ASSERT_TRUE(lazy.elected && every.elected) << c.name() << " seed " << seed;
    ASSERT_EQ(lazy.leaders_ever, 1u) << c.name() << " seed " << seed;
    ASSERT_EQ(every.leaders_ever, 1u) << c.name() << " seed " << seed;
    lazy_messages.add(static_cast<double>(lazy.messages));
    every_messages.add(static_cast<double>(every.messages));
    lazy_time.add(lazy.election_time);
    every_time.add(every.election_time);
  }
  const auto z = [](const Summary& a, const Summary& b) {
    const double se = std::sqrt(a.variance() / static_cast<double>(a.count()) +
                                b.variance() / static_cast<double>(b.count()));
    return se > 0.0 ? std::fabs(a.mean() - b.mean()) / se : 0.0;
  };
  EXPECT_LT(z(lazy_messages, every_messages), 4.0) << c.name();
  EXPECT_LT(z(lazy_time, every_time), 4.0) << c.name();
}

// The hot linear policy under georetx delays on ideal clocks: the grid cell
// where ties do reorder sends.
TEST(LazyTicks, CommensurateDelaysKeepTheDistribution) {
  RingCase c;
  c.delay = "georetx";
  c.policy = ActivationPolicy::kLinear;
  c.a0 = 0.3;
  expect_same_distribution(c, 300);
}

// Under TickPhase::kAligned with ideal clocks every node ticks at the same
// instants, so ties between ticks and other events are the rule.
TEST(LazyTicks, AlignedPhasesStaySafeAndKeepTheDistribution) {
  for (const char* delay : {"fixed", "exponential"}) {
    RingCase c;
    c.n = 8;
    c.delay = delay;
    c.phase = TickPhase::kAligned;
    c.deadline = 1e5;
    expect_same_distribution(c, 400);
  }
}

}  // namespace
}  // namespace abe
