// Push gossip (epidemic broadcast) on arbitrary ABE graphs.
//
// The paper motivates ABE with sensor and ad-hoc networks; rumor spreading
// is the canonical workload there. Each informed node, at every local clock
// tick, pushes the rumor to one uniformly random out-neighbour. On an ABE
// network the time to full dissemination is governed by the *expected*
// delay bound — another algorithm whose analysis needs exactly the
// knowledge Definition 1 grants (and nothing more). Exercises ticks, drift
// and delay models on non-ring topologies.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "net/network.h"
#include "net/node.h"
#include "runtime/runtime.h"
#include "stats/summary.h"

namespace abe {

class RumorPayload final : public Payload {
 public:
  RumorPayload() = default;
  std::unique_ptr<Payload> clone() const override {
    return std::make_unique<RumorPayload>();
  }
  std::string describe() const override { return "Rumor"; }
};

class GossipNode final : public Node {
 public:
  // `initially_informed`: the rumor source(s). `on_informed` fires once,
  // at the transition to informed (never for an initially informed node) —
  // on the thread runtime it runs on the node's thread, so observers must
  // be atomic. It lets run loops watch dissemination without scanning node
  // state, which would race with node threads.
  explicit GossipNode(bool initially_informed,
                      std::function<void()> on_informed = nullptr);

  void on_tick(Context& ctx, std::uint64_t tick) override;
  void on_message(Context& ctx, std::size_t in_index,
                  const Payload& payload) override;

  std::string state_string() const override;
  // An uninformed node has nothing to push.
  TickDemand tick_demand() const override {
    return informed_ ? TickDemand::every() : TickDemand::none();
  }

  bool informed() const { return informed_; }
  SimTime informed_at() const { return informed_at_; }
  std::uint64_t pushes() const { return pushes_; }

 private:
  bool informed_;
  std::function<void()> on_informed_;
  SimTime informed_at_ = 0.0;
  std::uint64_t pushes_ = 0;
};

struct GossipExperiment {
  Topology topology;
  std::size_t source = 0;
  std::string delay_name = "exponential";
  double mean_delay = 1.0;
  DelayModelPtr delay;  // takes precedence over delay_name when set
  ClockBounds clock_bounds{};
  DriftModel drift = DriftModel::kNone;
  ProcessingModel processing = ProcessingModel::zero();
  // Per-attempt silent push drop (failure injection). Gossip keeps pushing
  // every tick, so lost rumors delay — not prevent — dissemination.
  double loss_probability = 0.0;
  std::uint64_t seed = 1;
  // Event-queue backend (pure perf knob; results are bit-identical).
  EqueueBackend equeue = EqueueBackend::kAuto;
  SimTime deadline = 1e6;
};

struct GossipResult {
  bool all_informed = false;
  SimTime spread_time = 0.0;      // until the last node learned the rumor
  std::uint64_t messages = 0;     // total pushes
  double mean_inform_time = 0.0;  // averaged over nodes
};

// Runs one gossip spread on the simulator. (Thin shim over the gossip
// AlgorithmDriver below; seeded results are bit-identical to the
// pre-Runtime runner.)
GossipResult run_gossip(const GossipExperiment& experiment);

// The experiment's environment as a runtime-agnostic RuntimeConfig (the
// driver enables ticks — gossip pushes on the local clock).
RuntimeConfig gossip_runtime_config(const GossipExperiment& experiment);

// Push gossip as an AlgorithmDriver (runtime/runtime.h): done once every
// node is informed (atomic counter fed by on_informed), full GossipResult
// into `*sink`. One driver instance per trial.
std::unique_ptr<AlgorithmDriver> make_gossip_driver(
    const GossipExperiment& experiment, GossipResult* sink);

}  // namespace abe
