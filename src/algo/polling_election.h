// Polling leader election for anonymous ABE networks over general graphs.
//
// The paper proves that every *deterministic* election algorithm possible in
// an anonymous ABE network is a polling algorithm: each node must be woken
// explicitly before the leader may announce, because with unbounded delays
// silence never certifies anything. This file makes that theorem runnable as
// a baseline: a spanning-tree broadcast/echo wake-up layer (the polling
// skeleton — deterministic, every node explicitly woken) composed with an
// extinction-style election (the symmetry breaker — random draws, which no
// deterministic anonymous algorithm can avoid needing).
//
// Protocol, per round r (tree precomputed offline from the topology, like
// the β-synchronizer: coordination structure is infrastructure, not
// anonymous algorithm state):
//   WAKE(r)  — broadcast down the tree; every node is explicitly polled and
//              draws a fresh random id for round r;
//   ECHO(r)  — convergecast up the tree carrying (best id seen, count of
//              nodes holding it); waves from smaller ids are extinguished
//              by the max-combine on the way up;
//   RESULT(r) — the root learns the global maximum and its multiplicity;
//              a unique maximum is broadcast down and its holder becomes
//              the leader; a tie (count > 1) starts round r+1 instead.
//
// Message cost is (2r+1)(n−1) tree messages for r rounds; with 64-bit ids a
// tie is a ~n²/2⁶⁴ event, so the expected cost is Θ(n) — the price of the
// polling structure the theorem forces, paid on EVERY run, where the
// paper's probabilistic ring algorithm wakes most nodes implicitly. The
// scenario engine (src/scenario) sweeps the two against each other.
//
// Requires a bidirectional topology (every tree edge needs its reverse for
// the echo), i.e. every builder in net/topology.h except the unidirectional
// ring.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/network.h"
#include "net/node.h"
#include "net/plan.h"
#include "runtime/runtime.h"

namespace abe {

enum class PollingState : std::uint8_t {
  kAsleep,   // not yet polled
  kPolled,   // woken, awaiting the round outcome
  kPassive,  // polled and lost the final round
  kLeader,   // terminal winner
};

const char* polling_state_name(PollingState s);

// Wire message of the polling protocol.
class PollPayload final : public Payload {
 public:
  enum class Kind : std::uint8_t { kWake, kEcho, kResult };
  PollPayload(Kind kind, std::uint64_t round, std::uint64_t id,
              std::uint64_t count)
      : kind_(kind), round_(round), id_(id), count_(count) {}
  Kind kind() const { return kind_; }
  std::uint64_t round() const { return round_; }
  std::uint64_t id() const { return id_; }
  std::uint64_t count() const { return count_; }
  std::unique_ptr<Payload> clone() const override {
    return std::make_unique<PollPayload>(kind_, round_, id_, count_);
  }
  std::string describe() const override;

 private:
  Kind kind_;
  std::uint64_t round_;
  std::uint64_t id_;
  std::uint64_t count_;
};

// Static per-node wiring derived from the plan's spanning tree (cf.
// BetaWiring). children_out is a view into the plan (net/plan.h), so a node
// holding this wiring must not outlive the plan.
struct PollingWiring {
  bool is_root = false;
  std::size_t parent_out = 0;    // out-channel toward the parent (non-root)
  Adjacency::Span children_out;  // out-channels toward each child
};

// Node `node`'s wiring on the plan's BFS tree from node 0 (NetworkPlan::
// tree). Aborts when a tree edge has no reverse channel.
PollingWiring polling_wiring(const NetworkPlan& plan, std::size_t node);

struct PollingOptions {
  // Ids are drawn uniformly from [0, 2^id_bits). 64 makes ties negligible;
  // tests shrink it to force multi-round extinction.
  unsigned id_bits = 64;
  // Invoked once when a node becomes leader.
  std::function<void(NodeId, SimTime)> on_leader;
};

class PollingElectionNode final : public Node {
 public:
  PollingElectionNode(PollingWiring wiring, PollingOptions options);

  void on_start(Context& ctx) override;
  void on_message(Context& ctx, std::size_t in_index,
                  const Payload& payload) override;

  std::string state_string() const override {
    return polling_state_name(state_);
  }
  bool is_terminated() const override {
    return state_ == PollingState::kLeader ||
           state_ == PollingState::kPassive;
  }

  // --- observable state (tests & metrics) --------------------------------
  PollingState state() const { return state_; }
  bool woken() const { return woken_; }  // the polling postcondition
  std::uint64_t round() const { return round_; }

 private:
  std::uint64_t draw_id(Context& ctx);
  void begin_round(Context& ctx, std::uint64_t round);
  void report_or_decide(Context& ctx);
  void finish(Context& ctx, std::uint64_t winner);

  PollingWiring wiring_;
  PollingOptions options_;
  PollingState state_ = PollingState::kAsleep;
  bool woken_ = false;
  std::uint64_t round_ = 0;
  std::uint64_t id_ = 0;
  std::uint64_t best_ = 0;
  std::uint64_t best_count_ = 0;
  std::size_t children_reported_ = 0;
};

struct PollingRunResult {
  bool elected = false;
  std::size_t leader_index = 0;
  SimTime election_time = 0.0;
  std::uint64_t messages = 0;        // sent up to the election moment
  std::uint64_t messages_total = 0;  // including the settle window
  std::uint64_t rounds = 0;          // rounds the winner needed (1 = no tie)
  std::uint64_t woken = 0;           // nodes explicitly polled (must be n)
  std::uint64_t max_leaders_ever = 0;
  // Full termination: one leader, n−1 passive, every node woken, nothing
  // in flight. Guaranteed on reliable channels; under loss injection a
  // dropped WAKE/ECHO/RESULT legitimately leaves this false (the
  // robustness measurement), which callers count as a failure — never as
  // a safety violation.
  bool terminated = false;
  // Safety proper: at most one leader, ever. On reliable channels this
  // also folds in `terminated` (an incomplete lossless run IS a bug).
  bool safety_ok = false;
  std::string safety_detail;
};

// The polling election as an AlgorithmDriver (runtime/runtime.h). Node ids
// are drawn from [0, 2^id_bits). configure() reads the tree wiring from
// config.plan, and whether channels are lossy from config.loss_probability.
// Safety postconditions: exactly one leader, everyone else passive, every
// node woken (the theorem's polling requirement), no messages in flight.
// Done once a leader exists; then a drain to quiescence; the full
// PollingRunResult goes into `*sink`. One driver instance per trial.
std::unique_ptr<AlgorithmDriver> make_polling_driver(unsigned id_bits,
                                                     PollingRunResult* sink);

}  // namespace abe
