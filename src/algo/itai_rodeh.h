// Itai–Rodeh probabilistic leader election for anonymous unidirectional
// rings of known size n (Itai & Rodeh, Inf. Comput. 1990 — reference [4] of
// the paper), in the round-numbered asynchronous formulation.
//
// This is the baseline the paper positions its ABE election against: IR has
// expected O(n log n) messages (O(log n) rounds of up-to-n-hop tokens),
// whereas the ABE election achieves expected O(n) messages by exploiting the
// known bound on the expected delay. Bench E2 overlays the two curves.
//
// Algorithm sketch (per candidate):
//   each round: draw id ∈ {1..R}, send token (round, id, hop=1, clean=true);
//   on receiving (round', id', hop, clean):
//     own token back (round'=round, id'=id, hop=n): clean ? leader
//                                                         : next round;
//     (round', id') > (round, id) lexicographically: become passive, forward;
//     (round', id') < (round, id): purge;
//     equal but hop < n (tie): forward with clean=false.
//   passive nodes forward every token with hop+1.
//
// Channels are FIFO, the classic setting: make_itai_rodeh_driver sets
// ChannelOrdering::kFifo, and no test runs it on any other ordering.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "net/node.h"
#include "runtime/runtime.h"

namespace abe {

class IrToken final : public Payload {
 public:
  IrToken(std::uint64_t round, std::uint64_t id, std::uint64_t hop,
          bool clean)
      : round_(round), id_(id), hop_(hop), clean_(clean) {}
  std::uint64_t round() const { return round_; }
  std::uint64_t id() const { return id_; }
  std::uint64_t hop() const { return hop_; }
  bool clean() const { return clean_; }
  std::unique_ptr<Payload> clone() const override {
    return std::make_unique<IrToken>(round_, id_, hop_, clean_);
  }
  std::string describe() const override;

 private:
  std::uint64_t round_;
  std::uint64_t id_;
  std::uint64_t hop_;
  bool clean_;
};

class ItaiRodehNode final : public Node {
 public:
  // Ids are drawn uniformly from {1..id_range}; 0 means "use n".
  // `on_leader` fires once, when this node becomes leader.
  ItaiRodehNode(std::uint64_t id_range,
                std::function<void(NodeId, SimTime)> on_leader);

  void on_start(Context& ctx) override;
  void on_message(Context& ctx, std::size_t in_index,
                  const Payload& payload) override;

  std::string state_string() const override;
  bool is_terminated() const override { return leader_; }

  std::uint64_t round() const { return round_; }

 private:
  void start_round(Context& ctx);

  std::uint64_t id_range_;
  std::function<void(NodeId, SimTime)> on_leader_;
  bool passive_ = false;
  bool leader_ = false;
  std::uint64_t round_ = 0;
  std::uint64_t id_ = 0;
};

// Itai–Rodeh as an AlgorithmDriver (runtime/runtime.h) on the
// unidirectional ring its RuntimeConfig carries, with FIFO channels. Ids
// are drawn from {1..id_range} (0 means n). Time and messages are taken
// when the leader appears, its round goes to `*leader_round` (may be
// null); after a 64·δ·n drain, safety is exactly one leader, elected once.
// One driver per trial.
std::unique_ptr<AlgorithmDriver> make_itai_rodeh_driver(
    std::uint64_t id_range, std::uint64_t* leader_round);

}  // namespace abe
