// Chang–Roberts leader election for unidirectional rings with unique ids.
//
// The classic non-anonymous baseline: every node sends its id; a node
// forwards ids larger than its own, purges smaller ones, and is elected when
// its own id returns. Average message complexity Θ(n log n), worst case
// Θ(n²). It contrasts the paper's anonymous ABE election on two axes at
// once: it needs unique identities (which the ABE model does not grant) and
// it still pays the super-linear message bill.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "net/node.h"
#include "runtime/runtime.h"

namespace abe {

class CrToken final : public Payload {
 public:
  explicit CrToken(std::uint64_t id) : id_(id) {}
  std::uint64_t id() const { return id_; }
  std::unique_ptr<Payload> clone() const override {
    return std::make_unique<CrToken>(id_);
  }
  std::string describe() const override {
    return "CR(" + std::to_string(id_) + ")";
  }

 private:
  std::uint64_t id_;
};

class ChangRobertsNode final : public Node {
 public:
  // `id` must be unique in the ring.
  ChangRobertsNode(std::uint64_t id,
                   std::function<void(NodeId, SimTime)> on_leader);

  void on_start(Context& ctx) override;
  void on_message(Context& ctx, std::size_t in_index,
                  const Payload& payload) override;

  std::string state_string() const override;
  bool is_terminated() const override { return leader_; }

 private:
  std::uint64_t id_;
  std::function<void(NodeId, SimTime)> on_leader_;
  bool passive_ = false;
  bool leader_ = false;
};

// Chang–Roberts as an AlgorithmDriver (runtime/runtime.h) on the
// unidirectional ring its RuntimeConfig carries. The ids are a random
// permutation of {1..n} (the average-case assumption behind Θ(n log n)).
// Time and messages are taken when the leader appears; after a 64·δ·n
// drain, safety is exactly one leader, holding id n. One driver per trial.
std::unique_ptr<AlgorithmDriver> make_chang_roberts_driver();

}  // namespace abe
