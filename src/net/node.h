// Node and Context: the runtime-agnostic algorithm interface.
//
// Algorithms (the ABE election, baselines, synchronizers) implement Node and
// interact with the world only through Context. Two networks provide
// Context: the discrete-event simulator (net/network.h) and the wall-clock
// network (runtime/wall_net.h, threads or udp), so the same algorithm
// object runs on both. The `Runtime` contract (runtime/runtime.h) unifies
// them behind one lifecycle — algorithms packaged as AlgorithmDrivers
// execute on either substrate, and the scenario engine sweeps them across
// both.
//
// Anonymity: a node never learns a global identifier through this interface —
// it sees only its local in/out channel indices — matching the anonymous-ring
// setting of the paper. (Context::self() exists for instrumentation and
// tracing; algorithm code in src/core and src/algo must not branch on it.)
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "net/message.h"
#include "sim/rng.h"
#include "sim/time.h"
#include "util/ids.h"

namespace abe {

// A Context& is valid only for the handler call that receives it: a
// runtime may hand every node the same object, re-pointed before each call
// (the simulator does), so a node must not keep the reference, or a pointer
// to it, past the call. What it returns may be kept: rng() stays this
// node's stream for the whole run.
class Context {
 public:
  virtual ~Context() = default;

  // --- identity & shape -----------------------------------------------
  // Instrumentation-only identity (see header comment).
  virtual NodeId self() const = 0;
  // Number of outgoing / incoming channels of this node.
  virtual std::size_t out_degree() const = 0;
  virtual std::size_t in_degree() const = 0;
  // Network size n; the paper's election assumes n is known to all nodes.
  virtual std::size_t network_size() const = 0;

  // --- communication ----------------------------------------------------
  // Sends `payload` on the out-channel with local index `out_index`.
  virtual void send(std::size_t out_index, PayloadPtr payload) = 0;

  // --- time ---------------------------------------------------------------
  // Reading of this node's local (drifting) clock.
  virtual double local_now() = 0;
  // Global simulated/wall time. For metrics and traces only; algorithm logic
  // must not read it (real distributed nodes have no global clock).
  virtual SimTime real_now() const = 0;

  // One-shot timer after `local_delay` on this node's local clock; fires
  // Node::on_timer with `tag`. Returns a cancellable handle.
  virtual TimerId set_timer_local(double local_delay, std::uint64_t tag) = 0;
  virtual bool cancel_timer(TimerId id) = 0;

  // --- randomness & observability ------------------------------------
  // This node's private random stream.
  virtual Rng& rng() = 0;
  // Appends a custom trace event attributed to this node.
  virtual void log(const std::string& detail) = 0;
};

// What a node's next local-clock ticks are worth to it, asked by the
// simulator after every handler of the node (Node::tick_demand). A runtime
// that honours it may skip ticks whose on_tick call it can prove to be a
// no-op, so the contract is strict:
//   kEvery      — on_tick may do anything; every tick is delivered.
//   kNone       — on_tick would be a no-op (no draw, no send, no state
//                 change) on every tick until the node's next handler runs.
//   kBernoulli  — on_tick first draws ctx.rng().bernoulli(p) and does
//                 nothing else when that draw fails; p stays fixed until
//                 the node's next handler runs.
// The answer may depend only on the node's own state, which only its own
// handlers change. A runtime may also ignore it and deliver every tick (the
// thread and UDP substrates do), so on_tick must keep honouring the promise
// itself rather than rely on being skipped.
struct TickDemand {
  enum class Kind : std::uint8_t { kEvery, kNone, kBernoulli };
  Kind kind = Kind::kEvery;
  double p = 0.0;  // kBernoulli only

  static TickDemand every() { return {Kind::kEvery, 0.0}; }
  static TickDemand none() { return {Kind::kNone, 0.0}; }
  static TickDemand bernoulli(double p) { return {Kind::kBernoulli, p}; }
};

class Node {
 public:
  virtual ~Node() = default;

  // Called once at time 0 before any message/tick.
  virtual void on_start(Context&) {}

  // A payload arrived on in-channel `in_index`.
  virtual void on_message(Context& ctx, std::size_t in_index,
                          const Payload& payload) = 0;

  // Local-clock tick number `tick` (ticks are enabled per-network; the ABE
  // election acts on these).
  virtual void on_tick(Context&, std::uint64_t /*tick*/) {}

  // A timer set via Context::set_timer_local fired.
  virtual void on_timer(Context&, TimerId, std::uint64_t /*tag*/) {}

  // Diagnostic name of the node's current state ("idle", "leader", …).
  virtual std::string state_string() const { return ""; }

  // True when this node has reached a terminal state; runtimes may use this
  // to stop tick generation for the node.
  virtual bool is_terminated() const { return false; }

  // The node's demand for its next ticks (see TickDemand). The default
  // keeps every tick until the node terminates.
  virtual TickDemand tick_demand() const {
    return is_terminated() ? TickDemand::none() : TickDemand::every();
  }

  // The algorithm node answering result-extraction queries. Decorators that
  // wrap an algorithm node (adversary/faulty_node.h) forward this to the
  // wrapped node, so drivers can downcast rt.node(i).algorithm_node() to the
  // concrete algorithm type without knowing whether a fault profile is
  // interposed. Plain algorithm nodes are their own algorithm_node.
  virtual Node& algorithm_node() { return *this; }
  virtual const Node& algorithm_node() const { return *this; }
};

using NodePtr = std::unique_ptr<Node>;

}  // namespace abe
