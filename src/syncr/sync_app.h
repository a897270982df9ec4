// Synchronous-algorithm interface shared by all synchronizers.
//
// A SyncApp is a round-based algorithm written for an ideal synchronous
// network: in every round each node sends at most one message per out-channel
// and receives everything its in-neighbours sent that round. The same app
// object can run on
//   * run_synchronous — the ideal lock-step executor (ground truth,
//                       syncr/sync_runner.h),
//   * AlphaSyncNode   — Awerbuch's α on an asynchronous/ABE network,
//   * BetaSyncNode    — Awerbuch's β (spanning-tree safety convergecast),
//   * AbdSyncNode     — the timeout-based synchronizer that is only sound
//                       when a sure delay bound exists (ABD networks).
// The network ones share SyncNode and SynchronizerDriver (below).
// Comparing per-node outputs with run_synchronous is how the tests certify
// a synchronizer, and how bench E6 demonstrates where the ABD one breaks.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/message.h"
#include "net/node.h"
#include "runtime/runtime.h"
#include "sim/rng.h"
#include "util/check.h"

namespace abe {

// What a SyncApp sees of its node: local shape plus a private random stream.
struct SyncAppContext {
  std::size_t node_index = 0;
  std::size_t out_degree = 0;
  std::size_t in_degree = 0;
  std::size_t network_size = 0;
  Rng* rng = nullptr;
};

struct SyncOutgoing {
  std::size_t out_index = 0;
  PayloadPtr payload;
};

struct SyncIncoming {
  std::size_t in_index = 0;
  std::shared_ptr<const Payload> payload;
};

class SyncApp {
 public:
  virtual ~SyncApp() = default;

  // Messages for round 1 (sent before anything is received).
  virtual std::vector<SyncOutgoing> on_init(SyncAppContext& ctx) = 0;

  // Handles the complete round-`round` inbox; returns messages for
  // round + 1. Called once per round in increasing round order.
  virtual std::vector<SyncOutgoing> on_round(
      SyncAppContext& ctx, std::uint64_t round,
      const std::vector<SyncIncoming>& inbox) = 0;

  // Scalar result of the computation (e.g. BFS distance); compared across
  // executors by tests/benches.
  virtual std::int64_t output() const = 0;

  virtual std::string state_string() const { return ""; }
};

using SyncAppFactory =
    std::function<std::unique_ptr<SyncApp>(std::size_t node_index)>;

// Wire format used by the network-based synchronizers: an app payload (or an
// explicit "nothing this round" marker) tagged with its round number.
class SyncEnvelope final : public Payload {
 public:
  // Marker envelope (no app payload) for `round`.
  explicit SyncEnvelope(std::uint64_t round) : round_(round) {}
  // Envelope carrying an app payload for `round`.
  SyncEnvelope(std::uint64_t round, PayloadPtr app);

  std::uint64_t round() const { return round_; }
  bool has_app() const { return app_ != nullptr; }
  // Shared because the receiving synchronizer buffers envelopes per round.
  std::shared_ptr<const Payload> app() const { return app_; }

  std::unique_ptr<Payload> clone() const override;
  std::string describe() const override;

 private:
  std::uint64_t round_;
  std::shared_ptr<const Payload> app_;
};

// What every network synchronizer keeps around the app it drives: the app,
// its round horizon, its progress and the app's view of the node. All
// nodes share the same horizon, so no peer blocks on a finished one.
class SyncNode : public Node {
 public:
  bool is_terminated() const override { return finished_; }

  const SyncApp& app() const { return *app_; }
  // Envelopes that arrived after their round had closed and were dropped
  // from it. Only a timeout-driven synchronizer (ABD) can have any.
  virtual std::uint64_t late_messages() const { return 0; }

 protected:
  // Runs `max_rounds` app rounds, then stops emitting.
  SyncNode(std::unique_ptr<SyncApp> app, std::uint64_t max_rounds);

  // Binds the app to this node; returns its round-1 messages.
  std::vector<SyncOutgoing> start_app(Context& ctx);
  // Hands the complete round-`round` inbox to the app and returns its
  // messages for round + 1. After the last round it sets finished_ (the
  // returned messages are then never sent).
  std::vector<SyncOutgoing> run_round(std::uint64_t round,
                                      const std::vector<SyncIncoming>& inbox);
  // Sends each app message in a round-`round` envelope; returns the count.
  static std::size_t send_app_messages(Context& ctx, std::uint64_t round,
                                       std::vector<SyncOutgoing> msgs);

  bool finished_ = false;

 private:
  std::unique_ptr<SyncApp> app_;
  std::uint64_t max_rounds_;
  std::uint64_t rounds_completed_ = 0;
  SyncAppContext app_ctx_{};
};

// One synchronizer trial's measurements.
struct SynchronizerResult {
  std::uint64_t rounds = 0;
  // Every message sent: app envelopes plus the synchronizer's own (α's
  // null markers, β's acks and tree control; ABD sends none).
  std::uint64_t messages_total = 0;
  double messages_per_round = 0.0;
  SimTime completion_time = 0.0;
  // Per node, after the final round; compare with run_synchronous.
  std::vector<std::int64_t> outputs;
  std::uint64_t late_messages = 0;  // summed SyncNode::late_messages()
  bool completed = false;
};

// The driver the three synchronizers share (runtime/runtime.h): done once
// every node finished its `rounds` rounds (terminated flags, race-free on
// every runtime), and the full SynchronizerResult into `*sink`. The
// synchronizer itself has no terminal safety predicate: the outcome's
// safety_ok is completion, and what the outputs must satisfy is the app's
// business. Subclasses build the node and adjust the config. One driver
// per trial.
class SynchronizerDriver : public AlgorithmDriver {
 public:
  SynchronizerDriver(SyncAppFactory factory, std::uint64_t rounds,
                     SynchronizerResult* sink)
      : factory_(std::move(factory)), rounds_(rounds), sink_(sink) {
    ABE_CHECK(sink_ != nullptr);
  }

  bool done(const Runtime& rt) override;
  TrialOutcome extract(Runtime& rt, bool completed) override;

 protected:
  SyncAppFactory factory_;
  std::uint64_t rounds_;

 private:
  SynchronizerResult* sink_;
  std::size_t finished_nodes_ = 0;  // nodes 0..finished_nodes_-1 are done
};

}  // namespace abe
