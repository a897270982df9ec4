// Timeout-based ABD synchronizer (after Tel, Korach & Zaks, IEEE/ACM ToN
// 1994: "Synchronizing ABD networks").
//
// On an ABD network a sure bound Δ on the message delay is known, so rounds
// can be driven purely by local clocks: node starts round r at local time
// (r−1)·P and closes it at r·P. With ideal clocks and P > Δ every round-r
// message arrives inside round r, no acknowledgement or null message is ever
// needed — ZERO synchronization overhead, far below Theorem 1's n-per-round
// bound. That is legal for ABD because ABD networks are a strictly smaller
// class than ABE/asynchronous ones.
//
// On an ABE network no such Δ exists: whatever period P = c·δ is chosen, a
// message overshoots its round with positive probability (e.g. e^{-c} for
// exponential delays), and the synchronizer silently corrupts the simulated
// synchronous execution. This module *detects and counts* those violations
// (late envelopes, dropped from their round) — bench E6 sweeps c and the
// delay law to chart the failure probability the paper's Theorem 1 warns
// about. Clock drift (Definition 1(2)) breaks it too: local round windows
// slide apart; the bench includes that row as well. make_abd_sync_driver
// runs it on any Runtime; callers compare its outputs with
// run_synchronous (syncr/sync_runner.h) to see the corruption.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "net/node.h"
#include "runtime/runtime.h"
#include "syncr/sync_app.h"

namespace abe {

class AbdSyncNode final : public SyncNode {
 public:
  // `period_local` is P in local-clock units.
  AbdSyncNode(std::unique_ptr<SyncApp> app, std::uint64_t max_rounds,
              double period_local);

  void on_start(Context& ctx) override;
  void on_message(Context& ctx, std::size_t in_index,
                  const Payload& payload) override;
  void on_timer(Context& ctx, TimerId id, std::uint64_t tag) override;

  std::string state_string() const override;
  std::uint64_t late_messages() const override { return late_; }

 private:
  double period_local_;
  std::uint64_t closed_rounds_ = 0;  // rounds whose window has ended
  std::uint64_t late_ = 0;
  std::map<std::uint64_t, std::vector<SyncIncoming>> inbox_;
};

// The app under the ABD synchronizer for `rounds` rounds, as a
// SynchronizerDriver (syncr/sync_app.h). configure() sets the period
// P = period_multiplier × config.delay's mean and the deadline to all round
// windows at the slowest clock rate (config.clock_bounds.s_low) plus
// slack: rounds are timer-driven, so every run completes. One driver per
// trial.
std::unique_ptr<AlgorithmDriver> make_abd_sync_driver(
    SyncAppFactory factory, std::uint64_t rounds, double period_multiplier,
    SynchronizerResult* sink);

}  // namespace abe
