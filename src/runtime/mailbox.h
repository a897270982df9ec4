// Blocking per-node mailbox for the wall-clock runtimes (runtime/wall_net.h).
//
// Items carry a due time (monotonic clock): channel delay is realised by
// enqueueing with a future due time; pop() blocks until the earliest item is
// due, a new earlier item arrives, or the mailbox is closed. One consumer
// (the node's own thread), many producers (peers' threads).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/message.h"
#include "util/thread_annotations.h"

namespace abe {

struct MailItem {
  enum class Kind : std::uint8_t { kMessage, kTimer, kStop };
  using Clock = std::chrono::steady_clock;

  Kind kind = Kind::kMessage;
  Clock::time_point due{};
  std::uint64_t sequence = 0;  // tie-break for deterministic ordering
  // Causality (obs/causal.h): trace id of the event behind this item — the
  // SEND record for kMessage, the scheduling handler for kTimer — stamped
  // onto the DELIVER/TIMER/TICK record when the item is popped.
  std::int64_t cause = -1;
  // kMessage:
  std::size_t in_index = 0;
  std::size_t edge = 0;  // global channel id — the DELIVER record's arg,
                         // matching the simulator so edge attribution agrees
  std::shared_ptr<const Payload> payload;
  double delay_sim = 0.0;  // sampled channel delay (sim units), for
                           // critical-path attribution
  // kTimer:
  std::int64_t timer_id = 0;
  std::uint64_t tag = 0;
};

class Mailbox {
 public:
  Mailbox() = default;
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  // Enqueues an item (producer side). Safe from any thread.
  void push(MailItem item) EXCLUDES(mutex_);

  // Blocks until the earliest item is due, then pops it. Returns false when
  // the mailbox was closed and drained of due work (consumer should exit).
  bool pop(MailItem& out) EXCLUDES(mutex_);

  // Wakes the consumer and makes pop() return false once the queue empties.
  void close() EXCLUDES(mutex_);

  // Removes the queued kTimer item with this id and returns true; returns
  // false when no such timer is queued (it already fired, is firing now,
  // or was cancelled before) — the answer Scheduler::cancel gives.
  bool cancel_timer(std::int64_t timer_id) EXCLUDES(mutex_);

  // Largest queue depth ever observed after a push — the mailbox-backlog
  // gauge of the obs metrics snapshot. Updated under the mutex the push
  // already holds, so tracking it costs one compare.
  std::size_t high_water() const EXCLUDES(mutex_);

 private:
  struct Later {
    bool operator()(const MailItem& a, const MailItem& b) const {
      if (a.due != b.due) return a.due > b.due;
      return a.sequence > b.sequence;
    }
  };

  mutable AnnotatedMutex mutex_;
  AnnotatedCondVar cv_;
  // Binary heap under Later (front = earliest due); a plain vector rather
  // than std::priority_queue so cancel_timer can find and remove a timer.
  std::vector<MailItem> queue_ GUARDED_BY(mutex_);
  bool closed_ GUARDED_BY(mutex_) = false;
  std::uint64_t next_sequence_ GUARDED_BY(mutex_) = 0;
  std::size_t high_water_ GUARDED_BY(mutex_) = 0;
};

}  // namespace abe
