// 4-ary min-heap backend: the scheduler's original priority structure,
// extracted behavior-preserving from the pre-equeue Scheduler.
//
// O(log n) push/pop/erase with a per-slot heap-position index so cancel
// removes its entry directly — no lazy-deletion tombstones accumulate under
// schedule/cancel churn. The 4-ary layout trades a slightly worse
// comparison count for a much better cache profile than the binary heap,
// and the pop path walks the min-child chain to a leaf before bubbling up
// (see sift_down_from_root) — cheapest at the small-to-medium pending sizes
// where this backend wins.
//
// Methods are defined inline in this header on purpose: the heap is the
// default backend for every small simulation (elections at n <= a few
// thousand), and the scheduler's devirtualized fast path (Scheduler's
// fast_heap_) relies on these bodies being visible so pop/push/cancel
// inline into the run loops exactly as they did before the subsystem
// existed. The elections-per-second trajectory is the regression test.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/equeue/event_queue.h"
#include "util/check.h"

namespace abe {

class HeapQueue final : public EventQueue {
 public:
  HeapQueue() {
    heap_.reserve(kInitialPendingCapacity);
    pos_.reserve(kInitialPendingCapacity);
  }

  void push(const QueueEntry& entry) override {
    const auto pos = static_cast<std::uint32_t>(heap_.size());
    heap_.push_back(entry);
    pos_of(entry.slot) = pos;
    place_up(entry, pos);
  }

  const QueueEntry* peek_min() override {
    return heap_.empty() ? nullptr : &heap_[0];
  }

  QueueEntry pop_min() override {
    ABE_CHECK(!heap_.empty());
    // pos_[top.slot] is left stale: erase_slot is only called for live
    // slots (interface precondition), so nobody reads it again before the
    // slot's next push overwrites it.
    const QueueEntry top = heap_[0];
    const auto last = static_cast<std::uint32_t>(heap_.size()) - 1;
    if (last != 0) {
      heap_[0] = heap_[last];
      pos_[heap_[0].slot] = 0;
      heap_.pop_back();
      sift_down_from_root();
    } else {
      heap_.pop_back();
    }
    return top;
  }

  bool erase_slot(std::uint32_t slot) override {
    if (slot >= pos_.size() || pos_[slot] == kNullPos) return false;
    heap_erase(pos_[slot]);
    pos_[slot] = kNullPos;
    return true;
  }

  void drain_into(std::vector<QueueEntry>& out) override {
    out.insert(out.end(), heap_.begin(), heap_.end());
    heap_.clear();  // positions go stale; the next push of a slot overwrites
  }

  std::size_t size() const override { return heap_.size(); }
  const char* name() const override { return "heap"; }

 private:
  static constexpr std::uint32_t kNullPos = 0xffffffffu;

  std::uint32_t& pos_of(std::uint32_t slot) {
    if (slot >= pos_.size()) pos_.resize(slot + 1, kNullPos);
    return pos_[slot];
  }

  // Places `e` at heap position `pos`, bubbling it rootward as needed —
  // the single implementation behind sift_up and the pop path.
  void place_up(QueueEntry e, std::uint32_t pos) {
    while (pos > 0) {
      const std::uint32_t parent = (pos - 1) >> 2;
      if (!entry_earlier(e, heap_[parent])) break;
      heap_[pos] = heap_[parent];
      pos_[heap_[pos].slot] = pos;
      pos = parent;
    }
    heap_[pos] = e;
    pos_[e.slot] = pos;
  }

  void sift_down(std::uint32_t pos) {
    const QueueEntry e = heap_[pos];
    const auto size = static_cast<std::uint32_t>(heap_.size());
    for (;;) {
      const std::uint32_t first = pos * 4 + 1;
      if (first >= size) break;
      std::uint32_t best = first;
      const std::uint32_t end = first + 4 < size ? first + 4 : size;
      for (std::uint32_t c = first + 1; c < end; ++c) {
        if (entry_earlier(heap_[c], heap_[best])) best = c;
      }
      if (!entry_earlier(heap_[best], e)) break;
      heap_[pos] = heap_[best];
      pos_[heap_[pos].slot] = pos;
      pos = best;
    }
    heap_[pos] = e;
    pos_[e.slot] = pos;
  }

  // Leafward sift specialised for the pop path: the root hole is walked
  // down the min-child chain to a leaf (3 comparisons per level, none
  // against the moved entry), then the displaced last entry bubbles up
  // from there — beats the textbook sift_down, which pays a fourth
  // comparison per level just to discover "keep sinking".
  void sift_down_from_root() {
    const QueueEntry e = heap_[0];
    const auto size = static_cast<std::uint32_t>(heap_.size());
    std::uint32_t pos = 0;
    for (;;) {
      const std::uint32_t first = pos * 4 + 1;
      if (first >= size) break;
      std::uint32_t best = first;
      const std::uint32_t end = first + 4 < size ? first + 4 : size;
      for (std::uint32_t c = first + 1; c < end; ++c) {
        if (entry_earlier(heap_[c], heap_[best])) best = c;
      }
      heap_[pos] = heap_[best];
      pos_[heap_[pos].slot] = pos;
      pos = best;
    }
    // e lands at the leaf hole; bubble it back up to its true position
    // (place_up directly — writing e into the hole just to re-read it
    // would cost a measurable fraction of the pop on this path).
    place_up(e, pos);
  }

  void heap_erase(std::uint32_t pos) {
    const auto last = static_cast<std::uint32_t>(heap_.size()) - 1;
    if (pos != last) {
      heap_[pos] = heap_[last];
      pos_[heap_[pos].slot] = pos;
      heap_.pop_back();
      // The moved-in entry may violate the heap property either way.
      if (pos > 0 && entry_earlier(heap_[pos], heap_[(pos - 1) >> 2])) {
        place_up(heap_[pos], pos);
      } else {
        sift_down(pos);
      }
    } else {
      heap_.pop_back();
    }
  }

  std::vector<QueueEntry> heap_;
  std::vector<std::uint32_t> pos_;  // slot -> heap position (kNullPos: none)
};

}  // namespace abe
