#include "runtime/mailbox.h"

#include <algorithm>

namespace abe {

void Mailbox::push(MailItem item) {
  {
    MutexLock lock(mutex_);
    item.sequence = next_sequence_++;
    queue_.push_back(std::move(item));
    std::push_heap(queue_.begin(), queue_.end(), Later{});
    high_water_ = std::max(high_water_, queue_.size());
  }
  cv_.notify_one();
}

bool Mailbox::pop(MailItem& out) {
  MutexLock lock(mutex_);
  for (;;) {
    if (queue_.empty()) {
      if (closed_) return false;
      cv_.wait(mutex_);
      continue;
    }
    const auto now = MailItem::Clock::now();
    if (queue_.front().due <= now) {
      std::pop_heap(queue_.begin(), queue_.end(), Later{});
      out = std::move(queue_.back());
      queue_.pop_back();
      return out.kind != MailItem::Kind::kStop;
    }
    // Copy the deadline out of the queue before waiting: wait_until takes
    // it by const reference and releases mutex_ for the duration of the
    // wait, so a reference into the heap's vector would dangle the moment
    // a concurrent push() reallocates it (TSan-caught use-after-free).
    const auto deadline = queue_.front().due;
    cv_.wait_until(mutex_, deadline);
  }
}

void Mailbox::close() {
  {
    MutexLock lock(mutex_);
    closed_ = true;
    MailItem stop;
    stop.kind = MailItem::Kind::kStop;
    stop.due = MailItem::Clock::now();
    stop.sequence = next_sequence_++;
    queue_.push_back(std::move(stop));
    std::push_heap(queue_.begin(), queue_.end(), Later{});
  }
  cv_.notify_all();
}

bool Mailbox::cancel_timer(std::int64_t timer_id) {
  MutexLock lock(mutex_);
  const auto it =
      std::find_if(queue_.begin(), queue_.end(), [&](const MailItem& item) {
        return item.kind == MailItem::Kind::kTimer &&
               item.timer_id == timer_id;
      });
  if (it == queue_.end()) return false;
  queue_.erase(it);
  std::make_heap(queue_.begin(), queue_.end(), Later{});
  return true;
}

std::size_t Mailbox::high_water() const {
  MutexLock lock(mutex_);
  return high_water_;
}

}  // namespace abe
