// A bounded multi-producer / multi-consumer FIFO with non-blocking
// admission.
//
// Producers call TryPush, which refuses immediately when the queue is at
// capacity — that refusal IS the backpressure signal: the serving daemon
// turns it into an UNAVAILABLE response instead of queueing unbounded
// work.  Consumers block in Pop until an item or
// Close() arrives; after Close the remaining items are still drained in
// order, then Pop returns nullopt forever.  All operations are
// thread-safe.
#ifndef EKTELO_UTIL_BOUNDED_QUEUE_H_
#define EKTELO_UTIL_BOUNDED_QUEUE_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace ektelo {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Enqueue without blocking; false when the queue is full or closed.
  bool TryPush(T item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
    }
    cv_.notify_one();
    return true;
  }

  /// Blocks until an item is available or the queue is closed and empty.
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  /// Rejects future pushes and wakes every blocked Pop; already queued
  /// items are still delivered.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }
  std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace ektelo

#endif  // EKTELO_UTIL_BOUNDED_QUEUE_H_
