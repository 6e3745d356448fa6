#pragma once

/// Blocking multi-producer/multi-consumer mailbox.
///
/// The queue under the in-process message passing: `ThreadPool` task
/// queues and the per-rank inboxes of the in-process and TCP byte
/// transports.  A mailbox can be closed; receivers
/// then drain remaining messages and get `std::nullopt`.

#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace aedbmls::par {

template <typename T>
class Mailbox {
 public:
  Mailbox() = default;
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Enqueues a message.  Returns false if the mailbox is closed.
  bool send(T message) {
    {
      std::lock_guard lock(mutex_);
      if (closed_) return false;
      queue_.push_back(std::move(message));
    }
    cv_.notify_one();
    return true;
  }

  /// Blocks until a message is available or the mailbox is closed and empty.
  std::optional<T> recv() {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [this] { return !queue_.empty() || closed_; });
    if (queue_.empty()) return std::nullopt;
    T out = std::move(queue_.front());
    queue_.pop_front();
    return out;
  }

  /// Non-blocking receive.
  std::optional<T> try_recv() {
    std::lock_guard lock(mutex_);
    if (queue_.empty()) return std::nullopt;
    T out = std::move(queue_.front());
    queue_.pop_front();
    return out;
  }

  /// Closes the mailbox: senders fail, receivers drain then see nullopt.
  void close() {
    {
      std::lock_guard lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    std::lock_guard lock(mutex_);
    return closed_;
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock(mutex_);
    return queue_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<T> queue_;
  bool closed_ = false;
};

}  // namespace aedbmls::par
