#include "net/task_pool.hpp"

#include <algorithm>
#include <utility>

namespace ns::net {

void TaskPool::start(int threads) {
  std::lock_guard lock(mu_);
  if (running_) return;
  running_ = true;
  for (int i = 0; i < std::max(threads, 1); ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

bool TaskPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mu_);
    if (!running_) return false;
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
  return true;
}

void TaskPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mu_);
      cv_.wait(lock, [this] { return !running_ || !queue_.empty(); });
      if (!running_) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void TaskPool::stop() {
  std::vector<std::thread> joinable;
  {
    std::lock_guard lock(mu_);
    if (!running_) return;
    running_ = false;
    queue_.clear();
    joinable.swap(threads_);
  }
  cv_.notify_all();
  for (auto& t : joinable) t.join();
}

std::size_t TaskPool::thread_count() const {
  std::lock_guard lock(mu_);
  return threads_.size();
}

}  // namespace ns::net
