// Fixed-size worker pool that executes the reactor's message handlers.
//
// The reactor thread must never block, so every decoded frame is handed to a
// pool task. Handlers are short: ping, query, metrics and cancel finish in
// microseconds, and a solve handler decodes, journals and admits its job,
// then returns. The long tasks are a server's running jobs, and its
// admission queue runs at most `workers` of them at once, so the pool is
// sized once at start and never grows. A task submitted while every thread
// is busy waits in the FIFO. Thread lifetime has exactly two states,
// started and joined-in-stop, which keeps shutdown races impossible by
// construction (every thread is joined exactly once by stop()).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ns::net {

class TaskPool {
 public:
  TaskPool() = default;
  ~TaskPool() { stop(); }

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Spawn `threads` workers (at least one).
  void start(int threads);

  /// Queue a task. Returns false (task dropped) before start() or after
  /// stop() has begun — callers treat that exactly like a connection that
  /// closed mid-dispatch.
  bool submit(std::function<void()> task);

  /// Drain nothing: pending tasks are dropped, running tasks finish, all
  /// threads are joined. Idempotent.
  void stop();

  std::size_t thread_count() const;

 private:
  void worker_loop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
  bool running_ = false;  // between start() and stop()
};

}  // namespace ns::net
