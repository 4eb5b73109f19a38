// Thread counts of this process, for tests that assert a path starts no
// threads (or a bounded number of them).
#pragma once

#include <cstddef>
#include <filesystem>

#include "common/clock.hpp"

namespace ns {

/// Threads of this process right now.
inline std::size_t thread_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

/// The thread count once it has held still for 300 ms (or after 5 s).
inline std::size_t settled_thread_count() {
  std::size_t last = thread_count();
  int still = 0;
  const Deadline deadline(5.0);
  while (still < 6 && !deadline.expired()) {
    sleep_seconds(0.05);
    const std::size_t now = thread_count();
    still = now == last ? still + 1 : 0;
    last = now;
  }
  return last;
}

}  // namespace ns
