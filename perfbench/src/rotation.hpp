// Reader threads move to the next CPU at a fixed period, so that within
// every measurement window each reader has run on every CPU. On a shared
// host the CPUs run at different speeds (their host cores carry different
// loads), and a reader left on one CPU would report that CPU's speed.
#pragma once

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cstdint>
#include <thread>

namespace perfbench {

class CpuRotation {
 public:
  /// Starts on CPU `first` (mod the CPU count) and moves every `period_ns`.
  CpuRotation(unsigned first, std::uint64_t period_ns)
      : cpus_(std::max(1u, std::thread::hardware_concurrency())),
        cpu_(first % cpus_),
        period_ns_(period_ns) {}

  /// Call often with the current time; moves at most once per period.
  /// Returns false if the move failed (the thread then stays unpinned).
  bool tick(std::uint64_t now_ns) {
    if (now_ns < next_ns_) return true;
    next_ns_ = now_ns + period_ns_;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu_, &set);
    cpu_ = (cpu_ + 1) % cpus_;
    return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
  }

 private:
  unsigned cpus_;
  unsigned cpu_;
  std::uint64_t period_ns_;
  std::uint64_t next_ns_ = 0;
};

}  // namespace perfbench
