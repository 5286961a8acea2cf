// Epoch-based memory reclamation (EBR) for the lock-free read path.
//
// The CPLDS publishes an immutable LevelView per committed batch (pointer
// swap); readers traverse the latest view without locks. Retired views
// cannot be freed while a reader may still hold them — that is this
// class's job, in the shape of pop_setbench's recordmgr reduced to the one
// scheme the workloads need.
//
//   reader thread ──pin()──▶ per-thread slot (epoch announce / nesting)
//        │ view_.load(seq_cst), traverse            ▲ scanned by
//        └─unpin()                                  │
//   apply thread ──retire(old view)──▶ limbo list ──┴─▶ advance + free
//
// pin announces the global epoch with a seq_cst store; retire tags the
// object with the current epoch; the epoch advances only when every pinned
// slot has caught up, and objects two epochs behind are freed. Readers pay
// one seq_cst store per pin — wait-free, bounded reclamation lag. A reader
// that stays pinned blocks reclamation; that shows up in `lagging_readers`
// and as a rate-limited "reclaimer_stall" event in the journal.
//
// Threading contract: any thread may pin/unpin (slots are acquired on first
// pin and released at thread exit); retire and try_reclaim may be called
// from any thread (serialized internally) but are typically the structure's
// single apply thread. Destroying a reclaimer requires that no thread is
// pinned and no further pins will occur; remaining limbo objects are freed.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string_view>
#include <utility>
#include <vector>

#include "util/cacheline.hpp"

namespace cpkcore::concurrent {

struct ThreadSlots;

class Reclaimer {
 public:
  /// Deletes/frees one retired object. Must be self-contained: it may run
  /// on the retiring thread (during a later retire/try_reclaim) or in the
  /// reclaimer's destructor, after the retiring structure is gone.
  using Deleter = void (*)(void*);

  /// Monotone counters (plus the limbo gauge), snapshot via stats().
  struct Stats {
    std::uint64_t epoch_advances = 0;  ///< global epoch increments
    std::uint64_t retired = 0;         ///< objects handed to retire()
    std::uint64_t freed = 0;           ///< retired objects actually freed
    /// Reclamation attempts blocked by a reader pinned at an older epoch.
    std::uint64_t lagging_readers = 0;
    std::size_t limbo = 0;  ///< gauge: retired objects not yet freed
  };

  /// RAII pin: the reclaimer guarantees that no object retired after the
  /// pin is freed before the unpin. Nestable per thread; movable.
  class Guard {
   public:
    Guard() = default;
    explicit Guard(Reclaimer* r) : r_(r) {
      if (r_ != nullptr) r_->pin();
    }
    ~Guard() {
      if (r_ != nullptr) r_->unpin();
    }
    Guard(Guard&& other) noexcept : r_(std::exchange(other.r_, nullptr)) {}
    Guard& operator=(Guard&& other) noexcept {
      if (this != &other) {
        if (r_ != nullptr) r_->unpin();
        r_ = std::exchange(other.r_, nullptr);
      }
      return *this;
    }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    Reclaimer* r_ = nullptr;
  };

  Reclaimer();
  ~Reclaimer();
  Reclaimer(const Reclaimer&) = delete;
  Reclaimer& operator=(const Reclaimer&) = delete;

  /// Protects a read-side critical section.
  [[nodiscard]] Guard read_guard() { return Guard(this); }

  /// Hands one unreachable (already un-published) object to the reclaimer;
  /// `deleter(p)` runs once it is provably unreachable by every reader.
  /// May reclaim older objects inline.
  void retire(void* p, Deleter deleter);

  /// One explicit advance-and-free attempt (tests, idle housekeeping).
  /// Returns the number of objects freed.
  std::size_t try_reclaim();

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::string_view name() const { return "epoch"; }

 private:
  friend struct ThreadSlots;

  /// Per-thread reclamation state, one slot per (thread, reclaimer) pair.
  /// `word` is the only cross-thread field: the announced epoch, or kIdle
  /// outside a critical section — the global epoch starts at 1 so the
  /// sentinel can never collide with a real epoch.
  static constexpr std::uint64_t kIdle = 0;
  struct alignas(kCacheLine) Slot {
    std::atomic<bool> claimed{false};
    std::atomic<std::uint64_t> word{kIdle};
    std::uint32_t nesting = 0;  ///< owner thread only
  };
  static constexpr std::size_t kMaxSlots = 256;

  /// One retired object awaiting its safe epoch.
  struct RetiredObject {
    void* ptr = nullptr;
    Deleter deleter = nullptr;
    std::uint64_t epoch = 0;
  };

  void pin();
  void unpin();
  Slot& my_slot();
  Slot& claim_slot();
  void release_slot(std::uint32_t idx);
  std::size_t reclaim_locked();

  const std::uint64_t id_;
  Slot slots_[kMaxSlots];
  std::atomic<std::uint64_t> global_{1};
  mutable std::mutex limbo_mu_;
  std::vector<RetiredObject> limbo_;  // under limbo_mu_
  std::atomic<std::uint64_t> advances_{0};
  std::atomic<std::uint64_t> retired_{0};
  std::atomic<std::uint64_t> freed_{0};
  std::atomic<std::uint64_t> lagging_{0};
};

/// Process-wide default: what a CPLDS uses when its owner wires no
/// instance of its own. Never destroyed — bare CPLDS instances (tests,
/// examples) may retire into it up to the end of the process.
[[nodiscard]] Reclaimer& global_reclaimer();

}  // namespace cpkcore::concurrent
