#include "service/wal_async.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/health.hpp"
#include "obs/trace.hpp"

#if defined(__linux__) && __has_include(<linux/io_uring.h>)
#include <linux/io_uring.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <sys/uio.h>
#define CPKC_HAS_IO_URING 1
#ifndef __NR_io_uring_setup
#define __NR_io_uring_setup 425
#endif
#ifndef __NR_io_uring_enter
#define __NR_io_uring_enter 426
#endif
#else
#define CPKC_HAS_IO_URING 0
#endif

namespace cpkcore::service {

namespace {

int open_engine_fd(const std::string& path) {
  // Deliberately NOT O_APPEND: both engines write at explicit tracked
  // offsets, and Linux ignores the pwrite offset on O_APPEND fds — every
  // write would silently land at the (racing) end of file instead.
  const int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
  if (fd < 0) {
    throw std::runtime_error("WAL engine: cannot open " + path);
  }
  return fd;
}

void pwrite_all(int fd, const unsigned char* data, std::size_t len,
                std::uint64_t offset, const std::string& path) {
  while (len > 0) {
    const ssize_t n =
        ::pwrite(fd, data, len, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("WAL engine write failed: " + path);
    }
    data += n;
    len -= static_cast<std::size_t>(n);
    offset += static_cast<std::uint64_t>(n);
  }
}

void sync_fd(int fd, WalDurability durability, const std::string& path) {
  if (durability == WalDurability::kFdatasync) {
    if (::fdatasync(fd) != 0) {
      throw std::runtime_error("WAL engine fdatasync failed: " + path);
    }
  } else if (durability == WalDurability::kFsync) {
    if (::fsync(fd) != 0) {
      throw std::runtime_error("WAL engine fsync failed: " + path);
    }
  }
}

// ------------------------------------------------------------- kFlusher

/// Flusher-thread double buffer: submit() appends to the pending queue; the
/// flusher swaps the whole queue out (the "other" buffer), pwrites every
/// commit, syncs ONCE for the swap, then fires the callback and advances
/// the watermark. Backlog therefore compounds into larger group commits:
/// the deeper the durability pipeline falls behind, the more commits each
/// sync covers.
class FlusherEngine final : public WalCommitEngine {
 public:
  FlusherEngine(const std::string& path, WalDurability durability,
                std::uint64_t start_offset, std::uint64_t start_lsn,
                obs::HealthComponent* heartbeat)
      : path_(path),
        durability_(durability),
        fd_(open_engine_fd(path)),
        heartbeat_(heartbeat),
        next_offset_(start_offset),
        durable_(start_lsn) {
    thread_ = std::thread([this] { run(); });
  }

  ~FlusherEngine() override { stop(/*swallow_errors=*/true); }

  void set_durable_callback(DurableFn fn) override {
    std::lock_guard lock(mu_);
    callback_ = std::move(fn);
  }

  void submit(std::vector<unsigned char> bytes,
              std::uint64_t upto_lsn) override {
    if (bytes.empty()) return;
    std::lock_guard lock(mu_);
    if (failed_) throw std::runtime_error(error_);
    if (stopping_) {
      throw std::runtime_error("WAL engine: submit after stop: " + path_);
    }
    Flight flight;
    flight.offset = next_offset_;
    flight.upto_lsn = upto_lsn;
    flight.bytes = std::move(bytes);
    next_offset_ += flight.bytes.size();
    inflight_bytes_ += flight.bytes.size();
    ++inflight_items_;
    queue_.push_back(std::move(flight));
    work_cv_.notify_one();
  }

  void wait_durable(std::uint64_t lsn) override {
    std::unique_lock lock(mu_);
    done_cv_.wait(lock, [&] {
      return failed_ || durable_ >= lsn || (exited_ && queue_.empty());
    });
    if (failed_) throw std::runtime_error(error_);
  }

  void wait_idle() override {
    std::unique_lock lock(mu_);
    done_cv_.wait(lock, [&] { return failed_ || inflight_items_ == 0; });
    if (failed_) throw std::runtime_error(error_);
  }

  [[nodiscard]] std::uint64_t durable_lsn() const override {
    std::lock_guard lock(mu_);
    return durable_;
  }

  [[nodiscard]] WalFlushStats stats() const override {
    std::lock_guard lock(mu_);
    WalFlushStats out;
    out.flushes = flushes_;
    out.flushed_bytes = flushed_bytes_;
    out.flush_depth = inflight_items_;
    out.inflight_bytes = inflight_bytes_;
    return out;
  }

  [[nodiscard]] WalEngineKind kind() const override {
    return WalEngineKind::kFlusher;
  }

  void stop(bool swallow_errors) override {
    {
      std::lock_guard lock(mu_);
      stopping_ = true;
      work_cv_.notify_all();
    }
    if (thread_.joinable()) thread_.join();
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
    if (!swallow_errors) {
      std::lock_guard lock(mu_);
      if (failed_) throw std::runtime_error(error_);
    }
  }

 private:
  struct Flight {
    std::uint64_t offset = 0;
    std::uint64_t upto_lsn = 0;
    std::vector<unsigned char> bytes;
  };

  void run() {
    CPKC_TRACE_THREAD_NAME("wal_flusher");
    for (;;) {
      std::deque<Flight> batch;
      {
        std::unique_lock lock(mu_);
        // Parked on an empty queue is healthy, however long it lasts;
        // stamped busy again the moment a swap starts.
        if (heartbeat_ != nullptr && queue_.empty()) heartbeat_->idle();
        work_cv_.wait(lock, [&] { return !queue_.empty() || stopping_; });
        if (queue_.empty()) break;  // stopping_, fully drained
        batch.swap(queue_);
      }
      if (heartbeat_ != nullptr) heartbeat_->busy();
      std::uint64_t bytes_written = 0;
      CPKC_TRACE_SPAN(flush_span, "wal_flush", batch.back().upto_lsn,
                      batch.size());
      try {
        for (const Flight& f : batch) {
          pwrite_all(fd_, f.bytes.data(), f.bytes.size(), f.offset, path_);
          bytes_written += f.bytes.size();
        }
        sync_fd(fd_, durability_, path_);
      } catch (const std::exception& e) {
        fail(e.what());
        return;
      }
      const std::uint64_t upto = batch.back().upto_lsn;
      if (heartbeat_ != nullptr) heartbeat_->beat();
      DurableFn cb;
      {
        std::lock_guard lock(mu_);
        cb = callback_;
      }
      // Callback BEFORE the watermark/cv publish (see header contract).
      if (cb) cb(upto, nullptr);
      {
        std::lock_guard lock(mu_);
        durable_ = std::max(durable_, upto);
        flushes_ += 1;
        flushed_bytes_ += bytes_written;
        inflight_items_ -= batch.size();
        inflight_bytes_ -= bytes_written;
        done_cv_.notify_all();
      }
    }
    std::lock_guard lock(mu_);
    exited_ = true;
    done_cv_.notify_all();
  }

  void fail(const std::string& what) {
    DurableFn cb;
    std::uint64_t durable = 0;
    {
      std::lock_guard lock(mu_);
      failed_ = true;
      exited_ = true;
      error_ = what;
      cb = callback_;
      durable = durable_;
      done_cv_.notify_all();
    }
    if (cb) cb(durable, &error_);
  }

  const std::string path_;
  const WalDurability durability_;
  int fd_ = -1;
  obs::HealthComponent* const heartbeat_;  ///< owned by the caller

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::deque<Flight> queue_;       // under mu_ (the "front" buffer)
  DurableFn callback_;             // under mu_
  std::uint64_t next_offset_ = 0;  // under mu_ (submitter side)
  std::uint64_t durable_ = 0;      // under mu_
  std::uint64_t flushes_ = 0;      // under mu_
  std::uint64_t flushed_bytes_ = 0;   // under mu_
  std::size_t inflight_items_ = 0;    // under mu_
  std::size_t inflight_bytes_ = 0;    // under mu_
  bool stopping_ = false;  // under mu_
  bool exited_ = false;    // under mu_
  bool failed_ = false;    // under mu_
  std::string error_;      // under mu_

  std::thread thread_;
};

// ------------------------------------------------------------- kIoUring

#if CPKC_HAS_IO_URING

int sys_io_uring_setup(unsigned entries, io_uring_params* p) {
  return static_cast<int>(::syscall(__NR_io_uring_setup, entries, p));
}

int sys_io_uring_enter(int ring_fd, unsigned to_submit, unsigned min_complete,
                       unsigned flags) {
  return static_cast<int>(::syscall(__NR_io_uring_enter, ring_fd, to_submit,
                                    min_complete, flags, nullptr, 0));
}

/// Raw io_uring engine: per commit one IORING_OP_WRITEV SQE (linked to an
/// IORING_OP_FSYNC SQE at the sync durability levels), submitted from the
/// caller under mu_; a reaper thread blocks in io_uring_enter(GETEVENTS)
/// and advances the watermark over the contiguous completed prefix of
/// commits in submission order — independent linked chains may complete out
/// of order, and a hole in the prefix means an *earlier* commit's bytes are
/// not yet durable, so later completions must not move the watermark.
class IoUringEngine final : public WalCommitEngine {
 public:
  IoUringEngine(const std::string& path, WalDurability durability,
                std::uint64_t start_offset, std::uint64_t start_lsn,
                obs::HealthComponent* heartbeat)
      : path_(path),
        durability_(durability),
        fd_(open_engine_fd(path)),
        heartbeat_(heartbeat),
        next_offset_(start_offset),
        durable_(start_lsn) {
    io_uring_params params;
    std::memset(&params, 0, sizeof params);
    ring_fd_ = sys_io_uring_setup(kRingEntries, &params);
    if (ring_fd_ < 0) {
      ::close(fd_);
      throw std::runtime_error("io_uring_setup failed for WAL: " + path);
    }
    sq_ring_bytes_ =
        params.sq_off.array + params.sq_entries * sizeof(unsigned);
    cq_ring_bytes_ =
        params.cq_off.cqes + params.cq_entries * sizeof(io_uring_cqe);
    const bool single_mmap =
        (params.features & IORING_FEAT_SINGLE_MMAP) != 0;
    if (single_mmap) {
      sq_ring_bytes_ = cq_ring_bytes_ = std::max(sq_ring_bytes_,
                                                 cq_ring_bytes_);
    }
    sq_ring_ = ::mmap(nullptr, sq_ring_bytes_, PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_POPULATE, ring_fd_,
                      IORING_OFF_SQ_RING);
    cq_ring_ = single_mmap
                   ? sq_ring_
                   : ::mmap(nullptr, cq_ring_bytes_, PROT_READ | PROT_WRITE,
                            MAP_SHARED | MAP_POPULATE, ring_fd_,
                            IORING_OFF_CQ_RING);
    sqes_bytes_ = params.sq_entries * sizeof(io_uring_sqe);
    sqes_mem_ = ::mmap(nullptr, sqes_bytes_, PROT_READ | PROT_WRITE,
                       MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_SQES);
    if (sq_ring_ == MAP_FAILED || cq_ring_ == MAP_FAILED ||
        sqes_mem_ == MAP_FAILED) {
      cleanup();
      throw std::runtime_error("io_uring mmap failed for WAL: " + path);
    }
    auto* sq = static_cast<unsigned char*>(sq_ring_);
    sq_head_ = reinterpret_cast<unsigned*>(sq + params.sq_off.head);
    sq_tail_ = reinterpret_cast<unsigned*>(sq + params.sq_off.tail);
    sq_mask_ = reinterpret_cast<unsigned*>(sq + params.sq_off.ring_mask);
    sq_array_ = reinterpret_cast<unsigned*>(sq + params.sq_off.array);
    auto* cq = static_cast<unsigned char*>(cq_ring_);
    cq_head_ = reinterpret_cast<unsigned*>(cq + params.cq_off.head);
    cq_tail_ = reinterpret_cast<unsigned*>(cq + params.cq_off.tail);
    cq_mask_ = reinterpret_cast<unsigned*>(cq + params.cq_off.ring_mask);
    cqes_ = reinterpret_cast<io_uring_cqe*>(cq + params.cq_off.cqes);
    sqes_ = static_cast<io_uring_sqe*>(sqes_mem_);
    reaper_ = std::thread([this] { reap_loop(); });
  }

  ~IoUringEngine() override { stop(/*swallow_errors=*/true); }

  void set_durable_callback(DurableFn fn) override {
    std::lock_guard lock(mu_);
    callback_ = std::move(fn);
  }

  void submit(std::vector<unsigned char> bytes,
              std::uint64_t upto_lsn) override {
    if (bytes.empty()) return;
    std::unique_lock lock(mu_);
    if (failed_) throw std::runtime_error(error_);
    if (stopping_) {
      throw std::runtime_error("WAL engine: submit after stop: " + path_);
    }
    // The in-flight cap is the natural backpressure toward the apply
    // thread, and it bounds SQE/CQE usage well below the ring size.
    space_cv_.wait(lock, [&] {
      return flights_.size() < kMaxInflight || failed_;
    });
    if (failed_) throw std::runtime_error(error_);
    const std::uint64_t id = next_flight_id_++;
    Flight& flight = flights_[id];
    flight.upto_lsn = upto_lsn;
    flight.bytes = std::move(bytes);
    flight.size = flight.bytes.size();
    flight.needs_sync = durability_ != WalDurability::kOsCache;
    flight.iov.iov_base = flight.bytes.data();
    flight.iov.iov_len = flight.bytes.size();
    const std::uint64_t offset = next_offset_;
    next_offset_ += flight.size;
    inflight_bytes_ += flight.size;

    unsigned tail = *sq_tail_;  // submitters own the SQ tail, under mu_
    const unsigned mask = *sq_mask_;
    {
      io_uring_sqe* sqe = &sqes_[tail & mask];
      std::memset(sqe, 0, sizeof *sqe);
      sqe->opcode = IORING_OP_WRITEV;
      sqe->fd = fd_;
      sqe->addr = reinterpret_cast<std::uint64_t>(&flight.iov);
      sqe->len = 1;
      sqe->off = offset;
      sqe->user_data = (id << 1) | 0;
      // Link write -> fsync: the kernel runs the fsync only after this
      // write succeeded (a failed write cancels it with -ECANCELED).
      if (flight.needs_sync) sqe->flags = IOSQE_IO_LINK;
      sq_array_[tail & mask] = tail & mask;
      ++tail;
    }
    if (flight.needs_sync) {
      io_uring_sqe* sqe = &sqes_[tail & mask];
      std::memset(sqe, 0, sizeof *sqe);
      sqe->opcode = IORING_OP_FSYNC;
      sqe->fd = fd_;
      sqe->fsync_flags =
          durability_ == WalDurability::kFdatasync ? IORING_FSYNC_DATASYNC
                                                   : 0;
      sqe->user_data = (id << 1) | 1;
      sq_array_[tail & mask] = tail & mask;
      ++tail;
    }
    enter_submit(tail);
  }

  void wait_durable(std::uint64_t lsn) override {
    std::unique_lock lock(mu_);
    done_cv_.wait(lock, [&] {
      return failed_ || durable_ >= lsn || (stopping_ && flights_.empty());
    });
    if (failed_) throw std::runtime_error(error_);
  }

  void wait_idle() override {
    std::unique_lock lock(mu_);
    done_cv_.wait(lock, [&] { return failed_ || flights_.empty(); });
    if (failed_) throw std::runtime_error(error_);
  }

  [[nodiscard]] std::uint64_t durable_lsn() const override {
    std::lock_guard lock(mu_);
    return durable_;
  }

  [[nodiscard]] WalFlushStats stats() const override {
    std::lock_guard lock(mu_);
    WalFlushStats out;
    out.flushes = flushes_;
    out.flushed_bytes = flushed_bytes_;
    out.flush_depth = flights_.size();
    out.inflight_bytes = inflight_bytes_;
    return out;
  }

  [[nodiscard]] WalEngineKind kind() const override {
    return WalEngineKind::kIoUring;
  }

  void stop(bool swallow_errors) override {
    {
      std::unique_lock lock(mu_);
      if (!stopping_) {
        stopping_ = true;
        // A NOP completion wakes the reaper out of GETEVENTS so it can
        // observe the stop flag even with nothing in flight.
        unsigned tail = *sq_tail_;
        const unsigned mask = *sq_mask_;
        io_uring_sqe* sqe = &sqes_[tail & mask];
        std::memset(sqe, 0, sizeof *sqe);
        sqe->opcode = IORING_OP_NOP;
        sqe->user_data = kNopUserData;
        sq_array_[tail & mask] = tail & mask;
        enter_submit(tail + 1);
      }
      space_cv_.notify_all();
    }
    if (reaper_.joinable()) reaper_.join();
    cleanup();
    if (!swallow_errors) {
      std::lock_guard lock(mu_);
      if (failed_) throw std::runtime_error(error_);
    }
  }

 private:
  static constexpr unsigned kRingEntries = 128;
  static constexpr std::size_t kMaxInflight = 16;
  static constexpr std::uint64_t kNopUserData = ~std::uint64_t{0};

  struct Flight {
    std::uint64_t upto_lsn = 0;
    std::size_t size = 0;
    std::vector<unsigned char> bytes;  // map node: address-stable for iov
    struct iovec iov {};
    bool needs_sync = false;
    bool write_done = false;
    bool sync_done = false;
    bool failed = false;
  };

  /// Publishes the SQ tail and submits the new SQEs. Caller holds mu_.
  void enter_submit(unsigned new_tail) {
    const unsigned old_tail = *sq_tail_;
    __atomic_store_n(sq_tail_, new_tail, __ATOMIC_RELEASE);
    unsigned to_submit = new_tail - old_tail;
    while (to_submit > 0) {
      const int rc = sys_io_uring_enter(ring_fd_, to_submit, 0, 0);
      if (rc < 0) {
        if (errno == EINTR) continue;
        failed_ = true;
        error_ = "io_uring_enter failed for WAL: " + path_;
        done_cv_.notify_all();
        space_cv_.notify_all();
        throw std::runtime_error(error_);
      }
      to_submit -= static_cast<unsigned>(rc);
    }
  }

  void reap_loop() {
    CPKC_TRACE_THREAD_NAME("wal_uring_reaper");
    for (;;) {
      {
        std::lock_guard lock(mu_);
        if (stopping_ && flights_.empty()) break;
        // Idle ONLY with nothing in flight: blocked in GETEVENTS while
        // commits are pending is a hung disk — the stall the watchdog
        // must see, not a parked thread it should excuse.
        if (heartbeat_ != nullptr) {
          if (flights_.empty()) {
            heartbeat_->idle();
          } else {
            heartbeat_->busy();
          }
        }
      }
      const int rc =
          sys_io_uring_enter(ring_fd_, 0, 1, IORING_ENTER_GETEVENTS);
      if (rc < 0 && errno != EINTR) {
        fail_from_reaper("io_uring_enter(GETEVENTS) failed for WAL: " +
                         path_);
        return;
      }
      drain_cqes();
    }
    std::lock_guard lock(mu_);
    done_cv_.notify_all();
  }

  void drain_cqes() {
    // Lift (user_data, res) pairs off the CQ ring first — the kernel owns
    // the tail (acquire pairs with its publish), we own the head.
    std::vector<std::pair<std::uint64_t, int>> events;
    unsigned head = __atomic_load_n(cq_head_, __ATOMIC_RELAXED);
    const unsigned tail = __atomic_load_n(cq_tail_, __ATOMIC_ACQUIRE);
    const unsigned mask = *cq_mask_;
    while (head != tail) {
      const io_uring_cqe& cqe = cqes_[head & mask];
      events.emplace_back(cqe.user_data, cqe.res);
      ++head;
    }
    __atomic_store_n(cq_head_, head, __ATOMIC_RELEASE);
    if (events.empty()) return;

    std::uint64_t new_durable = 0;
    bool advanced = false;
    std::string first_error;
    std::uint64_t bytes_done = 0;
    std::uint64_t flushes_done = 0;
    DurableFn cb;
    {
      std::lock_guard lock(mu_);
      for (const auto& [user_data, res] : events) {
        if (user_data == kNopUserData) continue;
        const auto it = flights_.find(user_data >> 1);
        if (it == flights_.end()) continue;
        Flight& f = it->second;
        if ((user_data & 1) == 0) {
          f.write_done = true;
          // A short write leaves a hole exactly like a failed one.
          if (res < 0 || static_cast<std::size_t>(res) != f.size) {
            f.failed = true;
          }
        } else {
          f.sync_done = true;
          // -ECANCELED: the linked write failed first; that flight is
          // already marked. Any other error is a sync failure of its own.
          if (res < 0 && res != -ECANCELED) f.failed = true;
          if (res == -ECANCELED) f.failed = true;
        }
      }
      // Advance the watermark over the contiguous completed prefix (the
      // map is keyed by flight id = submission order).
      while (!flights_.empty()) {
        auto it = flights_.begin();
        Flight& f = it->second;
        const bool complete =
            f.write_done && (!f.needs_sync || f.sync_done);
        if (!complete) break;
        if (f.failed && first_error.empty() && !failed_) {
          first_error = "io_uring WAL write/sync failed: " + path_;
        }
        if (!f.failed && !failed_ && first_error.empty()) {
          new_durable = f.upto_lsn;
          advanced = true;
          bytes_done += f.size;
          ++flushes_done;
        }
        inflight_bytes_ -= f.size;
        flights_.erase(it);
      }
      cb = callback_;
      space_cv_.notify_all();
    }
    // Callbacks outside mu_, success before failure, watermark published
    // after the callback returns (see the header contract).
    if (advanced) {
      CPKC_TRACE_INSTANT("wal_reap", new_durable, bytes_done);
    }
    if (advanced && cb) cb(new_durable, nullptr);
    {
      std::lock_guard lock(mu_);
      if (advanced) {
        durable_ = std::max(durable_, new_durable);
        flushes_ += flushes_done;
        flushed_bytes_ += bytes_done;
      }
      done_cv_.notify_all();
    }
    if (!first_error.empty()) fail_from_reaper(first_error);
  }

  void fail_from_reaper(const std::string& what) {
    DurableFn cb;
    std::uint64_t durable = 0;
    {
      std::lock_guard lock(mu_);
      if (failed_) return;
      failed_ = true;
      error_ = what;
      cb = callback_;
      durable = durable_;
      done_cv_.notify_all();
      space_cv_.notify_all();
    }
    if (cb) cb(durable, &error_);
  }

  void cleanup() {
    if (cleaned_) return;
    cleaned_ = true;
    if (sqes_mem_ != nullptr && sqes_mem_ != MAP_FAILED) {
      ::munmap(sqes_mem_, sqes_bytes_);
    }
    if (cq_ring_ != nullptr && cq_ring_ != MAP_FAILED &&
        cq_ring_ != sq_ring_) {
      ::munmap(cq_ring_, cq_ring_bytes_);
    }
    if (sq_ring_ != nullptr && sq_ring_ != MAP_FAILED) {
      ::munmap(sq_ring_, sq_ring_bytes_);
    }
    sq_ring_ = cq_ring_ = sqes_mem_ = nullptr;
    if (ring_fd_ >= 0) {
      ::close(ring_fd_);
      ring_fd_ = -1;
    }
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  const std::string path_;
  const WalDurability durability_;
  int fd_ = -1;
  obs::HealthComponent* const heartbeat_;  ///< owned by the caller
  int ring_fd_ = -1;

  void* sq_ring_ = nullptr;
  void* cq_ring_ = nullptr;
  void* sqes_mem_ = nullptr;
  std::size_t sq_ring_bytes_ = 0;
  std::size_t cq_ring_bytes_ = 0;
  std::size_t sqes_bytes_ = 0;
  unsigned* sq_head_ = nullptr;
  unsigned* sq_tail_ = nullptr;
  unsigned* sq_mask_ = nullptr;
  unsigned* sq_array_ = nullptr;
  unsigned* cq_head_ = nullptr;
  unsigned* cq_tail_ = nullptr;
  unsigned* cq_mask_ = nullptr;
  io_uring_cqe* cqes_ = nullptr;
  io_uring_sqe* sqes_ = nullptr;
  bool cleaned_ = false;

  mutable std::mutex mu_;
  std::condition_variable done_cv_;
  std::condition_variable space_cv_;
  std::map<std::uint64_t, Flight> flights_;  // under mu_, submission order
  std::uint64_t next_flight_id_ = 1;         // under mu_
  DurableFn callback_;                       // under mu_
  std::uint64_t next_offset_ = 0;            // under mu_
  std::uint64_t durable_ = 0;                // under mu_
  std::uint64_t flushes_ = 0;                // under mu_
  std::uint64_t flushed_bytes_ = 0;          // under mu_
  std::size_t inflight_bytes_ = 0;           // under mu_
  bool stopping_ = false;                    // under mu_
  bool failed_ = false;                      // under mu_
  std::string error_;                        // under mu_

  std::thread reaper_;
};

#endif  // CPKC_HAS_IO_URING

}  // namespace

const char* wal_engine_name(WalEngineKind kind) {
  switch (kind) {
    case WalEngineKind::kSync:
      return "sync";
    case WalEngineKind::kFlusher:
      return "flusher";
    case WalEngineKind::kIoUring:
      return "io_uring";
  }
  return "unknown";
}

bool io_uring_engine_available() {
#if CPKC_HAS_IO_URING
  static const bool available = [] {
    io_uring_params params;
    std::memset(&params, 0, sizeof params);
    const int fd = sys_io_uring_setup(4, &params);
    if (fd < 0) return false;  // ENOSYS / EPERM / seccomp: no ring here
    ::close(fd);
    return true;
  }();
  return available;
#else
  return false;
#endif
}

WalEngineKind resolve_wal_engine(WalEngine requested) {
  if (requested == WalEngine::kAuto) {
    // The env override applies ONLY to kAuto: a caller that pinned an
    // engine explicitly (tests, tools) stays pinned while CI forces, e.g.,
    // CPKC_WAL_ENGINE=flusher across every auto-configured service.
    // An empty value counts as unset (CI exports it empty on unpinned
    // legs); "auto" falls through to the probe, anything else is an error.
    if (const char* env = std::getenv("CPKC_WAL_ENGINE");
        env != nullptr && *env != '\0') {
      if (std::strcmp(env, "sync") == 0) return WalEngineKind::kSync;
      if (std::strcmp(env, "flusher") == 0) return WalEngineKind::kFlusher;
      if (std::strcmp(env, "io_uring") == 0 ||
          std::strcmp(env, "uring") == 0) {
        return io_uring_engine_available() ? WalEngineKind::kIoUring
                                           : WalEngineKind::kFlusher;
      }
      if (std::strcmp(env, "auto") != 0) {
        throw std::invalid_argument(
            std::string("unknown CPKC_WAL_ENGINE value: '") + env +
            "' (expected sync, flusher, io_uring, uring or auto)");
      }
    }
    return io_uring_engine_available() ? WalEngineKind::kIoUring
                                       : WalEngineKind::kFlusher;
  }
  switch (requested) {
    case WalEngine::kSync:
      return WalEngineKind::kSync;
    case WalEngine::kFlusher:
      return WalEngineKind::kFlusher;
    case WalEngine::kIoUring:
      return io_uring_engine_available() ? WalEngineKind::kIoUring
                                         : WalEngineKind::kFlusher;
    case WalEngine::kAuto:
      break;  // handled above
  }
  return WalEngineKind::kFlusher;
}

std::unique_ptr<WalCommitEngine> make_wal_commit_engine(
    WalEngineKind kind, const std::string& path, WalDurability durability,
    std::uint64_t start_offset, std::uint64_t start_lsn,
    obs::HealthComponent* heartbeat) {
  if (kind == WalEngineKind::kIoUring) {
#if CPKC_HAS_IO_URING
    return std::make_unique<IoUringEngine>(path, durability, start_offset,
                                           start_lsn, heartbeat);
#else
    kind = WalEngineKind::kFlusher;
#endif
  }
  if (kind == WalEngineKind::kFlusher) {
    return std::make_unique<FlusherEngine>(path, durability, start_offset,
                                           start_lsn, heartbeat);
  }
  throw std::logic_error(
      "make_wal_commit_engine: kSync means no engine; do not build one");
}

}  // namespace cpkcore::service
