// Asynchronous WAL commit engines — the durability half of the pipelined
// group commit.
//
// PR 6 made every committed batch an immutable encoded WalFrame, but the
// apply thread still paid the syscall tail itself: one buffered write(2)
// plus (at the sync durability levels) an fdatasync/fsync per drain cycle,
// serializing apply, ack, and shipping behind the disk. A WalCommitEngine
// takes that tail off the apply thread: the WriteAheadLog hands it the
// cycle's already-encoded bytes (submit() — a move, no copy) and the engine
// completes them in the background, advancing a *durable-LSN watermark* and
// firing a completion callback the service uses to ack tickets and fire
// commit listeners. Cycle N+1 applies while cycle N's flush is in flight.
//
//   apply thread ──submit(bytes, upto_lsn)──▶ engine queue ──▶ disk
//        │                                        │
//        ▼                                        ▼  (completion thread)
//     applied (CPLDS mutated, frames shipped)   durable(upto_lsn) callback
//                                               → watermark, acks, listeners
//
// Two engines, selected at runtime (resolve_wal_engine):
//
//   kIoUring   a raw io_uring submission ring (no liburing dependency):
//              each commit is an IORING_OP_WRITEV SQE, linked
//              (IOSQE_IO_LINK) to an IORING_OP_FSYNC SQE at the sync
//              durability levels (IORING_FSYNC_DATASYNC for kFdatasync), so
//              the kernel orders write-then-sync per commit with zero
//              engine-side threads on the submission path. A reaper thread
//              blocks in io_uring_enter(GETEVENTS) and advances the
//              watermark over the *contiguous completed prefix* of commits
//              in submission order — independent chains may complete out of
//              order, and a watermark that skipped a hole would ack an op
//              whose bytes could vanish in a crash.
//   kFlusher   the portable fallback: a flusher thread swaps out the queue
//              of pending commits (double buffer), pwrite(2)s them, syncs
//              once per swap — so backlogged commits batch into one sync,
//              group commit compounding under load — and advances the
//              watermark.
//
// Both engines open their own non-O_APPEND fd on the log and write at
// explicit tracked offsets (Linux ignores pwrite offsets on O_APPEND fds,
// which would silently reorder concurrent tails), so they never interleave
// with the WriteAheadLog's synchronous fd: the log routes *all* appends
// through the engine while one is active, and stops it (draining) around
// reset()/compact()/close().
//
// Completion-callback ordering contract: the engine invokes the durable
// callback *before* it publishes the new watermark or wakes wait_durable
// waiters, so "wait_durable(L) returned" implies "every completion callback
// for LSNs <= L has finished" — the service relies on this to make
// shutdown's final drain leave no ack in flight. Errors (write/sync
// failure) surface once through the callback (error != nullptr) and then
// from every subsequent submit()/wait_durable()/wait_idle() as
// std::runtime_error; the watermark never advances past the failure.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace cpkcore::obs {
class HealthComponent;
}  // namespace cpkcore::obs

namespace cpkcore::service {

/// What a group commit pushes the cycle's records to (see wal.hpp header).
enum class WalDurability { kOsCache, kFdatasync, kFsync };

/// Requested commit engine (WalOptions / ServiceConfig knob).
enum class WalEngine {
  kAuto,     ///< probe: io_uring when the kernel has it, else flusher
  kSync,     ///< no engine: flush() on the caller (the pre-PR-7 path)
  kFlusher,  ///< flusher-thread double buffer
  kIoUring,  ///< io_uring ring (falls back to flusher if unavailable)
};

/// Resolved engine actually running (probe + env override applied).
enum class WalEngineKind { kSync, kFlusher, kIoUring };

/// "sync" / "flusher" / "io_uring" — stats labels, CI probe logging.
[[nodiscard]] const char* wal_engine_name(WalEngineKind kind);

/// Whether this kernel can run the io_uring engine (one io_uring_setup
/// probe, cached). Always false off Linux or without <linux/io_uring.h>.
[[nodiscard]] bool io_uring_engine_available();

/// Maps a requested engine to the one that will run. kAuto honors the
/// CPKC_WAL_ENGINE environment override ("sync" | "flusher" | "io_uring" |
/// "auto"; empty = unset; anything else throws std::invalid_argument) —
/// only kAuto, so a test or tool that pins an engine explicitly stays
/// pinned while CI forces, e.g., the flusher fallback fleet-wide.
/// kIoUring (requested or resolved) degrades to kFlusher when the probe
/// fails.
[[nodiscard]] WalEngineKind resolve_wal_engine(WalEngine requested);

/// Flush-pipeline counters and gauges (ServiceStats / bench surface them).
struct WalFlushStats {
  std::uint64_t flushes = 0;        ///< completed engine flushes (syncs)
  std::uint64_t flushed_bytes = 0;  ///< bytes made durable by those flushes
  std::size_t flush_depth = 0;      ///< gauge: commits submitted, not done
  std::size_t inflight_bytes = 0;   ///< gauge: bytes of those commits
};

/// Abstract async commit engine. Thread-safe: submit() is called by the
/// apply thread, wait_*/stats by any thread, the callback fires on the
/// engine's completion thread. stop() drains in-flight work and joins.
class WalCommitEngine {
 public:
  /// (new durable watermark, nullptr) on success; (last good watermark,
  /// &message) once on failure. Runs on the completion thread; see the
  /// ordering contract in the file header.
  using DurableFn =
      std::function<void(std::uint64_t durable_lsn, const std::string* error)>;

  virtual ~WalCommitEngine() = default;

  /// Replaces the completion callback (call before the first submit).
  virtual void set_durable_callback(DurableFn fn) = 0;

  /// Queues one commit: `bytes` (moved — the encode-once buffer, never
  /// copied again) covering every record up to and including `upto_lsn`.
  /// Submissions must carry non-decreasing upto_lsn. May block briefly when
  /// the engine's in-flight window is full (natural backpressure toward
  /// the apply thread). Throws std::runtime_error after a failure.
  virtual void submit(std::vector<unsigned char> bytes,
                      std::uint64_t upto_lsn) = 0;

  /// Blocks until the watermark reaches `lsn` (callbacks for it included —
  /// see header). Throws std::runtime_error if the engine failed first.
  virtual void wait_durable(std::uint64_t lsn) = 0;

  /// Blocks until nothing is in flight. Throws on engine failure.
  virtual void wait_idle() = 0;

  [[nodiscard]] virtual std::uint64_t durable_lsn() const = 0;
  [[nodiscard]] virtual WalFlushStats stats() const = 0;
  [[nodiscard]] virtual WalEngineKind kind() const = 0;

  /// Drains in-flight commits, joins the engine thread(s), closes the
  /// engine fd. With swallow_errors (destructor/crash paths) a failure is
  /// dropped; otherwise it rethrows. Idempotent.
  virtual void stop(bool swallow_errors) = 0;
};

/// Builds a running engine appending to `path` from byte `start_offset`,
/// with the watermark seeded at `start_lsn`. `kind` must be kFlusher or
/// kIoUring (kSync means "no engine"; callers just don't build one). Throws
/// std::runtime_error when the file can't be opened or the ring can't be
/// set up (callers may then fall back to kFlusher or kSync).
///
/// `heartbeat` (optional) is the engine thread's health-plane handle: the
/// flusher marks idle around its queue wait and beats per swap; the
/// io_uring reaper marks idle only when *nothing is in flight* before
/// blocking in GETEVENTS — blocked with work in flight is exactly the
/// hung-disk stall the watchdog exists to flag. The caller owns
/// registration/unregistration; the engine only stamps it.
std::unique_ptr<WalCommitEngine> make_wal_commit_engine(
    WalEngineKind kind, const std::string& path, WalDurability durability,
    std::uint64_t start_offset, std::uint64_t start_lsn,
    obs::HealthComponent* heartbeat = nullptr);

}  // namespace cpkcore::service
