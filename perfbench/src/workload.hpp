// The benchmark's workloads and the metrics every one of them reports.
//
// Every workload fills the same two metric lists (BENCHMARK.json requires
// each listed metric on each workload). A per-layer count or ratio of a
// layer a workload bypasses reads 0; perfbench/README.md gives each
// metric's definition per workload and which end-to-end metric it should
// move.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "core/cplds.hpp"
#include "gates.hpp"
#include "stats.hpp"

namespace perfbench {

/// LDS parameters shared by every workload: the paper's delta and lambda
/// with the "-opt 20" levels-per-group cap.
inline constexpr double kDelta = 0.2;
inline constexpr double kLambda = 9.0;
inline constexpr int kLevelsPerGroupCap = 20;

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetupRepeats = 3;
/// Snapshot loads per run; recovery_s is their median.
inline constexpr int kSnapshotLoads = 5;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::filesystem::path work_dir;  ///< scratch space, emptied per run
};

struct EndToEnd {
  double setup_s = 0;
  double update_ops_s = 0;
  double update_p50_ms = 0;
  double read_p50_ns = 0;
  double read_p99_ns = 0;
  double coreness_err_mean = 0;
  double coreness_err_max = 0;
  double recovery_s = 0;

  [[nodiscard]] MetricSet metrics() const;
};

struct Layers {
  // core (CPLDS)
  double core_batch_mean_ms = 0;
  double core_insert_edges_s = 0;
  double core_delete_edges_s = 0;
  double core_overhead_frac = 0;
  double core_views_per_batch = 0;
  double core_edges_per_batch = 0;
  double core_apply_busy_frac = 0;
  // plds
  double plds_insert_edges_s = 0;
  double plds_delete_edges_s = 0;
  double plds_moved_per_edge = 0;
  // parallel (scheduler)
  double parallel_spawns_per_update = 0;
  double parallel_steals_per_update = 0;
  double parallel_steal_ratio = 0;
  // concurrent (reclaimer)
  double concurrent_pin_ns = 0;
  double concurrent_freed_per_retired = 0;
  double concurrent_lagging_readers = 0;
  // service (ingest + coalescer)
  double service_submit_busy_frac = 0;
  double service_ops_per_cycle = 0;
  double service_useful_frac = 0;
  // wal
  double wal_flushes_per_op = 0;
  double wal_bytes_per_op = 0;
  double wal_replay_batches = 0;

  [[nodiscard]] MetricSet metrics() const;
};

struct RunResult {
  GateLog gates;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  EndToEnd e2e;
  Layers layers;
  MetricSet details;  ///< workload-specific figures, sample counts
  /// Provenance fields the workload resolved (key, JSON value).
  std::vector<std::pair<std::string, std::string>> provenance;
};

RunResult run_core_batch(const RunConfig& cfg);
RunResult run_serve_paced(const RunConfig& cfg);

/// Saves a snapshot of `ds` to `path`, then loads it kSnapshotLoads times;
/// returns the median load time. The first load's edge set must equal
/// `model_edges` (sorted), or `gates` records a failure.
double snapshot_recovery_s(const cpkcore::CPLDS& ds, const std::string& path,
                           const std::vector<Edge>& model_edges,
                           GateLog& gates);

/// Distinct deterministic sub-seeds of the run seed.
[[nodiscard]] std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream);

}  // namespace perfbench
