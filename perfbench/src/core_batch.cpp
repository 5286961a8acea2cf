// core_batch: the paper's §7 setup. A social graph is loaded with one
// insert_batch; one update thread then applies 50k-edge insertion batches of
// held-out edges and 50k-edge deletion batches of uniformly random present
// edges through the CPLDS while one reader thread issues uniformly random
// read_coreness calls the whole time. Each deletion batch is followed by an
// untimed restore batch that re-inserts the edges it deleted, so that many
// deletion batches, spread over the whole phase, fit in a graph of fixed
// size. The service and WAL are bypassed.
#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "core/cplds.hpp"
#include "concurrent/reclaim.hpp"
#include "graph/generators.hpp"
#include "opstream.hpp"
#include "parallel/scheduler.hpp"
#include "plds/plds.hpp"
#include "rotation.hpp"
#include "spans.hpp"
#include "util/timer.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using cpkcore::CPLDS;
using cpkcore::LDSParams;
using cpkcore::now_ns;
using cpkcore::Timer;

constexpr vertex_t kVertices = 200'000;
constexpr std::size_t kEdgesPerVertex = 5;
constexpr std::size_t kCommunities = 30;
constexpr vertex_t kCommunitySize = 40;
constexpr double kCommunityDensity = 0.9;
constexpr std::size_t kBatchEdges = 50'000;
/// Deletion batches (each with its restore) after every insertion batch.
constexpr std::size_t kDeletesPerInsert = 8;
/// Every kSampleStride-th read is checked against its batch window.
constexpr std::uint64_t kSampleStride = 64;
/// In the traced run every kTraceStride-th read gets a span and a timed
/// reclaimer pin.
constexpr std::uint64_t kTraceStride = 1024;
/// Read percentiles are interquartile means over windows of this width
/// holding at least kMinWindowReads reads (p99.99 then has 10 reads beyond
/// it in every counted window).
constexpr std::uint64_t kWindowNs = 1'000'000'000;
constexpr std::uint64_t kMinWindowReads = 100'000;
/// The reader checks whether its CPU rotation is due every this many reads.
constexpr std::uint64_t kRotationCheckStride = 256;

/// kRestore re-inserts the edges the preceding kDelete batch removed; it
/// is harness work and stays out of the end-to-end update metrics.
enum class BatchKind { kInsert, kDelete, kRestore };

const char* span_name(BatchKind kind) {
  switch (kind) {
    case BatchKind::kInsert: return "insert_batch";
    case BatchKind::kDelete: return "delete_batch";
    case BatchKind::kRestore: return "restore_batch";
  }
  return "";
}

struct BatchRecord {
  BatchKind kind = BatchKind::kInsert;
  std::vector<Edge> applied;
  double seconds = 0;
};

/// Applied edges and summed batch time of one kind.
struct KindTotals {
  std::size_t batches = 0;
  std::size_t edges = 0;
  double seconds = 0;
};

struct ReaderOutput {
  explicit ReaderOutput(std::uint64_t start_ns)
      : latency(start_ns, kWindowNs) {}
  WindowedNs latency;
  std::vector<cpkcore::harness::ReadSample> samples;
  cpkcore::LatencyHistogram pins;  ///< reclaimer pin/unpin pairs (traced run)
  double checksum = 0;  ///< sum of estimates, so no read is optimized away
  bool pinned = true;   ///< every CPU rotation succeeded
};

void reader_loop(const CPLDS& ds, std::uint64_t seed,
                 const std::atomic<bool>& stop, ReaderOutput& out) {
  cpkcore::Xoshiro256 rng(seed);
  CpuRotation rotation(0, kWindowNs / 4);
  const spans::Scope root("reader");
  cpkcore::concurrent::Reclaimer& reclaimer = ds.reclaimer();
  const bool traced = spans::enabled();
  std::uint64_t i = 0;
  for (; !stop.load(std::memory_order_relaxed); ++i) {
    const auto v = static_cast<vertex_t>(rng.next_below(kVertices));
    if (i % kRotationCheckStride == 0) out.pinned &= rotation.tick(now_ns());
    if (i % kSampleStride == 0) {
      const std::uint64_t before = ds.batch_number();
      const cpkcore::level_t level = ds.read_level(v);
      if (ds.batch_number() == before) {
        out.samples.push_back({v, level, before});
      }
      continue;
    }
    if (traced && i % kTraceStride == 1) {
      {
        const spans::Scope pin("reclaimer_pin", root.id(), i);
        const std::uint64_t t0 = now_ns();
        { const auto guard = reclaimer.read_guard(); }
        out.pins.record(now_ns() - t0);
      }
      const spans::Scope read("read_coreness", root.id(), i);
      const std::uint64_t t0 = now_ns();
      out.checksum += ds.read_coreness(v);
      out.latency.record(t0, now_ns() - t0);
      continue;
    }
    const std::uint64_t t0 = now_ns();
    out.checksum += ds.read_coreness(v);
    out.latency.record(t0, now_ns() - t0);
  }
}

std::vector<cpkcore::level_t> all_levels(const CPLDS& ds) {
  std::vector<cpkcore::level_t> levels(ds.num_vertices());
  for (vertex_t v = 0; v < ds.num_vertices(); ++v) levels[v] = ds.read_level(v);
  return levels;
}

}  // namespace

RunResult run_core_batch(const RunConfig& cfg) {
  RunResult r;
  const LDSParams params = LDSParams::create(kVertices, kDelta, kLambda,
                                             kLevelsPerGroupCap);
  // --seconds sets the amount of work: one 50k-edge insertion batch per two
  // seconds (1.5-2 s each on a 4-thread x86 VM), each followed by
  // kDeletesPerInsert deletion batches, so deletions carry most of the
  // updates and their batches are spread over the whole phase.
  const std::size_t insert_batches =
      std::max<std::size_t>(1, static_cast<std::size_t>(cfg.seconds) / 2);
  const std::size_t delete_batches = kDeletesPerInsert * insert_batches;
  const std::size_t held_out = insert_batches * kBatchEdges;

  // ---- set-up (repeated; setup_s is the median, the last one is kept) ----
  std::vector<double> setup_s;
  std::unique_ptr<CPLDS> ds;
  std::vector<Edge> base;
  std::vector<Edge> held;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    ds.reset();
    const Timer timer;
    std::vector<Edge> edges =
        cpkcore::gen::social(kVertices, kEdgesPerVertex, kCommunities,
                             kCommunitySize, kCommunityDensity,
                             sub_seed(cfg.seed, 1));
    shuffle_edges(edges, sub_seed(cfg.seed, 2));
    if (edges.size() <= held_out + kBatchEdges) {
      throw std::runtime_error("core_batch: graph too small for the run");
    }
    held.assign(edges.end() - static_cast<std::ptrdiff_t>(held_out),
                edges.end());
    edges.resize(edges.size() - held_out);
    ds = std::make_unique<CPLDS>(kVertices, params);
    ds->insert_batch(edges);
    setup_s.push_back(timer.elapsed_s());
    base = std::move(edges);
  }
  r.e2e.setup_s = quantile(setup_s, 0.5);
  EdgeModel model(base);
  cpkcore::Xoshiro256 delete_rng(sub_seed(cfg.seed, 3));

  // ---- measured update phase with a concurrent reader ----
  auto& sched = cpkcore::Scheduler::instance();
  const auto sched0 = sched.counters();
  const auto reclaim0 = ds->reclaimer().stats();
  const std::uint64_t views0 = ds->view_version();
  const std::uint64_t window_base = ds->batch_number();
  std::vector<std::vector<cpkcore::level_t>> boundaries{all_levels(*ds)};
  std::vector<BatchRecord> batches;
  std::size_t moved = 0;

  std::atomic<bool> stop{false};
  const Timer phase;
  ReaderOutput reader(now_ns());
  std::thread reader_thread(
      [&] { reader_loop(*ds, sub_seed(cfg.seed, 4), stop, reader); });
  try {
    const spans::Scope root("update_phase");
    auto apply = [&](BatchKind kind, std::vector<Edge> batch) {
      BatchRecord rec;
      rec.kind = kind;
      {
        const spans::Scope span(span_name(kind), root.id(), batches.size());
        const Timer t;
        rec.applied = kind == BatchKind::kDelete
                          ? ds->delete_batch(std::move(batch))
                          : ds->insert_batch(std::move(batch));
        rec.seconds = t.elapsed_s();
      }
      moved += ds->plds().moved_vertices().size();
      if (kind != BatchKind::kDelete) {
        for (const Edge& e : rec.applied) model.insert(e);
      }
      boundaries.push_back(all_levels(*ds));
      batches.push_back(std::move(rec));
      return batches.back().applied;
    };
    for (std::size_t b = 0; b < insert_batches; ++b) {
      const auto first =
          held.begin() + static_cast<std::ptrdiff_t>(b * kBatchEdges);
      apply(BatchKind::kInsert,
            {first, first + static_cast<std::ptrdiff_t>(kBatchEdges)});
      for (std::size_t d = 0; d < kDeletesPerInsert; ++d) {
        apply(BatchKind::kRestore,
              apply(BatchKind::kDelete,
                    take_random_edges(model, kBatchEdges, delete_rng)));
      }
    }
  } catch (...) {
    stop.store(true);
    reader_thread.join();
    throw;
  }
  const double phase_s = phase.elapsed_s();
  stop.store(true);
  reader_thread.join();
  const auto sched1 = sched.counters();
  const auto reclaim1 = ds->reclaimer().stats();
  const std::uint64_t views1 = ds->view_version();

  // ---- metrics ----
  KindTotals ins, del, all;
  auto add = [](KindTotals& t, const BatchRecord& b) {
    ++t.batches;
    t.edges += b.applied.size();
    t.seconds += b.seconds;
  };
  for (const BatchRecord& b : batches) {
    add(all, b);
    if (b.kind == BatchKind::kInsert) add(ins, b);
    if (b.kind == BatchKind::kDelete) add(del, b);
  }
  const auto updates = static_cast<double>(ins.edges + del.edges);
  r.attempted = (insert_batches + delete_batches) * kBatchEdges;
  r.failed = r.attempted - (ins.edges + del.edges);
  r.e2e.update_ops_s = updates / (ins.seconds + del.seconds);
  // An update's latency is the duration of the batch that carries it.
  std::vector<double> per_edge_ms;
  per_edge_ms.reserve(ins.edges + del.edges);
  for (const BatchRecord& b : batches) {
    if (b.kind == BatchKind::kRestore) continue;
    per_edge_ms.insert(per_edge_ms.end(), b.applied.size(), b.seconds * 1e3);
  }
  r.e2e.update_p50_ms = quantile(per_edge_ms, 0.50);
  r.details.add("update_p99_ms", quantile(std::move(per_edge_ms), 0.99), "ms");
  r.e2e.read_p50_ns = reader.latency.window_iqm(0.50, kMinWindowReads);
  r.e2e.read_p99_ns = reader.latency.window_iqm(0.99, kMinWindowReads);
  r.details.add("read_p9999_ns",
                reader.latency.window_iqm(0.9999, kMinWindowReads), "ns");

  Layers& L = r.layers;
  // Counts that cover the whole phase (views, moves, spawns) are taken per
  // batch or per applied edge of every batch, restores included.
  const auto all_batches = static_cast<double>(all.batches);
  const auto all_edges = static_cast<double>(all.edges);
  L.core_batch_mean_ms = (ins.seconds + del.seconds) * 1e3 /
                         static_cast<double>(ins.batches + del.batches);
  L.core_insert_edges_s = static_cast<double>(ins.edges) / ins.seconds;
  L.core_delete_edges_s = static_cast<double>(del.edges) / del.seconds;
  L.core_views_per_batch =
      static_cast<double>(views1 - views0) / all_batches;
  L.core_edges_per_batch = all_edges / all_batches;
  L.core_apply_busy_frac = all.seconds / phase_s;
  L.plds_moved_per_edge = static_cast<double>(moved) / all_edges;
  const auto spawns = static_cast<double>(sched1.spawns - sched0.spawns);
  const auto steals = static_cast<double>(sched1.steals - sched0.steals);
  L.parallel_spawns_per_update = spawns / all_edges;
  L.parallel_steals_per_update = steals / all_edges;
  L.parallel_steal_ratio = spawns > 0 ? steals / spawns : 0;
  L.concurrent_pin_ns = static_cast<double>(reader.pins.p50_ns());
  const auto retired = static_cast<double>(reclaim1.retired - reclaim0.retired);
  L.concurrent_freed_per_retired =
      retired > 0 ? static_cast<double>(reclaim1.freed - reclaim0.freed) /
                        retired
                  : 0;
  L.concurrent_lagging_readers =
      static_cast<double>(reclaim1.lagging_readers - reclaim0.lagging_readers);

  // ---- correctness gates at quiescence ----
  const std::vector<Edge> model_edges = model.sorted();
  r.gates.add(gate_edge_count(ds->num_edges(), model_edges.size()));
  r.gates.add(gate_plds_valid(ds->plds()));
  r.gates.add(gate_read_windows(reader.samples, boundaries, window_base));
  std::vector<double> estimates(kVertices);
  for (vertex_t v = 0; v < kVertices; ++v) estimates[v] = ds->read_coreness(v);
  const CorenessError err =
      coreness_error(estimates, exact_coreness_of(kVertices, model_edges));
  r.e2e.coreness_err_mean = err.mean;
  r.e2e.coreness_err_max = err.max;
  r.gates.add(gate_error_bound(err, error_bound(params)));

  // ---- recovery: rebuild the structure from a snapshot of its state ----
  r.e2e.recovery_s = snapshot_recovery_s(
      *ds, (cfg.work_dir / "core_batch.snap").string(), model_edges, r.gates);

  r.provenance.emplace_back("reclaimer",
                            json_string(std::string(ds->reclaimer().name())));
  r.provenance.emplace_back("wal_engine", json_string("none"));
  r.provenance.emplace_back("reader_cpu_rotation",
                            reader.pinned ? "true" : "false");
  r.details.add("graph_vertices", kVertices, "count");
  r.details.add("graph_edges_loaded", static_cast<double>(base.size()),
                "count");
  r.details.add("insert_batches", static_cast<double>(insert_batches), "count");
  r.details.add("delete_batches", static_cast<double>(delete_batches), "count");
  r.details.add("restore_edges_s",
                static_cast<double>(all.edges - ins.edges - del.edges) /
                    (all.seconds - ins.seconds - del.seconds),
                "edges/s");
  r.details.add("insert_edges_s", L.core_insert_edges_s, "edges/s");
  r.details.add("delete_edges_s", L.core_delete_edges_s, "edges/s");
  r.details.add("update_samples", updates, "count");
  r.details.add("read_samples", static_cast<double>(reader.latency.count()),
                "count");
  r.details.add("window_checked_reads",
                static_cast<double>(reader.samples.size()), "count");
  r.details.add("update_phase_s", phase_s, "s");

  // ---- traced run only: the same batches on a standalone PLDS ----
  if (cfg.trace) {
    const std::vector<cpkcore::level_t> final_levels = boundaries.back();
    boundaries.clear();
    ds.reset();
    cpkcore::PLDS plds(kVertices, params);
    plds.insert_batch(base);
    double plds_ins = 0, plds_del = 0;
    {
      const spans::Scope root("plds_replay");
      for (std::size_t b = 0; b < batches.size(); ++b) {
        const spans::Scope span("plds_batch", root.id(), b);
        const BatchKind kind = batches[b].kind;
        const Timer t;
        if (kind == BatchKind::kDelete) {
          plds.delete_batch(batches[b].applied);
        } else {
          plds.insert_batch(batches[b].applied);
        }
        const double seconds = t.elapsed_s();
        if (kind == BatchKind::kInsert) plds_ins += seconds;
        if (kind == BatchKind::kDelete) plds_del += seconds;
      }
    }
    std::vector<cpkcore::level_t> plds_levels(kVertices);
    for (vertex_t v = 0; v < kVertices; ++v) plds_levels[v] = plds.level(v);
    r.gates.add(gate_levels_equal(plds_levels, final_levels));
    L.plds_insert_edges_s = static_cast<double>(ins.edges) / plds_ins;
    L.plds_delete_edges_s = static_cast<double>(del.edges) / plds_del;
    L.core_overhead_frac =
        1.0 - (plds_ins + plds_del) / (ins.seconds + del.seconds);
  }
  return r;
}

}  // namespace perfbench
