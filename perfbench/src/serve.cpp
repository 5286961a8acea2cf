// serve_paced: a KCoreService warm-started from a snapshot of a social
// graph, WAL at fdatasync, default engine and reclaimer. One generator sends
// single-edge updates open loop at a fixed rate (80% insert a new random
// edge, 20% delete a random present edge); one collector wait()s on tickets
// in submission order; one closed-loop reader issues uniformly random
// kCplds reads. Two warm-ups are excluded from the metrics: a fixed number
// of ops submitted unpaced, then the first seconds of the paced load. The
// run finishes by restarting the service from the snapshot plus the WAL.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>

#include "core/snapshot.hpp"
#include "graph/generators.hpp"
#include "opstream.hpp"
#include "parallel/scheduler.hpp"
#include "rotation.hpp"
#include "service/kcore_service.hpp"
#include "spans.hpp"
#include "util/timer.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using cpkcore::now_ns;
using cpkcore::Timer;
using cpkcore::service::KCoreService;
using cpkcore::service::ServiceConfig;
using cpkcore::service::ServiceStats;
using cpkcore::service::Ticket;

constexpr vertex_t kVertices = 100'000;
constexpr std::size_t kEdgesPerVertex = 4;
constexpr std::size_t kCommunities = 20;
constexpr vertex_t kCommunitySize = 40;
constexpr double kCommunityDensity = 0.9;
constexpr double kInsertFrac = 0.8;
constexpr double kOpsPerSecond = 1000;
/// A service started from a bulk-loaded snapshot settles over its first
/// ~15k single-edge ops: per-op apply cost and scheduler spawns fall ~4x
/// and ack p50 from ~1.5 ms to ~0.4 ms. Ops submitted unpaced before the
/// paced phase take it there in a few seconds.
constexpr std::size_t kWarmupOps = 20'000;
constexpr double kWarmupSeconds = 2.0;
/// A run whose generator woke later than this at p99 did not offer the
/// intended load; it is invalid rather than slow.
constexpr double kMaxLateP99Us = 10'000;
constexpr std::uint64_t kTraceStride = 1024;
/// The reader checks whether its CPU rotation is due every this many reads.
constexpr std::uint64_t kRotationCheckStride = 256;
/// Percentiles and throughput are interquartile means over 1 s windows; a
/// window counts when it holds at least the given samples (p99.99 of reads
/// and p99 of acks then have 10 samples beyond them).
constexpr std::uint64_t kWindowNs = 1'000'000'000;
constexpr std::uint64_t kMinWindowReads = 100'000;
constexpr std::uint64_t kMinWindowOps = 1000;

ServiceConfig make_config(const fs::path& dir) {
  ServiceConfig c;
  c.num_vertices = kVertices;
  c.delta = kDelta;
  c.lambda = kLambda;
  c.levels_per_group_cap = kLevelsPerGroupCap;
  c.snapshot_path = (dir / "graph.snap").string();
  c.wal_path = (dir / "graph.wal").string();
  c.wal_durability = cpkcore::service::WalDurability::kFdatasync;
  return c;
}

/// One submitted op as the collector sees it.
struct Slot {
  Ticket ticket;
  std::uint64_t due_ns = 0;
  bool submitted = false;
};

/// Generator -> collector handoff of the count of published slots.
class Handoff {
 public:
  void publish(std::size_t count) {
    {
      const std::lock_guard lock(mu_);
      count_ = count;
    }
    cv_.notify_one();
  }
  void finish() {
    {
      const std::lock_guard lock(mu_);
      done_ = true;
    }
    cv_.notify_one();
  }
  /// Blocks until more than `seen` slots are published or the generator
  /// has finished; returns the published count (== seen once finished).
  std::size_t wait_beyond(std::size_t seen) {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return count_ > seen || done_; });
    return count_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t count_ = 0;  // under mu_
  bool done_ = false;      // under mu_
};

/// Closed-loop reader: uniformly random kCplds reads until `stop`.
struct Reader {
  Reader(std::uint64_t start_ns, std::uint64_t window_ns)
      : latency(start_ns, window_ns) {}
  WindowedNs latency;
  cpkcore::LatencyHistogram pins;  ///< reclaimer pin/unpin pairs (traced run)
  double checksum = 0;
  bool pinned = true;  ///< every CPU rotation succeeded
};

void read_until(const KCoreService& svc, std::uint64_t seed,
                const std::atomic<bool>& stop, const std::atomic<bool>& record,
                CpuRotation rotation, Reader& out) {
  cpkcore::Xoshiro256 rng(seed);
  const spans::Scope root("reader");
  auto& reclaimer = svc.cplds().reclaimer();
  const bool traced = spans::enabled();
  for (std::uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
    const auto v = static_cast<vertex_t>(rng.next_below(kVertices));
    const bool keep = record.load(std::memory_order_relaxed);
    if (i % kRotationCheckStride == 0) out.pinned &= rotation.tick(now_ns());
    if (traced && i % kTraceStride == 0) {
      {
        const spans::Scope pin("reclaimer_pin", root.id(), i);
        const std::uint64_t t0 = now_ns();
        { const auto guard = reclaimer.read_guard(); }
        if (keep) out.pins.record(now_ns() - t0);
      }
      const spans::Scope read("read_coreness", root.id(), i);
      const std::uint64_t t0 = now_ns();
      out.checksum += svc.read_coreness(v);
      if (keep) out.latency.record(t0, now_ns() - t0);
      continue;
    }
    const std::uint64_t t0 = now_ns();
    out.checksum += svc.read_coreness(v);
    if (keep) out.latency.record(t0, now_ns() - t0);
  }
}

std::uint64_t to_ns(std::chrono::steady_clock::time_point t) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch())
          .count());
}

}  // namespace

RunResult run_serve_paced(const RunConfig& cfg) {
  RunResult r;

  // ---- set-up: generate, write the snapshot, start the service ----
  std::vector<double> setup_s;
  std::unique_ptr<KCoreService> svc;
  std::vector<Edge> edges;
  fs::path dir;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    svc.reset();
    dir = cfg.work_dir / ("serve_paced-" + std::to_string(rep));
    fs::create_directories(dir);
    const Timer timer;
    edges = cpkcore::gen::social(kVertices, kEdgesPerVertex, kCommunities,
                                 kCommunitySize, kCommunityDensity,
                                 sub_seed(cfg.seed, 1));
    const ServiceConfig config = make_config(dir);
    cpkcore::save_snapshot(kVertices, edges, config.snapshot_path);
    svc = std::make_unique<KCoreService>(config);
    setup_s.push_back(timer.elapsed_s());
  }
  r.e2e.setup_s = quantile(setup_s, 0.5);
  const ServiceConfig config = svc->config();
  EdgeModel model(edges);
  OpStream ops(kVertices, sub_seed(cfg.seed, 2), kInsertFrac);

  // ---- warm-up ops, submitted unpaced ----
  {
    const Timer timer;
    std::vector<Ticket> tickets;
    tickets.reserve(kWarmupOps);
    for (std::size_t i = 0; i < kWarmupOps; ++i) {
      tickets.push_back(svc->submit(ops.next(model)));
    }
    std::uint64_t warm_acked = 0;
    for (const Ticket& t : tickets) warm_acked += svc->wait(t) ? 1 : 0;
    r.gates.add(gate_all_acked(kWarmupOps, warm_acked));
    r.details.add("warmup_seconds", timer.elapsed_s(), "s");
    // The service's latency histograms then cover only the paced load.
    svc->drain();
    svc->reset_stats();
  }

  // ---- measured phase ----
  const auto paced_warm_ops =
      static_cast<std::size_t>(kOpsPerSecond * kWarmupSeconds);
  std::vector<Slot> slots(
      static_cast<std::size_t>(kOpsPerSecond * (kWarmupSeconds + cfg.seconds)));
  Handoff handoff;
  std::atomic<bool> measuring{false};
  std::atomic<bool> stop_readers{false};
  std::uint64_t measure_start_ns = 0;
  std::vector<double> late_us;
  double submit_busy_s = 0;
  std::vector<double> submit_us;
  std::uint64_t submit_errors = 0;
  ServiceStats stats0;
  cpkcore::Scheduler::SchedulerCounters sched0;
  cpkcore::concurrent::Reclaimer::Stats reclaim0;
  std::uint64_t views0 = 0;
  auto& sched = cpkcore::Scheduler::instance();
  auto& reclaimer = svc->cplds().reclaimer();
  auto mark_measure_start = [&] {
    measure_start_ns = now_ns();
    stats0 = svc->stats();
    sched0 = sched.counters();
    reclaim0 = reclaimer.stats();
    views0 = svc->cplds().view_version();
    measuring.store(true);
  };

  const auto start =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(10);
  const std::uint64_t warm_end_ns =
      to_ns(start) + static_cast<std::uint64_t>(kWarmupSeconds * 1e9);
  auto generate = [&] {
    const spans::Scope root("generator");
    const Pacer pacer(start, kOpsPerSecond);
    for (std::size_t i = 0; i < slots.size(); ++i) {
      Slot& slot = slots[i];
      if (i == paced_warm_ops) mark_measure_start();
      const std::uint64_t late = pacer.wait_until_due(i);
      if (measuring.load()) late_us.push_back(static_cast<double>(late) / 1e3);
      slot.due_ns = to_ns(pacer.due(i));
      const cpkcore::Update op = ops.next(model);
      const std::uint64_t t0 = now_ns();
      try {
        const spans::Scope span("submit", root.id(), i);
        slot.ticket = svc->submit(op);
        slot.submitted = true;
      } catch (const std::exception&) {
        ++submit_errors;
      }
      const std::uint64_t t1 = now_ns();
      if (measuring.load()) {
        submit_busy_s += static_cast<double>(t1 - t0) * 1e-9;
        submit_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      }
      handoff.publish(i + 1);
    }
    handoff.finish();
  };

  std::vector<std::uint64_t> ack_ns;
  std::vector<bool> acked;
  auto collect = [&] {
    const spans::Scope root("collector");
    std::size_t i = 0;
    for (;;) {
      const std::size_t avail = handoff.wait_beyond(i);
      if (avail == i) return;
      for (; i < avail; ++i) {
        bool ok = false;
        if (slots[i].submitted) {
          try {
            const spans::Scope span("wait", root.id(), i);
            ok = svc->wait(slots[i].ticket);
          } catch (const std::exception&) {
            ok = false;
          }
        }
        ack_ns.push_back(now_ns());
        acked.push_back(ok);
      }
    }
  };

  Reader reader(warm_end_ns, kWindowNs);
  std::thread reader_thread([&] {
    read_until(*svc, sub_seed(cfg.seed, 10), stop_readers, measuring,
               CpuRotation(0, kWindowNs / 4), reader);
  });
  std::thread collector(collect);
  std::thread generator(generate);
  generator.join();
  collector.join();
  const std::uint64_t measure_end_ns = now_ns();
  const ServiceStats stats1 = svc->stats();
  const auto sched1 = sched.counters();
  stop_readers.store(true);
  reader_thread.join();
  const auto reclaim1 = reclaimer.stats();
  const std::uint64_t views1 = svc->cplds().view_version();

  // ---- end-to-end metrics over the measured ops ----
  // Ack latency per measured op (windowed by due time), and the acked rate:
  // measured acked ops / (first measured due time -> last measured ack).
  const std::size_t total = ack_ns.size();
  WindowedNs ack_latency(warm_end_ns, kWindowNs);
  std::uint64_t last_ack_ns = 0;
  for (std::size_t i = paced_warm_ops; i < total; ++i) {
    if (!acked[i]) continue;
    ack_latency.record(slots[i].due_ns, ack_ns[i] - slots[i].due_ns);
    last_ack_ns = std::max(last_ack_ns, ack_ns[i]);
  }
  r.attempted = total;
  r.failed = static_cast<std::uint64_t>(
      std::count(acked.begin(), acked.end(), false));
  if (ack_latency.count() == 0) {
    throw std::runtime_error("serve_paced: no measured ops");
  }
  r.e2e.update_ops_s =
      static_cast<double>(ack_latency.count()) * 1e9 /
      static_cast<double>(last_ack_ns - slots[paced_warm_ops].due_ns);

  // ---- per-layer figures over the measured window ----
  const double window_s =
      static_cast<double>(measure_end_ns - measure_start_ns) * 1e-9;
  const auto acked_ops =
      static_cast<double>(stats1.acked_ops - stats0.acked_ops);
  const auto batches = static_cast<double>(stats1.batches - stats0.batches);
  const auto cycles = static_cast<double>(stats1.cycles - stats0.cycles);
  const auto applied =
      static_cast<double>(stats1.applied_edges - stats0.applied_edges);
  const double apply_s = stats1.apply_seconds - stats0.apply_seconds;
  auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  Layers& L = r.layers;
  L.core_batch_mean_ms = per(apply_s * 1e3, batches);
  L.core_views_per_batch =
      per(static_cast<double>(views1 - views0), batches);
  L.core_edges_per_batch = per(applied, batches);
  L.core_apply_busy_frac = apply_s / window_s;
  const auto spawns = static_cast<double>(sched1.spawns - sched0.spawns);
  const auto steals = static_cast<double>(sched1.steals - sched0.steals);
  L.parallel_spawns_per_update = per(spawns, acked_ops);
  L.parallel_steals_per_update = per(steals, acked_ops);
  L.parallel_steal_ratio = per(steals, spawns);
  L.concurrent_freed_per_retired =
      per(static_cast<double>(reclaim1.freed - reclaim0.freed),
          static_cast<double>(reclaim1.retired - reclaim0.retired));
  L.concurrent_lagging_readers =
      static_cast<double>(reclaim1.lagging_readers - reclaim0.lagging_readers);
  L.service_submit_busy_frac = submit_busy_s / window_s;
  L.service_ops_per_cycle = per(acked_ops, cycles);
  L.service_useful_frac = per(applied, acked_ops);
  L.wal_flushes_per_op = per(
      static_cast<double>(stats1.wal_flushes - stats0.wal_flushes), acked_ops);
  L.wal_bytes_per_op =
      per(static_cast<double>(stats1.wal_flush_bytes - stats0.wal_flush_bytes),
          acked_ops);

  // ---- correctness gates at quiescence ----
  svc->drain();
  const std::vector<Edge> model_edges = model.sorted();
  r.gates.add(gate_all_acked(r.attempted, r.attempted - r.failed));
  r.gates.add(
      gate_edge_set(cpkcore::collect_snapshot_edges(svc->cplds()), model_edges));
  std::vector<double> estimates(kVertices);
  for (vertex_t v = 0; v < kVertices; ++v) estimates[v] = svc->read_coreness(v);
  const CorenessError err =
      coreness_error(estimates, exact_coreness_of(kVertices, model_edges));
  r.e2e.coreness_err_mean = err.mean;
  r.e2e.coreness_err_max = err.max;
  r.gates.add(gate_error_bound(err, error_bound(svc->cplds().params())));
  const double late_p99_us = quantile(late_us, 0.99);
  r.gates.add(gate_generator_late(late_p99_us, kMaxLateP99Us));
  r.provenance.emplace_back("reclaimer",
                            json_string(std::string(reclaimer.name())));
  r.provenance.emplace_back("wal_engine", json_string(stats1.wal_engine));
  r.details.add("graph_vertices", kVertices, "count");
  r.details.add("graph_edges_loaded", static_cast<double>(edges.size()),
                "count");
  // An update's latency, as on core_batch, is the duration of the CPLDS
  // batch that applied it (one op per batch at this rate). The ack latency
  // a client sees is a detail: it multiplies host CPU steal (see README).
  r.e2e.update_p50_ms =
      static_cast<double>(stats1.apply_latency.p50_ns()) / 1e6;
  r.details.add("update_samples",
                static_cast<double>(stats1.apply_latency.count()), "count");
  r.details.add("update_p99_ms",
                static_cast<double>(stats1.apply_latency.p99_ns()) / 1e6, "ms");
  r.details.add("ack_samples", static_cast<double>(ack_latency.count()),
                "count");
  r.details.add("ack_p50_ms", ack_latency.window_iqm(0.50, kMinWindowOps) / 1e6,
                "ms");
  r.details.add("ack_p99_ms", ack_latency.window_iqm(0.99, kMinWindowOps) / 1e6,
                "ms");
  r.details.add("acked_ops_s", r.e2e.update_ops_s, "ops/s");
  r.details.add("failed_frac", per(static_cast<double>(r.failed),
                                   static_cast<double>(r.attempted)),
                "ratio");
  r.details.add("submit_p50_us", quantile(submit_us, 0.50), "us");
  r.details.add("submit_p99_us", quantile(submit_us, 0.99), "us");
  r.details.add("applied_p50_ms",
                static_cast<double>(stats1.applied_latency.p50_ns()) / 1e6,
                "ms");
  r.details.add("durable_lag_p99_ms",
                static_cast<double>(stats1.durable_lag.p99_ns()) / 1e6, "ms");
  r.details.add("gen_late_p99_us", late_p99_us, "us");
  r.details.add("submit_errors", static_cast<double>(submit_errors), "count");
  r.details.add("window_s", window_s, "s");

  // ---- recovery: as on core_batch, reload a snapshot of the final state;
  // then restart the service from its snapshot plus the WAL, whose time is
  // a detail for the same reason as the ack latency ----
  r.e2e.recovery_s = snapshot_recovery_s(
      svc->cplds(), (dir / "final.snap").string(), model_edges, r.gates);
  svc.reset();
  {
    const Timer t;
    svc = std::make_unique<KCoreService>(config);
    r.details.add("restart_s", t.elapsed_s(), "s");
  }
  L.wal_replay_batches = static_cast<double>(svc->stats().replayed_batches);
  r.gates.add(
      gate_edge_set(cpkcore::collect_snapshot_edges(svc->cplds()), model_edges));

  r.e2e.read_p50_ns = reader.latency.window_iqm(0.50, kMinWindowReads);
  r.e2e.read_p99_ns = reader.latency.window_iqm(0.99, kMinWindowReads);
  r.details.add("read_p9999_ns",
                reader.latency.window_iqm(0.9999, kMinWindowReads), "ns");
  L.concurrent_pin_ns = static_cast<double>(reader.pins.p50_ns());
  r.provenance.emplace_back("reader_cpu_rotation",
                            reader.pinned ? "true" : "false");
  r.details.add("read_samples", static_cast<double>(reader.latency.count()),
                "count");
  svc.reset();
  return r;
}

}  // namespace perfbench
