// cpkbench: runs one benchmark workload against libcpkcore's public API and
// prints one JSON record (metrics, gates, provenance) as its last line.
//
//   cpkbench --workload core_batch|serve_paced --seed N
//            --seconds S --trace 0|1 --work-dir DIR [--spans-out FILE]
//
// Every flag is required except --spans-out; a malformed or out-of-range
// value is an error (exit 2), never a silent default. Exit 1 when a
// correctness gate fails.
#include <charconv>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/snapshot.hpp"
#include "parallel/scheduler.hpp"
#include "spans.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "workload.hpp"

namespace perfbench {

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream) {
  return cpkcore::hash64(seed * 0x9E3779B97F4A7C15ULL + stream);
}

double snapshot_recovery_s(const cpkcore::CPLDS& ds, const std::string& path,
                           const std::vector<Edge>& model_edges,
                           GateLog& gates) {
  cpkcore::save_snapshot(ds, path);
  cpkcore::SnapshotLoadOptions opts;
  opts.delta = kDelta;
  opts.lambda = kLambda;
  opts.levels_per_group_cap = kLevelsPerGroupCap;
  std::vector<double> load_s;
  for (int rep = 0; rep < kSnapshotLoads; ++rep) {
    const cpkcore::Timer t;
    const auto recovered = cpkcore::load_snapshot(path, opts);
    load_s.push_back(t.elapsed_s());
    if (rep == 0) {
      gates.add(gate_edge_set(cpkcore::collect_snapshot_edges(*recovered),
                              model_edges));
    }
  }
  return quantile(load_s, 0.5);
}

MetricSet EndToEnd::metrics() const {
  MetricSet m;
  m.add("setup_s", setup_s, "s");
  m.add("update_ops_s", update_ops_s, "1/s");
  m.add("update_p50_ms", update_p50_ms, "ms");
  m.add("read_p50_ns", read_p50_ns, "ns");
  m.add("read_p99_ns", read_p99_ns, "ns");
  m.add("coreness_err_mean", coreness_err_mean, "ratio");
  m.add("coreness_err_max", coreness_err_max, "ratio");
  m.add("recovery_s", recovery_s, "s");
  return m;
}

MetricSet Layers::metrics() const {
  MetricSet m;
  m.add("core.batch_mean_ms", core_batch_mean_ms, "ms");
  m.add("core.insert_edges_s", core_insert_edges_s, "edges/s");
  m.add("core.delete_edges_s", core_delete_edges_s, "edges/s");
  m.add("core.overhead_frac", core_overhead_frac, "ratio");
  m.add("core.views_per_batch", core_views_per_batch, "ratio");
  m.add("core.edges_per_batch", core_edges_per_batch, "count");
  m.add("core.apply_busy_frac", core_apply_busy_frac, "ratio");
  m.add("plds.insert_edges_s", plds_insert_edges_s, "edges/s");
  m.add("plds.delete_edges_s", plds_delete_edges_s, "edges/s");
  m.add("plds.moved_per_edge", plds_moved_per_edge, "ratio");
  m.add("parallel.spawns_per_update", parallel_spawns_per_update, "count");
  m.add("parallel.steals_per_update", parallel_steals_per_update, "count");
  m.add("parallel.steal_ratio", parallel_steal_ratio, "ratio");
  m.add("concurrent.pin_ns", concurrent_pin_ns, "ns");
  m.add("concurrent.freed_per_retired", concurrent_freed_per_retired, "ratio");
  m.add("concurrent.lagging_readers", concurrent_lagging_readers, "count");
  m.add("service.submit_busy_frac", service_submit_busy_frac, "ratio");
  m.add("service.ops_per_cycle", service_ops_per_cycle, "count");
  m.add("service.useful_frac", service_useful_frac, "ratio");
  m.add("wal.flushes_per_op", wal_flushes_per_op, "count");
  m.add("wal.bytes_per_op", wal_bytes_per_op, "count");
  m.add("wal.replay_batches", wal_replay_batches, "count");
  return m;
}

namespace {

[[noreturn]] void usage_error(const std::string& what) {
  std::cerr << "cpkbench: " << what << "\n"
            << "usage: cpkbench --workload core_batch|serve_paced"
               " --seed N --seconds S(1-600) --trace 0|1 --work-dir DIR"
               " [--spans-out FILE]\n";
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& text,
                         std::uint64_t lo, std::uint64_t hi) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto res = std::from_chars(text.data(), end, v);
  if (text.empty() || res.ec != std::errc() || res.ptr != end || v < lo ||
      v > hi) {
    usage_error(flag + " needs an integer in [" + std::to_string(lo) + ", " +
                std::to_string(hi) + "], got '" + text + "'");
  }
  return v;
}

struct Args {
  RunConfig run;
  std::string spans_out;
};

Args parse_args(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage_error("missing value for " + flag);
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace" && flag != "--work-dir" && flag != "--spans-out") {
      usage_error("unknown flag " + flag);
    }
    if (!flags.emplace(flag, argv[i + 1]).second) {
      usage_error("repeated flag " + flag);
    }
  }
  for (const char* required :
       {"--workload", "--seed", "--seconds", "--trace", "--work-dir"}) {
    if (!flags.count(required)) usage_error(std::string("missing ") + required);
  }
  Args a;
  a.run.workload = flags["--workload"];
  if (a.run.workload != "core_batch" && a.run.workload != "serve_paced") {
    usage_error("unknown workload '" + a.run.workload + "'");
  }
  a.run.seed = parse_uint("--seed", flags["--seed"], 0, ~std::uint64_t{0});
  a.run.seconds =
      static_cast<int>(parse_uint("--seconds", flags["--seconds"], 1, 600));
  a.run.trace = parse_uint("--trace", flags["--trace"], 0, 1) == 1;
  a.run.work_dir = flags["--work-dir"];
  if (a.run.work_dir.empty()) usage_error("--work-dir is empty");
  if (flags.count("--spans-out")) a.spans_out = flags["--spans-out"];
  return a;
}

std::string provenance_json(const RunConfig& run, const RunResult& r) {
  std::string out = "{";
  auto field = [&](const std::string& key, const std::string& json_value) {
    if (out.size() > 1) out += ", ";
    out += json_string(key) + ": " + json_value;
  };
  field("hardware_threads",
        std::to_string(std::thread::hardware_concurrency()));
  field("scheduler_workers",
        std::to_string(cpkcore::Scheduler::instance().num_workers()));
  field("build_type", json_string(CPKC_BENCH_BUILD_TYPE));
#ifdef CPKC_TRACE_DISABLED
  field("cpkc_trace_compiled", "false");
#else
  field("cpkc_trace_compiled", "true");
#endif
  field("lds_delta", json_number(kDelta));
  field("lds_lambda", json_number(kLambda));
  field("lds_levels_per_group_cap", std::to_string(kLevelsPerGroupCap));
  field("seed", std::to_string(run.seed));
  field("seconds", std::to_string(run.seconds));
  for (const auto& [key, value] : r.provenance) field(key, value);
  return out + "}";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse_args(argc, argv);
  try {
    std::filesystem::remove_all(args.run.work_dir);
    std::filesystem::create_directories(args.run.work_dir);
    spans::enable(args.run.trace);

    const RunResult r = args.run.workload == "core_batch"
                            ? run_core_batch(args.run)
                            : run_serve_paced(args.run);

    std::string span_summary = "{";
    if (args.run.trace) {
      const auto all = spans::collect();
      if (!args.spans_out.empty()) spans::write_json(all, args.spans_out);
      for (const auto& s : spans::summarize(all)) {
        if (span_summary.size() > 1) span_summary += ", ";
        span_summary += json_string(s.name) +
                        ": {\"count\": " + std::to_string(s.count) +
                        ", \"total_ms\": " + json_number(s.total_ms) +
                        ", \"self_ms\": " + json_number(s.self_ms) + "}";
      }
    }
    span_summary += "}";

    std::string gates = "[";
    for (const auto& g : r.gates.failures()) {
      if (gates.size() > 1) gates += ", ";
      gates += json_string(g);
    }
    gates += "]";

    std::filesystem::remove_all(args.run.work_dir);
    std::cout << "{\"workload\": " << json_string(args.run.workload)
              << ", \"trace\": " << (args.run.trace ? 1 : 0)
              << ", \"correct\": " << (r.gates.ok() ? "true" : "false")
              << ", \"attempted\": " << r.attempted
              << ", \"failed\": " << r.failed << ", \"gate_failures\": " << gates
              << ", \"provenance\": " << provenance_json(args.run, r)
              << ", \"end_to_end\": " << r.e2e.metrics().to_json()
              << ", \"per_layer\": " << r.layers.metrics().to_json()
              << ", \"details\": " << r.details.to_json()
              << ", \"spans\": " << span_summary << "}" << std::endl;
    return r.gates.ok() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "cpkbench: " << e.what() << "\n";
    return 3;
  }
}
