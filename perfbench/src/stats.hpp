// Measurement helpers: windowed latency percentiles, interpolated
// quantiles of samples, and the named-metric record the benchmark prints as
// JSON.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/latency_histogram.hpp"

namespace perfbench {

/// Latencies split into fixed time windows (one LatencyHistogram each), so
/// a percentile can be reported as the interquartile mean over windows of
/// the per-window percentile: a window hit by a host-level stall is
/// trimmed, and speed phases of the host average out instead of one of
/// them being picked. Single writer.
class WindowedNs {
 public:
  WindowedNs(std::uint64_t start_ns, std::uint64_t window_ns)
      : start_ns_(start_ns), window_ns_(window_ns) {}

  /// One latency of `ns`, taken (or due) at `at_ns`.
  void record(std::uint64_t at_ns, std::uint64_t ns);

  [[nodiscard]] std::uint64_t count() const;
  /// Interquartile mean, over windows holding at least `min_samples`, of
  /// each window's q-quantile; the pooled quantile when none qualifies.
  [[nodiscard]] double window_iqm(double q, std::uint64_t min_samples) const;

 private:
  std::uint64_t start_ns_;
  std::uint64_t window_ns_;
  std::vector<cpkcore::LatencyHistogram> windows_;
};

/// Linear-interpolated quantile of an unsorted sample (q in [0, 1]); 0 when
/// empty. Takes a copy because it sorts.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Mean of the values between the first and third quartile (the lowest and
/// highest quarter, rounded down, are dropped); 0 when empty.
[[nodiscard]] double interquartile_mean(std::vector<double> values);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Insertion-ordered metric list with JSON output.
class MetricSet {
 public:
  void add(std::string name, double value, std::string unit);
  /// {"name": {"value": v, "unit": "u"}, ...}
  [[nodiscard]] std::string to_json() const;

 private:
  std::vector<Metric> items_;
};

[[nodiscard]] std::string json_string(const std::string& s);
/// Shortest round-trip decimal form ("nan"/"inf" become null).
[[nodiscard]] std::string json_number(double v);

}  // namespace perfbench
