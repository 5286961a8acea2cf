#include "gates.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <stdexcept>

#include "graph/csr.hpp"
#include "harness/driver.hpp"
#include "kcore/peel.hpp"
#include "plds/plds.hpp"

namespace perfbench {

std::string gate_edge_count(std::size_t actual, std::size_t expected) {
  if (actual == expected) return "";
  return "edge count " + std::to_string(actual) + " != model " +
         std::to_string(expected);
}

std::string gate_edge_set(std::vector<Edge> actual,
                          const std::vector<Edge>& expected_sorted) {
  for (Edge& e : actual) e = e.canonical();
  std::sort(actual.begin(), actual.end());
  if (actual == expected_sorted) return "";
  std::size_t missing = 0, extra = 0;
  std::size_t i = 0, j = 0;
  while (i < actual.size() || j < expected_sorted.size()) {
    if (j == expected_sorted.size() ||
        (i < actual.size() && actual[i] < expected_sorted[j])) {
      ++extra;
      ++i;
    } else if (i == actual.size() || expected_sorted[j] < actual[i]) {
      ++missing;
      ++j;
    } else {
      ++i;
      ++j;
    }
  }
  return "edge set differs from model: " + std::to_string(missing) +
         " missing, " + std::to_string(extra) + " extra";
}

std::string gate_all_acked(std::uint64_t attempted, std::uint64_t acked) {
  if (attempted == acked) return "";
  return std::to_string(attempted - acked) + " of " +
         std::to_string(attempted) + " ops not acked";
}

std::string gate_generator_late(double late_p99_us, double max_us) {
  if (late_p99_us <= max_us) return "";
  return "generator late p99 " + std::to_string(late_p99_us) +
         " us exceeds " + std::to_string(max_us) +
         " us: the offered rate was not held";
}

std::string gate_read_windows(
    const std::vector<cpkcore::harness::ReadSample>& samples,
    const std::vector<std::vector<level_t>>& boundary_levels,
    std::uint64_t window_base) {
  if (samples.empty()) return "no read samples to check";
  const std::size_t bad = cpkcore::harness::count_out_of_window_samples(
      samples, boundary_levels, window_base);
  if (bad == 0) return "";
  return std::to_string(bad) + " of " + std::to_string(samples.size()) +
         " sampled reads outside their batch window";
}

std::string gate_plds_valid(const cpkcore::PLDS& plds) {
  std::string why;
  if (plds.validate(&why)) return "";
  return "PLDS invariants violated: " + why;
}

std::string gate_levels_equal(const std::vector<level_t>& actual,
                              const std::vector<level_t>& expected) {
  if (actual.size() != expected.size()) return "level arrays differ in size";
  const auto differ = static_cast<std::size_t>(std::inner_product(
      actual.begin(), actual.end(), expected.begin(), std::size_t{0},
      std::plus<>(), [](level_t a, level_t b) { return a != b ? 1 : 0; }));
  if (differ == 0) return "";
  return "PLDS replay levels differ from CPLDS at " + std::to_string(differ) +
         " vertices";
}

double error_bound(const cpkcore::LDSParams& params) {
  return (2.0 + 3.0 / params.lambda()) * std::pow(1.0 + params.delta(), 2);
}

CorenessError coreness_error(const std::vector<double>& estimates,
                             const std::vector<vertex_t>& exact) {
  if (estimates.size() != exact.size() || exact.empty()) {
    throw std::invalid_argument("coreness_error: size mismatch");
  }
  CorenessError out;
  double sum = 0;
  for (std::size_t v = 0; v < exact.size(); ++v) {
    const double k = std::max<double>(1.0, exact[v]);
    const double est = estimates[v];
    const double err = std::max(est / k, k / est);
    sum += err;
    out.max = std::max(out.max, err);
  }
  out.mean = sum / static_cast<double>(exact.size());
  return out;
}

std::string gate_error_bound(const CorenessError& err, double bound) {
  if (err.max <= bound) return "";
  return "coreness error " + std::to_string(err.max) + " exceeds bound " +
         std::to_string(bound);
}

std::vector<vertex_t> exact_coreness_of(vertex_t n, std::vector<Edge> edges) {
  return cpkcore::exact_coreness(
      cpkcore::CsrGraph::from_edges(n, std::move(edges)));
}

}  // namespace perfbench
