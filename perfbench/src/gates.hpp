// Correctness gates. Each returns an empty string when the check passes and
// a one-line reason when it fails; a run with any failure exits non-zero.
// They are plain functions of (observed, expected) so the self-tests can
// feed them a deliberately wrong model.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/workload.hpp"
#include "lds/params.hpp"
#include "util/types.hpp"

namespace cpkcore {
class PLDS;
}  // namespace cpkcore

namespace perfbench {

using cpkcore::Edge;
using cpkcore::level_t;
using cpkcore::vertex_t;

std::string gate_edge_count(std::size_t actual, std::size_t expected);

/// `actual` in any order (canonical edges); `expected_sorted` sorted.
std::string gate_edge_set(std::vector<Edge> actual,
                          const std::vector<Edge>& expected_sorted);

std::string gate_all_acked(std::uint64_t attempted, std::uint64_t acked);

/// An open-loop generator that woke more than `max_us` late at p99 did not
/// offer the intended load: the run is invalid, not slow.
std::string gate_generator_late(double late_p99_us, double max_us);

/// Every sampled read must return its vertex's level at the begin or end
/// boundary of its batch window (harness::count_out_of_window_samples).
std::string gate_read_windows(
    const std::vector<cpkcore::harness::ReadSample>& samples,
    const std::vector<std::vector<level_t>>& boundary_levels,
    std::uint64_t window_base);

std::string gate_plds_valid(const cpkcore::PLDS& plds);

std::string gate_levels_equal(const std::vector<level_t>& actual,
                              const std::vector<level_t>& expected);

/// The approximation bound the integration tests assert:
/// (2 + 3/lambda) * (1 + delta)^2.
[[nodiscard]] double error_bound(const cpkcore::LDSParams& params);

struct CorenessError {
  double mean = 0;
  double max = 0;
};

/// Per vertex max(est/k, k/est) with k = max(exact, 1).
[[nodiscard]] CorenessError coreness_error(
    const std::vector<double>& estimates, const std::vector<vertex_t>& exact);

std::string gate_error_bound(const CorenessError& err, double bound);

/// Exact coreness of the graph (the kcore peel), the error gates' truth.
[[nodiscard]] std::vector<vertex_t> exact_coreness_of(vertex_t n,
                                                      std::vector<Edge> edges);

/// Collects the non-empty reasons.
class GateLog {
 public:
  void add(const std::string& reason) {
    if (!reason.empty()) failures_.push_back(reason);
  }
  [[nodiscard]] bool ok() const { return failures_.empty(); }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

 private:
  std::vector<std::string> failures_;
};

}  // namespace perfbench
