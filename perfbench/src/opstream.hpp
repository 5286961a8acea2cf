// Seeded inputs: the reference edge-set model, the update-op stream the
// serving workloads submit, and the open-loop due-time schedule.
#pragma once

#include <chrono>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/rng.hpp"
#include "util/types.hpp"

namespace perfbench {

using cpkcore::Edge;
using cpkcore::Update;
using cpkcore::vertex_t;

/// The exact edge set the system must hold: O(1) insertion, deletion, and
/// uniform choice of a present edge. Edges are canonical.
class EdgeModel {
 public:
  EdgeModel() = default;
  /// `edges` must be canonical and distinct (as gen:: returns them).
  explicit EdgeModel(std::vector<Edge> edges);

  [[nodiscard]] std::size_t size() const { return edges_.size(); }
  [[nodiscard]] Edge at(std::size_t i) const { return edges_[i]; }
  /// Returns false if already present.
  bool insert(Edge e);
  /// Returns false if absent.
  bool erase(Edge e);
  /// Canonical edges in sorted order.
  [[nodiscard]] std::vector<Edge> sorted() const;

 private:
  std::vector<Edge> edges_;
  std::unordered_map<std::uint64_t, std::size_t> index_;
};

/// Seeded single-edge update stream over a model: with probability
/// `insert_frac` a uniformly random edge not in the model is inserted,
/// otherwise a uniformly random present edge is deleted. Each op is applied
/// to the model as it is generated, so the model is always the state after
/// every op so far. The same seed and starting model give the same stream.
class OpStream {
 public:
  OpStream(vertex_t num_vertices, std::uint64_t seed, double insert_frac);
  Update next(EdgeModel& model);

 private:
  vertex_t n_;
  cpkcore::Xoshiro256 rng_;
  double insert_frac_;
};

/// Open-loop schedule: op i is due at start + i * period. wait_until_due
/// sleeps (never spins) until op i's due time and returns how late the
/// caller actually woke, in nanoseconds.
class Pacer {
 public:
  using Clock = std::chrono::steady_clock;

  Pacer(Clock::time_point start, double ops_per_second);
  [[nodiscard]] Clock::time_point due(std::uint64_t i) const;
  std::uint64_t wait_until_due(std::uint64_t i) const;

 private:
  Clock::time_point start_;
  std::chrono::nanoseconds period_;
};

/// Fisher-Yates shuffle with the project's deterministic generator.
void shuffle_edges(std::vector<Edge>& edges, std::uint64_t seed);

/// `count` distinct uniformly random present edges (removed from the model).
std::vector<Edge> take_random_edges(EdgeModel& model, std::size_t count,
                                    cpkcore::Xoshiro256& rng);

}  // namespace perfbench
