#include "opstream.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>

namespace perfbench {

EdgeModel::EdgeModel(std::vector<Edge> edges) : edges_(std::move(edges)) {
  index_.reserve(edges_.size() * 2);
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    if (!index_.emplace(edges_[i].canonical().key(), i).second) {
      throw std::invalid_argument("EdgeModel: duplicate edge");
    }
    edges_[i] = edges_[i].canonical();
  }
}

bool EdgeModel::insert(Edge e) {
  e = e.canonical();
  if (!index_.emplace(e.key(), edges_.size()).second) return false;
  edges_.push_back(e);
  return true;
}

bool EdgeModel::erase(Edge e) {
  e = e.canonical();
  const auto it = index_.find(e.key());
  if (it == index_.end()) return false;
  const std::size_t i = it->second;
  index_.erase(it);
  if (i + 1 != edges_.size()) {
    edges_[i] = edges_.back();
    index_[edges_[i].key()] = i;
  }
  edges_.pop_back();
  return true;
}

std::vector<Edge> EdgeModel::sorted() const {
  std::vector<Edge> out = edges_;
  std::sort(out.begin(), out.end());
  return out;
}

OpStream::OpStream(vertex_t num_vertices, std::uint64_t seed,
                   double insert_frac)
    : n_(num_vertices), rng_(seed), insert_frac_(insert_frac) {
  if (num_vertices < 2) throw std::invalid_argument("OpStream: n < 2");
}

Update OpStream::next(EdgeModel& model) {
  const bool insert = model.size() == 0 || rng_.next_double() < insert_frac_;
  if (!insert) {
    const Edge e = model.at(rng_.next_below(model.size()));
    model.erase(e);
    return {e, cpkcore::UpdateKind::kDelete};
  }
  for (;;) {
    const auto u = static_cast<vertex_t>(rng_.next_below(n_));
    const auto v = static_cast<vertex_t>(rng_.next_below(n_));
    const Edge e = Edge{u, v}.canonical();
    if (u != v && model.insert(e)) return {e, cpkcore::UpdateKind::kInsert};
  }
}

Pacer::Pacer(Clock::time_point start, double ops_per_second)
    : start_(start),
      period_(static_cast<std::int64_t>(1e9 / ops_per_second)) {
  if (!(ops_per_second > 0)) throw std::invalid_argument("Pacer: rate <= 0");
}

Pacer::Clock::time_point Pacer::due(std::uint64_t i) const {
  return start_ + period_ * static_cast<std::int64_t>(i);
}

std::uint64_t Pacer::wait_until_due(std::uint64_t i) const {
  const auto at = due(i);
  std::this_thread::sleep_until(at);
  const auto late = Clock::now() - at;
  return static_cast<std::uint64_t>(std::max<std::int64_t>(
      0, std::chrono::duration_cast<std::chrono::nanoseconds>(late).count()));
}

void shuffle_edges(std::vector<Edge>& edges, std::uint64_t seed) {
  cpkcore::Xoshiro256 rng(seed);
  for (std::size_t i = edges.size(); i > 1; --i) {
    std::swap(edges[i - 1], edges[rng.next_below(i)]);
  }
}

std::vector<Edge> take_random_edges(EdgeModel& model, std::size_t count,
                                    cpkcore::Xoshiro256& rng) {
  std::vector<Edge> out;
  out.reserve(count);
  while (out.size() < count && model.size() != 0) {
    const Edge e = model.at(rng.next_below(model.size()));
    model.erase(e);
    out.push_back(e);
  }
  return out;
}

}  // namespace perfbench
