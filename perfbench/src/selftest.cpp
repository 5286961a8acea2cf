// Self-tests of the benchmark's own machinery: the seeded op stream is
// reproducible, and each correctness gate rejects a deliberately wrong model
// (except plds().validate(), which the public API cannot be made to break).
// Exit 0 when all checks pass.
#include <iostream>
#include <string>
#include <vector>

#include "core/cplds.hpp"
#include "gates.hpp"
#include "graph/generators.hpp"
#include "harness/workload.hpp"
#include "opstream.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;
int failures = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
  if (!ok) ++failures;
}

std::vector<cpkcore::Update> stream(std::uint64_t seed, std::size_t count) {
  EdgeModel model(cpkcore::gen::erdos_renyi(500, 2000, 11));
  OpStream ops(500, seed, 0.8);
  std::vector<cpkcore::Update> out;
  for (std::size_t i = 0; i < count; ++i) out.push_back(ops.next(model));
  return out;
}

void op_stream_is_seeded() {
  const auto a = stream(42, 20000);
  expect(a == stream(42, 20000), "same seed gives an identical op stream");
  expect(a != stream(43, 20000), "another seed gives another op stream");
  std::size_t inserts = 0;
  for (const auto& op : a) inserts += op.kind == cpkcore::UpdateKind::kInsert;
  const double frac = static_cast<double>(inserts) / a.size();
  expect(frac > 0.78 && frac < 0.82, "op stream is 80% inserts");
}

void model_tracks_ops() {
  EdgeModel model(cpkcore::gen::erdos_renyi(300, 900, 5));
  EdgeModel replay = model;
  OpStream ops(300, 9, 0.8);
  for (int i = 0; i < 5000; ++i) {
    const auto op = ops.next(model);
    const bool ok = op.kind == cpkcore::UpdateKind::kInsert
                        ? replay.insert(op.edge)
                        : replay.erase(op.edge);
    if (!ok) {
      expect(false, "every generated op changes the edge set");
      return;
    }
  }
  expect(replay.sorted() == model.sorted(),
         "replaying the stream reproduces the generator's model");
}

void edge_gates_reject_wrong_models() {
  const auto edges = cpkcore::gen::erdos_renyi(200, 600, 3);
  EdgeModel model(edges);
  const auto truth = model.sorted();
  expect(gate_edge_set(edges, truth).empty(), "edge-set gate passes");
  EdgeModel extra = model;
  extra.insert({0, 199});
  extra.insert({1, 198});
  expect(!gate_edge_set(edges, extra.sorted()).empty(),
         "edge-set gate fails when the model has extra edges");
  EdgeModel missing = model;
  missing.erase(model.at(0));
  expect(!gate_edge_set(edges, missing.sorted()).empty(),
         "edge-set gate fails when the model lacks an edge");
  expect(gate_edge_count(600, 600).empty(), "edge-count gate passes");
  expect(!gate_edge_count(600, 601).empty(),
         "edge-count gate fails on a wrong count");
  expect(gate_all_acked(10, 10).empty(), "ack gate passes");
  expect(!gate_all_acked(10, 9).empty(), "ack gate fails on a lost ack");
}

void structure_gates_reject_wrong_models() {
  const cpkcore::vertex_t n = 400;
  const auto params = cpkcore::LDSParams::create(n, kDelta, kLambda,
                                                 kLevelsPerGroupCap);
  cpkcore::CPLDS ds(n, params);
  auto edges = cpkcore::gen::social(n, 4, 4, 20, 0.9, 17);
  ds.insert_batch(edges);
  // The public API offers no way to build a PLDS that breaks an invariant,
  // so this gate is only shown passing.
  expect(gate_plds_valid(ds.plds()).empty(), "PLDS validate gate passes");

  std::vector<double> est(n);
  for (cpkcore::vertex_t v = 0; v < n; ++v) est[v] = ds.read_coreness(v);
  const auto exact = exact_coreness_of(n, edges);
  const auto err = coreness_error(est, exact);
  expect(gate_error_bound(err, error_bound(params)).empty(),
         "error gate passes on the true graph");
  // A wrong model: every vertex's true coreness ten times higher.
  auto wrong = exact;
  for (auto& k : wrong) k = (k + 1) * 10;
  expect(!gate_error_bound(coreness_error(est, wrong), error_bound(params))
              .empty(),
         "error gate fails against a wrong exact coreness");

  std::vector<cpkcore::level_t> levels(n);
  for (cpkcore::vertex_t v = 0; v < n; ++v) levels[v] = ds.read_level(v);
  expect(gate_levels_equal(levels, levels).empty(), "level gate passes");
  auto bumped = levels;
  bumped[7] += 1;
  expect(!gate_levels_equal(levels, bumped).empty(),
         "level gate fails on one differing level");

  // Read windows: boundary 0 is the state before batch 1, boundary 1 after.
  std::vector<std::vector<cpkcore::level_t>> boundaries{levels, levels};
  const std::uint64_t base = ds.batch_number();
  std::vector<cpkcore::harness::ReadSample> good{{3, levels[3], base}};
  expect(gate_read_windows(good, boundaries, base).empty(),
         "window gate passes on an in-window read");
  std::vector<cpkcore::harness::ReadSample> bad{{3, levels[3] + 5, base}};
  expect(!gate_read_windows(bad, boundaries, base).empty(),
         "window gate fails on a read outside its window");
}

void quantiles_interpolate() {
  expect(quantile({1, 2, 3, 4}, 0.5) == 2.5, "quantile interpolates");
  expect(interquartile_mean({1, 2, 3, 100}) == 2.5,
         "interquartile mean drops the outer quarters");
  // Four 1 s windows at ~100 ns and one stalled window at ~10 us: the
  // stalled window is trimmed from the interquartile mean.
  WindowedNs w(0, 1'000'000'000);
  for (std::uint64_t win = 0; win < 5; ++win) {
    for (int i = 0; i < 100; ++i) {
      w.record(win * 1'000'000'000 + 1, win == 2 ? 10'000 : 100);
    }
  }
  const double p50 = w.window_iqm(0.5, 100);
  expect(p50 > 95 && p50 < 105, "windowed p50 trims a stalled window");
  expect(w.window_iqm(0.5, 1000) > 95 && w.window_iqm(0.99, 1000) > 9000,
         "windowed quantile pools when no window is full");
}

void lateness_gate_rejects_a_late_generator() {
  expect(gate_generator_late(250, 10'000).empty(),
         "lateness gate passes an on-time generator");
  expect(!gate_generator_late(25'000, 10'000).empty(),
         "lateness gate fails a generator 25 ms late at p99");
}

}  // namespace

int main() {
  op_stream_is_seeded();
  model_tracks_ops();
  edge_gates_reject_wrong_models();
  structure_gates_reject_wrong_models();
  quantiles_interpolate();
  lateness_gate_rejects_a_late_generator();
  std::cout << (failures == 0 ? "all self-tests passed\n"
                              : std::to_string(failures) + " self-tests failed\n");
  return failures == 0 ? 0 : 1;
}
