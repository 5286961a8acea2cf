// Tests for the epoch-based memory reclamation behind the wait-free read
// path: epoch advancement under concurrent retire, reader pins blocking
// reclamation (and unblocking it on release), and a reader/writer stress
// run checking the view-backed reads stay bit-equal to the SyncReads
// quiescent levels.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "concurrent/reclaim.hpp"
#include "core/cplds.hpp"
#include "core/level_view.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace cpkcore {
namespace {

using concurrent::Reclaimer;

/// A retired payload that counts its own deletions.
struct Tracked {
  static std::atomic<int> live;
  Tracked() { live.fetch_add(1, std::memory_order_relaxed); }
  ~Tracked() { live.fetch_sub(1, std::memory_order_relaxed); }
  static void destroy(void* p) { delete static_cast<Tracked*>(p); }
};
std::atomic<int> Tracked::live{0};

TEST(Reclaim, RetireWithoutReadersFreesEverything) {
  Reclaimer r;
  constexpr std::uint64_t kObjects = 200;
  for (std::uint64_t i = 0; i < kObjects; ++i) {
    r.retire(new Tracked, &Tracked::destroy);
  }
  // With no reader ever pinned, a few idle reclaim passes drain the limbo
  // list entirely (two epoch advances past the newest tag).
  for (int i = 0; i < 8 && r.stats().limbo > 0; ++i) r.try_reclaim();
  const Reclaimer::Stats stats = r.stats();
  EXPECT_EQ(stats.retired, kObjects);
  EXPECT_EQ(stats.freed, kObjects);
  EXPECT_EQ(stats.limbo, 0u);
  EXPECT_EQ(Tracked::live.load(), 0);
}

TEST(Reclaim, EpochAdvancesUnderConcurrentRetire) {
  Reclaimer r;
  constexpr std::uint64_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::uint64_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&r] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        // Readers cycle in and out while other threads retire.
        {
          const Reclaimer::Guard guard = r.read_guard();
        }
        r.retire(new Tracked, &Tracked::destroy);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int i = 0; i < 8 && r.stats().limbo > 0; ++i) r.try_reclaim();
  const Reclaimer::Stats stats = r.stats();
  EXPECT_EQ(stats.retired, kThreads * kPerThread);
  EXPECT_GT(stats.epoch_advances, 0u);
  EXPECT_EQ(stats.freed, stats.retired);
  EXPECT_EQ(stats.limbo, 0u);
  EXPECT_EQ(Tracked::live.load(), 0);
}

TEST(Reclaim, ReaderPinBlocksReclamation) {
  Reclaimer r;
  // The pinned reader must be a *different* thread: the retiring thread's
  // own slot is idle from its point of view.
  std::atomic<bool> pinned{false};
  std::atomic<bool> release{false};
  std::thread reader([&] {
    const Reclaimer::Guard guard = r.read_guard();
    pinned.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  });
  while (!pinned.load(std::memory_order_acquire)) std::this_thread::yield();

  constexpr std::size_t kObjects = 50;
  for (std::size_t i = 0; i < kObjects; ++i) {
    r.retire(new Tracked, &Tracked::destroy);
  }
  r.try_reclaim();
  // Everything retired after the pin must still be in limbo.
  EXPECT_EQ(r.stats().limbo, kObjects);
  EXPECT_EQ(Tracked::live.load(), static_cast<int>(kObjects));
  EXPECT_GT(r.stats().lagging_readers, 0u);

  release.store(true, std::memory_order_release);
  reader.join();
  for (int i = 0; i < 8 && r.stats().limbo > 0; ++i) r.try_reclaim();
  EXPECT_EQ(r.stats().limbo, 0u);
  EXPECT_EQ(Tracked::live.load(), 0);
}

TEST(Reclaim, GuardIsReentrant) {
  Reclaimer r;
  const Reclaimer::Guard outer = r.read_guard();
  {
    const Reclaimer::Guard inner = r.read_guard();
  }
  // Still pinned: a retire on another thread must not free under us.
  std::thread retirer([&r] {
    r.retire(new Tracked, &Tracked::destroy);
    r.try_reclaim();
  });
  retirer.join();
  EXPECT_EQ(Tracked::live.load(), 1);
}

// ---------------------------------------------------------------------------
// CPLDS integration
// ---------------------------------------------------------------------------

TEST(ReclaimCplds, ViewReadsBitEqualToSyncReadsUnderStress) {
  // Reader/writer stress: concurrent view readers never crash or tear, and
  // once quiescent every read path agrees bit-for-bit with the locked
  // SyncReads baseline.
  Reclaimer reclaimer;
  constexpr vertex_t kN = 2000;
  CPLDS::Options opt;
  opt.reclaimer = &reclaimer;
  CPLDS ds(kN, LDSParams::create(kN), opt);
  const auto edges = gen::barabasi_albert(kN, 8, 91);

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  constexpr int kReaders = 6;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&ds, &stop, t] {
      Xoshiro256 rng(1000 + static_cast<std::uint64_t>(t));
      while (!stop.load(std::memory_order_relaxed)) {
        const auto v = static_cast<vertex_t>(rng.next_below(kN));
        const level_t l = ds.read_level(v);
        ASSERT_GE(l, 0);  // never torn garbage
      }
    });
  }
  constexpr std::size_t kBatch = 500;
  for (std::size_t i = 0; i < edges.size(); i += kBatch) {
    const std::size_t end = std::min(edges.size(), i + kBatch);
    ds.insert_batch({edges.begin() + static_cast<std::ptrdiff_t>(i),
                     edges.begin() + static_cast<std::ptrdiff_t>(end)});
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& th : readers) th.join();

  for (vertex_t v = 0; v < kN; ++v) {
    const level_t sync_level = ds.read_level_sync(v);
    ASSERT_EQ(ds.read_level(v), sync_level)
        << "view read diverged from SyncReads at v=" << v;
    ASSERT_EQ(ds.read_level_nonsync(v), sync_level) << v;
  }
  const Reclaimer::Stats stats = ds.reclaimer().stats();
  EXPECT_GT(stats.retired, 0u);
  EXPECT_GT(stats.freed, 0u);
}

TEST(ReclaimCplds, ViewVersionCountsMovingBatches) {
  constexpr vertex_t kN = 64;
  Reclaimer reclaimer;
  CPLDS::Options opt;
  opt.reclaimer = &reclaimer;
  CPLDS ds(kN, LDSParams::create(kN), opt);
  EXPECT_EQ(ds.view_version(), 0u);
  // A dense clique forces level moves; version advances.
  std::vector<Edge> clique;
  for (vertex_t u = 0; u < 16; ++u) {
    for (vertex_t v = u + 1; v < 16; ++v) clique.push_back({u, v});
  }
  ds.insert_batch(clique);
  const std::uint64_t after_clique = ds.view_version();
  EXPECT_GT(after_clique, 0u);
  // A no-op batch (re-inserting existing edges) publishes nothing.
  ds.insert_batch(clique);
  EXPECT_EQ(ds.view_version(), after_clique);
}

TEST(LevelViewTest, SuccessorSharesUntouchedPages) {
  constexpr vertex_t kN = LevelView::kPageSize * 3 + 5;  // 4 pages
  const LevelView* v0 = LevelView::initial(kN, 0);
  EXPECT_EQ(v0->num_pages(), 4u);
  for (vertex_t v = 0; v < kN; ++v) ASSERT_EQ(v0->level(v), 0);

  // Touch one vertex in page 2 only.
  const vertex_t moved = 2 * LevelView::kPageSize + 7;
  const vertex_t moved_arr[] = {moved};
  const LevelView* v1 = LevelView::successor(
      *v0, moved_arr, [&](vertex_t v) { return v == moved ? 5 : 0; });
  EXPECT_EQ(v1->version(), 1u);
  EXPECT_EQ(v1->level(moved), 5);
  EXPECT_EQ(v1->level(moved - 1), 0);
  EXPECT_EQ(v1->level(0), 0);

  // Destroying the predecessor must leave the successor (and its shared
  // pages) fully readable.
  LevelView::destroy(v0);
  EXPECT_EQ(v1->level(moved), 5);
  EXPECT_EQ(v1->level(kN - 1), 0);
  LevelView::destroy(v1);
}

}  // namespace
}  // namespace cpkcore
