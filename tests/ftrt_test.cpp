// ftrt substrate: page-tracking arena, checkpoint runtime schedule and
// epochs, failure injection, and arena-backed restore round trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <vector>

#include "core/collrep.hpp"
#include "ftrt/checkpoint.hpp"
#include "ftrt/tracked_arena.hpp"

namespace {

using namespace collrep;
using ftrt::CheckpointConfig;
using ftrt::CheckpointRuntime;
using ftrt::FailureInjector;
using ftrt::TrackedArena;

// -- TrackedArena --------------------------------------------------------------

TEST(TrackedArena, AllocationIsPageGranularAndZeroed) {
  TrackedArena arena(256, 16);
  const auto region = arena.allocate(100);
  EXPECT_EQ(region.size(), 256u);  // rounded up to one page
  for (const auto b : region) EXPECT_EQ(b, 0);
  EXPECT_EQ(arena.live_pages(), 1u);
}

TEST(TrackedArena, TypedArrays) {
  TrackedArena arena(256, 16);
  auto doubles = arena.allocate_array<double>(100);
  EXPECT_EQ(doubles.size(), 100u);
  doubles[99] = 3.5;
  EXPECT_EQ(arena.live_bytes(), 1024u);  // 800 B -> 4 pages of 256
}

TEST(TrackedArena, SnapshotCoalescesAdjacentPages) {
  TrackedArena arena(256, 16);
  (void)arena.allocate(256 * 3);
  (void)arena.allocate(256);
  const auto ds = arena.snapshot();
  ASSERT_EQ(ds.segment_count(), 1u);  // both runs are contiguous
  EXPECT_EQ(ds.total_bytes(), 256u * 4);
}

TEST(TrackedArena, DeallocateSplitsSnapshot) {
  TrackedArena arena(256, 16);
  const auto a = arena.allocate(256);
  const auto b = arena.allocate(256);
  const auto c = arena.allocate(256);
  (void)a;
  (void)c;
  arena.deallocate(b);
  const auto ds = arena.snapshot();
  EXPECT_EQ(ds.segment_count(), 2u);
  EXPECT_EQ(ds.total_bytes(), 512u);
  EXPECT_EQ(arena.live_pages(), 2u);
}

TEST(TrackedArena, FreedPagesAreReused) {
  TrackedArena arena(256, 4);
  const auto a = arena.allocate(256 * 2);
  std::fill(a.begin(), a.end(), std::uint8_t{0xA5});
  arena.deallocate(a);
  const auto b = arena.allocate(256 * 2);
  EXPECT_EQ(a.data(), b.data());
  EXPECT_EQ(arena.live_pages(), 2u);
  // A reused page comes back zeroed, like a fresh one: callers (and a
  // block allocation that skips zero-filling) rely on carve() for that.
  EXPECT_TRUE(std::all_of(b.begin(), b.end(),
                          [](std::uint8_t x) { return x == 0; }));
}

TEST(TrackedArena, OversizedAllocationGetsDedicatedBlock) {
  TrackedArena arena(256, 4);  // block = 1 KiB
  const auto big = arena.allocate(256 * 10);
  EXPECT_EQ(big.size(), 2560u);
  EXPECT_EQ(arena.live_pages(), 10u);
}

TEST(TrackedArena, DoubleFreeDetected) {
  TrackedArena arena(256, 4);
  const auto a = arena.allocate(256);
  arena.deallocate(a);
  EXPECT_THROW(arena.deallocate(a), std::invalid_argument);
}

TEST(TrackedArena, ForeignRegionRejected) {
  TrackedArena arena(256, 4);
  std::vector<std::uint8_t> foreign(256);
  EXPECT_THROW(arena.deallocate(foreign), std::invalid_argument);
}

TEST(TrackedArena, SnapshotSeesMutations) {
  TrackedArena arena(256, 4);
  auto region = arena.allocate(256);
  region[7] = 0xAB;
  const auto ds = arena.snapshot();
  EXPECT_EQ(ds.segment(0)[7], 0xAB);  // zero-copy view of live memory
}

// -- CheckpointRuntime -----------------------------------------------------------

CheckpointConfig test_ckpt_config(int k, int interval, int first = 0) {
  CheckpointConfig cfg;
  cfg.dump.chunk_bytes = 256;
  cfg.dump.threshold_f = 1u << 10;
  cfg.replication_factor = k;
  cfg.interval = interval;
  cfg.first_iteration = first;
  return cfg;
}

TEST(CheckpointRuntime, ScheduleFiresAtInterval) {
  constexpr int kRanks = 3;
  simmpi::Runtime rt(kRanks);
  std::vector<chunk::ChunkStore> stores(kRanks);
  std::vector<int> fired(kRanks, 0);
  rt.run([&](simmpi::Comm& comm) {
    TrackedArena arena(256, 16);
    auto data = arena.allocate(256 * 4);
    std::memset(data.data(), comm.rank() + 1, data.size());
    CheckpointRuntime ckpt(comm, stores[static_cast<std::size_t>(comm.rank())],
                           arena, test_ckpt_config(2, 10, 5));
    for (int iter = 0; iter < 30; ++iter) {
      if (ckpt.maybe_checkpoint(iter)) {
        ++fired[static_cast<std::size_t>(comm.rank())];
      }
    }
    EXPECT_EQ(ckpt.checkpoints_taken(), 3u);  // iterations 5, 15, 25
  });
  for (const auto f : fired) EXPECT_EQ(f, 3);
}

TEST(CheckpointRuntime, DisabledScheduleNeverFires) {
  simmpi::Runtime rt(2);
  std::vector<chunk::ChunkStore> stores(2);
  rt.run([&](simmpi::Comm& comm) {
    TrackedArena arena(256, 16);
    (void)arena.allocate(256);
    CheckpointRuntime ckpt(comm, stores[static_cast<std::size_t>(comm.rank())],
                           arena, test_ckpt_config(2, 0));
    for (int iter = 0; iter < 10; ++iter) {
      EXPECT_FALSE(ckpt.maybe_checkpoint(iter).has_value());
    }
  });
}

TEST(CheckpointRuntime, LatestEpochWinsOnRestore) {
  constexpr int kRanks = 4;
  simmpi::Runtime rt(kRanks);
  std::vector<chunk::ChunkStore> stores(kRanks);
  std::vector<std::vector<std::uint8_t>> finals(kRanks);
  rt.run([&](simmpi::Comm& comm) {
    const int r = comm.rank();
    TrackedArena arena(256, 16);
    auto region = arena.allocate(256 * 2);
    CheckpointRuntime ckpt(comm, stores[static_cast<std::size_t>(r)], arena,
                           test_ckpt_config(3, 0));
    std::memset(region.data(), 0x11 + r, region.size());
    (void)ckpt.checkpoint_now();
    // Mutate and checkpoint again: restore must see the newer image.
    std::memset(region.data(), 0x77 + r, region.size());
    (void)ckpt.checkpoint_now();
    finals[static_cast<std::size_t>(r)].assign(region.begin(), region.end());
  });
  std::vector<chunk::ChunkStore*> ptrs;
  for (auto& s : stores) ptrs.push_back(&s);
  for (int r = 0; r < kRanks; ++r) {
    const auto restored = core::restore_rank(ptrs, r);
    EXPECT_EQ(restored.segments[0], finals[static_cast<std::size_t>(r)]);
  }
}

TEST(CheckpointRuntime, RestartAfterInjectedFailures) {
  constexpr int kRanks = 6;
  constexpr int kK = 3;
  simmpi::Runtime rt(kRanks);
  std::vector<chunk::ChunkStore> stores(kRanks);
  std::vector<std::vector<std::uint8_t>> images(kRanks);
  rt.run([&](simmpi::Comm& comm) {
    const int r = comm.rank();
    TrackedArena arena(256, 16);
    auto region = arena.allocate(256 * 8);
    // Shared + rank-private pages.
    for (std::size_t i = 0; i < region.size(); ++i) {
      region[i] = static_cast<std::uint8_t>(
          (i / 256) % 2 == 0 ? i * 3 : i * 3 + 101 * (r + 1));
    }
    CheckpointRuntime ckpt(comm, stores[static_cast<std::size_t>(r)], arena,
                           test_ckpt_config(kK, 0));
    (void)ckpt.checkpoint_now();
    images[static_cast<std::size_t>(r)].assign(region.begin(), region.end());
  });

  std::vector<chunk::ChunkStore*> ptrs;
  for (auto& s : stores) ptrs.push_back(&s);
  FailureInjector injector(2026);
  const auto victims = injector.kill_stores(ptrs, kK - 1);
  EXPECT_EQ(victims.size(), static_cast<std::size_t>(kK - 1));

  for (int r = 0; r < kRanks; ++r) {
    const auto restored = core::restore_rank(ptrs, r);
    EXPECT_EQ(restored.segments[0], images[static_cast<std::size_t>(r)]);
  }

  FailureInjector::heal_all(ptrs);
  for (const auto* s : ptrs) EXPECT_FALSE(s->failed());
}

TEST(CheckpointRuntime, TooManyFailuresIsDetectedNotSilent) {
  constexpr int kRanks = 4;
  simmpi::Runtime rt(kRanks);
  std::vector<chunk::ChunkStore> stores(kRanks);
  rt.run([&](simmpi::Comm& comm) {
    const int r = comm.rank();
    TrackedArena arena(256, 16);
    auto region = arena.allocate(256 * 4);
    // Fully rank-private data: exactly K=2 copies exist.
    for (std::size_t i = 0; i < region.size(); ++i) {
      region[i] = static_cast<std::uint8_t>(i * 7 + 13 * (r + 1));
    }
    CheckpointRuntime ckpt(comm, stores[static_cast<std::size_t>(r)], arena,
                           test_ckpt_config(2, 0));
    (void)ckpt.checkpoint_now();
  });
  std::vector<chunk::ChunkStore*> ptrs;
  for (auto& s : stores) ptrs.push_back(&s);
  // Kill every store holding rank 0's data (own + one partner): K = 2
  // tolerates 1 failure, so 4-of-4 failures must throw, not fabricate.
  for (auto* s : ptrs) s->fail();
  EXPECT_THROW((void)core::restore_rank(ptrs, 0), core::ManifestLostError);
}

TEST(FailureInjectorTest, KillsDistinctStoresDeterministically) {
  std::vector<chunk::ChunkStore> stores(8);
  std::vector<chunk::ChunkStore*> ptrs;
  for (auto& s : stores) ptrs.push_back(&s);
  FailureInjector a(7);
  const auto victims_a = a.kill_stores(ptrs, 3);
  EXPECT_EQ(victims_a.size(), 3u);
  std::set<int> uniq(victims_a.begin(), victims_a.end());
  EXPECT_EQ(uniq.size(), 3u);

  FailureInjector::heal_all(ptrs);
  FailureInjector b(7);
  EXPECT_EQ(b.kill_stores(ptrs, 3), victims_a);  // same seed, same victims
}

}  // namespace
