// Replica plan builders: per-strategy store/send decisions, the
// round-robin top-up split, discard logic, and designated-target avoidance.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "chunk/dataset.hpp"
#include "core/local_dedup.hpp"
#include "core/planner.hpp"
#include "core/replica_plan.hpp"
#include "hash/hasher.hpp"

namespace {

using namespace collrep;
using core::BoundedFpSet;
using core::plan_collective;
using core::plan_full;
using core::plan_local_dedup;
using core::ShuffleContext;

// Builds a dataset of `pages` pages where page i contains byte pattern
// seed+i, with `dups` of them repeating page 0.
struct Workload {
  explicit Workload(std::size_t pages, std::size_t dups = 0, int seed = 0)
      : bytes(pages * kPage) {
    for (std::size_t p = 0; p < pages; ++p) {
      const std::size_t pattern = p < pages - dups ? p : 0;
      for (std::size_t i = 0; i < kPage; ++i) {
        bytes[p * kPage + i] =
            static_cast<std::uint8_t>(pattern * 17 + i + seed * 101);
      }
    }
    ds.add_segment(bytes);
    chunker.emplace(ds, kPage);
    local = core::local_dedup(*chunker,
                              hash::hasher_for(hash::HashKind::kXx64));
  }

  static constexpr std::size_t kPage = 64;
  std::vector<std::uint8_t> bytes;
  chunk::Dataset ds;
  std::optional<chunk::Chunker> chunker;
  core::LocalDedupResult local;
};

TEST(PlanFull, EveryChunkStoredAndSentEverywhere) {
  const Workload w(8, /*dups=*/3);
  std::vector<std::uint32_t> lengths(8, Workload::kPage);
  const auto plan = plan_full(lengths, /*k=*/3);
  EXPECT_EQ(plan.assignments.size(), 8u);
  for (const auto& a : plan.assignments) {
    EXPECT_TRUE(a.store_local);
    EXPECT_EQ(a.send_slots, (std::vector<std::uint8_t>{1, 2}));
  }
  EXPECT_EQ(plan.load, (std::vector<std::uint64_t>{8, 8, 8}));
  EXPECT_EQ(plan.discarded_chunks, 0u);
  EXPECT_EQ(plan.owned_unique_bytes, 8u * Workload::kPage);
}

TEST(PlanLocalDedup, OnlyUniqueChunksPlanned) {
  const Workload w(8, /*dups=*/3);
  ASSERT_EQ(w.local.unique_chunks.size(), 5u);
  const auto plan = plan_local_dedup(w.local, *w.chunker, 3);
  EXPECT_EQ(plan.assignments.size(), 5u);
  EXPECT_EQ(plan.load, (std::vector<std::uint64_t>{5, 5, 5}));
  EXPECT_EQ(plan.owned_unique_bytes, 5u * Workload::kPage);
}

TEST(PlanLocalDedup, KOneMeansNoSends) {
  const Workload w(4);
  const auto plan = plan_local_dedup(w.local, *w.chunker, 1);
  EXPECT_EQ(plan.load, (std::vector<std::uint64_t>{4}));
  for (const auto& a : plan.assignments) EXPECT_TRUE(a.send_slots.empty());
}

class PlanCollectiveTest : public ::testing::Test {
 protected:
  static constexpr int kRanks = 4;
  static constexpr int kK = 3;

  // Global view where `holders` ranks are designated for the fingerprint
  // of w's unique chunk `u`.
  static BoundedFpSet view_with(const Workload& w, std::size_t u,
                                std::initializer_list<int> holders) {
    const auto& fp = w.local.chunk_fps[w.local.unique_chunks[u]];
    std::vector<BoundedFpSet> leaves;
    for (int h : holders) {
      BoundedFpSet leaf(1024, kK, kRanks);
      leaf.add_local(fp, h);
      leaves.push_back(std::move(leaf));
    }
    BoundedFpSet acc = std::move(leaves.front());
    leaves.erase(leaves.begin());
    acc.merge_many(std::move(leaves));
    return acc;
  }
};

TEST_F(PlanCollectiveTest, UnknownFingerprintsReplicatedKMinus1Times) {
  const Workload w(4);
  const BoundedFpSet empty_view(1024, kK, kRanks);
  const auto plan =
      plan_collective(w.local, *w.chunker, empty_view, 0, kK, nullptr);
  EXPECT_EQ(plan.assignments.size(), 4u);
  for (const auto& a : plan.assignments) {
    EXPECT_TRUE(a.store_local);
    EXPECT_EQ(a.send_slots.size(), static_cast<std::size_t>(kK - 1));
  }
  EXPECT_EQ(plan.discarded_chunks, 0u);
}

TEST_F(PlanCollectiveTest, NonDesignatedHolderDiscards) {
  const Workload w(1);
  // Ranks 1, 2, 3 are designated (D == K); rank 0 also holds the chunk.
  const auto view = view_with(w, 0, {1, 2, 3});
  const auto plan = plan_collective(w.local, *w.chunker, view, 0, kK, nullptr);
  EXPECT_TRUE(plan.assignments.empty());
  EXPECT_EQ(plan.discarded_chunks, 1u);
  EXPECT_EQ(plan.discarded_bytes, Workload::kPage);
  EXPECT_EQ(plan.owned_unique_bytes, 0u);
}

TEST_F(PlanCollectiveTest, DesignatedWithFullCoverSendsNothing) {
  const Workload w(1);
  const auto view = view_with(w, 0, {0, 1, 2});
  const auto plan = plan_collective(w.local, *w.chunker, view, 0, kK, nullptr);
  ASSERT_EQ(plan.assignments.size(), 1u);
  EXPECT_TRUE(plan.assignments[0].store_local);
  EXPECT_TRUE(plan.assignments[0].send_slots.empty());
  // First designated rank owns the unique bytes.
  EXPECT_EQ(plan.owned_unique_bytes, Workload::kPage);
}

TEST_F(PlanCollectiveTest, RoundRobinTopUpSplitsExtras) {
  const Workload w(1);
  // D = 2 designated (ranks 0 and 2), K = 3: one extra replica needed;
  // the round-robin assigns extra t=0 to designated index 0 (rank 0).
  const auto view = view_with(w, 0, {0, 2});
  const auto plan0 = plan_collective(w.local, *w.chunker, view, 0, kK, nullptr);
  ASSERT_EQ(plan0.assignments.size(), 1u);
  EXPECT_EQ(plan0.assignments[0].send_slots, std::vector<std::uint8_t>{1});

  const auto plan2 = plan_collective(w.local, *w.chunker, view, 2, kK, nullptr);
  ASSERT_EQ(plan2.assignments.size(), 1u);
  EXPECT_TRUE(plan2.assignments[0].send_slots.empty());
  // Owner is the first designated rank only.
  EXPECT_EQ(plan0.owned_unique_bytes, Workload::kPage);
  EXPECT_EQ(plan2.owned_unique_bytes, 0u);
}

TEST_F(PlanCollectiveTest, SingleDesignatedSendsKMinusOne) {
  const Workload w(1);
  const auto view = view_with(w, 0, {1});
  const auto plan = plan_collective(w.local, *w.chunker, view, 1, kK, nullptr);
  ASSERT_EQ(plan.assignments.size(), 1u);
  EXPECT_EQ(plan.assignments[0].send_slots,
            (std::vector<std::uint8_t>{1, 2}));
}

TEST_F(PlanCollectiveTest, AvoidanceSteersAwayFromDesignatedPartner) {
  const Workload w(1);
  // Designated: ranks 0 and 1 (D=2, one extra).  With the identity ring,
  // rank 0's slot-1 partner is rank 1 — itself designated.  The avoidance
  // pass must pick slot 2 (rank 2) instead.
  const auto view = view_with(w, 0, {0, 1});
  const auto shuffle = core::identity_shuffle(kRanks);
  const auto pos = core::invert_shuffle(shuffle);
  const ShuffleContext ctx{shuffle, pos};

  const auto naive = plan_collective(w.local, *w.chunker, view, 0, kK, nullptr);
  ASSERT_EQ(naive.assignments[0].send_slots, std::vector<std::uint8_t>{1});

  const auto avoided = plan_collective(w.local, *w.chunker, view, 0, kK, &ctx);
  ASSERT_EQ(avoided.assignments[0].send_slots, std::vector<std::uint8_t>{2});
  EXPECT_EQ(avoided.skip_fallbacks, 0u);
}

TEST_F(PlanCollectiveTest, AvoidanceWorksInMinimalRing) {
  const Workload w(1);
  // Three ranks, K=3, designated {0, 1}: rank 0's slot-1 partner is
  // designated, slot 2 is clean and must be chosen.
  BoundedFpSet view3(1024, 3, 3);
  const auto& fp = w.local.chunk_fps[w.local.unique_chunks[0]];
  BoundedFpSet l0(1024, 3, 3);
  l0.add_local(fp, 0);
  std::vector<BoundedFpSet> l1;
  l1.emplace_back(1024, 3, 3);
  l1.back().add_local(fp, 1);
  l0.merge_many(std::move(l1));  // D = 2, extras = 1

  const auto shuffle = core::identity_shuffle(3);
  const auto pos = core::invert_shuffle(shuffle);
  const ShuffleContext ctx{shuffle, pos};
  const auto plan = plan_collective(w.local, *w.chunker, l0, 0, 3, &ctx);
  ASSERT_EQ(plan.assignments.size(), 1u);
  // Partner slot 1 -> rank 1 (designated), slot 2 -> rank 2 (clean).
  EXPECT_EQ(plan.assignments[0].send_slots, std::vector<std::uint8_t>{2});
}

TEST_F(PlanCollectiveTest, LoadVectorMatchesAssignments) {
  const Workload w(6, /*dups=*/1);
  const auto view = view_with(w, 0, {0, 1});
  const auto plan = plan_collective(w.local, *w.chunker, view, 0, kK, nullptr);
  std::vector<std::uint64_t> counted(kK, 0);
  for (const auto& a : plan.assignments) {
    if (a.store_local) ++counted[0];
    for (const auto p : a.send_slots) ++counted[p];
  }
  EXPECT_EQ(plan.load, counted);
}

}  // namespace
