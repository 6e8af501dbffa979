// BoundedFpSet / HMERGE algebra: frequency accumulation, the top-F bound,
// load-aware K-truncation, serialization, and reduction-order robustness.
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <stdexcept>
#include <vector>

#include "core/fingerprint_set.hpp"
#include "simmpi/archive.hpp"

namespace {

using namespace collrep;
using core::BoundedFpSet;
using hash::Fingerprint;

Fingerprint fp(std::uint64_t id) { return Fingerprint::from_u64(id); }

BoundedFpSet leaf(std::uint32_t f, int k, int nranks, int rank,
                  std::initializer_list<std::uint64_t> ids) {
  BoundedFpSet s(f, k, nranks);
  for (const auto id : ids) s.add_local(fp(id), rank);
  s.enforce_f();
  return s;
}

// Designated ranks of `f` as a materialized vector (empty when absent).
std::vector<std::int32_t> ranks_of(const BoundedFpSet& s, const Fingerprint& f) {
  const auto* e = s.find(f);
  if (e == nullptr) return {};
  const auto r = s.ranks(*e);
  return {r.begin(), r.end()};
}

TEST(BoundedFpSet, LeafConstruction) {
  const auto s = leaf(16, 3, 4, 2, {1, 2, 3});
  EXPECT_EQ(s.size(), 3u);
  ASSERT_NE(s.find(fp(1)), nullptr);
  EXPECT_EQ(s.find(fp(1))->freq, 1u);
  EXPECT_EQ(ranks_of(s, fp(1)), std::vector<std::int32_t>{2});
  EXPECT_EQ(s.rank_load()[2], 3u);
  EXPECT_TRUE(s.check_invariants());
}

TEST(BoundedFpSet, DuplicateLocalAddRejected) {
  // Adds are O(1) appends; the duplicate is diagnosed at the seal point.
  BoundedFpSet s(16, 3, 2);
  s.add_local(fp(1), 0);
  s.add_local(fp(1), 0);
  EXPECT_THROW(s.enforce_f(), std::logic_error);
}

TEST(BoundedFpSet, InvalidParamsRejected) {
  EXPECT_THROW(BoundedFpSet(0, 3, 2), std::invalid_argument);
  EXPECT_THROW(BoundedFpSet(16, 0, 2), std::invalid_argument);
  EXPECT_THROW(BoundedFpSet(16, 3, 0), std::invalid_argument);
}

TEST(BoundedFpSet, MergeSumsFrequencies) {
  auto a = leaf(16, 3, 4, 0, {1, 2});
  auto b = leaf(16, 3, 4, 1, {2, 3});
  a.merge_from(std::move(b));
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(a.find(fp(1))->freq, 1u);
  EXPECT_EQ(a.find(fp(2))->freq, 2u);
  EXPECT_EQ(ranks_of(a, fp(2)), (std::vector<std::int32_t>{0, 1}));
  EXPECT_TRUE(a.check_invariants());
}

TEST(BoundedFpSet, MergeIncompatibleOperandsThrows) {
  auto a = leaf(16, 3, 4, 0, {1});
  EXPECT_THROW(a.merge_from(leaf(16, 2, 4, 1, {1})), std::invalid_argument);
  auto c = leaf(16, 3, 4, 0, {1});
  EXPECT_THROW(c.merge_from(leaf(8, 3, 4, 1, {1})), std::invalid_argument);
  auto d = leaf(16, 3, 4, 0, {1});
  EXPECT_THROW(d.merge_from(leaf(16, 3, 5, 1, {1})), std::invalid_argument);
}

TEST(BoundedFpSet, RankListCappedAtK) {
  constexpr int kK = 3;
  auto acc = leaf(64, kK, 8, 0, {7});
  for (int r = 1; r < 8; ++r) {
    acc.merge_from(leaf(64, kK, 8, r, {7}));
  }
  const auto* e = acc.find(fp(7));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->freq, 8u);  // frequency keeps counting past K
  EXPECT_EQ(acc.ranks(*e).size(), 3u);
  EXPECT_TRUE(acc.check_invariants());
}

TEST(BoundedFpSet, TruncationDropsMostLoadedRanks) {
  constexpr int kK = 2;
  // Rank 0 is designated for many fingerprints; rank 1 and 2 for one each.
  auto heavy = leaf(64, kK, 3, 0, {10, 11, 12, 13, 14});
  auto light1 = leaf(64, kK, 3, 1, {10});
  auto light2 = leaf(64, kK, 3, 2, {10});
  heavy.merge_from(std::move(light1));
  heavy.merge_from(std::move(light2));
  const auto* e = heavy.find(fp(10));
  ASSERT_NE(e, nullptr);
  ASSERT_EQ(heavy.ranks(*e).size(), 2u);
  // Rank 0 (load 5) must have been eliminated in favour of ranks 1 and 2.
  EXPECT_EQ(ranks_of(heavy, fp(10)), (std::vector<std::int32_t>{1, 2}));
  EXPECT_TRUE(heavy.check_invariants());
}

TEST(BoundedFpSet, TopFKeepsMostFrequent) {
  constexpr std::uint32_t kF = 2;
  // fp 1 appears on 3 ranks, fp 2 on 2 ranks, fp 3 on 1 rank.
  auto a = leaf(kF, 4, 4, 0, {1, 2, 3});
  auto b = leaf(kF, 4, 4, 1, {1, 2});
  auto c = leaf(kF, 4, 4, 2, {1});
  a.merge_from(std::move(b));
  a.merge_from(std::move(c));
  EXPECT_EQ(a.size(), 2u);
  ASSERT_NE(a.find(fp(1)), nullptr);
  EXPECT_EQ(a.find(fp(1))->freq, 3u);
  ASSERT_NE(a.find(fp(2)), nullptr);
  EXPECT_EQ(a.find(fp(3)), nullptr);  // least frequent was dropped
  EXPECT_TRUE(a.check_invariants());
}

TEST(BoundedFpSet, EnforceFOnOversizedLeaf) {
  BoundedFpSet s(4, 2, 2);
  for (std::uint64_t i = 0; i < 10; ++i) s.add_local(fp(i), 0);
  const auto stats = s.enforce_f();
  EXPECT_EQ(s.size(), 4u);
  EXPECT_EQ(stats.entries_dropped_f, 6u);
  EXPECT_EQ(s.rank_load()[0], 4u);
  EXPECT_TRUE(s.check_invariants());
}

TEST(BoundedFpSet, MergeStatsReportScanAndDrops) {
  auto a = leaf(4, 2, 4, 0, {1, 2, 3, 4});
  auto b = leaf(4, 2, 4, 1, {5, 6, 7, 8});
  const auto stats = a.merge_from(std::move(b));
  EXPECT_EQ(stats.entries_scanned, 4u);
  EXPECT_EQ(stats.entries_dropped_f, 4u);  // 8 candidates, F = 4
  EXPECT_EQ(a.size(), 4u);
  EXPECT_TRUE(a.check_invariants());
}

TEST(BoundedFpSet, FrequencyContentIsMergeOrderIndependent) {
  // With F large enough that nothing is dropped, any reduction order must
  // produce identical (fp -> freq) content.  Designated-rank lists may
  // differ (load-based) but their sizes must match.
  constexpr int kRanks = 6;
  const auto make_leaf = [&](int r) {
    return leaf(1024, 3, kRanks,
                r, {static_cast<std::uint64_t>(r % 3), 100, 200ull + r});
  };

  auto left = make_leaf(0);
  for (int r = 1; r < kRanks; ++r) left.merge_from(make_leaf(r));

  // Pairwise tree order.
  auto t01 = make_leaf(0);
  t01.merge_from(make_leaf(1));
  auto t23 = make_leaf(2);
  t23.merge_from(make_leaf(3));
  auto t45 = make_leaf(4);
  t45.merge_from(make_leaf(5));
  t01.merge_from(std::move(t23));
  t01.merge_from(std::move(t45));

  EXPECT_EQ(left.size(), t01.size());
  for (const auto& e : left.entries()) {
    const auto* other = t01.find(e.fp);
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(other->freq, e.freq);
    EXPECT_EQ(t01.ranks(*other).size(), left.ranks(e).size());
  }
  EXPECT_TRUE(left.check_invariants());
  EXPECT_TRUE(t01.check_invariants());
}

TEST(BoundedFpSet, PruneSingletonsKeepsOnlySharedEntries) {
  auto a = leaf(64, 3, 4, 0, {1, 2, 3});
  a.merge_from(leaf(64, 3, 4, 1, {2, 3}));
  a.merge_from(leaf(64, 3, 4, 2, {3}));
  EXPECT_EQ(a.prune_singletons(), 1u);  // fp 1 had freq 1
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a.find(fp(1)), nullptr);
  ASSERT_NE(a.find(fp(2)), nullptr);
  EXPECT_EQ(a.find(fp(3))->freq, 3u);
  EXPECT_TRUE(a.check_invariants());
  EXPECT_EQ(a.prune_singletons(), 0u);  // idempotent
}

TEST(BoundedFpSet, SerializationRoundTrip) {
  auto a = leaf(16, 3, 4, 0, {1, 2});
  a.merge_from(leaf(16, 3, 4, 1, {2, 3}));

  const auto bytes = simmpi::to_bytes(a);
  const auto b = simmpi::from_bytes<BoundedFpSet>(bytes);

  EXPECT_EQ(b.size(), a.size());
  EXPECT_EQ(b.f_cap(), a.f_cap());
  EXPECT_EQ(b.k(), a.k());
  ASSERT_NE(b.find(fp(2)), nullptr);
  EXPECT_EQ(b.find(fp(2))->freq, 2u);
  EXPECT_EQ(ranks_of(b, fp(2)), (std::vector<std::int32_t>{0, 1}));
  EXPECT_TRUE(b.check_invariants());
}

TEST(BoundedFpSet, CorruptArchivesThrow) {
  BoundedFpSet a(64, 3, 4);
  for (std::uint64_t i = 0; i < 40; ++i) {
    a.add_local(fp(i * 0x9E3779B97F4A7C15ull), static_cast<int>(i % 4));
  }
  a.merge_from(leaf(64, 3, 4, 1, {7, 8, 9}));
  const auto bytes = simmpi::to_bytes(a);

  // Truncated anywhere: the decoder runs out of bytes and says so.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW((void)simmpi::from_bytes<BoundedFpSet>(
                     std::span<const std::uint8_t>{bytes.data(), len}),
                 std::runtime_error)
        << len;
  }

  // A huge entry count is rejected before anything is reserved for it.
  // Header: u32 F, i32 K, u32 nranks, u64 + 4 * nranks load vector.
  const std::size_t count_at = 3 * 4 + 8 + 4 * 4;
  for (const std::uint64_t count :
       {std::uint64_t{1} << 40, std::uint64_t{1} << 62, ~std::uint64_t{0}}) {
    auto corrupt = bytes;
    std::memcpy(corrupt.data() + count_at, &count, sizeof count);
    EXPECT_THROW((void)simmpi::from_bytes<BoundedFpSet>(corrupt),
                 std::runtime_error)
        << count;
  }

  // Random byte flips decode or fail with the documented exception.
  std::mt19937_64 rng(0xB0D5);
  for (int trial = 0; trial < 2000; ++trial) {
    auto mutated = bytes;
    mutated[rng() % mutated.size()] = static_cast<std::uint8_t>(rng());
    try {
      (void)simmpi::from_bytes<BoundedFpSet>(mutated);
    } catch (const std::runtime_error&) {
      // Anything else escapes and fails the test.
    }
  }
}

TEST(BoundedFpSet, SerializedSizeScalesWithEntries) {
  auto small = leaf(1024, 3, 4, 0, {1});
  BoundedFpSet big(1024, 3, 4);
  for (std::uint64_t i = 0; i < 100; ++i) big.add_local(fp(i), 0);
  EXPECT_GT(simmpi::to_bytes(big).size(), simmpi::to_bytes(small).size());
}

TEST(BoundedFpSet, LoadBalancingSpreadsDesignations) {
  // All ranks hold the same 12 fingerprints; with K=2 and 4 ranks the
  // designations should end up spread rather than piled on rank 0.
  constexpr int kRanks = 4;
  constexpr int kK = 2;
  const auto make_leaf = [&](int r) {
    BoundedFpSet s(64, kK, kRanks);
    for (std::uint64_t i = 0; i < 12; ++i) s.add_local(fp(i), r);
    s.enforce_f();
    return s;
  };
  auto acc = make_leaf(0);
  for (int r = 1; r < kRanks; ++r) acc.merge_from(make_leaf(r));

  const auto load = acc.rank_load();
  const std::uint32_t total = load[0] + load[1] + load[2] + load[3];
  EXPECT_EQ(total, 12u * kK);
  for (int r = 0; r < kRanks; ++r) {
    // Perfect balance would be 6 each; allow slack but forbid starvation
    // and monopolies.
    EXPECT_GE(load[r], 2u) << "rank " << r;
    EXPECT_LE(load[r], 10u) << "rank " << r;
  }
  EXPECT_TRUE(acc.check_invariants());
}

}  // namespace
