// Differential suite for the flat ReplicaHealthSet, the operand of the
// repair / recovery audit: random per-rank stores merged in random
// reduction-tree orders, with archive hops in between as the allreduce
// makes them, must match a std::map oracle that applies the health rules
// directly — counts summed over ranks, sorted holders kept only while the
// count is below K.  Also pins canonical bytes, lookups of absent
// fingerprints, and the decoder's handling of corrupt archives.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <random>
#include <stdexcept>
#include <vector>

#include "core/fingerprint_set.hpp"
#include "hash/fingerprint.hpp"
#include "simmpi/archive.hpp"

namespace {

using namespace collrep;
using core::HealthEntry;
using core::ReplicaHealthSet;

struct OracleEntry {
  std::uint32_t count = 0;
  std::uint32_t length = 0;
  std::vector<std::int32_t> holders;  // every contributing rank, ascending
};
using Oracle = std::map<hash::Fingerprint, OracleEntry>;

// u64-derived ids, full-width random digests, and neighbours sharing
// their first 8 bytes — the last force the full-fingerprint planning pass
// when both land in one input, and the cross-input collision check when
// they do not.
std::vector<hash::Fingerprint> make_universe(std::mt19937_64& rng,
                                             std::size_t n) {
  std::vector<hash::Fingerprint> u;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint8_t digest[hash::Fingerprint::kBytes];
    if (i % 3 == 0) {
      u.push_back(hash::Fingerprint::from_u64(rng()));
      continue;
    }
    if (i % 3 == 1) {
      for (auto& b : digest) b = static_cast<std::uint8_t>(rng());
    } else {
      std::memcpy(digest, u.back().bytes().data(), sizeof digest);
      digest[19] ^= static_cast<std::uint8_t>(1 + rng() % 255);
    }
    u.emplace_back(std::span<const std::uint8_t>{digest});
  }
  std::sort(u.begin(), u.end());
  u.erase(std::unique(u.begin(), u.end()), u.end());
  return u;
}

std::uint32_t length_of(const hash::Fingerprint& fp) {
  return 512u + 16u * fp.bytes()[5];
}

ReplicaHealthSet round_trip(const ReplicaHealthSet& s) {
  return simmpi::from_bytes<ReplicaHealthSet>(simmpi::to_bytes(s));
}

// Folds `sets` pairwise in a random tree order, sending each incoming
// operand through the archive half of the time; every merge must report
// the incoming operand's size as its scan count.
ReplicaHealthSet merge_randomly(std::vector<ReplicaHealthSet> sets,
                                std::mt19937_64& rng) {
  while (sets.size() > 1) {
    const std::size_t j = rng() % sets.size();
    ReplicaHealthSet incoming = std::move(sets[j]);
    sets.erase(sets.begin() + static_cast<std::ptrdiff_t>(j));
    if (rng() % 2 == 0) incoming = round_trip(incoming);
    const std::size_t i = rng() % sets.size();
    const std::size_t incoming_size = incoming.size();
    EXPECT_EQ(sets[i].merge_from(std::move(incoming)), incoming_size);
  }
  return std::move(sets.front());
}

void expect_matches_oracle(const ReplicaHealthSet& got, const Oracle& want,
                           int k, int trial) {
  ASSERT_EQ(got.size(), want.size()) << trial;
  const auto entries = got.entries();
  std::size_t i = 0;
  for (const auto& [fp, w] : want) {
    const HealthEntry& e = entries[i++];
    ASSERT_EQ(e.fp, fp) << trial;
    EXPECT_EQ(e.count, w.count) << trial;
    EXPECT_EQ(e.length, w.length) << trial;
    const auto h = got.holders(e);
    const std::vector<std::int32_t> want_holders =
        static_cast<int>(w.count) < k ? w.holders
                                      : std::vector<std::int32_t>{};
    EXPECT_EQ(std::vector<std::int32_t>(h.begin(), h.end()), want_holders)
        << trial;
    EXPECT_EQ(got.find(fp), &e) << trial;
  }
}

TEST(HealthSet, RandomTreeMergesMatchMapOracle) {
  std::mt19937_64 rng(0x4EA17B5E7ull);
  for (int trial = 0; trial < 64; ++trial) {
    const int k = 1 + trial % 4;
    const int nranks = 1 + static_cast<int>(rng() % 9);
    const auto universe = make_universe(rng, 40 + rng() % 160);
    const unsigned hold_pct = 10 + static_cast<unsigned>(rng() % 60);

    Oracle oracle;
    std::vector<ReplicaHealthSet> leaves;
    for (int rank = 0; rank < nranks; ++rank) {
      std::vector<hash::Fingerprint> held;
      for (const auto& fp : universe) {
        if (rng() % 100 < hold_pct) held.push_back(fp);
      }
      std::shuffle(held.begin(), held.end(), rng);  // seal must sort
      ReplicaHealthSet leaf(k);
      for (const auto& fp : held) {
        leaf.add_local(fp, length_of(fp), rank);
        OracleEntry& o = oracle[fp];
        o.count += 1;
        o.length = length_of(fp);
        o.holders.push_back(rank);  // ranks arrive ascending
      }
      leaves.push_back(std::move(leaf));
    }

    const ReplicaHealthSet a = merge_randomly(leaves, rng);
    EXPECT_EQ(a.k(), k);
    expect_matches_oracle(a, oracle, k, trial);

    // Canonical bytes: another tree order and a load/save cycle reproduce
    // the same archive.
    const ReplicaHealthSet b = merge_randomly(leaves, rng);
    const auto bytes = simmpi::to_bytes(a);
    EXPECT_EQ(simmpi::to_bytes(b), bytes) << trial;
    EXPECT_EQ(simmpi::to_bytes(round_trip(a)), bytes) << trial;

    // Absent fingerprints: outside the universe, and one bit away from a
    // present one (same 8-byte prefix).
    EXPECT_EQ(a.find(hash::Fingerprint::from_u64(rng())), nullptr) << trial;
    for (const auto& [fp, w] : oracle) {
      std::uint8_t digest[hash::Fingerprint::kBytes];
      std::memcpy(digest, fp.bytes().data(), sizeof digest);
      digest[19] ^= 0x80;
      const hash::Fingerprint near{std::span<const std::uint8_t>{digest}};
      if (oracle.count(near) == 0) {
        EXPECT_EQ(a.find(near), nullptr) << trial;
      }
    }
  }
}

hash::Fingerprint fp_with_prefix(std::uint64_t prefix, std::uint8_t tail) {
  std::uint8_t digest[hash::Fingerprint::kBytes] = {};
  for (int i = 0; i < 8; ++i) {
    digest[i] = static_cast<std::uint8_t>(prefix >> (56 - 8 * i));
  }
  digest[19] = tail;
  return hash::Fingerprint(digest);
}

TEST(HealthSet, PrefixCollisionsFallBackAndMergeCorrectly) {
  // Fingerprints sharing their first 8 bytes defeat the 64-bit planning
  // keys.  Within one input they force plan_merge's full-fingerprint
  // pass; across inputs the kernel plans a match that merge_flat must
  // split back into two entries.  Either way the merge matches the oracle.
  constexpr int kK = 3;
  for (const bool collide_within : {true, false}) {
    ReplicaHealthSet a(kK);
    ReplicaHealthSet b(kK);
    Oracle oracle;
    const auto add = [&](ReplicaHealthSet& s, const hash::Fingerprint& fp,
                         int rank) {
      s.add_local(fp, length_of(fp), rank);
      OracleEntry& o = oracle[fp];
      o.count += 1;
      o.length = length_of(fp);
      o.holders.push_back(rank);  // rank 0 is added first
    };
    // Distinct-prefix background so the planned path has real work.
    for (std::uint64_t i = 0; i < 30; ++i) {
      add(a, fp_with_prefix(i * 11 + 1, 0), 0);
      if (i % 3 != 0) add(b, fp_with_prefix(i * 11 + 1, 0), 1);
      add(b, fp_with_prefix(i * 11 + 5, 0), 1);
    }
    if (collide_within) {
      add(a, fp_with_prefix(500, 1), 0);
      add(a, fp_with_prefix(500, 2), 0);
      add(b, fp_with_prefix(500, 2), 1);
    } else {
      // Cross-input-only collision: equal planning keys, unequal digests.
      add(a, fp_with_prefix(500, 1), 0);
      add(b, fp_with_prefix(500, 2), 1);
      // And one genuine cross-input duplicate for contrast.
      add(a, fp_with_prefix(600, 7), 0);
      add(b, fp_with_prefix(600, 7), 1);
    }
    const std::size_t incoming = b.size();
    EXPECT_EQ(a.merge_from(std::move(b)), incoming) << collide_within;
    expect_matches_oracle(a, oracle, kK, collide_within ? 1 : 0);
  }
}

TEST(HealthSet, EmptyAndSingletonSets) {
  ReplicaHealthSet empty(3);
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.find(hash::Fingerprint::from_u64(1)), nullptr);
  EXPECT_EQ(round_trip(empty).size(), 0u);

  ReplicaHealthSet one(3);
  one.add_local(hash::Fingerprint::from_u64(9), 4096, 5);
  EXPECT_EQ(one.merge_from(std::move(empty)), 0u);
  const HealthEntry* e = one.find(hash::Fingerprint::from_u64(9));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->count, 1u);
  EXPECT_EQ(e->length, 4096u);
  const auto h = one.holders(*e);
  EXPECT_EQ(std::vector<std::int32_t>(h.begin(), h.end()),
            std::vector<std::int32_t>{5});
}

TEST(HealthSet, DuplicateLocalAddRejected) {
  ReplicaHealthSet s(2);
  s.add_local(hash::Fingerprint::from_u64(4), 64, 0);
  s.add_local(hash::Fingerprint::from_u64(4), 64, 0);
  EXPECT_THROW((void)s.entries(), std::logic_error);
}

ReplicaHealthSet sample_set() {
  std::mt19937_64 rng(0x5EED);
  const auto universe = make_universe(rng, 60);
  std::vector<ReplicaHealthSet> leaves;
  for (int rank = 0; rank < 4; ++rank) {
    ReplicaHealthSet leaf(3);
    for (const auto& fp : universe) {
      if (rng() % 2 == 0) leaf.add_local(fp, length_of(fp), rank);
    }
    leaves.push_back(std::move(leaf));
  }
  return merge_randomly(std::move(leaves), rng);
}

TEST(HealthSet, TruncatedArchiveThrows) {
  const auto bytes = simmpi::to_bytes(sample_set());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW((void)simmpi::from_bytes<ReplicaHealthSet>(
                     std::span<const std::uint8_t>{bytes.data(), len}),
                 std::runtime_error)
        << len;
  }
}

TEST(HealthSet, HugeEntryCountThrows) {
  auto bytes = simmpi::to_bytes(sample_set());
  // Header: i32 K, then the u64 entry count.
  for (const std::uint64_t count :
       {std::uint64_t{1} << 40, std::uint64_t{1} << 62, ~std::uint64_t{0}}) {
    std::memcpy(bytes.data() + sizeof(std::int32_t), &count, sizeof count);
    EXPECT_THROW((void)simmpi::from_bytes<ReplicaHealthSet>(bytes),
                 std::runtime_error)
        << count;
  }
}

TEST(HealthSet, MutatedArchivesDecodeOrThrowRuntimeError) {
  const auto clean = simmpi::to_bytes(sample_set());
  std::mt19937_64 rng(0xF1A7);
  for (int trial = 0; trial < 2000; ++trial) {
    auto bytes = clean;
    const int flips = 1 + static_cast<int>(rng() % 4);
    for (int f = 0; f < flips; ++f) {
      bytes[rng() % bytes.size()] = static_cast<std::uint8_t>(rng());
    }
    try {
      (void)simmpi::from_bytes<ReplicaHealthSet>(bytes);
    } catch (const std::runtime_error&) {
      // The documented failure; anything else escapes and fails the test.
    }
  }
}

}  // namespace
