// Chunker, ChunkStore and Manifest semantics, including failure behaviour.
#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <vector>

#include "chunk/dataset.hpp"
#include "chunk/manifest.hpp"
#include "chunk/store.hpp"
#include "hash/fingerprint.hpp"

namespace {

using namespace collrep;
using chunk::Chunker;
using chunk::ChunkStore;
using chunk::Dataset;
using hash::Fingerprint;

std::vector<std::uint8_t> iota_bytes(std::size_t n, std::uint8_t start = 0) {
  std::vector<std::uint8_t> v(n);
  std::iota(v.begin(), v.end(), start);
  return v;
}

// -- Chunker -----------------------------------------------------------------

TEST(Chunker, ExactMultiple) {
  const auto data = iota_bytes(1024);
  Dataset ds;
  ds.add_segment(data);
  const Chunker chunker(ds, 256);
  ASSERT_EQ(chunker.count(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(chunker.ref(i).length, 256u);
    EXPECT_EQ(chunker.bytes(i).size(), 256u);
    EXPECT_EQ(chunker.bytes(i)[0], static_cast<std::uint8_t>(i * 256));
  }
}

TEST(Chunker, TailChunkIsShort) {
  const auto data = iota_bytes(1000);
  Dataset ds;
  ds.add_segment(data);
  const Chunker chunker(ds, 256);
  ASSERT_EQ(chunker.count(), 4u);
  EXPECT_EQ(chunker.ref(3).length, 1000u - 3 * 256u);
}

TEST(Chunker, ChunksNeverStraddleSegments) {
  const auto seg_a = iota_bytes(300);
  const auto seg_b = iota_bytes(300, 100);
  Dataset ds;
  ds.add_segment(seg_a);
  ds.add_segment(seg_b);
  const Chunker chunker(ds, 256);
  ASSERT_EQ(chunker.count(), 4u);  // 256+44 | 256+44
  EXPECT_EQ(chunker.ref(0).segment, 0u);
  EXPECT_EQ(chunker.ref(1).length, 44u);
  EXPECT_EQ(chunker.ref(2).segment, 1u);
  EXPECT_EQ(chunker.ref(3).length, 44u);
}

TEST(Chunker, EmptyDataset) {
  Dataset ds;
  const Chunker chunker(ds, 4096);
  EXPECT_EQ(chunker.count(), 0u);
  EXPECT_EQ(ds.total_bytes(), 0u);
}

TEST(Chunker, EmptySegmentContributesNoChunks) {
  Dataset ds;
  ds.add_segment({});
  const auto data = iota_bytes(10);
  ds.add_segment(data);
  const Chunker chunker(ds, 4);
  EXPECT_EQ(chunker.count(), 3u);
}

TEST(Chunker, SingleByteChunks) {
  const auto data = iota_bytes(5);
  Dataset ds;
  ds.add_segment(data);
  const Chunker chunker(ds, 1);
  ASSERT_EQ(chunker.count(), 5u);
  EXPECT_EQ(chunker.bytes(4)[0], 4);
}

TEST(Chunker, ZeroChunkSizeRejected) {
  Dataset ds;
  EXPECT_THROW(Chunker(ds, 0), std::invalid_argument);
}

TEST(Chunker, ChunkLargerThanSegment) {
  const auto data = iota_bytes(100);
  Dataset ds;
  ds.add_segment(data);
  const Chunker chunker(ds, 4096);
  ASSERT_EQ(chunker.count(), 1u);
  EXPECT_EQ(chunker.ref(0).length, 100u);
}

TEST(Dataset, TotalBytesAccumulates) {
  const auto a = iota_bytes(10);
  const auto b = iota_bytes(20);
  Dataset ds;
  ds.add_segment(a);
  ds.add_segment(b);
  EXPECT_EQ(ds.total_bytes(), 30u);
  EXPECT_EQ(ds.segment_count(), 2u);
}

// -- ChunkStore --------------------------------------------------------------

TEST(ChunkStore, PutGetRoundTrip) {
  ChunkStore store;
  const auto payload = iota_bytes(128);
  const auto fp = Fingerprint::from_u64(1);
  EXPECT_TRUE(store.put(fp, payload));
  ASSERT_TRUE(store.get(fp).has_value());
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(),
                         store.get(fp)->begin()));
  EXPECT_EQ(store.chunk_length(fp), 128u);
}

TEST(ChunkStore, DuplicatePutIsIdempotent) {
  ChunkStore store;
  const auto payload = iota_bytes(64);
  const auto fp = Fingerprint::from_u64(2);
  EXPECT_TRUE(store.put(fp, payload));
  EXPECT_FALSE(store.put(fp, payload));
  EXPECT_EQ(store.chunk_count(), 1u);
  EXPECT_EQ(store.stored_bytes(), 64u);
}

TEST(ChunkStore, MissingChunkReturnsNullopt) {
  ChunkStore store;
  EXPECT_FALSE(store.get(Fingerprint::from_u64(9)).has_value());
  EXPECT_FALSE(store.contains(Fingerprint::from_u64(9)));
  EXPECT_FALSE(store.chunk_length(Fingerprint::from_u64(9)).has_value());
}

TEST(ChunkStore, AccountingModeTracksBytesWithoutPayload) {
  ChunkStore store(chunk::StoreMode::kAccounting);
  EXPECT_TRUE(store.put_accounted(Fingerprint::from_u64(1), 4096));
  EXPECT_FALSE(store.put_accounted(Fingerprint::from_u64(1), 4096));
  EXPECT_EQ(store.stored_bytes(), 4096u);
  EXPECT_TRUE(store.contains(Fingerprint::from_u64(1)));
  EXPECT_THROW((void)store.get(Fingerprint::from_u64(1)), std::logic_error);
}

TEST(ChunkStore, PutAccountedRejectedInPayloadMode) {
  ChunkStore store(chunk::StoreMode::kPayload);
  EXPECT_THROW(store.put_accounted(Fingerprint::from_u64(1), 16),
               std::logic_error);
}

TEST(ChunkStore, AccountingModePutKeepsNoPayload) {
  ChunkStore store(chunk::StoreMode::kAccounting);
  const auto payload = iota_bytes(256);
  EXPECT_TRUE(store.put(Fingerprint::from_u64(3), payload));
  EXPECT_EQ(store.stored_bytes(), 256u);
  EXPECT_THROW((void)store.get(Fingerprint::from_u64(3)), std::logic_error);
}

TEST(ChunkStore, FailedStoreThrowsOnAccess) {
  ChunkStore store;
  const auto payload = iota_bytes(8);
  store.put(Fingerprint::from_u64(1), payload);
  store.fail();
  EXPECT_TRUE(store.failed());
  EXPECT_THROW((void)store.contains(Fingerprint::from_u64(1)),
               chunk::StoreFailedError);
  EXPECT_THROW(store.put(Fingerprint::from_u64(2), payload),
               chunk::StoreFailedError);
  store.recover();
  EXPECT_TRUE(store.contains(Fingerprint::from_u64(1)));  // data survived
}

TEST(ChunkStore, ClearResetsEverything) {
  ChunkStore store;
  const auto payload = iota_bytes(8);
  store.put(Fingerprint::from_u64(1), payload);
  chunk::Manifest m;
  m.owner_rank = 0;
  store.put_manifest(m);
  store.clear();
  EXPECT_EQ(store.chunk_count(), 0u);
  EXPECT_EQ(store.stored_bytes(), 0u);
  EXPECT_EQ(store.manifest_for(0), nullptr);
}

// -- ChunkStore index ----------------------------------------------------------

// Fingerprint whose first 8 bytes are `prefix` and whose remaining bytes
// carry `tail`, so distinct tails share the probe key.
Fingerprint with_prefix(std::uint64_t prefix, std::uint32_t tail) {
  Fingerprint fp = Fingerprint::from_u64(prefix);
  auto bytes = fp.bytes();
  for (std::size_t i = 0; i < 4; ++i) {
    bytes[16 + i] = static_cast<std::uint8_t>(tail >> (8 * i));
  }
  return fp;
}

TEST(ChunkStoreIndex, SharedPrefixesStayDistinct) {
  ChunkStore store;
  for (std::uint32_t t = 0; t < 40; ++t) {
    const auto payload = iota_bytes(t + 1, static_cast<std::uint8_t>(t));
    EXPECT_TRUE(store.put(with_prefix(0xfeedULL, t), payload));
  }
  EXPECT_EQ(store.chunk_count(), 40u);
  for (std::uint32_t t = 0; t < 40; ++t) {
    const auto fp = with_prefix(0xfeedULL, t);
    ASSERT_TRUE(store.get(fp).has_value()) << t;
    EXPECT_EQ(store.get(fp)->size(), t + 1u);
    EXPECT_EQ((*store.get(fp))[0], static_cast<std::uint8_t>(t));
    EXPECT_EQ(store.chunk_length(fp), t + 1u);
  }
  EXPECT_FALSE(store.contains(with_prefix(0xfeedULL, 40)));
  EXPECT_FALSE(store.contains(with_prefix(0xbeefULL, 0)));
}

TEST(ChunkStoreIndex, LookupsHoldAcrossTableGrowths) {
  ChunkStore store;
  constexpr std::uint64_t kChunks = 5000;  // doubles the table ten times
  std::uint64_t bytes = 0;
  for (std::uint64_t i = 0; i < kChunks; ++i) {
    // Keys that differ only in high prefix bytes as well as low ones.
    const auto fp = Fingerprint::from_u64(i % 2 == 0 ? i : i << 40);
    const auto payload = iota_bytes(i % 61 + 1, static_cast<std::uint8_t>(i));
    ASSERT_TRUE(store.put(fp, payload));
    bytes += payload.size();
    // Everything stored so far is still found, nothing else is.
    if ((i & (i + 1)) == 0) {
      for (std::uint64_t j = 0; j <= i; ++j) {
        const auto fj = Fingerprint::from_u64(j % 2 == 0 ? j : j << 40);
        ASSERT_TRUE(store.contains(fj)) << j << " after " << i;
        ASSERT_EQ(store.chunk_length(fj), j % 61 + 1) << j;
        ASSERT_EQ((*store.get(fj))[0], static_cast<std::uint8_t>(j)) << j;
      }
      EXPECT_FALSE(store.contains(Fingerprint::from_u64(kChunks * 4 + i)));
    }
  }
  EXPECT_EQ(store.chunk_count(), kChunks);
  EXPECT_EQ(store.stored_bytes(), bytes);
}

TEST(ChunkStoreIndex, DuplicatePutKeepsFirstPayloadAndBytes) {
  ChunkStore store;
  const auto first = iota_bytes(32, 1);
  const auto second = iota_bytes(48, 9);
  for (std::uint64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(store.put(Fingerprint::from_u64(i), first));
  }
  const std::uint64_t before = store.stored_bytes();
  for (std::uint64_t i = 0; i < 20; ++i) {
    EXPECT_FALSE(store.put(Fingerprint::from_u64(i), second));
  }
  EXPECT_EQ(store.stored_bytes(), before);
  EXPECT_EQ(store.chunk_count(), 20u);
  EXPECT_EQ(store.get(Fingerprint::from_u64(7))->size(), 32u);
  EXPECT_EQ((*store.get(Fingerprint::from_u64(7)))[0], 1);
}

TEST(ChunkStoreIndex, EmptiedStoresAcceptTheSameFingerprintsAgain) {
  const auto payload = iota_bytes(16);
  const auto fill = [&](ChunkStore& store) {
    for (std::uint64_t i = 0; i < 100; ++i) {
      ASSERT_TRUE(store.put(Fingerprint::from_u64(i), payload));
    }
  };
  ChunkStore cleared;
  ChunkStore wiped;
  ChunkStore replaced;
  for (ChunkStore* s : {&cleared, &wiped, &replaced}) fill(*s);
  cleared.clear();
  wiped.wipe();
  replaced.fail();
  replaced.recover_empty();
  for (ChunkStore* s : {&cleared, &wiped, &replaced}) {
    EXPECT_EQ(s->chunk_count(), 0u);
    EXPECT_EQ(s->stored_bytes(), 0u);
    EXPECT_FALSE(s->contains(Fingerprint::from_u64(5)));
    fill(*s);
    EXPECT_EQ(s->chunk_count(), 100u);
    EXPECT_EQ(s->stored_bytes(), 1600u);
    EXPECT_TRUE(s->contains(Fingerprint::from_u64(99)));
  }
}

TEST(ChunkStoreIndex, ForEachChunkVisitsEveryChunkOnce) {
  ChunkStore store(chunk::StoreMode::kAccounting);
  std::map<Fingerprint, std::uint32_t> want;
  for (std::uint64_t i = 0; i < 300; ++i) {
    const auto fp = Fingerprint::from_u64(i * 0x9e3779b97f4a7c15ULL);
    const auto len = static_cast<std::uint32_t>(i + 1);
    ASSERT_TRUE(store.put_accounted(fp, len));
    (void)store.put_accounted(fp, len);  // duplicate: still one visit
    want[fp] = len;
  }
  std::map<Fingerprint, std::uint32_t> seen;
  store.for_each_chunk([&](const Fingerprint& fp, std::uint32_t len) {
    EXPECT_TRUE(seen.emplace(fp, len).second) << "visited twice";
  });
  EXPECT_EQ(seen, want);
}

TEST(ChunkStoreIndex, SpansFromGetSurviveLaterPuts) {
  ChunkStore store;
  const auto payload = iota_bytes(100, 3);
  ASSERT_TRUE(store.put(Fingerprint::from_u64(1), payload));
  const auto span = *store.get(Fingerprint::from_u64(1));
  const std::uint8_t* data = span.data();
  // Enough puts to grow both the slot vector and the bucket table.
  for (std::uint64_t i = 2; i < 3000; ++i) {
    ASSERT_TRUE(store.put(Fingerprint::from_u64(i), iota_bytes(8)));
  }
  EXPECT_EQ(store.get(Fingerprint::from_u64(1))->data(), data);
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), span.begin()));
}

// -- Manifests ----------------------------------------------------------------

TEST(ChunkStore, ManifestNewestEpochWins) {
  ChunkStore store;
  chunk::Manifest old_m;
  old_m.owner_rank = 3;
  old_m.epoch = 1;
  old_m.segment_sizes = {100};
  chunk::Manifest new_m;
  new_m.owner_rank = 3;
  new_m.epoch = 2;
  new_m.segment_sizes = {200};

  store.put_manifest(new_m);
  store.put_manifest(old_m);  // stale write must not regress
  const chunk::Manifest* kept = store.manifest_for(3);
  ASSERT_NE(kept, nullptr);
  EXPECT_EQ(kept->epoch, 2u);
  EXPECT_EQ(kept->segment_sizes[0], 200u);
}

TEST(ChunkStore, ManifestsPerOwnerAreIndependent) {
  ChunkStore store;
  chunk::Manifest a;
  a.owner_rank = 1;
  chunk::Manifest b;
  b.owner_rank = 2;
  b.epoch = 5;
  store.put_manifest(a);
  store.put_manifest(b);
  const chunk::Manifest* ma = store.manifest_for(1);
  const chunk::Manifest* mb = store.manifest_for(2);
  ASSERT_NE(ma, nullptr);
  ASSERT_NE(mb, nullptr);
  EXPECT_EQ(ma->epoch, 0u);
  EXPECT_EQ(mb->epoch, 5u);
  EXPECT_EQ(store.manifest_for(7), nullptr);
}

}  // namespace
