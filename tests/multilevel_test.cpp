// The decoupled PFS: store semantics, the pfs_dump/pfs_restore round
// trip, and aggregate-bandwidth timing (the paper's motivation).
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "apps/rng.hpp"
#include "core/collrep.hpp"
#include "ftrt/multilevel.hpp"

namespace {

using namespace collrep;
using ftrt::PfsStore;

std::vector<std::uint8_t> rank_data(int rank, std::size_t bytes) {
  std::vector<std::uint8_t> data(bytes);
  for (std::size_t i = 0; i < bytes; ++i) {
    data[i] = static_cast<std::uint8_t>(i * 7 + 31 * (rank + 1));
  }
  return data;
}

TEST(PfsStoreTest, ContentAddressedAcrossRanks) {
  PfsStore pfs;
  const std::vector<std::uint8_t> payload(64, 0xAC);
  EXPECT_TRUE(pfs.put(hash::Fingerprint::from_u64(1), payload));
  EXPECT_FALSE(pfs.put(hash::Fingerprint::from_u64(1), payload));
  EXPECT_EQ(pfs.stored_bytes(), 64u);
  ASSERT_TRUE(pfs.get(hash::Fingerprint::from_u64(1)).has_value());
  EXPECT_FALSE(pfs.get(hash::Fingerprint::from_u64(2)).has_value());
}

TEST(PfsDump, RoundTripsThroughSharedStore) {
  constexpr int kRanks = 4;
  PfsStore pfs;
  std::vector<std::vector<std::uint8_t>> originals(kRanks);
  simmpi::Runtime rt(kRanks);
  rt.run([&](simmpi::Comm& comm) {
    const int r = comm.rank();
    originals[static_cast<std::size_t>(r)] = rank_data(r, 2048);
    chunk::Dataset ds;
    ds.add_segment(originals[static_cast<std::size_t>(r)]);
    const auto stats =
        ftrt::pfs_dump(comm, pfs, ds, 256, hash::HashKind::kSha1, 1);
    EXPECT_GT(stats.total_time_s, 0.0);
  });
  for (int r = 0; r < kRanks; ++r) {
    const auto restored = ftrt::pfs_restore(pfs, r);
    EXPECT_EQ(restored.segments.at(0), originals[static_cast<std::size_t>(r)]);
  }
}

TEST(PfsDump, WrittenBytesCountTheStoredManifest) {
  // A rank writes its chunk payload plus the manifest the PFS now holds
  // for it; the manifest is counted before it moves into the store.
  constexpr int kRanks = 6;
  constexpr std::size_t kBytes = 16 * 1024;
  PfsStore pfs;
  std::vector<std::uint64_t> written(kRanks);
  simmpi::Runtime rt(kRanks);
  rt.run([&](simmpi::Comm& comm) {
    // Incompressible, so every chunk is locally unique and written.
    std::vector<std::uint8_t> data(kBytes);
    apps::SplitMix64 rng(7 + static_cast<std::uint64_t>(comm.rank()));
    rng.fill(data);
    chunk::Dataset ds;
    ds.add_segment(data);
    written[static_cast<std::size_t>(comm.rank())] =
        ftrt::pfs_dump(comm, pfs, ds, 512, hash::HashKind::kSha1, 1)
            .written_bytes;
  });
  for (int r = 0; r < kRanks; ++r) {
    const auto manifest = pfs.manifest_for(r);
    ASSERT_TRUE(manifest.has_value());
    EXPECT_EQ(manifest->entries.size(), kBytes / 512);
    EXPECT_EQ(written[static_cast<std::size_t>(r)],
              kBytes + chunk::manifest_wire_bytes(*manifest));
  }
}

TEST(PfsDump, AggregateBandwidthDoesNotScale) {
  // The motivating effect: doubling the rank count roughly doubles the
  // PFS dump time (one shared ingest pipe), whereas partner replication
  // keeps per-node resources.
  const auto pfs_time = [](int nranks) {
    PfsStore pfs;
    double time = 0.0;
    simmpi::Runtime rt(nranks);
    rt.run([&](simmpi::Comm& comm) {
      // Incompressible per-rank payload (dedup must not shrink it).
      std::vector<std::uint8_t> data(64 * 1024);
      apps::SplitMix64 rng(1000 + static_cast<std::uint64_t>(comm.rank()));
      rng.fill(data);
      chunk::Dataset ds;
      ds.add_segment(data);
      const auto stats =
          ftrt::pfs_dump(comm, pfs, ds, 512, hash::HashKind::kXx64, 1);
      if (comm.rank() == 0) time = stats.total_time_s;
    });
    return time;
  };
  const double t8 = pfs_time(8);
  const double t16 = pfs_time(16);
  // Fixed costs (request latency, per-rank hashing) are identical in the
  // two runs; the extra ingest time must match the extra bytes over the
  // shared pipe: 8 more ranks x 64 KiB / 2 GB/s.
  const double expected_delta =
      8.0 * 64 * 1024 / PfsStore::Model{}.aggregate_write_bps;
  EXPECT_GT(t16 - t8, 0.8 * expected_delta);
  // Allow ~1 ms on top for the log(N) growth of barrier/allreduce latency.
  EXPECT_LT(t16 - t8, expected_delta + 1e-3);
}

}  // namespace
