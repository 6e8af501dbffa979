// Erasure-coding substrate: GF(256) field axioms, Reed-Solomon MDS
// property under exhaustive and randomized erasure patterns, and the
// group-parity collective dump + decode-based restore.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <unordered_map>
#include <vector>

#include "apps/rng.hpp"
#include "apps/synth.hpp"
#include "core/collrep.hpp"
#include "ec/gf256.hpp"
#include "core/group_parity.hpp"
#include "ec/reed_solomon.hpp"
#include "hash/hasher.hpp"

namespace {

using namespace collrep;
using core::EcConfig;
using core::EcDumper;
using ec::ReedSolomon;

// -- GF(256) --------------------------------------------------------------------

TEST(Gf256, AdditionIsXor) {
  EXPECT_EQ(ec::gf_add(0x53, 0xCA), 0x53 ^ 0xCA);
  EXPECT_EQ(ec::gf_add(0x53, 0x53), 0);  // characteristic 2
}

TEST(Gf256, MultiplicationBasics) {
  EXPECT_EQ(ec::gf_mul(0, 0x37), 0);
  EXPECT_EQ(ec::gf_mul(1, 0x37), 0x37);
  EXPECT_EQ(ec::gf_mul(0x37, 1), 0x37);
  // Known products under 0x11D: x^8 = x^4 + x^3 + x^2 + 1 = 0x1D.
  EXPECT_EQ(ec::gf_mul(0x02, 0x80), 0x1D);
  EXPECT_EQ(ec::gf_mul(0x02, 0x02), 0x04);
}

TEST(Gf256, EveryNonzeroElementHasInverse) {
  for (int a = 1; a < 256; ++a) {
    const auto inv = ec::gf_inv(static_cast<std::uint8_t>(a));
    EXPECT_EQ(ec::gf_mul(static_cast<std::uint8_t>(a), inv), 1)
        << "a=" << a;
  }
}

TEST(Gf256, MultiplicationIsCommutativeAndAssociative) {
  apps::SplitMix64 rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    const auto a = static_cast<std::uint8_t>(rng.next());
    const auto b = static_cast<std::uint8_t>(rng.next());
    const auto c = static_cast<std::uint8_t>(rng.next());
    EXPECT_EQ(ec::gf_mul(a, b), ec::gf_mul(b, a));
    EXPECT_EQ(ec::gf_mul(ec::gf_mul(a, b), c), ec::gf_mul(a, ec::gf_mul(b, c)));
    // Distributivity over XOR.
    EXPECT_EQ(ec::gf_mul(a, ec::gf_add(b, c)),
              ec::gf_add(ec::gf_mul(a, b), ec::gf_mul(a, c)));
  }
}

TEST(Gf256, MulAddMatchesScalarLoop) {
  apps::SplitMix64 rng(7);
  std::vector<std::uint8_t> in(333);
  std::vector<std::uint8_t> out(333);
  rng.fill(in);
  rng.fill(out);
  auto expected = out;
  const std::uint8_t coeff = 0x9B;
  for (std::size_t i = 0; i < in.size(); ++i) {
    expected[i] ^= ec::gf_mul(coeff, in[i]);
  }
  ec::gf_mul_add(out, in, coeff);
  EXPECT_EQ(out, expected);
}

// -- Reed-Solomon ----------------------------------------------------------------

std::vector<std::vector<std::uint8_t>> random_shards(int count,
                                                     std::size_t len,
                                                     std::uint64_t seed) {
  std::vector<std::vector<std::uint8_t>> shards(
      static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    shards[static_cast<std::size_t>(i)].resize(len);
    apps::SplitMix64 rng(seed + static_cast<std::uint64_t>(i));
    rng.fill(shards[static_cast<std::size_t>(i)]);
  }
  return shards;
}

TEST(ReedSolomon, InvalidGeometryRejected) {
  EXPECT_THROW(ReedSolomon(0, 2), std::invalid_argument);
  EXPECT_THROW(ReedSolomon(200, 100), std::invalid_argument);
  EXPECT_NO_THROW(ReedSolomon(1, 0));
}

TEST(ReedSolomon, EncodeDecodeAllDataPresent) {
  const ReedSolomon rs(4, 2);
  const auto data = random_shards(4, 100, 1);
  std::vector<std::span<const std::uint8_t>> views(data.begin(), data.end());
  std::vector<std::vector<std::uint8_t>> parity(2);
  rs.encode(views, parity);

  std::vector<std::optional<std::vector<std::uint8_t>>> shards(6);
  for (int i = 0; i < 4; ++i) shards[static_cast<std::size_t>(i)] = data[i];
  EXPECT_EQ(rs.reconstruct_data(shards), data);
}

// Exhaustive erasure patterns for a small code.
TEST(ReedSolomon, AllErasurePatternsUpToR) {
  constexpr int kM = 4;
  constexpr int kR = 3;
  const ReedSolomon rs(kM, kR);
  const auto data = random_shards(kM, 64, 2);
  std::vector<std::span<const std::uint8_t>> views(data.begin(), data.end());
  std::vector<std::vector<std::uint8_t>> parity(kR);
  rs.encode(views, parity);

  // Every subset of up to kR erased shards must be recoverable.
  for (std::uint32_t mask = 0; mask < (1u << (kM + kR)); ++mask) {
    if (__builtin_popcount(mask) > kR) continue;
    std::vector<std::optional<std::vector<std::uint8_t>>> shards(kM + kR);
    for (int s = 0; s < kM + kR; ++s) {
      if (mask & (1u << s)) continue;  // erased
      shards[static_cast<std::size_t>(s)] =
          s < kM ? data[static_cast<std::size_t>(s)]
                 : parity[static_cast<std::size_t>(s - kM)];
    }
    EXPECT_EQ(rs.reconstruct_data(shards), data) << "mask=" << mask;
  }
}

TEST(ReedSolomon, TooManyErasuresThrow) {
  const ReedSolomon rs(3, 2);
  const auto data = random_shards(3, 16, 3);
  std::vector<std::span<const std::uint8_t>> views(data.begin(), data.end());
  std::vector<std::vector<std::uint8_t>> parity(2);
  rs.encode(views, parity);

  std::vector<std::optional<std::vector<std::uint8_t>>> shards(5);
  shards[0] = data[0];
  shards[3] = parity[0];  // only 2 of 3 required survivors
  EXPECT_THROW((void)rs.reconstruct_data(shards), std::runtime_error);
}

class RsGeometrySweep
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(RsGeometrySweep, RandomErasuresRoundTrip) {
  const auto [m, r] = GetParam();
  const ReedSolomon rs(m, r);
  const auto data = random_shards(m, 48, 11 * static_cast<std::uint64_t>(m));
  std::vector<std::span<const std::uint8_t>> views(data.begin(), data.end());
  std::vector<std::vector<std::uint8_t>> parity(static_cast<std::size_t>(r));
  rs.encode(views, parity);

  apps::SplitMix64 rng(static_cast<std::uint64_t>(m * 31 + r));
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::optional<std::vector<std::uint8_t>>> shards(
        static_cast<std::size_t>(m + r));
    for (int s = 0; s < m + r; ++s) {
      shards[static_cast<std::size_t>(s)] =
          s < m ? data[static_cast<std::size_t>(s)]
                : parity[static_cast<std::size_t>(s - m)];
    }
    // Erase exactly r random distinct shards.
    int erased = 0;
    while (erased < r) {
      const auto victim =
          static_cast<std::size_t>(rng.next() % static_cast<std::uint64_t>(m + r));
      if (shards[victim].has_value()) {
        shards[victim].reset();
        ++erased;
      }
    }
    EXPECT_EQ(rs.reconstruct_data(shards), data);
  }
}

INSTANTIATE_TEST_SUITE_P(Geometries, RsGeometrySweep,
                         ::testing::Values(std::pair{1, 1}, std::pair{2, 1},
                                           std::pair{4, 2}, std::pair{6, 3},
                                           std::pair{8, 4}, std::pair{16, 4},
                                           std::pair{32, 8}));

// -- group-parity collective dump + restore ---------------------------------------

struct EcRun {
  std::vector<chunk::ChunkStore> stores;
  std::vector<std::vector<std::uint8_t>> datasets;
  std::vector<core::EcDumpStats> stats;
};

EcRun run_ec_dump(int nranks, const EcConfig& cfg,
                  const std::function<std::vector<std::uint8_t>(int)>& gen) {
  EcRun run;
  run.stores.resize(static_cast<std::size_t>(nranks));
  run.datasets.resize(static_cast<std::size_t>(nranks));
  run.stats.resize(static_cast<std::size_t>(nranks));
  simmpi::Runtime rt(nranks);
  rt.run([&](simmpi::Comm& comm) {
    const int r = comm.rank();
    run.datasets[static_cast<std::size_t>(r)] = gen(r);
    chunk::Dataset ds;
    ds.add_segment(run.datasets[static_cast<std::size_t>(r)]);
    EcDumper dumper(comm, run.stores[static_cast<std::size_t>(r)], cfg);
    run.stats[static_cast<std::size_t>(r)] = dumper.dump_output(ds);
  });
  return run;
}

std::vector<std::uint8_t> skewed_data(int rank, std::size_t chunk_bytes) {
  apps::SynthSpec spec;
  spec.chunk_bytes = chunk_bytes;
  spec.chunks = 12 + static_cast<std::size_t>(rank % 3) * 4;  // uneven streams
  spec.local_dup = 0.2;
  spec.global_shared = 0.4;
  spec.seed = 99;
  return apps::synth_dataset(rank, 8, spec);
}

TEST(EcDump, RestoreWithNoFailures) {
  EcConfig cfg;
  cfg.group_size = 3;
  cfg.parity = 2;
  cfg.chunk_bytes = 256;
  auto run = run_ec_dump(8, cfg, [&](int r) { return skewed_data(r, 256); });
  std::vector<chunk::ChunkStore*> ptrs;
  for (auto& s : run.stores) ptrs.push_back(&s);
  for (int r = 0; r < 8; ++r) {
    const auto restored = core::ec_restore_rank(ptrs, r, cfg);
    EXPECT_EQ(restored.segments.at(0), run.datasets[static_cast<std::size_t>(r)]);
  }
}

TEST(EcDump, RestoreSurvivesParityManyFailures) {
  EcConfig cfg;
  cfg.group_size = 3;
  cfg.parity = 2;
  cfg.chunk_bytes = 256;
  auto run = run_ec_dump(9, cfg, [&](int r) { return skewed_data(r, 256); });
  std::vector<chunk::ChunkStore*> ptrs;
  for (auto& s : run.stores) ptrs.push_back(&s);

  // Fail `parity` members of the first group; all ranks must restore.
  run.stores[0].fail();
  run.stores[2].fail();
  for (int r = 0; r < 9; ++r) {
    const auto restored = core::ec_restore_rank(ptrs, r, cfg);
    EXPECT_EQ(restored.segments.at(0), run.datasets[static_cast<std::size_t>(r)])
        << "rank " << r;
  }
}

TEST(EcDump, HybridExcludesNaturalDuplicates) {
  EcConfig cfg;
  cfg.group_size = 2;
  cfg.parity = 1;
  cfg.chunk_bytes = 256;
  // All ranks share their dataset entirely: with the hybrid enabled,
  // nearly all chunks have >= parity+1 natural copies and the coded
  // streams shrink dramatically.
  const auto shared_gen = [](int) { return skewed_data(0, 256); };

  cfg.use_collective_dedup = true;
  auto hybrid = run_ec_dump(6, cfg, shared_gen);
  cfg.use_collective_dedup = false;
  auto blind = run_ec_dump(6, cfg, shared_gen);

  std::uint64_t hybrid_stream = 0;
  std::uint64_t blind_stream = 0;
  for (int r = 0; r < 6; ++r) {
    hybrid_stream += hybrid.stats[static_cast<std::size_t>(r)].stream_chunks;
    blind_stream += blind.stats[static_cast<std::size_t>(r)].stream_chunks;
  }
  EXPECT_LT(hybrid_stream * 2, blind_stream);

  // Both variants must restore after one failure (parity = 1).
  for (auto* run : {&hybrid, &blind}) {
    std::vector<chunk::ChunkStore*> ptrs;
    for (auto& s : run->stores) ptrs.push_back(&s);
    run->stores[1].fail();
    for (int r = 0; r < 6; ++r) {
      const auto restored = core::ec_restore_rank(ptrs, r,
                                                cfg);
      EXPECT_EQ(restored.segments.at(0),
                run->datasets[static_cast<std::size_t>(r)]);
    }
  }
}

TEST(EcDump, StorageOverheadBeatsReplication) {
  // The EC selling point: r/m extra storage instead of (K-1)x.
  EcConfig cfg;
  cfg.group_size = 4;
  cfg.parity = 2;
  cfg.chunk_bytes = 256;
  cfg.use_collective_dedup = false;
  const auto gen = [&](int r) { return skewed_data(r, 256); };
  auto run = run_ec_dump(12, cfg, gen);

  std::uint64_t data_bytes = 0;
  std::uint64_t parity_bytes = 0;
  for (const auto& s : run.stats) {
    data_bytes += s.stored_bytes;
    parity_bytes += s.parity_bytes;
  }
  // Overhead ratio must sit near r/m (stripes are padded to the group
  // max, so allow generous slack), far below replication's (K-1) = 2x.
  const double overhead =
      static_cast<double>(parity_bytes) / static_cast<double>(data_bytes);
  EXPECT_LT(overhead, 1.0);
  EXPECT_GT(overhead, 0.25);
}

TEST(EcDump, InvalidGeometryRejected) {
  EcConfig cfg;
  cfg.group_size = 4;
  cfg.parity = 2;
  simmpi::Runtime rt(4);  // 4 < group_size + parity
  std::vector<chunk::ChunkStore> stores(4);
  EXPECT_THROW(rt.run([&](simmpi::Comm& comm) {
    EcDumper dumper(comm, stores[static_cast<std::size_t>(comm.rank())], cfg);
    chunk::Dataset ds;
    (void)dumper.dump_output(ds);
  }),
               std::invalid_argument);
}

TEST(EcDump, LossBeyondParityIsDetected) {
  EcConfig cfg;
  cfg.group_size = 3;
  cfg.parity = 1;
  cfg.chunk_bytes = 256;
  cfg.use_collective_dedup = false;
  // Fully private data: no natural copies to fall back on.
  const auto gen = [](int r) {
    apps::SynthSpec spec;
    spec.chunk_bytes = 256;
    spec.chunks = 8;
    spec.local_dup = 0.0;
    spec.global_shared = 0.0;
    spec.seed = 7 + static_cast<std::uint64_t>(r);
    return apps::synth_dataset(r, 6, spec);
  };
  auto run = run_ec_dump(6, cfg, gen);
  std::vector<chunk::ChunkStore*> ptrs;
  for (auto& s : run.stores) ptrs.push_back(&s);
  run.stores[0].fail();
  run.stores[1].fail();  // two failures in group 0, parity = 1
  EXPECT_THROW((void)core::ec_restore_rank(ptrs, 0, cfg),
               std::runtime_error);
}

// -- parity oracle -------------------------------------------------------------

// 14 ranks of lengths that are not multiples of the chunk size: two chunks
// every rank shares (so collective dedup drops them from the coded
// streams), then private chunks.  Rank 5 is empty and rank 9 holds only
// the shared chunks, so both contribute empty streams.
std::vector<std::uint8_t> oracle_data(int rank, std::size_t chunk_bytes) {
  if (rank == 5) return {};
  std::vector<std::uint8_t> shared(2 * chunk_bytes);
  apps::SplitMix64(4242).fill(shared);
  if (rank == 9) return shared;
  std::vector<std::uint8_t> own(
      chunk_bytes * static_cast<std::size_t>(1 + rank % 4) + 37 +
      static_cast<std::size_t>(rank) * 11);
  apps::SplitMix64(1000 + static_cast<std::uint64_t>(rank)).fill(own);
  shared.insert(shared.end(), own.begin(), own.end());
  return shared;
}

// The stored blob format: a 32-byte header (u64 epoch, i32 group, i32
// parity index, i32 member count, 4 zero bytes, u64 shard length), then the
// parity row.
std::vector<std::uint8_t> expected_parity_blob(
    std::uint64_t epoch, int group, int j, int members,
    const std::vector<std::uint8_t>& row) {
  std::vector<std::uint8_t> blob(32, 0);
  const std::int32_t fields[] = {group, j, members};
  const std::uint64_t len = row.size();
  std::memcpy(blob.data(), &epoch, 8);
  std::memcpy(blob.data() + 8, fields, sizeof fields);
  std::memcpy(blob.data() + 24, &len, 8);
  blob.insert(blob.end(), row.begin(), row.end());
  return blob;
}

class EcParityOracle : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(EcParityOracle, StoredParityIsReedSolomonOfPaddedShards) {
  constexpr int kRanks = 14;
  EcConfig cfg;
  cfg.group_size = GetParam().first;
  cfg.parity = GetParam().second;
  cfg.chunk_bytes = 256;
  cfg.epoch = 3;
  auto run = run_ec_dump(
      kRanks, cfg, [&](int r) { return oracle_data(r, cfg.chunk_bytes); });
  const auto& hasher = hash::hasher_for(cfg.hash_kind);

  int coded_groups = 0;
  for (int g = 0; g < core::ec_group_count(kRanks, cfg); ++g) {
    const auto members = core::ec_group_members(g, kRanks, cfg);
    const auto holders = core::ec_parity_holders(g, kRanks, cfg);
    const int m = static_cast<int>(members.size());
    // Every member's stream, by its stored stream manifest.
    std::vector<std::vector<chunk::ManifestEntry>> streams;
    std::size_t stripes = 0;
    for (const int member : members) {
      const auto* blob = run.stores[static_cast<std::size_t>(member)].get_blob(
          core::ec_stream_key(member, cfg.epoch));
      ASSERT_NE(blob, nullptr);
      streams.push_back(
          simmpi::from_bytes<std::vector<chunk::ManifestEntry>>(*blob));
      stripes = std::max(stripes, streams.back().size());
    }
    if (stripes == 0) {
      for (int j = 0; j < cfg.parity; ++j) {
        EXPECT_EQ(run.stores[static_cast<std::size_t>(holders[j])].get_blob(
                      core::ec_parity_key(g, j, cfg.epoch)),
                  nullptr);
      }
      continue;
    }
    ++coded_groups;
    // Zero-padded data shards, rebuilt from the source datasets.
    std::vector<std::vector<std::uint8_t>> shards;
    for (int i = 0; i < m; ++i) {
      const auto& source = run.datasets[static_cast<std::size_t>(members[i])];
      std::unordered_map<hash::Fingerprint, std::span<const std::uint8_t>,
                         hash::FingerprintHash>
          by_fp;
      for (std::size_t off = 0; off < source.size(); off += cfg.chunk_bytes) {
        const auto chunk = std::span(source).subspan(
            off, std::min(cfg.chunk_bytes, source.size() - off));
        by_fp.emplace(hasher.fingerprint(chunk), chunk);
      }
      auto& shard = shards.emplace_back(stripes * cfg.chunk_bytes, 0);
      const auto& stream = streams[static_cast<std::size_t>(i)];
      for (std::size_t s = 0; s < stream.size(); ++s) {
        const auto it = by_fp.find(stream[s].fp);
        ASSERT_NE(it, by_fp.end());
        ASSERT_EQ(it->second.size(), stream[s].length);
        std::copy(it->second.begin(), it->second.end(),
                  shard.begin() +
                      static_cast<std::ptrdiff_t>(s * cfg.chunk_bytes));
      }
    }
    const ReedSolomon rs(m, cfg.parity);
    const std::vector<std::span<const std::uint8_t>> views(shards.begin(),
                                                            shards.end());
    std::vector<std::vector<std::uint8_t>> parity(
        static_cast<std::size_t>(cfg.parity));
    rs.encode(views, parity);
    for (int j = 0; j < cfg.parity; ++j) {
      const auto* blob =
          run.stores[static_cast<std::size_t>(holders[j])].get_blob(
              core::ec_parity_key(g, j, cfg.epoch));
      ASSERT_NE(blob, nullptr);
      EXPECT_EQ(*blob, expected_parity_blob(cfg.epoch, g, j, m,
                                            parity[static_cast<std::size_t>(j)]))
          << "group " << g << " parity row " << j;
    }
  }
  EXPECT_GT(coded_groups, 0);

  std::vector<chunk::ChunkStore*> ptrs;
  for (auto& store : run.stores) ptrs.push_back(&store);
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_EQ(core::ec_restore_rank(ptrs, r, cfg).segments.at(0),
              run.datasets[static_cast<std::size_t>(r)]);
  }
}

// (group_size, parity); on 14 ranks the last group of the second and third
// geometries is short.
INSTANTIATE_TEST_SUITE_P(Geometries, EcParityOracle,
                         ::testing::Values(std::pair{2, 3}, std::pair{3, 1},
                                           std::pair{4, 2}));

TEST(EcChain, ImageIsSerializedRowsAndMalformedImagesThrow) {
  auto image = core::ec_chain_image(3, 40);
  EXPECT_EQ(image, simmpi::to_bytes(std::vector<std::vector<std::uint8_t>>(
                       3, std::vector<std::uint8_t>(40, 0))));
  const auto rows = core::ec_chain_rows(image, 3, 40);
  ASSERT_EQ(rows.size(), 3u);
  for (std::size_t j = 0; j < rows.size(); ++j) {
    std::fill(rows[j].begin(), rows[j].end(), static_cast<std::uint8_t>(j + 1));
  }
  const auto decoded =
      simmpi::from_bytes<std::vector<std::vector<std::uint8_t>>>(image);
  ASSERT_EQ(decoded.size(), 3u);
  for (std::size_t j = 0; j < decoded.size(); ++j) {
    EXPECT_EQ(decoded[j],
              std::vector<std::uint8_t>(40, static_cast<std::uint8_t>(j + 1)));
  }

  // Geometry other than the stream-count allgather's.
  EXPECT_THROW((void)core::ec_chain_rows(image, 2, 40), std::runtime_error);
  EXPECT_THROW((void)core::ec_chain_rows(image, 3, 39), std::runtime_error);
  // A corrupt count word, a corrupt second length word, a truncated and an
  // overlong image, and an empty one.
  auto bad_count = image;
  bad_count[0] ^= 1;
  EXPECT_THROW((void)core::ec_chain_rows(bad_count, 3, 40), std::runtime_error);
  auto bad_length = image;
  bad_length[8 + 8 + 40] ^= 1;
  EXPECT_THROW((void)core::ec_chain_rows(bad_length, 3, 40),
               std::runtime_error);
  auto truncated = image;
  truncated.pop_back();
  EXPECT_THROW((void)core::ec_chain_rows(truncated, 3, 40), std::runtime_error);
  auto overlong = image;
  overlong.push_back(0);
  EXPECT_THROW((void)core::ec_chain_rows(overlong, 3, 40), std::runtime_error);
  std::vector<std::uint8_t> empty;
  EXPECT_THROW((void)core::ec_chain_rows(empty, 3, 40), std::runtime_error);
}

}  // namespace
