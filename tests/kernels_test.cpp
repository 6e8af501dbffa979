// Differential tests for the dispatched data-plane kernels (ctest label
// `kernels`): every SIMD variant the CPU can run is checked against the
// always-compiled scalar reference on randomized inputs, including
// unaligned, short, and empty buffers.  The CDC skip-ahead path is checked
// for cut-point identity against the reference loop, and the flat
// BoundedFpSet is checked against a map-based reference model implementing
// the pre-flat merge semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <random>
#include <string_view>
#include <vector>

#include "chunk/cdc.hpp"
#include "core/fingerprint_set.hpp"
#include "hash/fingerprint.hpp"
#include "kernels/kernels.hpp"
#include "simmpi/archive.hpp"

namespace {

using namespace collrep;

std::vector<std::uint8_t> random_bytes(std::mt19937_64& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

// Sizes chosen to straddle every vector width and tail path: empty, single
// byte, around 16/32/64-byte boundaries, and a large odd length.
const std::vector<std::size_t> kSizes = {0,  1,  2,   7,   15,  16,  17,
                                         31, 32, 33,  63,  64,  65,  127,
                                         128, 255, 256, 1000, 4097};

// ---------------------------------------------------------------------------
// GF(256)
// ---------------------------------------------------------------------------

TEST(KernelsGf, VariantsMatchScalarRandomized) {
  const auto variants = kernels::gf_variants();
  ASSERT_FALSE(variants.empty());
  ASSERT_STREQ(variants[0].name, "scalar");
  ASSERT_TRUE(variants[0].available);

  std::mt19937_64 rng(0xC0FFEE01);
  for (const std::size_t size : kSizes) {
    for (const std::size_t offset : {std::size_t{0}, std::size_t{1},
                                     std::size_t{3}}) {
      // Slack so every (offset, size) view stays in bounds and unaligned.
      const auto in_buf = random_bytes(rng, size + 8);
      const auto out_init = random_bytes(rng, size + 8);
      const std::uint8_t coeffs[] = {0, 1, 2, static_cast<std::uint8_t>(rng()),
                                     static_cast<std::uint8_t>(rng()), 255};
      for (const std::uint8_t coeff : coeffs) {
        std::vector<std::uint8_t> expect_add = out_init;
        std::vector<std::uint8_t> expect_mul = out_init;
        variants[0].mul_add(expect_add.data() + offset, in_buf.data() + offset,
                            size, coeff);
        variants[0].mul(expect_mul.data() + offset, in_buf.data() + offset,
                        size, coeff);
        for (const auto& v : variants.subspan(1)) {
          if (!v.available) continue;
          std::vector<std::uint8_t> got = out_init;
          v.mul_add(got.data() + offset, in_buf.data() + offset, size, coeff);
          EXPECT_EQ(got, expect_add)
              << v.name << " mul_add size=" << size << " off=" << offset
              << " coeff=" << static_cast<int>(coeff);
          got = out_init;
          v.mul(got.data() + offset, in_buf.data() + offset, size, coeff);
          EXPECT_EQ(got, expect_mul)
              << v.name << " mul size=" << size << " off=" << offset
              << " coeff=" << static_cast<int>(coeff);
        }
      }
    }
  }
}

TEST(KernelsGf, ScalarMatchesFieldAxioms) {
  // coeff 0 zeroes (mul) / leaves untouched (mul_add); coeff 1 copies/xors.
  std::mt19937_64 rng(0xC0FFEE02);
  const auto in = random_bytes(rng, 257);
  auto out = random_bytes(rng, 257);
  const auto saved = out;
  const auto& scalar = kernels::gf_variants()[0];

  scalar.mul_add(out.data(), in.data(), out.size(), 0);
  EXPECT_EQ(out, saved);
  scalar.mul(out.data(), in.data(), out.size(), 0);
  EXPECT_TRUE(std::all_of(out.begin(), out.end(),
                          [](std::uint8_t b) { return b == 0; }));
  scalar.mul(out.data(), in.data(), out.size(), 1);
  EXPECT_EQ(out, in);
}

// ---------------------------------------------------------------------------
// CRC-32C
// ---------------------------------------------------------------------------

TEST(KernelsCrc32c, VariantsMatchScalarRandomized) {
  const auto variants = kernels::crc32c_variants();
  ASSERT_FALSE(variants.empty());
  ASSERT_STREQ(variants[0].name, "scalar");

  std::mt19937_64 rng(0xC0FFEE03);
  for (const std::size_t size : kSizes) {
    for (const std::size_t offset : {std::size_t{0}, std::size_t{1},
                                     std::size_t{5}}) {
      const auto buf = random_bytes(rng, size + 8);
      const std::uint32_t seeds[] = {0, 0xFFFFFFFFu,
                                     static_cast<std::uint32_t>(rng())};
      for (const std::uint32_t seed : seeds) {
        const std::uint32_t expect =
            variants[0].fn(seed, buf.data() + offset, size);
        for (const auto& v : variants.subspan(1)) {
          if (!v.available) continue;
          EXPECT_EQ(v.fn(seed, buf.data() + offset, size), expect)
              << v.name << " size=" << size << " off=" << offset;
        }
      }
    }
  }
}

TEST(KernelsCrc32c, KnownAnswer) {
  // iSCSI check value: CRC-32C("123456789") = 0xE3069283 for every variant.
  const std::uint8_t msg[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  for (const auto& v : kernels::crc32c_variants()) {
    if (!v.available) continue;
    EXPECT_EQ(~v.fn(~0u, msg, sizeof msg), 0xE3069283u) << v.name;
  }
}

// ---------------------------------------------------------------------------
// SHA-1 compression
// ---------------------------------------------------------------------------

TEST(KernelsSha1, VariantsMatchScalarRandomized) {
  const auto variants = kernels::sha1_variants();
  ASSERT_FALSE(variants.empty());
  ASSERT_STREQ(variants[0].name, "scalar");

  std::mt19937_64 rng(0xC0FFEE04);
  for (const std::size_t nblocks : {std::size_t{1}, std::size_t{2},
                                    std::size_t{3}, std::size_t{7},
                                    std::size_t{16}}) {
    for (const std::size_t offset : {std::size_t{0}, std::size_t{1}}) {
      const auto blocks = random_bytes(rng, nblocks * 64 + 1);
      std::uint32_t init[5];
      for (auto& w : init) w = static_cast<std::uint32_t>(rng());

      std::uint32_t expect[5];
      std::memcpy(expect, init, sizeof expect);
      variants[0].fn(expect, blocks.data() + offset, nblocks);

      for (const auto& v : variants.subspan(1)) {
        if (!v.available) continue;
        std::uint32_t got[5];
        std::memcpy(got, init, sizeof got);
        v.fn(got, blocks.data() + offset, nblocks);
        for (int i = 0; i < 5; ++i) {
          EXPECT_EQ(got[i], expect[i])
              << v.name << " nblocks=" << nblocks << " off=" << offset
              << " word=" << i;
        }
      }
    }
  }
}

TEST(KernelsSha1, BlockPipeliningMatchesBlockAtATime) {
  // One multi-block call must equal a chain of single-block calls.
  std::mt19937_64 rng(0xC0FFEE05);
  const auto blocks = random_bytes(rng, 9 * 64);
  for (const auto& v : kernels::sha1_variants()) {
    if (!v.available) continue;
    std::uint32_t batched[5] = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu,
                                0x10325476u, 0xC3D2E1F0u};
    std::uint32_t stepped[5];
    std::memcpy(stepped, batched, sizeof stepped);
    v.fn(batched, blocks.data(), 9);
    for (std::size_t b = 0; b < 9; ++b) {
      v.fn(stepped, blocks.data() + b * 64, 1);
    }
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(batched[i], stepped[i]) << v.name << " word=" << i;
    }
  }
}

// ---------------------------------------------------------------------------
// SHA-1 lanes
// ---------------------------------------------------------------------------

// Each lanes variant against sha1_blocks_scalar run once per lane, from
// random initial states.  Lane pointers are distinct and unaligned, either
// in one allocation each or all in one buffer in descending order (lane
// 0 last, so the other lanes sit below it).
TEST(KernelsSha1Lanes, VariantsMatchPerLaneScalarRandomized) {
  const auto variants = kernels::sha1_lanes_variants();
  ASSERT_FALSE(variants.empty());
  ASSERT_STREQ(variants[0].name, "scalar");
  ASSERT_EQ(variants[0].lanes, 1u);
  const kernels::Sha1BlocksFn reference = kernels::sha1_variants()[0].fn;

  std::mt19937_64 rng(0xC0FFEE06);
  for (const auto& v : variants) {
    if (!v.available) continue;
    ASSERT_GE(v.lanes, 1u);
    ASSERT_LE(v.lanes, kernels::kMaxSha1Lanes);
    for (const std::size_t nblocks :
         {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{9},
          std::size_t{64}}) {
      for (const bool shared : {false, true}) {
        const std::size_t stride = nblocks * 64 + 3;
        std::vector<std::vector<std::uint8_t>> bufs;
        std::vector<const std::uint8_t*> ptrs(v.lanes);
        if (shared) {
          bufs.push_back(random_bytes(rng, v.lanes * stride + 1));
          for (std::size_t l = 0; l < v.lanes; ++l) {
            ptrs[l] = bufs[0].data() + (v.lanes - 1 - l) * stride + 1 + l % 3;
          }
        } else {
          for (std::size_t l = 0; l < v.lanes; ++l) {
            bufs.push_back(random_bytes(rng, stride));
            ptrs[l] = bufs.back().data() + 1 + l % 3;
          }
        }
        std::uint32_t expect[kernels::kMaxSha1Lanes][5];
        std::uint32_t got[kernels::kMaxSha1Lanes][5];
        for (std::size_t l = 0; l < v.lanes; ++l) {
          for (auto& w : expect[l]) w = static_cast<std::uint32_t>(rng());
          std::memcpy(got[l], expect[l], sizeof got[l]);
          reference(expect[l], ptrs[l], nblocks);
        }
        v.fn(got, ptrs.data(), nblocks);
        for (std::size_t l = 0; l < v.lanes; ++l) {
          for (int i = 0; i < 5; ++i) {
            EXPECT_EQ(got[l][i], expect[l][i])
                << v.name << " nblocks=" << nblocks << " shared=" << shared
                << " lane=" << l << " word=" << i;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// CDC skip-ahead
// ---------------------------------------------------------------------------

TEST(KernelsCdc, SkipAheadIsCutPointIdentical) {
  struct Geometry {
    std::size_t min, avg, max;
  };
  const Geometry geoms[] = {{256, 1024, 4096}, {64, 256, 512}, {1, 8, 16},
                            {16, 16, 16},      {1, 1, 4},      {100, 128, 129}};
  std::mt19937_64 rng(0xC0FFEE06);
  for (const auto& g : geoms) {
    for (int trial = 0; trial < 4; ++trial) {
      // Mixed-entropy data (random + zero runs) across several segments so
      // both content cuts and max_bytes forced cuts occur.
      std::vector<std::vector<std::uint8_t>> segs;
      chunk::Dataset data;
      for (int s = 0; s < 3; ++s) {
        const std::size_t n = rng() % (g.max * 8 + 7);
        auto seg = random_bytes(rng, n);
        if (n > 16 && trial % 2 == 0) {
          std::fill(seg.begin() + static_cast<std::ptrdiff_t>(n / 3),
                    seg.begin() + static_cast<std::ptrdiff_t>(2 * n / 3), 0);
        }
        segs.push_back(std::move(seg));
        data.add_segment(segs.back());
      }

      chunk::CdcParams params;
      params.min_bytes = g.min;
      params.avg_bytes = g.avg;
      params.max_bytes = g.max;
      params.skip_ahead = false;
      const auto reference = chunk::content_defined_refs(data, params);
      params.skip_ahead = true;
      const auto skip = chunk::content_defined_refs(data, params);

      ASSERT_EQ(skip.size(), reference.size())
          << "min=" << g.min << " avg=" << g.avg << " max=" << g.max;
      for (std::size_t i = 0; i < skip.size(); ++i) {
        EXPECT_EQ(skip[i].segment, reference[i].segment) << i;
        EXPECT_EQ(skip[i].offset, reference[i].offset) << i;
        EXPECT_EQ(skip[i].length, reference[i].length) << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// HMERGE planned-merge kernel
// ---------------------------------------------------------------------------

// Naive oracle: two-pointer union/intersection over the key sets.
kernels::HmergeResult hmerge_naive(const std::vector<std::uint64_t>& a,
                                   const std::vector<std::uint64_t>& b,
                                   std::vector<std::uint8_t>& tags) {
  kernels::HmergeResult r{0, 0};
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      tags[r.out_len++] = kernels::kHmergeMatch;
      ++r.matches;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      tags[r.out_len++] = kernels::kHmergeTakeA;
      ++i;
    } else {
      tags[r.out_len++] = kernels::kHmergeTakeB;
      ++j;
    }
  }
  while (i++ < a.size()) tags[r.out_len++] = kernels::kHmergeTakeA;
  while (j++ < b.size()) tags[r.out_len++] = kernels::kHmergeTakeB;
  return r;
}

// Runs every available variant on (a, b) and checks the plan — result
// counts and the full tag string — against the naive oracle.
void check_hmerge(const std::vector<std::uint64_t>& a,
                  const std::vector<std::uint64_t>& b,
                  const std::string& label) {
  const auto variants = kernels::hmerge_variants();
  ASSERT_FALSE(variants.empty());
  ASSERT_STREQ(variants[0].name, "scalar");
  ASSERT_TRUE(variants[0].available);

  std::vector<std::uint8_t> want_tags(a.size() + b.size() + 1, 0xAA);
  const auto want = hmerge_naive(a, b, want_tags);
  ASSERT_EQ(want.out_len, a.size() + b.size() - want.matches) << label;

  for (const auto& v : variants) {
    if (!v.available) continue;
    std::vector<std::uint8_t> tags(a.size() + b.size() + 1, 0x55);
    const auto got = v.fn(a.data(), a.size(), b.data(), b.size(), tags.data());
    ASSERT_EQ(got.out_len, want.out_len) << v.name << " " << label;
    ASSERT_EQ(got.matches, want.matches) << v.name << " " << label;
    for (std::size_t t = 0; t < got.out_len; ++t) {
      ASSERT_EQ(tags[t], want_tags[t])
          << v.name << " " << label << " tag " << t;
    }
  }
}

std::vector<std::uint64_t> iota_keys(std::uint64_t start, std::size_t n,
                                     std::uint64_t step = 1) {
  std::vector<std::uint64_t> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = start + i * step;
  return out;
}

TEST(KernelsHmerge, EmptyAndOneSided) {
  check_hmerge({}, {}, "both empty");
  check_hmerge(iota_keys(0, 100), {}, "b empty");
  check_hmerge({}, iota_keys(0, 100), "a empty");
  check_hmerge(iota_keys(0, 5000), {42}, "singleton b");
  check_hmerge({42}, iota_keys(0, 5000), "singleton a");
}

TEST(KernelsHmerge, AllDuplicates) {
  // Identical inputs at sizes straddling the 16-key block, the dup-run
  // gallop stride, and the 4096-key segmentation threshold.
  for (const std::size_t n : {std::size_t{1}, std::size_t{15}, std::size_t{16},
                              std::size_t{17}, std::size_t{24},
                              std::size_t{4095}, std::size_t{4096},
                              std::size_t{4097}, std::size_t{10000}}) {
    const auto keys = iota_keys(1000, n, 3);
    check_hmerge(keys, keys, "all-dup n=" + std::to_string(n));
  }
}

TEST(KernelsHmerge, FullyAlternating) {
  // a holds the even keys, b the odd: every block is interleaved, the
  // burst path does all the work.
  for (const std::size_t n : {std::size_t{16}, std::size_t{33},
                              std::size_t{4097}, std::size_t{8192}}) {
    check_hmerge(iota_keys(0, n, 2), iota_keys(1, n, 2),
                 "alternating n=" + std::to_string(n));
  }
}

TEST(KernelsHmerge, LongDisjointRuns) {
  // Fully disjoint halves (one gallop each), then alternating runs of a
  // few hundred keys (the skip-compare + gallop steady state).
  check_hmerge(iota_keys(0, 6000), iota_keys(6000, 6000), "disjoint halves");
  check_hmerge(iota_keys(6000, 6000), iota_keys(0, 6000),
               "disjoint halves swapped");
  std::vector<std::uint64_t> a, b;
  for (std::uint64_t run = 0; run < 40; ++run) {
    auto& side = (run % 2 == 0) ? a : b;
    const auto keys = iota_keys(run * 300, 300);
    side.insert(side.end(), keys.begin(), keys.end());
  }
  check_hmerge(a, b, "run-length 300 alternation");
}

TEST(KernelsHmerge, UnalignedCountsRandomized) {
  // Random scattered-overlap worlds with deliberately lopsided and
  // non-multiple-of-16 sizes, crossing the segmentation threshold.
  std::mt19937_64 rng(0xC0FFEE09);
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {1, 1},     {2, 3},      {17, 33},    {129, 4097},
      {255, 257}, {4095, 31}, {5000, 4999}, {9001, 8192},
  };
  for (const auto& [na, nb] : shapes) {
    for (int trial = 0; trial < 3; ++trial) {
      // Sample keys from a small universe so every regime appears.
      const std::uint64_t universe = 1 + (na + nb) * 2 / 3;
      std::vector<std::uint64_t> a, b;
      while (a.size() < na) a.push_back(rng() % universe);
      while (b.size() < nb) b.push_back(rng() % universe);
      for (auto* v : {&a, &b}) {
        std::sort(v->begin(), v->end());
        v->erase(std::unique(v->begin(), v->end()), v->end());
      }
      check_hmerge(a, b,
                   "random na=" + std::to_string(a.size()) +
                       " nb=" + std::to_string(b.size()) + " t" +
                       std::to_string(trial));
    }
  }
}

// ---------------------------------------------------------------------------
// BoundedFpSet vs map-based reference model
// ---------------------------------------------------------------------------

// Reference model: the pre-flat map-backed implementation's semantics,
// transcribed over std::map.  Shares nothing with the production code.
struct RefModel {
  std::uint32_t f_cap;
  int k;
  std::map<hash::Fingerprint, std::pair<std::uint32_t,
                                        std::vector<std::int32_t>>> entries;
  std::vector<std::uint32_t> load;

  RefModel(std::uint32_t f, int kk, int nranks)
      : f_cap(f), k(kk), load(static_cast<std::size_t>(nranks), 0) {}

  void add_local(const hash::Fingerprint& fp, int rank) {
    entries[fp] = {1u, {rank}};
    ++load[static_cast<std::size_t>(rank)];
  }

  void truncate_ranks(std::vector<std::int32_t>& ranks,
                      core::MergeStats& stats) {
    if (ranks.size() <= static_cast<std::size_t>(k)) return;
    std::stable_sort(ranks.begin(), ranks.end(),
                     [&](std::int32_t a, std::int32_t b) {
                       const auto la = load[static_cast<std::size_t>(a)];
                       const auto lb = load[static_cast<std::size_t>(b)];
                       if (la != lb) return la < lb;
                       return a < b;
                     });
    for (std::size_t i = static_cast<std::size_t>(k); i < ranks.size(); ++i) {
      --load[static_cast<std::size_t>(ranks[i])];
      ++stats.ranks_dropped_load;
    }
    ranks.resize(static_cast<std::size_t>(k));
    std::sort(ranks.begin(), ranks.end());
  }

  void truncate_to_f(core::MergeStats& stats) {
    while (entries.size() > f_cap) {
      // Drop the (freq asc, fp desc) worst entry — equivalent to keeping
      // the top F by (freq desc, fp asc).
      auto victim = entries.begin();
      for (auto it = entries.begin(); it != entries.end(); ++it) {
        const bool worse = it->second.first < victim->second.first ||
                           (it->second.first == victim->second.first &&
                            victim->first < it->first);
        if (worse) victim = it;
      }
      for (const std::int32_t r : victim->second.second) {
        --load[static_cast<std::size_t>(r)];
      }
      entries.erase(victim);
      ++stats.entries_dropped_f;
    }
  }

  core::MergeStats merge_from(RefModel&& other) {
    core::MergeStats stats;
    for (std::size_t i = 0; i < load.size(); ++i) load[i] += other.load[i];
    for (auto& [fp, incoming] : other.entries) {  // std::map: fp ascending
      ++stats.entries_scanned;
      auto it = entries.find(fp);
      if (it == entries.end()) {
        entries.emplace(fp, std::move(incoming));
        continue;
      }
      it->second.first += incoming.first;
      std::vector<std::int32_t> merged;
      std::merge(it->second.second.begin(), it->second.second.end(),
                 incoming.second.begin(), incoming.second.end(),
                 std::back_inserter(merged));
      merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
      it->second.second = std::move(merged);
      truncate_ranks(it->second.second, stats);
    }
    truncate_to_f(stats);
    return stats;
  }

  std::size_t prune_singletons() {
    std::size_t removed = 0;
    for (auto it = entries.begin(); it != entries.end();) {
      if (it->second.first <= 1) {
        for (const std::int32_t r : it->second.second) {
          --load[static_cast<std::size_t>(r)];
        }
        it = entries.erase(it);
        ++removed;
      } else {
        ++it;
      }
    }
    return removed;
  }
};

void expect_equivalent(const core::BoundedFpSet& flat, const RefModel& ref) {
  ASSERT_EQ(flat.size(), ref.entries.size());
  auto it = ref.entries.begin();
  for (const auto& e : flat.entries()) {  // both fp-ascending
    ASSERT_NE(it, ref.entries.end());
    EXPECT_EQ(e.fp, it->first);
    EXPECT_EQ(e.freq, it->second.first);
    const auto r = flat.ranks(e);
    EXPECT_EQ(std::vector<std::int32_t>(r.begin(), r.end()), it->second.second)
        << e.fp.hex();
    ++it;
  }
  const auto load = flat.rank_load();
  EXPECT_EQ(std::vector<std::uint32_t>(load.begin(), load.end()), ref.load);
  EXPECT_TRUE(flat.check_invariants());
}

TEST(KernelsFpSet, FlatMergeMatchesMapReferenceRandomized) {
  std::mt19937_64 rng(0xC0FFEE07);
  for (int trial = 0; trial < 30; ++trial) {
    const int nranks = 2 + static_cast<int>(rng() % 7);
    const int k = 1 + static_cast<int>(rng() % 4);
    const std::uint32_t f = 1 + static_cast<std::uint32_t>(rng() % 24);
    const std::uint64_t universe = 1 + rng() % 40;

    core::BoundedFpSet flat(f, k, nranks);
    RefModel ref(f, k, nranks);
    bool first = true;
    for (int rank = 0; rank < nranks; ++rank) {
      core::BoundedFpSet leaf_flat(f, k, nranks);
      RefModel leaf_ref(f, k, nranks);
      // A random subset of the fingerprint universe on this rank.
      for (std::uint64_t id = 0; id < universe; ++id) {
        if (rng() % 2 == 0) continue;
        leaf_flat.add_local(hash::Fingerprint::from_u64(id * 0x9E3779B9u),
                            rank);
        leaf_ref.add_local(hash::Fingerprint::from_u64(id * 0x9E3779B9u),
                           rank);
      }
      leaf_flat.enforce_f();
      core::MergeStats ref_enforce;
      leaf_ref.truncate_to_f(ref_enforce);
      if (first) {
        flat = std::move(leaf_flat);
        ref = std::move(leaf_ref);
        first = false;
        continue;
      }
      const auto fs = flat.merge_from(std::move(leaf_flat));
      const auto rs = ref.merge_from(std::move(leaf_ref));
      EXPECT_EQ(fs.entries_scanned, rs.entries_scanned) << trial;
      EXPECT_EQ(fs.entries_dropped_f, rs.entries_dropped_f) << trial;
      EXPECT_EQ(fs.ranks_dropped_load, rs.ranks_dropped_load) << trial;
    }
    expect_equivalent(flat, ref);

    EXPECT_EQ(flat.prune_singletons(), ref.prune_singletons()) << trial;
    expect_equivalent(flat, ref);
  }
}

TEST(KernelsFpSet, ArchiveRoundTripPreservesContentAndIsCanonical) {
  std::mt19937_64 rng(0xC0FFEE08);
  for (int trial = 0; trial < 10; ++trial) {
    const int nranks = 2 + static_cast<int>(rng() % 6);
    core::BoundedFpSet acc(64, 3, nranks);
    for (int rank = 0; rank < nranks; ++rank) {
      core::BoundedFpSet leaf(64, 3, nranks);
      for (int i = 0; i < 20; ++i) {
        // Mixed fingerprints: u64-derived (12 trailing zero bytes) and
        // full-width random digests.
        hash::Fingerprint fp;
        if (rng() % 2 == 0) {
          fp = hash::Fingerprint::from_u64(rng() % 32);
        } else {
          std::uint8_t digest[20];
          for (auto& b : digest) b = static_cast<std::uint8_t>(rng() % 4);
          fp = hash::Fingerprint(digest);
        }
        if (leaf.find(fp) == nullptr) leaf.add_local(fp, rank);
      }
      leaf.enforce_f();
      if (rank == 0) {
        acc = std::move(leaf);
      } else {
        acc.merge_from(std::move(leaf));
      }
    }

    const auto bytes = simmpi::to_bytes(acc);
    const auto back = simmpi::from_bytes<core::BoundedFpSet>(bytes);
    ASSERT_EQ(back.size(), acc.size());
    EXPECT_EQ(back.f_cap(), acc.f_cap());
    EXPECT_EQ(back.k(), acc.k());
    EXPECT_TRUE(back.check_invariants());
    const auto want = acc.entries();
    const auto got = back.entries();
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].fp, want[i].fp);
      EXPECT_EQ(got[i].freq, want[i].freq);
      const auto ra = acc.ranks(want[i]);
      const auto rb = back.ranks(got[i]);
      EXPECT_EQ(std::vector<std::int32_t>(rb.begin(), rb.end()),
                std::vector<std::int32_t>(ra.begin(), ra.end()));
    }
    // Canonical form: re-serializing the loaded set reproduces the bytes.
    EXPECT_EQ(simmpi::to_bytes(back), bytes);
  }
}

TEST(KernelsFpSet, DeltaArchiveIsCompact) {
  // 1000 u64-derived fingerprints: delta coding must beat the naive
  // 20-bytes-per-fingerprint encoding by a wide margin.
  core::BoundedFpSet s(2048, 3, 4);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    s.add_local(hash::Fingerprint::from_u64(i * 0x9E3779B97F4A7C15ull),
                static_cast<int>(i % 4));
  }
  s.enforce_f();
  const auto bytes = simmpi::to_bytes(s);
  // Old format: >= 20 (fp) + 4 (freq) + 2 + 4 (rank) = 30 bytes/entry.
  EXPECT_LT(bytes.size(), 1000 * 20);
}

hash::Fingerprint fp_with_prefix(std::uint64_t prefix, std::uint8_t tail) {
  std::uint8_t digest[20] = {};
  for (int i = 0; i < 8; ++i) {
    digest[i] = static_cast<std::uint8_t>(prefix >> (56 - 8 * i));
  }
  digest[19] = tail;
  return hash::Fingerprint(digest);
}

TEST(KernelsFpSet, PrefixCollisionsFallBackAndMergeCorrectly) {
  // Fingerprints sharing their first 8 bytes defeat the 64-bit planning
  // keys.  Within one input they force the full-fingerprint scalar path;
  // across inputs they exercise the kernel path's false-match
  // verification.  Either way the result must match the reference model.
  struct Case {
    bool collide_within;  // both colliding fps on one side
    const char* label;
  };
  for (const Case c : {Case{true, "within"}, Case{false, "across"}}) {
    const int nranks = 4;
    core::BoundedFpSet a(64, 3, nranks);
    core::BoundedFpSet b(64, 3, nranks);
    RefModel ra(64, 3, nranks);
    RefModel rb(64, 3, nranks);
    const auto add = [&](core::BoundedFpSet& s, RefModel& r,
                         const hash::Fingerprint& fp, int rank) {
      s.add_local(fp, rank);
      r.add_local(fp, rank);
    };
    // Distinct-prefix background so the planned path has real work.
    for (std::uint64_t i = 0; i < 30; ++i) {
      add(a, ra, fp_with_prefix(i * 11 + 1, 0), 0);
      if (i % 3 != 0) add(b, rb, fp_with_prefix(i * 11 + 1, 0), 1);
      add(b, rb, fp_with_prefix(i * 11 + 5, 0), 1);
    }
    if (c.collide_within) {
      add(a, ra, fp_with_prefix(500, 1), 0);
      add(a, ra, fp_with_prefix(500, 2), 0);
      add(b, rb, fp_with_prefix(500, 2), 1);
    } else {
      // Cross-input-only collision: equal planning keys, unequal digests.
      add(a, ra, fp_with_prefix(500, 1), 0);
      add(b, rb, fp_with_prefix(500, 2), 1);
      // And one genuine cross-input duplicate for contrast.
      add(a, ra, fp_with_prefix(600, 7), 0);
      add(b, rb, fp_with_prefix(600, 7), 1);
    }
    a.enforce_f();
    b.enforce_f();
    const auto fs = a.merge_from(std::move(b));
    const auto rs = ra.merge_from(std::move(rb));
    EXPECT_EQ(fs.entries_scanned, rs.entries_scanned) << c.label;
    expect_equivalent(a, ra);
  }
}

TEST(KernelsFpSet, RankListsSaturateAtK) {
  // Every rank holds the same universe: after folding all leaves each
  // fingerprint has nranks holders but only K designated ranks, and the
  // designation load stays balanced by the load-aware truncation.
  const int nranks = 9;
  const int k = 3;
  core::BoundedFpSet acc(128, k, nranks);
  for (int rank = 0; rank < nranks; ++rank) {
    core::BoundedFpSet leaf(128, k, nranks);
    for (std::uint64_t id = 0; id < 50; ++id) {
      leaf.add_local(hash::Fingerprint::from_u64(id * 0x9E3779B9u), rank);
    }
    leaf.enforce_f();
    if (rank == 0) {
      acc = std::move(leaf);
    } else {
      acc.merge_from(std::move(leaf));
    }
  }
  ASSERT_EQ(acc.size(), 50u);
  for (const auto& e : acc.entries()) {
    EXPECT_EQ(e.freq, static_cast<std::uint32_t>(nranks));
    EXPECT_EQ(e.rank_len, static_cast<std::uint32_t>(k));
  }
  EXPECT_TRUE(acc.check_invariants());
  // Greedy per-merge truncation balances approximately (not ±1): with 150
  // designations over 9 ranks (~16.7 each) the spread must stay small.
  const auto load = acc.rank_load();
  const auto [lo, hi] = std::minmax_element(load.begin(), load.end());
  EXPECT_LE(*hi - *lo, 4u) << "designation load should stay near-balanced";
}

TEST(KernelsFpSet, KwayMatchesIteratedPairwiseWhenBoundsAreSlack) {
  // With F and K loose enough that no truncation fires, the k-way merge
  // must reproduce iterated pairwise merges exactly.
  std::mt19937_64 rng(0xC0FFEE0A);
  for (int trial = 0; trial < 10; ++trial) {
    const int nranks = 3 + static_cast<int>(rng() % 5);
    const std::uint32_t f = 4096;  // never binds
    const int k = nranks;          // never binds
    std::vector<core::BoundedFpSet> leaves;
    for (int rank = 0; rank < nranks; ++rank) {
      core::BoundedFpSet leaf(f, k, nranks);
      for (std::uint64_t id = 0; id < 60; ++id) {
        if (rng() % 2 == 0) continue;
        leaf.add_local(hash::Fingerprint::from_u64(id * 0x2545F491u), rank);
      }
      leaf.enforce_f();
      leaves.push_back(std::move(leaf));
    }
    auto pairwise = leaves[0];
    std::uint64_t scanned_pairwise = 0;
    for (std::size_t i = 1; i < leaves.size(); ++i) {
      auto copy = leaves[i];
      scanned_pairwise += pairwise.merge_from(std::move(copy)).entries_scanned;
    }
    auto kway = std::move(leaves[0]);
    leaves.erase(leaves.begin());
    const auto ks = kway.merge_many(std::move(leaves));
    EXPECT_EQ(ks.entries_scanned, scanned_pairwise) << trial;
    ASSERT_EQ(kway.size(), pairwise.size()) << trial;
    const auto we = pairwise.entries();
    const auto ge = kway.entries();
    for (std::size_t i = 0; i < we.size(); ++i) {
      EXPECT_EQ(ge[i].fp, we[i].fp);
      EXPECT_EQ(ge[i].freq, we[i].freq);
      const auto rw = pairwise.ranks(we[i]);
      const auto rg = kway.ranks(ge[i]);
      EXPECT_EQ(std::vector<std::int32_t>(rg.begin(), rg.end()),
                std::vector<std::int32_t>(rw.begin(), rw.end()));
    }
    EXPECT_TRUE(kway.check_invariants());
  }
}

TEST(KernelsFpSet, KwayKeepsBoundsWhenTheyBind) {
  std::mt19937_64 rng(0xC0FFEE0B);
  for (int trial = 0; trial < 10; ++trial) {
    const int nranks = 4 + static_cast<int>(rng() % 5);
    const std::uint32_t f = 1 + static_cast<std::uint32_t>(rng() % 20);
    const int k = 1 + static_cast<int>(rng() % 3);
    std::vector<core::BoundedFpSet> leaves;
    for (int rank = 0; rank < nranks; ++rank) {
      core::BoundedFpSet leaf(f, k, nranks);
      for (std::uint64_t id = 0; id < 40; ++id) {
        if (rng() % 3 == 0) continue;
        leaf.add_local(hash::Fingerprint::from_u64(id * 0x9E3779B9u), rank);
      }
      leaf.enforce_f();
      leaves.push_back(std::move(leaf));
    }
    auto acc = std::move(leaves[0]);
    leaves.erase(leaves.begin());
    acc.merge_many(std::move(leaves));
    EXPECT_LE(acc.size(), f) << trial;
    for (const auto& e : acc.entries()) {
      EXPECT_LE(e.rank_len, static_cast<std::uint32_t>(k)) << trial;
    }
    EXPECT_TRUE(acc.check_invariants()) << trial;
  }
}

TEST(KernelsFpSet, MergeManyWithNoChildrenIsANoop) {
  core::BoundedFpSet s(16, 2, 4);
  s.add_local(hash::Fingerprint::from_u64(7), 0);
  s.enforce_f();
  const auto bytes = simmpi::to_bytes(s);
  const auto stats = s.merge_many({});
  EXPECT_EQ(stats.entries_scanned, 0u);
  EXPECT_EQ(stats.entries_dropped_f, 0u);
  EXPECT_EQ(stats.ranks_dropped_load, 0u);
  EXPECT_EQ(simmpi::to_bytes(s), bytes);
}

TEST(KernelsDispatch, ActiveVariantsAreAvailable) {
  const auto& d = kernels::dispatch();
  ASSERT_NE(d.gf_mul_add, nullptr);
  ASSERT_NE(d.gf_mul, nullptr);
  ASSERT_NE(d.crc32c, nullptr);
  ASSERT_NE(d.sha1_blocks, nullptr);
  ASSERT_NE(d.sha1_lanes, nullptr);
  ASSERT_NE(d.hmerge, nullptr);
  // The dispatched names must correspond to available variants.
  bool gf_ok = false, crc_ok = false, sha_ok = false, hm_ok = false;
  for (const auto& v : kernels::gf_variants()) {
    if (v.available && std::string_view(v.name) == d.gf_name) gf_ok = true;
  }
  for (const auto& v : kernels::crc32c_variants()) {
    if (v.available && std::string_view(v.name) == d.crc32c_name) {
      crc_ok = true;
    }
  }
  for (const auto& v : kernels::sha1_variants()) {
    if (v.available && std::string_view(v.name) == d.sha1_name) sha_ok = true;
  }
  bool lanes_ok = false;
  for (const auto& v : kernels::sha1_lanes_variants()) {
    if (v.available && std::string_view(v.name) == d.sha1_lanes_name &&
        v.lanes == d.sha1_lanes_width) {
      lanes_ok = true;
    }
  }
  for (const auto& v : kernels::hmerge_variants()) {
    if (v.available && std::string_view(v.name) == d.hmerge_name) hm_ok = true;
  }
  EXPECT_TRUE(gf_ok) << d.gf_name;
  EXPECT_TRUE(crc_ok) << d.crc32c_name;
  EXPECT_TRUE(sha_ok) << d.sha1_name;
  EXPECT_TRUE(lanes_ok) << d.sha1_lanes_name;
  EXPECT_TRUE(hm_ok) << d.hmerge_name;
}

}  // namespace
