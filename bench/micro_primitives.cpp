// Micro-benchmarks (google-benchmark) for the core primitives: the
// dispatched data-plane kernels (GF(256) multiply-accumulate, CRC-32C,
// SHA-1 compression on one stream and in lanes, CDC chunking), HMERGE,
// RANK_SHUFFLE, offset calculation, chunking + local dedup, and the
// serialization archive — the per-call costs that the simtime model's
// merge_entry_cost_s / chunk_overhead_s constants approximate.
//
// Every benchmark reports throughput (bytes_per_second or
// items_per_second); the kernel benches register one entry per *variant*
// so scripts/bench_kernels.sh can compute scalar-vs-SIMD speedups from
// the JSON output.  Run with --benchmark_repetitions=N for median-of-N
// (the script does); each bench declares an explicit warm-up window.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/rng.hpp"
#include "chunk/cdc.hpp"
#include "chunk/dataset.hpp"
#include "core/fingerprint_set.hpp"
#include "core/local_dedup.hpp"
#include "core/planner.hpp"
#include "hash/hasher.hpp"
#include "kernels/kernels.hpp"
#include "simmpi/archive.hpp"

namespace {

using namespace collrep;

constexpr double kWarmupSeconds = 0.05;

std::vector<std::uint8_t> random_buffer(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> buf(n);
  apps::SplitMix64 rng(seed);
  rng.fill(buf);
  return buf;
}

// -- dispatched kernels, one benchmark per variant ----------------------------

constexpr std::size_t kKernelBytes = 64 * 1024;

void BM_GfMulAdd(benchmark::State& state, kernels::GfMulAddFn fn) {
  const auto in = random_buffer(kKernelBytes, 17);
  auto out = random_buffer(kKernelBytes, 23);
  for (auto _ : state) {
    fn(out.data(), in.data(), kKernelBytes, 0x57);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kKernelBytes));
}

void BM_Crc32c(benchmark::State& state, kernels::Crc32cFn fn) {
  const auto buf = random_buffer(kKernelBytes, 31);
  std::uint32_t crc = ~0u;
  for (auto _ : state) {
    crc = fn(crc, buf.data(), kKernelBytes);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kKernelBytes));
}

void BM_Sha1Blocks(benchmark::State& state, kernels::Sha1BlocksFn fn) {
  const auto buf = random_buffer(kKernelBytes, 41);
  std::uint32_t digest_state[5] = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu,
                                   0x10325476u, 0xC3D2E1F0u};
  for (auto _ : state) {
    fn(digest_state, buf.data(), kKernelBytes / 64);
    benchmark::DoNotOptimize(digest_state);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kKernelBytes));
}

// 1,024 messages of state.range(0) bytes, contiguous like the chunks of
// one segment, through a lanes variant one set of lanes per call (whole
// blocks only: padding is Sha1::digest_many's).
void BM_Sha1Lanes(benchmark::State& state, kernels::Sha1LanesVariant v) {
  constexpr std::size_t kMessages = 1024;
  const auto msg_bytes = static_cast<std::size_t>(state.range(0));
  const auto buf = random_buffer(kMessages * msg_bytes, 43);
  std::vector<const std::uint8_t*> ptrs(kMessages);
  for (std::size_t m = 0; m < kMessages; ++m) {
    ptrs[m] = buf.data() + m * msg_bytes;
  }
  const auto states = std::make_unique<std::uint32_t[][5]>(kMessages);
  for (auto _ : state) {
    for (std::size_t m = 0; m < kMessages; m += v.lanes) {
      v.fn(states.get() + m, ptrs.data() + m, msg_bytes / 64);
    }
    benchmark::DoNotOptimize(states.get());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kMessages * msg_bytes));
}

void BM_CdcChunking(benchmark::State& state, bool skip_ahead) {
  const auto buf = random_buffer(4 * 1024 * 1024, 53);
  chunk::Dataset ds;
  ds.add_segment(buf);
  chunk::CdcParams params;
  params.skip_ahead = skip_ahead;
  for (auto _ : state) {
    benchmark::DoNotOptimize(chunk::content_defined_refs(ds, params));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(buf.size()));
}

// Two strictly ascending key sets of n entries sharing overlap_pct percent
// of their keys, with the shared keys scattered uniformly through each
// side's sorted order (the "naturally distributed redundancy" shape the
// paper's workloads produce, and the hardest case for run-detecting merge
// kernels: short alternating spans with duplicate islands).
std::pair<std::vector<std::uint64_t>, std::vector<std::uint64_t>>
make_key_sets(std::size_t n, int overlap_pct, std::uint64_t seed) {
  const std::size_t shared = n * static_cast<std::size_t>(overlap_pct) / 100;
  const std::size_t total = 2 * n - shared;
  std::vector<std::uint64_t> pool(total);
  apps::SplitMix64 rng(seed);
  for (;;) {
    for (auto& k : pool) k = rng.next();
    std::sort(pool.begin(), pool.end());
    if (std::adjacent_find(pool.begin(), pool.end()) == pool.end()) break;
  }
  // Value-shuffle so the shared block ([n-shared, n)) lands at random key
  // positions once each side is re-sorted.
  for (std::size_t i = total - 1; i > 0; --i) {
    std::swap(pool[i], pool[rng.next() % (i + 1)]);
  }
  std::vector<std::uint64_t> a(pool.begin(),
                               pool.begin() + static_cast<std::ptrdiff_t>(n));
  std::vector<std::uint64_t> b(pool.end() - static_cast<std::ptrdiff_t>(n),
                               pool.end());
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return {std::move(a), std::move(b)};
}

void BM_HmergeKeys(benchmark::State& state, kernels::HmergeFn fn) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const int overlap = static_cast<int>(state.range(1));
  const auto [a, b] = make_key_sets(n, overlap, 0x9E3779B9u + n);
  std::vector<std::uint8_t> tags(a.size() + b.size());
  for (auto _ : state) {
    kernels::HmergeResult r = fn(a.data(), a.size(), b.data(), b.size(),
                                 tags.data());
    benchmark::DoNotOptimize(r);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(a.size() + b.size()));
}

void register_kernel_benches() {
  for (const auto& v : kernels::gf_variants()) {
    if (!v.available) continue;
    benchmark::RegisterBenchmark(("gf_mul_add/" + std::string(v.name)).c_str(),
                                 BM_GfMulAdd, v.mul_add)
        ->MinWarmUpTime(kWarmupSeconds);
  }
  for (const auto& v : kernels::crc32c_variants()) {
    if (!v.available) continue;
    benchmark::RegisterBenchmark(("crc32c/" + std::string(v.name)).c_str(),
                                 BM_Crc32c, v.fn)
        ->MinWarmUpTime(kWarmupSeconds);
  }
  for (const auto& v : kernels::sha1_variants()) {
    if (!v.available) continue;
    benchmark::RegisterBenchmark(("sha1_blocks/" + std::string(v.name)).c_str(),
                                 BM_Sha1Blocks, v.fn)
        ->MinWarmUpTime(kWarmupSeconds);
  }
  for (const auto& v : kernels::sha1_lanes_variants()) {
    if (!v.available) continue;
    benchmark::RegisterBenchmark(("sha1_lanes/" + std::string(v.name)).c_str(),
                                 BM_Sha1Lanes, v)
        ->Arg(512)
        ->Arg(4096)
        ->MinWarmUpTime(kWarmupSeconds);
  }
  benchmark::RegisterBenchmark("cdc_chunking/reference", BM_CdcChunking, false)
      ->MinWarmUpTime(kWarmupSeconds);
  benchmark::RegisterBenchmark("cdc_chunking/skip_ahead", BM_CdcChunking, true)
      ->MinWarmUpTime(kWarmupSeconds);
  // The planned-merge kernel across the world-size sweep (4k = per-rank
  // sets at paper scale, 64k = reduction-tree roots, 1M = large-world
  // stress) and the duplicate-ratio sweep (percent of keys both sides
  // share, scattered).
  for (const auto& v : kernels::hmerge_variants()) {
    if (!v.available) continue;
    auto* bench = benchmark::RegisterBenchmark(
        ("hmerge_keys/" + std::string(v.name)).c_str(), BM_HmergeKeys, v.fn);
    for (std::int64_t n : {4096, 65536, 1048576}) {
      for (std::int64_t overlap : {0, 25, 75, 100}) {
        bench->Args({n, overlap});
      }
    }
    bench->MinWarmUpTime(kWarmupSeconds);
  }
}

// -- collective-dedup primitives ----------------------------------------------

core::BoundedFpSet make_set(int entries, int rank, int nranks, int k) {
  // Cap above the entry count so the F bound never truncates the bench
  // working set (1M-entry "large world" runs included).
  const auto f_cap = std::max(1u << 17, static_cast<unsigned>(2 * entries));
  core::BoundedFpSet s(f_cap, k, nranks);
  apps::SplitMix64 rng(static_cast<std::uint64_t>(rank) * 7919 + 13);
  for (int i = 0; i < entries; ++i) {
    s.add_local(hash::Fingerprint::from_u64(rng.next()), rank);
  }
  s.enforce_f();
  return s;
}

// K-way HMERGE at a reduction-tree node: one accumulated set absorbing
// several children in a single multi-way pass (fan-in 4, the binomial
// tree's widest interior node at paper scale).
void BM_HMergeKway(benchmark::State& state) {
  const int entries = static_cast<int>(state.range(0));
  constexpr int kFanIn = 4;
  const auto proto = make_set(entries, 0, kFanIn + 1, 3);
  std::vector<core::BoundedFpSet> proto_children;
  for (int c = 0; c < kFanIn; ++c) {
    proto_children.push_back(make_set(entries, c + 1, kFanIn + 1, 3));
  }
  for (auto _ : state) {
    state.PauseTiming();
    auto acc = proto;
    auto children = proto_children;
    state.ResumeTiming();
    benchmark::DoNotOptimize(acc.merge_many(std::move(children)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          (kFanIn + 1) * entries);
}
BENCHMARK(BM_HMergeKway)
    ->Arg(4096)
    ->Arg(65536)
    ->MinWarmUpTime(kWarmupSeconds);

void BM_RankShuffle(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  core::SendMatrix m(n, 4);
  apps::SplitMix64 rng(7);
  for (int r = 0; r < n; ++r) {
    for (int p = 1; p < 4; ++p) m.at(r, p) = rng.next() % 1000;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::rank_shuffle(m, 4));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_RankShuffle)
    ->Arg(64)
    ->Arg(408)
    ->Arg(4096)
    ->MinWarmUpTime(kWarmupSeconds);

void BM_OffsetCalc(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  constexpr int kK = 4;
  core::SendMatrix m(n, kK);
  apps::SplitMix64 rng(11);
  for (int r = 0; r < n; ++r) {
    for (int p = 1; p < kK; ++p) m.at(r, p) = rng.next() % 1000;
  }
  const auto shuffle = core::rank_shuffle(m, kK);
  for (auto _ : state) {
    std::uint64_t sum = 0;
    for (int pos = 0; pos < n; ++pos) {
      for (int p = 1; p < kK; ++p) {
        sum += core::put_offset_chunks(m, shuffle, pos, p);
      }
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          (kK - 1));
}
BENCHMARK(BM_OffsetCalc)->Arg(408)->MinWarmUpTime(kWarmupSeconds);

void BM_LocalDedup(benchmark::State& state) {
  const auto pages = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> data(pages * 4096);
  apps::SplitMix64 rng(3);
  rng.fill(data);
  // 50% duplicate pages.
  for (std::size_t p = 1; p < pages; p += 2) {
    std::copy_n(data.begin(), 4096,
                data.begin() + static_cast<std::ptrdiff_t>(p * 4096));
  }
  chunk::Dataset ds;
  ds.add_segment(data);
  const chunk::Chunker chunker(ds, 4096);
  const auto& hasher = hash::hasher_for(hash::HashKind::kSha1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::local_dedup(chunker, hasher));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_LocalDedup)->Arg(64)->Arg(512)->MinWarmUpTime(kWarmupSeconds);

void BM_FpSetSerialization(benchmark::State& state) {
  auto s = make_set(static_cast<int>(state.range(0)), 0, 8, 3);
  for (auto _ : state) {
    const auto bytes = simmpi::to_bytes(s);
    benchmark::DoNotOptimize(
        simmpi::from_bytes<core::BoundedFpSet>(bytes));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_FpSetSerialization)
    ->Arg(1024)
    ->Arg(16384)
    ->MinWarmUpTime(kWarmupSeconds);

}  // namespace

int main(int argc, char** argv) {
  register_kernel_benches();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
