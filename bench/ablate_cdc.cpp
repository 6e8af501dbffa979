// Ablation A5 (paper §II related work): fixed-size vs content-defined
// chunking.  On page-aligned checkpoints (the paper's setting) fixed
// chunking is cheap and sufficient; when the same content appears at
// shifted offsets across ranks, fixed chunking finds nothing and CDC
// recovers the redundancy.
#include <cstdio>
#include <vector>

#include "apps/rng.hpp"
#include "bench_util.hpp"

namespace {

using namespace collrep;

// Same base content on every rank, shifted by a rank-specific prefix.
std::vector<std::uint8_t> shifted_dataset(int rank, std::size_t bytes) {
  std::vector<std::uint8_t> data(bytes);
  apps::SplitMix64 rng(4242);
  rng.fill(data);
  data.insert(data.begin(), static_cast<std::size_t>(rank * 13 + 1), 0x77);
  return data;
}

struct Result {
  std::uint64_t unique = 0;
  std::uint64_t total = 0;
  double dedup_time = 0.0;
};

Result run(int nranks, bool cdc) {
  Result out;
  std::vector<chunk::ChunkStore> stores;
  for (int r = 0; r < nranks; ++r) {
    stores.emplace_back(chunk::StoreMode::kAccounting);
  }
  std::vector<core::DumpStats> stats(static_cast<std::size_t>(nranks));
  simmpi::Runtime rt(nranks, bench::runtime_options());
  rt.run([&](simmpi::Comm& comm) {
    const int r = comm.rank();
    const auto data = shifted_dataset(r, 96 * 1024);
    chunk::Dataset ds;
    ds.add_segment(data);
    core::DumpConfig cfg;
    cfg.payload_exchange = false;
    if (cdc) {
      cfg.chunking = core::ChunkingMode::kContentDefined;
      cfg.cdc.min_bytes = 256;
      cfg.cdc.avg_bytes = 1024;
      cfg.cdc.max_bytes = 4096;
    } else {
      cfg.chunk_bytes = 1024;
    }
    core::Dumper dumper(comm, stores[static_cast<std::size_t>(r)], cfg);
    stats[static_cast<std::size_t>(r)] = dumper.dump_output(ds, 3);
  });
  for (const auto& s : stats) {
    out.unique += s.owned_unique_bytes;
    out.total += s.dataset_bytes;
    out.dedup_time = std::max(
        out.dedup_time, s.phases.hash_s + s.phases.reduction_s);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const collrep::bench::TelemetryScope telemetry(argc, argv);
  bench::print_header(
      "Fixed-size vs content-defined chunking on offset-shifted content",
      "paper SII related work (static vs content-defined dedup)");

  const int nranks = bench::scaled_ranks(64);
  const auto fixed = run(nranks, false);
  const auto cdc = run(nranks, true);

  std::printf("%-18s %14s %10s %14s   (%d ranks)\n", "chunking", "unique",
              "unique %", "dedup time", nranks);
  std::printf("%-18s %14s %9.1f%% %13.5fs\n", "fixed 1 KiB",
              bench::human_bytes(static_cast<double>(fixed.unique)).c_str(),
              100.0 * fixed.unique / fixed.total, fixed.dedup_time);
  std::printf("%-18s %14s %9.1f%% %13.5fs\n", "CDC 256/1K/4K",
              bench::human_bytes(static_cast<double>(cdc.unique)).c_str(),
              100.0 * cdc.unique / cdc.total, cdc.dedup_time);
  std::printf(
      "\nExpected: fixed chunking sees ~100%% unique (every boundary is\n"
      "shifted); CDC realigns and collapses the cross-rank redundancy to\n"
      "roughly one copy, at a higher chunking cost (rolling hash).\n");
  return 0;
}
