// Ablation A7 (paper §I/§II: "some form of redundancy elimination (i.e.,
// compression or deduplication) before the replication"): the compression
// baseline.  Compresses each rank's checkpoint with LZSS before
// replication and compares reduction and CPU cost against local and
// collective deduplication on the same images.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "chunk/compress.hpp"

int main(int argc, char** argv) {
  const collrep::bench::TelemetryScope telemetry(argc, argv);
  using namespace collrep;
  bench::print_header(
      "Compression vs deduplication as pre-replication redundancy "
      "elimination",
      "paper SI/SII (compression baseline, refs [17][18])");

  const int n = bench::scaled_ranks(96);

  // Gather per-rank images once (HPCCG then CM1).
  for (const auto app : {bench::App::kHpccg, bench::App::kCm1}) {
    std::vector<std::vector<std::uint8_t>> images(
        static_cast<std::size_t>(n));
    std::vector<core::DumpStats> local_stats(static_cast<std::size_t>(n));
    std::vector<core::DumpStats> coll_stats(static_cast<std::size_t>(n));
    std::vector<chunk::ChunkStore> stores_a;
    std::vector<chunk::ChunkStore> stores_b;
    for (int r = 0; r < n; ++r) {
      stores_a.emplace_back(chunk::StoreMode::kAccounting);
      stores_b.emplace_back(chunk::StoreMode::kAccounting);
    }

    simmpi::Runtime rt(n, bench::runtime_options());
    rt.run([&](simmpi::Comm& comm) {
      ftrt::TrackedArena arena(4096);
      std::optional<apps::HpccgSolver> hpccg;
      std::optional<apps::MiniCmModel> cm;
      if (app == bench::App::kHpccg) {
        apps::HpccgConfig cfg;
        cfg.nx = cfg.ny = cfg.nz = 12;
        hpccg.emplace(comm, arena, cfg);
        (void)hpccg->iterate(5);
      } else {
        apps::MiniCmConfig cfg;
        cm.emplace(comm, arena, cfg);
        (void)cm->step(5);
      }
      const auto snapshot = arena.snapshot();
      auto& image = images[static_cast<std::size_t>(comm.rank())];
      for (std::size_t s = 0; s < snapshot.segment_count(); ++s) {
        image.insert(image.end(), snapshot.segment(s).begin(),
                     snapshot.segment(s).end());
      }
      core::DumpConfig cfg;
      cfg.chunk_bytes = 512;
      cfg.payload_exchange = false;
      cfg.strategy = core::Strategy::kLocalDedup;
      core::Dumper a(comm, stores_a[static_cast<std::size_t>(comm.rank())],
                     cfg);
      local_stats[static_cast<std::size_t>(comm.rank())] =
          a.dump_output(snapshot, 3);
      cfg.strategy = core::Strategy::kCollDedup;
      core::Dumper b(comm, stores_b[static_cast<std::size_t>(comm.rank())],
                     cfg);
      coll_stats[static_cast<std::size_t>(comm.rank())] =
          b.dump_output(snapshot, 3);
    });

    std::uint64_t raw = 0;
    std::uint64_t compressed = 0;
    double compress_cpu_s = 0.0;
    for (const auto& image : images) {
      raw += image.size();
      compressed += chunk::lzss_compress(image).size();
      compress_cpu_s = std::max(
          compress_cpu_s,
          static_cast<double>(image.size()) / chunk::kLzssCompressBps);
    }
    std::uint64_t local_unique = 0;
    std::uint64_t coll_unique = 0;
    double dedup_cpu_s = 0.0;
    for (int r = 0; r < n; ++r) {
      local_unique += local_stats[static_cast<std::size_t>(r)]
                          .owned_unique_bytes;
      coll_unique += coll_stats[static_cast<std::size_t>(r)]
                         .owned_unique_bytes;
      dedup_cpu_s = std::max(
          dedup_cpu_s,
          coll_stats[static_cast<std::size_t>(r)].phases.hash_s +
              coll_stats[static_cast<std::size_t>(r)].phases.reduction_s);
    }

    std::printf("\n--- %s (%d ranks) ---\n", bench::app_name(app), n);
    std::printf("%-26s %14s %10s %14s\n", "approach", "data to replicate",
                "% of raw", "cpu (max/rank)");
    std::printf("%-26s %14s %9.1f%% %13.5fs\n", "LZSS compression",
                bench::human_bytes(static_cast<double>(compressed)).c_str(),
                100.0 * compressed / raw, compress_cpu_s);
    std::printf("%-26s %14s %9.1f%% %13s\n", "local dedup",
                bench::human_bytes(static_cast<double>(local_unique)).c_str(),
                100.0 * local_unique / raw, "(in dump)");
    std::printf("%-26s %14s %9.1f%% %13.5fs\n", "collective dedup",
                bench::human_bytes(static_cast<double>(coll_unique)).c_str(),
                100.0 * coll_unique / raw, dedup_cpu_s);
  }
  std::printf(
      "\nExpected: compression removes intra-rank redundancy only, so it\n"
      "lands near local-dedup territory; it cannot see the cross-rank\n"
      "duplicates that give coll-dedup its advantage — the paper's case\n"
      "for treating distributed redundancy as first-class.\n");
  return 0;
}
