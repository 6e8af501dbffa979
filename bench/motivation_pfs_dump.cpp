// Motivation experiment (paper §I): a decoupled parallel file system
// ingests every rank's checkpoint through one shared pipe, so collective
// dump time grows linearly with scale — while partner replication to
// node-local storage rides the per-node network/disk resources, and
// coll-dedup shrinks even that.  Reproduces the paper's motivating
// argument (cf. Jones et al. dump-time projections) with measured numbers.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "ftrt/multilevel.hpp"

int main(int argc, char** argv) {
  const collrep::bench::TelemetryScope telemetry(argc, argv);
  using namespace collrep;
  bench::print_header(
      "Collective dump time: decoupled PFS vs partner replication",
      "paper SI motivation (I/O bandwidth wall of decoupled storage)");

  std::printf("%8s %14s %16s %16s   (simulated seconds, K = 3)\n", "procs",
              "PFS dump", "full replication", "coll-dedup");

  for (const int n :
       {bench::scaled_ranks(48), bench::scaled_ranks(120),
        bench::scaled_ranks(264), bench::scaled_ranks(408)}) {
    double pfs_time = 0.0;
    double full_time = 0.0;
    double coll_time = 0.0;

    // PFS dump of the CM1 image.
    {
      ftrt::PfsStore pfs;
      simmpi::Runtime rt(n, bench::runtime_options());
      rt.run([&](simmpi::Comm& comm) {
        ftrt::TrackedArena arena(4096);
        apps::MiniCmConfig mc;
        apps::MiniCmModel model(comm, arena, mc);
        (void)model.step(3);
        const auto stats = ftrt::pfs_dump(comm, pfs, arena.snapshot(), 512,
                                          hash::HashKind::kSha1, 1);
        if (comm.rank() == 0) pfs_time = stats.total_time_s;
      });
    }
    // Partner replication (full and coll-dedup) on the same image.
    for (const auto strategy :
         {core::Strategy::kNoDedup, core::Strategy::kCollDedup}) {
      std::vector<chunk::ChunkStore> stores;
      for (int r = 0; r < n; ++r) {
        stores.emplace_back(chunk::StoreMode::kAccounting);
      }
      simmpi::Runtime rt(n, bench::runtime_options());
      rt.run([&](simmpi::Comm& comm) {
        ftrt::TrackedArena arena(4096);
        apps::MiniCmConfig mc;
        apps::MiniCmModel model(comm, arena, mc);
        (void)model.step(3);
        core::DumpConfig cfg;
        cfg.strategy = strategy;
        cfg.chunk_bytes = 512;
        cfg.payload_exchange = false;
        core::Dumper dumper(comm, stores[static_cast<std::size_t>(comm.rank())],
                            cfg);
        const auto stats = dumper.dump_output(arena.snapshot(), 3);
        if (comm.rank() == 0) {
          (strategy == core::Strategy::kNoDedup ? full_time : coll_time) =
              stats.total_time_s;
        }
      });
    }
    std::printf("%8d %13.4fs %15.4fs %15.4fs\n", n, pfs_time, full_time,
                coll_time);
  }
  std::printf(
      "\nReading: the PFS column grows ~linearly with the rank count (one\n"
      "shared ingest pipe), while both replication columns flatten once\n"
      "every node is busy (per-node NIC/HDD).  Extrapolate the PFS line\n"
      "and it crosses full replication within O(10^3) ranks and coll-dedup\n"
      "far earlier — at exascale rank counts the decoupled store is\n"
      "untenable, which is the paper's opening argument.\n");
  return 0;
}
