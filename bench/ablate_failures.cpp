// Ablation F (paper §VI future work): surviving store failures during the
// collective.  Sweeps the number of stores killed mid-exchange (seeded,
// deterministic), lets DUMP_OUTPUT complete in degraded mode, swaps the dead
// stores for blank replacements, and runs the dedup-aware REPAIR scrub.
// The scrub ships only the replication shortfall — natural duplicates and
// surviving replicas count toward K — so its traffic is compared against the
// cost of the brute-force alternative, a full re-dump.
//
//   --seed=<n>      victim-selection seed (default 1); scripts/fault_sweep.sh
//                   checks that the same seed reproduces bit-identical output
//   --metrics=<f>   MetricsRegistry JSON (see bench_util.hpp)
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "fault/schedule.hpp"

namespace {

using namespace collrep;

constexpr int kK = 3;
constexpr std::size_t kChunk = 512;
constexpr std::size_t kChunksPerRank = 48;

// Paper-style mix: three quarters of each image is content shared by every
// rank (the natural redundancy the repair pass leans on), the rest private.
std::vector<std::uint8_t> mixed_dataset(int rank) {
  std::vector<std::uint8_t> data(kChunksPerRank * kChunk);
  for (std::size_t p = 0; p < kChunksPerRank; ++p) {
    const bool shared = (p % 4) != 0;
    for (std::size_t i = 0; i < kChunk; ++i) {
      data[p * kChunk + i] = static_cast<std::uint8_t>(
          shared ? (p * 131 + i * 7) : (p * 131 + i * 7 + 10007 * (rank + 1)));
    }
  }
  return data;
}

struct Scenario {
  std::vector<int> victims;
  core::DumpStats dump;            // rank 0's view
  core::GlobalDumpStats global;
  core::RepairStats repair;        // global fields identical on all ranks
};

Scenario run_scenario(int nranks, int fails, std::uint64_t seed) {
  Scenario out;
  std::vector<chunk::ChunkStore> stores;
  stores.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    stores.emplace_back(chunk::StoreMode::kAccounting);
  }
  std::vector<chunk::ChunkStore*> ptrs;
  for (auto& s : stores) ptrs.push_back(&s);

  fault::FaultSchedule sched(seed);
  out.victims = sched.add_random_store_failures(nranks, fails,
                                                "dump.exchange.mid", 1);
  sched.arm(ptrs);
  sched.attach(bench::telemetry());

  simmpi::RuntimeOptions opts = bench::runtime_options();
  opts.faults = &sched;
  simmpi::Runtime rt(nranks, opts);
  rt.run([&](simmpi::Comm& comm) {
    const int r = comm.rank();
    const auto data = mixed_dataset(r);
    chunk::Dataset ds;
    ds.add_segment(data);

    core::DumpConfig cfg;
    cfg.chunk_bytes = kChunk;
    cfg.payload_exchange = false;
    cfg.epoch = 1;
    core::Dumper dumper(comm, stores[static_cast<std::size_t>(r)], cfg);
    const auto stats = dumper.dump_output(ds, kK);
    const auto g = core::Dumper::collect(comm, stats);

    // Blank replacement disk for every store the schedule killed, then the
    // collective scrub tops the replicas back up to K.
    if (stores[static_cast<std::size_t>(r)].failed()) {
      stores[static_cast<std::size_t>(r)].recover_empty();
    }
    comm.barrier();
    const auto rep = core::repair_replicas(comm, ptrs, kK);

    if (r == 0) {
      out.dump = stats;
      out.global = g;
      out.repair = rep;
    }
  });
  return out;
}

std::string victims_string(const std::vector<int>& victims) {
  if (victims.empty()) return "-";
  std::string s;
  for (int v : victims) {
    if (!s.empty()) s += ",";
    s += std::to_string(v);
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  bench::TelemetryScope telemetry(argc, argv);
  std::uint64_t seed = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      seed = std::strtoull(argv[i] + 7, nullptr, 10);
    }
  }

  const int nranks = bench::quick_mode() ? 8 : 64;
  bench::print_header(
      "Ablation F: store failures mid-collective, repair vs full re-dump",
      "section VI (future work): fault handling inside DUMP_OUTPUT");
  std::printf("ranks=%d  K=%d  chunk=%zu B  image=%s/rank  seed=%llu\n",
              nranks, kK, kChunk,
              bench::human_bytes(static_cast<double>(kChunksPerRank * kChunk))
                  .c_str(),
              static_cast<unsigned long long>(seed));

  // The brute-force recovery is re-dumping everything; its cost is the
  // healthy (fails = 0) dump of the same images.
  const Scenario baseline = run_scenario(nranks, 0, seed);
  const double redump_bytes =
      static_cast<double>(baseline.global.total_sent_bytes);
  const double redump_time = baseline.global.completion_time_s;

  std::printf(
      "\n%5s  %-10s  %5s  %12s  %5s  %12s  %10s  %7s\n", "fails", "victims",
      "min_k", "under-repl", "lost", "repair sent", "repair t", "vs dump");
  for (int fails = 0; fails <= 3; ++fails) {
    const Scenario s =
        fails == 0 ? baseline : run_scenario(nranks, fails, seed);
    const auto& rep = s.repair;
    const double pct =
        redump_bytes > 0.0
            ? 100.0 * static_cast<double>(rep.resent_bytes) / redump_bytes
            : 0.0;
    std::printf("%5d  %-10s  %5d  %12s  %5llu  %12s  %8.4fs  %6.1f%%\n",
                fails, victims_string(s.victims).c_str(),
                s.global.min_k_achieved,
                bench::human_bytes(
                    static_cast<double>(s.global.total_under_replicated_bytes))
                    .c_str(),
                static_cast<unsigned long long>(rep.lost_chunks),
                bench::human_bytes(static_cast<double>(rep.resent_bytes))
                    .c_str(),
                rep.total_time_s, pct);
  }
  std::printf(
      "\nfull re-dump ships %s in %.4fs; the scrub ships only the shortfall\n"
      "(natural duplicates and surviving replicas already count toward K).\n"
      "fails = K = %d can leave fully-private chunks with zero replicas:\n"
      "those are reported lost, not silently re-replicated.\n",
      bench::human_bytes(redump_bytes).c_str(), redump_time, kK);
  return 0;
}
