// Ablation G: shrink-and-continue recovery cost (DESIGN.md §12).  Kills
// ranks mid-DUMP_OUTPUT (seeded, deterministic), lets the containment
// protocol surface the deaths, and drives recover::RecoveryService under
// DegradedPolicy::kShrink: the survivors shrink, adopt the orphaned
// datasets, and rebalance replicas to K_eff.  The rebalance is dedup-aware
// — chunks the natural redundancy already keeps at K_eff on the survivors
// ship zero bytes — so the traffic is split into dedup-satisfied vs
// re-replicated and compared against the brute-force alternative, a full
// re-dump of every survivor image.
//
//   --seed=<n>      victim-selection seed (default 1); scripts/fault_sweep.sh
//                   checks that the same seed reproduces bit-identical output
//   --metrics=<f>   MetricsRegistry JSON incl. recover.* (see bench_util.hpp)
//   --profile=<f>   collprof critical-path profile JSON
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "fault/schedule.hpp"
#include "recover/service.hpp"

namespace {

using namespace collrep;

constexpr int kK = 3;

// One injected rank death: world rank `rank` dies when it reaches
// dump.exchange.mid under checkpoint epoch `epoch`.
struct Kill {
  int rank = 0;
  std::uint64_t epoch = 0;
};

// Seeded distinct victim pick (same splitmix64 stream family as the fault
// schedule's helper, which cannot be reused here because the endurance
// scenario pins each victim to a different epoch).
std::vector<int> pick_victims(std::uint64_t seed, int nranks, int count) {
  std::uint64_t state = seed;
  const auto next = [&state]() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  };
  std::vector<int> victims;
  while (static_cast<int>(victims.size()) < count) {
    const int v = static_cast<int>(next() % static_cast<std::uint64_t>(nranks));
    bool taken = false;
    for (const int u : victims) taken = taken || u == v;
    if (!taken) victims.push_back(v);
  }
  return victims;
}

struct Scenario {
  std::vector<int> victims;
  std::vector<recover::RecoveryStats> recoveries;  // one per shrink
  int world_after = 0;
  std::uint64_t checkpoints = 0;
  double completion_s = 0.0;
  core::GlobalDumpStats last_dump;  // final (healthy) checkpoint
};

// HPCCG run with periodic checkpoints; epochs advance 1,2,... and every
// recovery retry burns one, so a kill at epoch 2 hits the second
// checkpoint's first attempt and the retry lands on epoch 3.
Scenario run_scenario(int nranks, const std::vector<Kill>& kills) {
  Scenario out;
  std::vector<chunk::ChunkStore> stores;
  stores.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    stores.emplace_back(chunk::StoreMode::kAccounting);
  }
  std::vector<chunk::ChunkStore*> ptrs;
  for (auto& s : stores) ptrs.push_back(&s);

  fault::FaultSchedule sched;
  for (const auto& k : kills) {
    fault::FaultEvent ev;
    ev.point = "dump.exchange.mid";
    ev.rank = k.rank;
    ev.epoch = k.epoch;
    ev.action = fault::FaultAction::kKillRank;
    sched.add(ev);
    out.victims.push_back(k.rank);
  }
  sched.arm(ptrs);
  sched.attach(bench::telemetry());

  recover::RecoveryConfig rcfg;
  rcfg.replication = kK;
  recover::RecoveryService svc(ptrs, rcfg);

  simmpi::RuntimeOptions opts = bench::runtime_options();
  opts.faults = &sched;
  opts.contain_failures = true;
  simmpi::Runtime rt(nranks, opts);
  rt.run([&](simmpi::Comm& comm) {
    ftrt::TrackedArena arena(512);

    core::DumpConfig dump_cfg;
    dump_cfg.chunk_bytes = 512;
    dump_cfg.payload_exchange = false;  // accounting-scale run
    ftrt::CheckpointConfig ckpt_cfg;
    ckpt_cfg.dump = dump_cfg;
    ckpt_cfg.replication_factor = kK;
    ckpt_cfg.on_degraded = ftrt::DegradedPolicy::kShrink;
    ckpt_cfg.recovery = &svc;
    ftrt::CheckpointRuntime ckpt(
        comm, stores[static_cast<std::size_t>(comm.rank())], arena, ckpt_cfg);

    apps::HpccgConfig hcfg;
    hcfg.nx = hcfg.ny = hcfg.nz = 12;
    apps::HpccgSolver hpccg(comm, arena, hcfg);

    // Identical on every survivor: recoveries are collective and their
    // global stats agree rank-to-rank.
    std::vector<recover::RecoveryStats> recoveries;
    core::DumpStats last{};
    for (int iter = 1; iter <= 45; ++iter) {
      (void)hpccg.iterate(1);
      if (iter % 15 != 0) continue;
      last = ckpt.checkpoint_now();
      const auto& rec = ckpt.last_recovery();
      if (rec.has_value() &&
          (recoveries.empty() ||
           recoveries.back().shrink_epoch != rec->shrink_epoch)) {
        recoveries.push_back(*rec);
      }
    }
    comm.barrier();
    const auto g = core::Dumper::collect(comm, last);
    if (comm.rank() == 0) {
      out.recoveries = recoveries;
      out.world_after = comm.size();
      out.checkpoints = ckpt.checkpoints_taken();
      out.completion_s = comm.clock().now();
      out.last_dump = g;
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
      "Ablation G: shrink-and-continue recovery vs full re-dump",
      "DESIGN.md section 12: surviving rank death inside DUMP_OUTPUT");
  std::printf("ranks=%d  K=%d  chunk=512 B  HPCCG 12^3  seed=%llu\n", nranks,
              kK, static_cast<unsigned long long>(seed));

  // Brute-force alternative: abandon the run and re-dump every surviving
  // image from scratch — its traffic is the healthy dump of the same data.
  const Scenario healthy = run_scenario(nranks, {});
  const double redump_bytes =
      static_cast<double>(healthy.last_dump.total_sent_bytes);

  // Sweep the number of ranks killed inside one dump (all pinned to epoch
  // 2, the second checkpoint's first attempt; K-1 keeps every chunk
  // recoverable — at K deaths fully-private chunks can go extinct, which
  // recovery reports loudly via ChunkLostError, see tests/recover_test).
  std::printf("\n%5s  %-8s  %5s  %6s  %12s  %12s  %10s  %7s\n", "kills",
              "victims", "world", "chunks", "dedup-sat", "resent",
              "recover t", "vs dump");
  for (int fails = 0; fails < kK; ++fails) {
    Scenario s;
    if (fails == 0) {
      s = healthy;
    } else {
      std::vector<Kill> kills;
      for (const int v : pick_victims(seed, nranks, fails)) {
        kills.push_back(Kill{v, 2});
      }
      s = run_scenario(nranks, kills);
    }
    recover::RecoveryStats rec;  // zeros when no recovery ran
    if (!s.recoveries.empty()) rec = s.recoveries.back();
    const double pct =
        redump_bytes > 0.0
            ? 100.0 * static_cast<double>(rec.rereplicated_bytes) /
                  redump_bytes
            : 0.0;
    std::printf("%5d  %-8s  %5d  %6llu  %12s  %12s  %8.4fs  %6.1f%%\n", fails,
                victims_string(s.victims).c_str(), s.world_after,
                static_cast<unsigned long long>(rec.chunks_total),
                bench::human_bytes(
                    static_cast<double>(rec.dedup_satisfied_bytes))
                    .c_str(),
                bench::human_bytes(static_cast<double>(rec.rereplicated_bytes))
                    .c_str(),
                rec.total_time_s, pct);
  }

  // Endurance: one death per dump across successive checkpoints — each
  // shrink must leave a world the next one can shrink again.
  const auto endurance_victims = pick_victims(seed ^ 0x5D1F, nranks, 2);
  std::vector<Kill> rounds;
  rounds.push_back(Kill{endurance_victims[0], 2});  // 2nd ckpt, retry -> 3
  rounds.push_back(Kill{endurance_victims[1], 4});  // 3rd ckpt, retry -> 5
  const Scenario e = run_scenario(nranks, rounds);
  std::printf("\nendurance: kills at epochs 2 and 4 (victims %s)\n",
              victims_string(e.victims).c_str());
  std::printf("%5s  %6s  %5s  %12s  %12s  %10s\n", "round", "deaths", "world",
              "orphan B", "resent", "recover t");
  for (std::size_t i = 0; i < e.recoveries.size(); ++i) {
    const auto& r = e.recoveries[i];
    std::printf("%5zu  %6d  %5d  %12s  %12s  %8.4fs\n", i + 1, r.deaths,
                r.world_size_after,
                bench::human_bytes(static_cast<double>(r.orphan_bytes_total))
                    .c_str(),
                bench::human_bytes(static_cast<double>(r.rereplicated_bytes))
                    .c_str(),
                r.total_time_s);
  }
  std::printf(
      "endurance run: %llu checkpoints, final world %d, completion %.4fs\n",
      static_cast<unsigned long long>(e.checkpoints), e.world_after,
      e.completion_s);

  std::printf(
      "\nfull re-dump ships %s; the shrink rebalance ships only the replica\n"
      "shortfall on the survivors — naturally duplicated chunks already at\n"
      "K_eff cost zero bytes and are reported under dedup-sat.\n",
      bench::human_bytes(redump_bytes).c_str());
  return 0;
}
