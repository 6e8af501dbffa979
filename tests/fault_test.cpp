// Fault-injection harness, degraded-mode DUMP_OUTPUT, and the dedup-aware
// REPAIR scrub: the collective must survive stores dying mid-dump, report
// exactly what replication it achieved, and top the shortfall back to K
// while shipping strictly less than a full re-dump.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/collrep.hpp"
#include "fault/schedule.hpp"
#include "ftrt/checkpoint.hpp"
#include "ftrt/tracked_arena.hpp"
#include "obs/telemetry.hpp"
#include "test_util.hpp"

namespace {

using namespace collrep;

constexpr int kRanks = 6;
constexpr int kK = 3;
constexpr std::size_t kPage = 4096;
constexpr std::size_t kPages = 16;
constexpr std::uint64_t kHeader = hash::Fingerprint::kBytes + 4;

// Every page distinct within and across ranks: no natural redundancy, so
// replica counts follow the partner ring exactly.
std::vector<std::uint8_t> unique_pages(int rank) {
  std::vector<std::uint8_t> data(kPages * kPage);
  for (std::size_t p = 0; p < kPages; ++p) {
    for (std::size_t i = 0; i < kPage; ++i) {
      data[p * kPage + i] = static_cast<std::uint8_t>(
          (static_cast<std::size_t>(rank) * kPages + p) * 131 + i * 7);
    }
  }
  return data;
}

core::DumpConfig identity_ring_config() {
  core::DumpConfig cfg;
  cfg.chunk_bytes = kPage;
  // Identity shuffle: rank r's K-1 partners are r+1 and r+2 (mod n), which
  // makes the expected degraded pattern exact.
  cfg.rank_shuffle = false;
  return cfg;
}

struct FaultRun {
  std::vector<core::DumpStats> stats;
  std::vector<chunk::ChunkStore> stores;
};

// Dumps unique_pages over kRanks with `sched` attached (and armed).
FaultRun run_faulty_dump(fault::FaultSchedule& sched,
                         obs::Telemetry* tel = nullptr,
                         const core::DumpConfig& cfg = identity_ring_config()) {
  FaultRun run;
  run.stats.resize(kRanks);
  for (int r = 0; r < kRanks; ++r) {
    run.stores.emplace_back(chunk::StoreMode::kPayload);
  }
  std::vector<chunk::ChunkStore*> ptrs;
  for (auto& s : run.stores) ptrs.push_back(&s);
  sched.arm(ptrs);
  sched.attach(tel);

  simmpi::RuntimeOptions opts;
  opts.telemetry = tel;
  opts.faults = &sched;
  simmpi::Runtime rt(kRanks, opts);
  rt.run([&](simmpi::Comm& comm) {
    const int r = comm.rank();
    const auto data = unique_pages(r);
    chunk::Dataset ds;
    ds.add_segment(data);
    core::Dumper dumper(comm, run.stores[static_cast<std::size_t>(r)], cfg);
    run.stats[static_cast<std::size_t>(r)] = dumper.dump_output(ds, kK);
  });
  return run;
}

// Replica count of every manifest-referenced fingerprint over alive stores.
std::size_t min_replicas(std::vector<chunk::ChunkStore>& stores) {
  std::vector<hash::Fingerprint> fps;
  for (auto& s : stores) {
    if (s.failed()) continue;
    for (int owner = 0; owner < static_cast<int>(stores.size()); ++owner) {
      const auto* m = s.manifest_for(owner);
      if (m == nullptr) continue;
      for (const auto& e : m->entries) fps.push_back(e.fp);
    }
  }
  std::sort(fps.begin(), fps.end());
  fps.erase(std::unique(fps.begin(), fps.end()), fps.end());
  std::size_t min_count = static_cast<std::size_t>(-1);
  for (const auto& fp : fps) {
    std::size_t count = 0;
    for (auto& s : stores) {
      if (!s.failed() && s.contains(fp)) ++count;
    }
    min_count = std::min(min_count, count);
  }
  return fps.empty() ? 0 : min_count;
}

// -- FaultSchedule -------------------------------------------------------------

TEST(FaultSchedule, FiresOnceAtNamedPointAndEpoch) {
  fault::FaultSchedule sched;
  fault::FaultEvent ev;
  ev.point = "dump.exchange.mid";
  ev.rank = 1;
  ev.epoch = 2;
  sched.add(ev);

  std::vector<chunk::ChunkStore> stores(kRanks);
  std::vector<chunk::ChunkStore*> ptrs;
  for (auto& s : stores) ptrs.push_back(&s);
  sched.arm(ptrs);

  std::vector<core::DumpStats> first(kRanks);
  std::vector<core::DumpStats> second(kRanks);
  simmpi::RuntimeOptions opts;
  opts.faults = &sched;
  simmpi::Runtime rt(kRanks, opts);
  rt.run([&](simmpi::Comm& comm) {
    const int r = comm.rank();
    const auto data = unique_pages(r);
    chunk::Dataset ds;
    ds.add_segment(data);
    core::DumpConfig cfg = identity_ring_config();
    cfg.epoch = 1;
    first[static_cast<std::size_t>(r)] =
        core::Dumper(comm, stores[static_cast<std::size_t>(r)], cfg)
            .dump_output(ds, kK);
    cfg.epoch = 2;
    second[static_cast<std::size_t>(r)] =
        core::Dumper(comm, stores[static_cast<std::size_t>(r)], cfg)
            .dump_output(ds, kK);
  });

  for (int r = 0; r < kRanks; ++r) {
    EXPECT_FALSE(first[static_cast<std::size_t>(r)].degraded);
    EXPECT_TRUE(second[static_cast<std::size_t>(r)].degraded);
  }
  const auto fired = sched.fired();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].rank, 1);
  EXPECT_EQ(fired[0].target, 1);
  EXPECT_EQ(fired[0].epoch, 2u);
  EXPECT_EQ(fired[0].point, "dump.exchange.mid");
  EXPECT_EQ(fired[0].action, fault::FaultAction::kFailStore);
  EXPECT_TRUE(stores[1].failed());
}

TEST(FaultSchedule, SkipCountDelaysFiring) {
  fault::FaultSchedule sched;
  fault::FaultEvent ev;
  ev.point = "tick";
  ev.rank = 0;
  ev.skip = 3;
  sched.add(ev);

  chunk::ChunkStore store;
  chunk::ChunkStore* ptr = &store;
  sched.arm(std::span<chunk::ChunkStore* const>{&ptr, 1});

  std::vector<bool> failed_after;
  simmpi::RuntimeOptions opts;
  opts.faults = &sched;
  simmpi::Runtime rt(1, opts);
  rt.run([&](simmpi::Comm& comm) {
    for (int i = 0; i < 6; ++i) {
      comm.fault_point("tick");
      failed_after.push_back(store.failed());
    }
  });
  // Three visits pass, the fourth fires, and the event never re-fires.
  const std::vector<bool> want{false, false, false, true, true, true};
  EXPECT_EQ(failed_after, want);
  EXPECT_EQ(sched.fired().size(), 1u);
}

TEST(FaultSchedule, SeededVictimSelectionIsDeterministic) {
  fault::FaultSchedule a(42);
  fault::FaultSchedule b(42);
  const auto va = a.add_random_store_failures(8, 3, "p");
  const auto vb = b.add_random_store_failures(8, 3, "p");
  EXPECT_EQ(va, vb);
  ASSERT_EQ(va.size(), 3u);
  std::vector<int> sorted = va;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());

  // The quota is clamped to the rank count.
  fault::FaultSchedule c(7);
  EXPECT_EQ(c.add_random_store_failures(4, 10, "p").size(), 4u);
}

TEST(FaultSchedule, KillRankAbortsRunAndPropagates) {
  fault::FaultSchedule sched;
  fault::FaultEvent ev;
  ev.point = "coll.pre";
  ev.rank = 2;
  ev.action = fault::FaultAction::kKillRank;
  sched.add(ev);

  simmpi::RuntimeOptions opts;
  opts.faults = &sched;
  simmpi::Runtime rt(4, opts);
  EXPECT_THROW(rt.run([&](simmpi::Comm& comm) {
    (void)simmpi::allreduce_sum(comm, 1);
  }),
               fault::RankKilledError);
}

// -- Degraded-mode DUMP_OUTPUT -------------------------------------------------

TEST(DegradedDump, HealthySchedulePathIsUnchanged) {
  fault::FaultSchedule sched;  // attached but empty
  auto run = run_faulty_dump(sched);
  for (const auto& s : run.stats) {
    EXPECT_FALSE(s.degraded);
    EXPECT_TRUE(s.store_alive);
    EXPECT_EQ(s.k_achieved_min, kK);
    EXPECT_EQ(s.under_replicated_chunks, 0u);
    EXPECT_EQ(s.commit_skipped_chunks, 0u);
  }
  EXPECT_EQ(min_replicas(run.stores), static_cast<std::size_t>(kK));
}

// The acceptance scenario: store 2 dies after its puts are issued but
// before the fence.  With the identity ring, exactly ranks {0, 1, 2} have
// a replica on the dead store, so their chunks land at 2 of 3 copies.
TEST(DegradedDump, MidExchangeStoreLossCompletesWithExactPattern) {
  fault::FaultSchedule sched;
  fault::FaultEvent ev;
  ev.point = "dump.exchange.mid";
  ev.rank = 2;
  sched.add(ev);
  auto run = run_faulty_dump(sched);

  for (int r = 0; r < kRanks; ++r) {
    const auto& s = run.stats[static_cast<std::size_t>(r)];
    EXPECT_TRUE(s.degraded) << "rank " << r;
    EXPECT_EQ(s.store_alive, r != 2);
    const bool touched = r <= 2;  // holds a replica on the dead store
    EXPECT_EQ(s.k_achieved_min, touched ? kK - 1 : kK) << "rank " << r;
    EXPECT_EQ(s.under_replicated_chunks, touched ? kPages : 0u)
        << "rank " << r;
    EXPECT_EQ(s.under_replicated_bytes, touched ? kPages * kPage : 0u);
    // The dead store drops its 2 incoming replica streams + its own local
    // commit; everyone else commits everything.
    EXPECT_EQ(s.commit_skipped_chunks, r == 2 ? 3 * kPages : 0u);
    // Wire traffic is unaffected: the failure hit after the puts.
    EXPECT_EQ(s.sent_chunks, (kK - 1) * kPages);
  }
  EXPECT_EQ(min_replicas(run.stores), static_cast<std::size_t>(kK - 1));
}

// -- REPAIR --------------------------------------------------------------------

TEST(Repair, ShipsOnlyShortfallAndRestoresEveryChunkToK) {
  fault::FaultSchedule sched;
  fault::FaultEvent ev;
  ev.point = "dump.exchange.mid";
  ev.rank = 2;
  sched.add(ev);
  auto run = run_faulty_dump(sched);
  std::uint64_t full_redump_bytes = 0;
  for (const auto& s : run.stats) full_redump_bytes += s.sent_bytes;

  // Blank replacement disk for the dead store, then scrub.
  run.stores[2].recover_empty();
  EXPECT_EQ(run.stores[2].chunk_count(), 0u);

  obs::Telemetry tel;
  simmpi::RuntimeOptions opts;
  opts.telemetry = &tel;
  std::vector<chunk::ChunkStore*> ptrs;
  for (auto& s : run.stores) ptrs.push_back(&s);
  std::vector<core::RepairStats> rstats(kRanks);
  simmpi::Runtime rt(kRanks, opts);
  rt.run([&](simmpi::Comm& comm) {
    rstats[static_cast<std::size_t>(comm.rank())] =
        core::repair_replicas(comm, ptrs, kK);
  });

  const auto& g = rstats[0];
  EXPECT_EQ(g.alive_stores, kRanks);
  EXPECT_EQ(g.k_effective, kK);
  // 3 ranks x 16 chunks sit at 2 of 3 replicas; each needs exactly one
  // extra copy — nothing else moves.
  EXPECT_EQ(g.under_replicated_chunks, 3 * kPages);
  EXPECT_EQ(g.resent_chunks, 3 * kPages);
  EXPECT_EQ(g.resent_bytes, 3 * kPages * kPage);
  EXPECT_EQ(g.lost_chunks, 0u);
  EXPECT_EQ(g.k_achieved_min_before, kK - 1);
  EXPECT_EQ(g.k_achieved_min_after, kK);
  EXPECT_LT(g.resent_bytes, full_redump_bytes);

  // The global fields are collective results: identical everywhere.
  for (const auto& s : rstats) {
    EXPECT_EQ(s.resent_bytes, g.resent_bytes);
    EXPECT_EQ(s.k_achieved_min_before, g.k_achieved_min_before);
    EXPECT_DOUBLE_EQ(s.total_time_s, g.total_time_s);
  }

  // Wire accounting reconciles with the comm layer: every repair put is
  // one record of header + payload modeled bytes.
  EXPECT_EQ(tel.rollup().put_bytes,
            g.resent_bytes + kHeader * g.resent_chunks);
  std::uint64_t sent_sum = 0;
  for (const auto& s : rstats) sent_sum += s.sent_chunks;
  EXPECT_EQ(sent_sum, g.resent_chunks);

  EXPECT_EQ(min_replicas(run.stores), static_cast<std::size_t>(kK));

  // Every rank's dataset restores, including the one whose store died.
  for (int r = 0; r < kRanks; ++r) {
    const auto result = core::restore_rank(ptrs, r);
    ASSERT_EQ(result.segments.size(), 1u);
    EXPECT_EQ(result.segments[0], unique_pages(r));
  }
}

TEST(Repair, SameSeedYieldsBitIdenticalMetrics) {
  const auto run_once = [](std::uint64_t seed) {
    fault::FaultSchedule sched(seed);
    (void)sched.add_random_store_failures(kRanks, 2, "dump.exchange.mid");
    obs::Telemetry tel;
    auto run = run_faulty_dump(sched, &tel);
    for (auto& s : run.stores) {
      if (s.failed()) s.recover_empty();
    }
    std::vector<chunk::ChunkStore*> ptrs;
    for (auto& s : run.stores) ptrs.push_back(&s);
    simmpi::RuntimeOptions opts;
    opts.telemetry = &tel;
    simmpi::Runtime rt(kRanks, opts);
    rt.run([&](simmpi::Comm& comm) {
      (void)core::repair_replicas(comm, ptrs, kK);
    });
    return tel.metrics().to_json();
  };
  const std::string a = run_once(1234);
  const std::string b = run_once(1234);
  EXPECT_EQ(a, b);
  // A different seed picks different victims and must show up somewhere.
  const std::string c = run_once(99);
  EXPECT_NE(a, c);
}

// -- CheckpointRuntime degraded policies ---------------------------------------

ftrt::CheckpointConfig policy_config(ftrt::DegradedPolicy policy,
                                     int retries) {
  ftrt::CheckpointConfig cfg;
  cfg.dump = identity_ring_config();
  cfg.replication_factor = kK;
  cfg.on_degraded = policy;
  cfg.max_dump_retries = retries;
  return cfg;
}

// One checkpoint attempt under a schedule; every rank writes rank-colored
// arena pages so restores are checkable.
void run_checkpointed(fault::FaultSchedule& sched,
                      std::vector<chunk::ChunkStore>& stores,
                      const ftrt::CheckpointConfig& cfg,
                      const std::function<void(simmpi::Comm&,
                                               ftrt::CheckpointRuntime&)>& body) {
  std::vector<chunk::ChunkStore*> ptrs;
  for (auto& s : stores) ptrs.push_back(&s);
  sched.arm(ptrs);
  simmpi::RuntimeOptions opts;
  opts.faults = &sched;
  simmpi::Runtime rt(kRanks, opts);
  rt.run([&](simmpi::Comm& comm) {
    ftrt::TrackedArena arena(kPage, 16);
    auto region = arena.allocate(kPage * 4);
    std::memset(region.data(), comm.rank() + 1, region.size());
    ftrt::CheckpointRuntime ckpt(
        comm, stores[static_cast<std::size_t>(comm.rank())], arena, cfg);
    body(comm, ckpt);
  });
}

TEST(CheckpointPolicy, AbortThrowsDegradedDumpError) {
  fault::FaultSchedule sched;
  fault::FaultEvent ev;
  ev.point = "dump.exchange.mid";
  ev.rank = 1;
  sched.add(ev);
  std::vector<chunk::ChunkStore> stores(kRanks);
  EXPECT_THROW(
      run_checkpointed(sched, stores,
                       policy_config(ftrt::DegradedPolicy::kAbort, 0),
                       [](simmpi::Comm&, ftrt::CheckpointRuntime& ckpt) {
                         (void)ckpt.checkpoint_now();
                       }),
      ftrt::DegradedDumpError);
}

TEST(CheckpointPolicy, TransientOutageRetriesUnderFreshEpoch) {
  fault::FaultSchedule sched;
  fault::FaultEvent fail;
  fail.point = "dump.exchange.mid";
  fail.rank = 1;
  fail.epoch = 1;
  sched.add(fail);
  fault::FaultEvent heal;
  heal.point = "dump.hash";
  heal.rank = 1;
  heal.epoch = 2;
  heal.action = fault::FaultAction::kRecoverStore;
  sched.add(heal);

  std::vector<chunk::ChunkStore> stores(kRanks);
  std::vector<core::DumpStats> final_stats(kRanks);
  // Attempt under epoch 1 degrades; the retry (epoch 2) sees the store
  // back and must come out clean without tripping the abort policy.
  run_checkpointed(sched, stores,
                   policy_config(ftrt::DegradedPolicy::kAbort, 1),
                   [&](simmpi::Comm& comm, ftrt::CheckpointRuntime& ckpt) {
                     final_stats[static_cast<std::size_t>(comm.rank())] =
                         ckpt.checkpoint_now();
                     EXPECT_EQ(ckpt.checkpoints_taken(), 1u);
                   });
  for (const auto& s : final_stats) {
    EXPECT_FALSE(s.degraded);
    EXPECT_EQ(s.k_achieved_min, kK);
  }
  EXPECT_EQ(sched.fired().size(), 2u);
  EXPECT_EQ(min_replicas(stores), static_cast<std::size_t>(kK));
}

TEST(CheckpointPolicy, RepairPolicyTopsUpTheShortfall) {
  fault::FaultSchedule sched;
  fault::FaultEvent ev;
  ev.point = "dump.exchange.mid";
  ev.rank = 1;
  sched.add(ev);

  std::vector<chunk::ChunkStore> stores(kRanks);
  std::vector<chunk::ChunkStore*> ptrs;
  for (auto& s : stores) ptrs.push_back(&s);
  run_checkpointed(sched, stores,
                   policy_config(ftrt::DegradedPolicy::kRepair, 0),
                   [&](simmpi::Comm&, ftrt::CheckpointRuntime& ckpt) {
                     const auto stats = ckpt.checkpoint_now(ptrs);
                     EXPECT_TRUE(stats.degraded);
                     ASSERT_TRUE(ckpt.last_repair().has_value());
                     const auto& rep = *ckpt.last_repair();
                     // Store 1 is still down: K_eff degrades to the five
                     // survivors but every chunk reaches it.
                     EXPECT_EQ(rep.alive_stores, kRanks - 1);
                     EXPECT_EQ(rep.k_effective, kK);
                     EXPECT_GT(rep.resent_chunks, 0u);
                     EXPECT_EQ(rep.lost_chunks, 0u);
                     EXPECT_EQ(rep.k_achieved_min_after, kK);
                   });
  EXPECT_EQ(min_replicas(stores), static_cast<std::size_t>(kK));
}

// -- FailureInjector regression ------------------------------------------------

// kill_stores used to loop forever when fewer live stores remained than
// the requested count (the bound compared against the span size, not the
// live population).
TEST(FailureInjector, TerminatesWhenFewerLiveStoresThanRequested) {
  std::vector<chunk::ChunkStore> stores(4);
  stores[0].fail();
  stores[3].fail();
  std::vector<chunk::ChunkStore*> ptrs;
  for (auto& s : stores) ptrs.push_back(&s);

  ftrt::FailureInjector inj(7);
  const auto victims = inj.kill_stores(ptrs, 3);
  EXPECT_EQ(victims.size(), 2u);  // only 2 were alive
  for (const auto& s : stores) EXPECT_TRUE(s.failed());

  // Nothing left to kill: returns empty instead of spinning.
  EXPECT_TRUE(inj.kill_stores(ptrs, 1).empty());
}

// -- ChunkStore recovery modes -------------------------------------------------

TEST(ChunkStore, RecoverEmptyModelsBlankReplacementDisk) {
  const auto data = unique_pages(0);
  const hash::Fingerprint fp = hash::Fingerprint::from_u64(77);
  chunk::ChunkStore transient;
  chunk::ChunkStore replaced;
  for (auto* s : {&transient, &replaced}) {
    s->put(fp, std::span<const std::uint8_t>{data.data(), kPage});
    chunk::Manifest m;
    m.owner_rank = 0;
    s->put_manifest(m);
    s->fail();
    EXPECT_THROW((void)s->contains(fp), chunk::StoreFailedError);
  }

  transient.recover();  // power blip: contents resurface
  EXPECT_TRUE(transient.contains(fp));
  EXPECT_NE(transient.manifest_for(0), nullptr);

  replaced.recover_empty();  // new disk: alive but blank
  EXPECT_FALSE(replaced.failed());
  EXPECT_FALSE(replaced.contains(fp));
  EXPECT_EQ(replaced.manifest_for(0), nullptr);
  EXPECT_EQ(replaced.chunk_count(), 0u);
  EXPECT_EQ(replaced.stored_bytes(), 0u);
}

}  // namespace
