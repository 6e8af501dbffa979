// RESTORE_INPUT (the collective restart primitive): equivalence with the
// serial restore path, byte attribution, simulated-time behaviour, and
// failure propagation across ranks; forged manifests on every restore
// path (replicated, erasure-coded, PFS).
#include <gtest/gtest.h>

#include <functional>

#include "core/group_parity.hpp"
#include "fault/schedule.hpp"
#include "ftrt/multilevel.hpp"
#include "test_util.hpp"

namespace {

using namespace collrep;

constexpr std::size_t kPage = 128;

core::DumpConfig cfg() {
  core::DumpConfig c;
  c.chunk_bytes = kPage;
  return c;
}

test::DumpRun dumped_run(int nranks, int k) {
  return test::run_dump(nranks, k, cfg(), [](int rank) {
    return test::mixed_pages(rank, 16, kPage);
  });
}

TEST(RestoreInput, MatchesSerialRestore) {
  constexpr int kRanks = 6;
  auto run = dumped_run(kRanks, 3);
  auto ptrs = test::store_ptrs(run);

  std::vector<core::RestoreResult> collective(kRanks);
  simmpi::Runtime rt(kRanks);
  rt.run([&](simmpi::Comm& comm) {
    auto [result, stats] = core::restore_input(comm, ptrs);
    EXPECT_GT(stats.total_time_s, 0.0);
    collective[static_cast<std::size_t>(comm.rank())] = std::move(result);
  });

  for (int r = 0; r < kRanks; ++r) {
    const auto serial = core::restore_rank(ptrs, r);
    EXPECT_EQ(collective[static_cast<std::size_t>(r)].segments,
              serial.segments);
    EXPECT_EQ(collective[static_cast<std::size_t>(r)].segments[0],
              run.datasets[static_cast<std::size_t>(r)]);
  }
}

TEST(RestoreInput, ByteAttributionDistinguishesSources) {
  constexpr int kRanks = 4;
  auto run = dumped_run(kRanks, 3);
  auto ptrs = test::store_ptrs(run);

  // Healthy restore: rank 1 serves everything locally.
  {
    const auto healthy = core::restore_rank(ptrs, 1);
    EXPECT_GT(healthy.bytes_from_own_store, 0u);
  }

  // With rank 1's store gone, every byte must come from partners.
  run.stores[1].fail();
  const auto degraded = core::restore_rank(ptrs, 1);
  EXPECT_EQ(degraded.bytes_from_own_store, 0u);
  EXPECT_EQ(degraded.bytes_from_remote_stores,
            run.datasets[1].size());
  EXPECT_EQ(degraded.segments[0], run.datasets[1]);
}

TEST(RestoreInput, DegradedRestartCostsMoreSimulatedTime) {
  constexpr int kRanks = 6;
  const auto timed_restore = [&](bool fail_one) {
    auto run = dumped_run(kRanks, 3);
    auto ptrs = test::store_ptrs(run);
    if (fail_one) run.stores[0].fail();
    double time = 0.0;
    simmpi::Runtime rt(kRanks);
    rt.run([&](simmpi::Comm& comm) {
      const auto [result, stats] = core::restore_input(comm, ptrs);
      if (comm.rank() == 0) time = stats.total_time_s;
    });
    return time;
  };
  // Network fetches make the degraded restart strictly slower.
  EXPECT_GT(timed_restore(true), timed_restore(false));
}

// Private data over the identity ring: rank 0's manifest and chunks live
// on stores {0, 1, 2} exactly, which lets the tests below dial in which
// loss error a failure pattern must produce.
test::DumpRun private_identity_run(int nranks) {
  core::DumpConfig c = cfg();
  c.rank_shuffle = false;
  return test::run_dump(nranks, 3, c, [](int rank) {
    std::vector<std::uint8_t> data(8 * kPage);
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<std::uint8_t>(i * 31 + 1009 * (rank + 1));
    }
    return data;
  });
}

TEST(RestoreErrors, AllReplicaHoldersDownMeansManifestLost) {
  constexpr int kRanks = 6;
  auto run = private_identity_run(kRanks);
  auto ptrs = test::store_ptrs(run);
  for (int v : {0, 1, 2}) run.stores[static_cast<std::size_t>(v)].fail();

  // Rank 0's manifest replicas all died with its chunk replicas: the
  // restore cannot even learn what it is missing.
  EXPECT_THROW((void)core::restore_rank(ptrs, 0), core::ManifestLostError);
  // Ranks 1 and 2 lost stores but their third partner survived.
  for (int r : {1, 2, 3, 4, 5}) {
    const auto result = core::restore_rank(ptrs, r);
    EXPECT_EQ(result.segments[0],
              run.datasets[static_cast<std::size_t>(r)]);
  }
}

TEST(RestoreErrors, SurvivingManifestWithoutChunksMeansChunkLost) {
  constexpr int kRanks = 6;
  auto run = private_identity_run(kRanks);
  auto ptrs = test::store_ptrs(run);
  // Stash an extra manifest replica outside the partner ring, then kill
  // the ring: the restore knows exactly what it needs and finds none of it.
  const auto* manifest0 = run.stores[1].manifest_for(0);
  ASSERT_NE(manifest0, nullptr);
  run.stores[5].put_manifest(*manifest0);
  for (int v : {0, 1, 2}) run.stores[static_cast<std::size_t>(v)].fail();

  EXPECT_THROW((void)core::restore_rank(ptrs, 0), core::ChunkLostError);
}

TEST(RestoreErrors, PartialFailurePropagatesCollectivelyWithoutDeadlock) {
  constexpr int kRanks = 6;
  auto run = private_identity_run(kRanks);
  auto ptrs = test::store_ptrs(run);
  // Only rank 0's restore is doomed; the other five would succeed and sit
  // in the collective until the abort reaches them.  The run must end with
  // the originating exception, not hang or surface AbortedError.
  for (int v : {0, 1, 2}) run.stores[static_cast<std::size_t>(v)].fail();

  simmpi::Runtime rt(kRanks);
  EXPECT_THROW(rt.run([&](simmpi::Comm& comm) {
    (void)core::restore_input(comm, ptrs);
  }),
               core::ManifestLostError);
}

TEST(RestoreErrors, ImpossibleSegmentSizesThrowBeforeAllocating) {
  // A stored manifest claiming a segment far larger than its entries add
  // up to must fail with the documented runtime_error — not bad_alloc or
  // length_error from sizing a buffer off the claim — whichever restore
  // path reads it: replicated, erasure-coded or PFS.
  constexpr int kRanks = 4;
  const auto forge = [](const chunk::Manifest& m, std::uint64_t claim) {
    chunk::Manifest forged = m;
    forged.epoch += 1;  // newest wins, so restore reads the forgery
    forged.segment_sizes.assign(1, claim);
    return forged;
  };
  const auto expect_rejected = [](const char* path, std::uint64_t claim,
                                  const std::function<void()>& restore) {
    try {
      restore();
      ADD_FAILURE() << path << ": claim " << claim << " restored";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("segment sizes"),
                std::string::npos)
          << path << ": " << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << path << ": claim " << claim << " threw " << e.what();
    }
  };
  for (const std::uint64_t claim :
       {std::uint64_t{1} << 40, std::uint64_t{1} << 62, ~std::uint64_t{0}}) {
    auto run = private_identity_run(kRanks);
    auto ptrs = test::store_ptrs(run);
    for (auto& store : run.stores) {
      if (const chunk::Manifest* m = store.manifest_for(0)) {
        store.put_manifest(forge(*m, claim));
      }
    }
    expect_rejected("restore_rank", claim,
                    [&] { (void)core::restore_rank(ptrs, 0); });
    // The other ranks' manifests are untouched.
    EXPECT_EQ(core::restore_rank(ptrs, 1).segments[0], run.datasets[1]);

    // The same datasets, erasure-coded and flushed to a PFS.
    core::EcConfig ec;
    ec.group_size = 2;
    ec.parity = 1;
    ec.chunk_bytes = kPage;
    std::vector<chunk::ChunkStore> ec_stores(kRanks);
    ftrt::PfsStore pfs;
    simmpi::Runtime(kRanks).run([&](simmpi::Comm& comm) {
      chunk::Dataset ds;
      ds.add_segment(run.datasets[static_cast<std::size_t>(comm.rank())]);
      core::EcDumper dumper(
          comm, ec_stores[static_cast<std::size_t>(comm.rank())], ec);
      (void)dumper.dump_output(ds);
      (void)ftrt::pfs_dump(comm, pfs, ds, kPage, hash::HashKind::kSha1, 1);
    });
    std::vector<chunk::ChunkStore*> ec_ptrs;
    for (auto& store : ec_stores) {
      ec_ptrs.push_back(&store);
      if (const chunk::Manifest* m = store.manifest_for(0)) {
        store.put_manifest(forge(*m, claim));
      }
    }
    pfs.put_manifest(forge(*pfs.manifest_for(0), claim));
    expect_rejected("ec_restore_rank", claim,
                    [&] { (void)core::ec_restore_rank(ec_ptrs, 0, ec); });
    expect_rejected("pfs_restore", claim,
                    [&] { (void)ftrt::pfs_restore(pfs, 0); });
    EXPECT_EQ(core::ec_restore_rank(ec_ptrs, 1, ec).segments[0],
              run.datasets[1]);
    EXPECT_EQ(ftrt::pfs_restore(pfs, 1).segments[0], run.datasets[1]);
  }
}

// Six ranks at three per node lose node 0 (ranks 0-2) and shrink: dense
// ranks 0-2 are now world ranks 3-5 on node 1.  The per-node device
// tallies of both dumps and of a restart must charge node 1's bytes,
// exactly as in a never-shrunk world of three ranks on one node (they
// used to read and write past a tally sized and indexed by the dense
// ranks).
TEST(RestoreInput, NodeTalliesFollowWorldRanksAfterShrink) {
  struct Times {
    double storage_s = 0.0;
    double restore_s = 0.0;
    double ec_dump_s = 0.0;
  };
  // One dump, one restart and one EC dump on `comm`; dense rank r dumps
  // world rank r + 3's data into `dense[r]`.
  const auto dump_and_restore = [](simmpi::Comm& comm,
                                   std::vector<chunk::ChunkStore*> dense) {
    const auto data = test::mixed_pages(comm.rank() + 3, 16, kPage);
    chunk::Dataset ds;
    ds.add_segment(data);
    core::Dumper dumper(comm, *dense[static_cast<std::size_t>(comm.rank())],
                        cfg());
    const core::DumpStats dump = dumper.dump_output(ds, 2);
    const auto [result, stats] = core::restore_input(comm, dense);
    EXPECT_EQ(result.segments.at(0), data);
    core::EcConfig ec;
    ec.group_size = 2;
    ec.parity = 1;
    ec.chunk_bytes = kPage;
    chunk::ChunkStore ec_store;
    const core::EcDumpStats ec_dump =
        core::EcDumper(comm, ec_store, ec).dump_output(ds);
    return Times{dump.phases.storage_s, stats.total_time_s,
                 ec_dump.total_time_s};
  };
  simmpi::RuntimeOptions opts;
  opts.cluster.ranks_per_node = 3;

  std::vector<chunk::ChunkStore> ref_stores(3);
  std::vector<Times> ref(3);
  simmpi::Runtime(3, opts).run([&](simmpi::Comm& comm) {
    ref[static_cast<std::size_t>(comm.rank())] = dump_and_restore(
        comm, {&ref_stores[0], &ref_stores[1], &ref_stores[2]});
  });

  fault::FaultSchedule sched;
  for (const int victim : {0, 1, 2}) {
    fault::FaultEvent ev;
    ev.point = "test.kill";
    ev.rank = victim;
    ev.action = fault::FaultAction::kKillRank;
    sched.add(ev);
  }
  opts.contain_failures = true;
  opts.faults = &sched;
  std::vector<chunk::ChunkStore> stores(6);
  std::vector<Times> shrunk(6);
  simmpi::Runtime(6, opts).run([&](simmpi::Comm& comm) {
    comm.fault_point("test.kill");
    try {
      comm.barrier();
      FAIL() << "survivor " << comm.world_rank() << " missed the deaths";
    } catch (const simmpi::RankDeadError&) {
    }
    (void)comm.shrink();
    ASSERT_EQ(comm.size(), 3);
    shrunk[static_cast<std::size_t>(comm.world_rank())] =
        dump_and_restore(comm, {&stores[3], &stores[4], &stores[5]});
  });

  // The shrunk world's clocks start later, so the differences of absolute
  // times behind these durations may round differently; a misattributed
  // node tally is off by at least one byte at HDD rate (~1e-8 s).
  constexpr double kTol = 1e-12;
  for (int r = 0; r < 3; ++r) {
    const Times& got = shrunk[static_cast<std::size_t>(r + 3)];
    const Times& want = ref[static_cast<std::size_t>(r)];
    EXPECT_GT(got.storage_s, 0.0);
    EXPECT_NEAR(got.storage_s, want.storage_s, kTol) << "dense rank " << r;
    EXPECT_NEAR(got.restore_s, want.restore_s, kTol) << "dense rank " << r;
    EXPECT_NEAR(got.ec_dump_s, want.ec_dump_s, kTol) << "dense rank " << r;
  }
}

TEST(RestoreInput, LossPropagatesAsException) {
  constexpr int kRanks = 4;
  auto run = test::run_dump(kRanks, 2, cfg(), [](int rank) {
    // Fully private data: exactly K = 2 copies of everything.
    std::vector<std::uint8_t> data(8 * kPage);
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<std::uint8_t>(i * 31 + 1009 * (rank + 1));
    }
    return data;
  });
  auto ptrs = test::store_ptrs(run);
  for (auto* s : ptrs) s->fail();  // everything gone

  simmpi::Runtime rt(kRanks);
  EXPECT_THROW(rt.run([&](simmpi::Comm& comm) {
    (void)core::restore_input(comm, ptrs);
  }),
               core::ManifestLostError);
}

}  // namespace
