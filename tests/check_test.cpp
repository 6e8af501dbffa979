// Runtime-verification layer (src/check): every violation class —
// mismatched collectives, puts outside an access epoch, overlapping puts
// from different ranks, point-to-point message leaks, and stuck ranks —
// must be detected with rank and call-site attribution, and clean
// programs (including the real dump pipeline) must stay violation-free.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "check/checker.hpp"
#include "core/collrep.hpp"
#include "obs/telemetry.hpp"
#include "simmpi/collectives.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/runtime.hpp"

namespace {

using namespace collrep;

simmpi::Runtime checked_runtime(int nranks, check::Checker& checker) {
  simmpi::RuntimeOptions opts;
  opts.checker = &checker;
  return simmpi::Runtime(nranks, opts);
}

// Violations thrown on a rank land back at Runtime::run(); every test on
// the abort path asserts on both the thrown error and the recorded log.
check::Violation run_expecting_violation(simmpi::Runtime& rt,
                                         const check::Checker& checker,
                                         check::ViolationKind kind,
                                         const std::function<void(simmpi::Comm&)>& body) {
  bool threw = false;
  try {
    rt.run(body);
  } catch (const check::ViolationError& e) {
    threw = true;
    EXPECT_EQ(e.violation().kind, kind) << e.what();
  }
  EXPECT_TRUE(threw) << "expected a " << check::to_string(kind) << " violation";
  const auto log = checker.violations();
  EXPECT_FALSE(log.empty());
  return log.empty() ? check::Violation{} : log.front();
}

TEST(Checker, CleanMixedProgramHasNoViolations) {
  check::Checker checker;
  auto rt = checked_runtime(4, checker);
  rt.run([&](simmpi::Comm& comm) {
    comm.barrier();
    const int sum = simmpi::allreduce_sum(comm, comm.rank());
    EXPECT_EQ(sum, 6);
    int v = comm.rank() == 1 ? 41 : 0;
    simmpi::bcast(comm, v, 1);
    EXPECT_EQ(v, 41);
    if (comm.rank() == 0) comm.send_value(2, 9, 1.5);
    if (comm.rank() == 2) {
      EXPECT_EQ(comm.recv_value<double>(0, 9), 1.5);
    }
    auto win = comm.win_create(32);
    const std::vector<std::uint8_t> mine(
        8, static_cast<std::uint8_t>(comm.rank()));
    win.put((comm.rank() + 1) % comm.size(),
            static_cast<std::size_t>(comm.rank()) * 8, mine);
    win.fence();
    win.put((comm.rank() + 2) % comm.size(),
            static_cast<std::size_t>(comm.rank()) * 8, mine);
    win.fence(simmpi::kFenceNoSucceed);
    win.free();
  });
  EXPECT_EQ(checker.violation_count(), 0u);
  EXPECT_GT(checker.collectives_checked(), 0u);
  EXPECT_GT(checker.puts_checked(), 0u);
}

TEST(Checker, CleanDumpPipelineHasNoViolations) {
  constexpr int kRanks = 4;
  check::Checker checker;
  auto rt = checked_runtime(kRanks, checker);
  std::vector<chunk::ChunkStore> stores;
  for (int r = 0; r < kRanks; ++r) {
    stores.emplace_back(chunk::StoreMode::kPayload);
  }
  rt.run([&](simmpi::Comm& comm) {
    std::vector<std::uint8_t> data(16 * 4096);
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<std::uint8_t>(
          (static_cast<std::size_t>(comm.rank()) * 131 + i) * 7);
    }
    chunk::Dataset ds;
    ds.add_segment(data);
    core::DumpConfig cfg;
    cfg.chunk_bytes = 4096;
    core::Dumper dumper(comm, stores[static_cast<std::size_t>(comm.rank())],
                        cfg);
    const auto stats = dumper.dump_output(ds, 2);
    EXPECT_EQ(stats.k_achieved_min, 2);
  });
  EXPECT_EQ(checker.violation_count(), 0u) << [&] {
    std::string all;
    for (const auto& v : checker.violations()) all += v.to_string() + "\n";
    return all;
  }();
  EXPECT_GT(checker.collectives_checked(), 0u);
  EXPECT_GT(checker.puts_checked(), 0u);
}

TEST(Checker, DetectsMismatchedCollectiveKind) {
  check::Checker checker;
  auto rt = checked_runtime(4, checker);
  const auto v = run_expecting_violation(
      rt, checker, check::ViolationKind::kCollectiveMismatch,
      [](simmpi::Comm& comm) {
        comm.barrier();  // seq 0: matches everywhere
        // collcheck:allow(CC-SCHED-DIV) — divergence is the fixture
        if (comm.rank() == 1) {
          // seq 1 diverges on purpose
          (void)simmpi::allreduce_sum(comm, comm.rank());
        } else {
          int value = 7;
          simmpi::bcast(comm, value, 0);
        }
      });
  EXPECT_EQ(v.seq, 1u);
  // One side is the depositing rank, the other the divergent one; both
  // operations and both call sites must appear in the diagnosis.
  EXPECT_NE(v.detail.find("allreduce"), std::string::npos) << v.detail;
  EXPECT_NE(v.detail.find("bcast"), std::string::npos) << v.detail;
  EXPECT_NE(v.site.find("check_test.cpp"), std::string::npos) << v.site;
  EXPECT_NE(v.other_site.find("check_test.cpp"), std::string::npos)
      << v.other_site;
  EXPECT_TRUE(v.rank == 1 || v.other_rank == 1);
}

TEST(Checker, DetectsRootMismatch) {
  check::Checker checker;
  auto rt = checked_runtime(4, checker);
  const auto v = run_expecting_violation(
      rt, checker, check::ViolationKind::kCollectiveMismatch,
      [](simmpi::Comm& comm) {
        int value = 3;
        simmpi::bcast(comm, value, comm.rank() < 2 ? 0 : 1);
      });
  EXPECT_NE(v.detail.find("root="), std::string::npos) << v.detail;
}

TEST(Checker, DetectsPayloadTypeMismatch) {
  check::Checker checker;
  auto rt = checked_runtime(2, checker);
  const auto v = run_expecting_violation(
      rt, checker, check::ViolationKind::kCollectiveMismatch,
      [](simmpi::Comm& comm) {
        if (comm.rank() == 0) {
          int value = 1;
          simmpi::bcast(comm, value, 0);
        } else {
          double value = 1.0;
          simmpi::bcast(comm, value, 0);
        }
      });
  EXPECT_NE(v.detail.find("type="), std::string::npos) << v.detail;
}

TEST(Checker, DetectsPutAfterNoSucceedFence) {
  check::Checker checker;
  auto rt = checked_runtime(3, checker);
  const auto v = run_expecting_violation(
      rt, checker, check::ViolationKind::kEpochViolation,
      [](simmpi::Comm& comm) {
        auto win = comm.win_create(16);
        const std::vector<std::uint8_t> data(4, 0xAB);
        win.put((comm.rank() + 1) % comm.size(), 0, data);
        win.fence(simmpi::kFenceNoSucceed);  // access epoch closes here
        // ... so this put is illegal — collcheck:allow(CC-RMA-NOSUCCEED)
        if (comm.rank() == 0) win.put(1, 4, data);
        win.free();
      });
  EXPECT_EQ(v.rank, 0);
  EXPECT_NE(v.detail.find("no open access epoch"), std::string::npos)
      << v.detail;
  EXPECT_NE(v.site.find("check_test.cpp"), std::string::npos) << v.site;
}

TEST(Checker, PlainFenceReopensTheEpoch) {
  check::Checker checker;
  auto rt = checked_runtime(3, checker);
  rt.run([](simmpi::Comm& comm) {
    auto win = comm.win_create(16);
    const std::vector<std::uint8_t> data(4, 0xCD);
    win.put((comm.rank() + 1) % comm.size(), 0, data);
    win.fence();  // next epoch opens immediately
    win.put((comm.rank() + 1) % comm.size(), 8, data);
    win.fence(simmpi::kFenceNoSucceed);
    win.free();
  });
  EXPECT_EQ(checker.violation_count(), 0u);
}

TEST(Checker, DetectsOverlappingPutsFromDifferentRanks) {
  check::CheckerConfig cfg;
  cfg.abort_on_violation = false;  // collect, don't kill the run
  check::Checker checker(cfg);
  auto rt = checked_runtime(4, checker);
  rt.run([](simmpi::Comm& comm) {
    auto win = comm.win_create(16);
    const std::vector<std::uint8_t> data(8, 0x11);
    // Ranks 0 and 1 write intersecting ranges of rank 2's region in the
    // same epoch: real MPI makes the outcome last-writer-wins races.
    if (comm.rank() == 0) win.put(2, 0, data);
    if (comm.rank() == 1) win.put(2, 4, data);
    // Same-rank overlap is legal (deterministic on one origin thread).
    if (comm.rank() == 3) {
      win.put(3, 0, data);
      win.put(3, 0, data);
    }
    win.fence();
    win.free();
  });
  const auto log = checker.violations();
  ASSERT_EQ(log.size(), 1u);
  const auto& v = log.front();
  EXPECT_EQ(v.kind, check::ViolationKind::kOverlappingPut);
  EXPECT_TRUE((v.rank == 0 && v.other_rank == 1) ||
              (v.rank == 1 && v.other_rank == 0))
      << v.detail;
  EXPECT_NE(v.detail.find("overlapping"), std::string::npos) << v.detail;
  EXPECT_NE(v.site.find("check_test.cpp"), std::string::npos) << v.site;
  EXPECT_NE(v.other_site.find("check_test.cpp"), std::string::npos)
      << v.other_site;
}

TEST(Checker, OverlapTrackingResetsAcrossEpochs) {
  check::Checker checker;
  auto rt = checked_runtime(2, checker);
  rt.run([](simmpi::Comm& comm) {
    auto win = comm.win_create(16);
    const std::vector<std::uint8_t> data(8, 0x22);
    // The same range written by different ranks in *different* epochs is
    // well-defined (the fence orders them); only same-epoch overlap races.
    if (comm.rank() == 0) win.put(0, 0, data);
    win.fence();
    if (comm.rank() == 1) win.put(0, 0, data);
    win.fence();
    win.free();
  });
  EXPECT_EQ(checker.violation_count(), 0u);
}

TEST(Checker, DetectsMessageLeakAtFinalize) {
  check::Checker checker;
  auto rt = checked_runtime(2, checker);
  const auto v = run_expecting_violation(
      rt, checker, check::ViolationKind::kMessageLeak,
      [](simmpi::Comm& comm) {
        if (comm.rank() == 0) {
          comm.send_value(1, 7, 1);
          comm.send_value(1, 7, 2);
        }
        if (comm.rank() == 1) {
          EXPECT_EQ(comm.recv_value<int>(0, 7), 1);  // second one never read
        }
        comm.barrier();
      });
  EXPECT_NE(v.detail.find("0->1 tag 7 (1)"), std::string::npos) << v.detail;
}

TEST(Checker, ChannelBalanceIsSignedAndOrderFree) {
  // The allgather replays its ring after one rendezvous, so a receive can
  // be recorded before the send it matches: that must balance, while a
  // receive no send ever matches is reported like an unreceived send.
  check::Checker checker;
  checker.run_begin(3, [] {});
  checker.on_recv(1, 0, 7, 8);  // replayed receive first...
  checker.on_send(0, 1, 7, 8);  // ...then the peer's replayed send
  checker.on_recv(2, 1, 9, 4);  // never sent
  const auto err = checker.run_end(false);
  ASSERT_NE(err, nullptr);
  try {
    std::rethrow_exception(err);
  } catch (const check::ViolationError& e) {
    EXPECT_EQ(e.violation().kind, check::ViolationKind::kMessageLeak);
    EXPECT_NE(e.violation().detail.find("1->2 tag 9 (-1)"), std::string::npos)
        << e.violation().detail;
    EXPECT_EQ(e.violation().detail.find("0->1"), std::string::npos)
        << e.violation().detail;
  }
}

TEST(Checker, WatchdogConvertsDeadlockIntoStuckReport) {
  check::CheckerConfig cfg;
  cfg.watchdog_s = 0.3;
  check::Checker checker(cfg);
  auto rt = checked_runtime(3, checker);
  const auto v = run_expecting_violation(
      rt, checker, check::ViolationKind::kStuckRanks,
      [](simmpi::Comm& comm) {
        // Rank 0 "forgets" the barrier: ranks 1 and 2 would hang forever.
        if (comm.rank() != 0) comm.barrier();  // collcheck:allow(CC-SCHED-DIV)
      });
  EXPECT_NE(v.detail.find("rank 0"), std::string::npos) << v.detail;
  EXPECT_NE(v.detail.find("inside barrier"), std::string::npos) << v.detail;
  EXPECT_NE(v.detail.find("check_test.cpp"), std::string::npos) << v.detail;
}

TEST(Checker, PublishesVerdictsIntoMetricsRegistry) {
  obs::Telemetry tel;
  check::CheckerConfig cfg;
  cfg.abort_on_violation = false;
  check::Checker checker(cfg);
  checker.attach(&tel);
  simmpi::RuntimeOptions opts;
  opts.checker = &checker;
  opts.telemetry = &tel;
  simmpi::Runtime rt(2, opts);
  rt.run([](simmpi::Comm& comm) {
    (void)simmpi::allreduce_sum(comm, 1);
    if (comm.rank() == 0) comm.send_value(1, 3, 5);  // leaked on purpose
  });
  EXPECT_EQ(tel.metrics().counter("check.runs"), 1u);
  EXPECT_GT(tel.metrics().counter("check.collectives_checked"), 0u);
  EXPECT_EQ(tel.metrics().counter("check.violations"), 1u);
  EXPECT_EQ(tel.metrics().counter("check.violations.message_leak"), 1u);
  ASSERT_EQ(checker.violation_count(), 1u);
  checker.clear();
  EXPECT_EQ(checker.violation_count(), 0u);
}

TEST(Checker, ReusableAcrossRuns) {
  check::Checker checker;
  auto rt = checked_runtime(2, checker);
  for (int i = 0; i < 3; ++i) {
    rt.run([](simmpi::Comm& comm) {
      (void)simmpi::allreduce_sum(comm, comm.rank());
      comm.barrier();
    });
  }
  EXPECT_EQ(checker.violation_count(), 0u);
}

}  // namespace
