// Collectives vs sequential oracles, across a sweep of rank counts
// (including non-powers of two, which stress the binomial trees), and the
// rendezvous allgather vs the message-by-message ring it replays.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <numeric>
#include <source_location>
#include <string>
#include <thread>
#include <vector>

#include "check/checker.hpp"
#include "fault/schedule.hpp"
#include "obs/telemetry.hpp"
#include "simmpi/collectives.hpp"
#include "simmpi/runtime.hpp"

namespace {

using namespace collrep;

class CollectiveSweep : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveSweep, BroadcastFromEveryRoot) {
  const int n = GetParam();
  simmpi::Runtime rt(n);
  rt.run([&](simmpi::Comm& comm) {
    for (int root = 0; root < n; ++root) {
      std::string value =
          comm.rank() == root ? "payload-" + std::to_string(root) : "";
      simmpi::bcast(comm, value, root);
      EXPECT_EQ(value, "payload-" + std::to_string(root));
    }
  });
}

TEST_P(CollectiveSweep, ReduceSumAtRoot) {
  const int n = GetParam();
  simmpi::Runtime rt(n);
  rt.run([&](simmpi::Comm& comm) {
    const int got = simmpi::reduce(
        comm, comm.rank() + 1, [](int a, int b) { return a + b; }, 0);
    if (comm.rank() == 0) {
      EXPECT_EQ(got, n * (n + 1) / 2);
    }
  });
}

TEST_P(CollectiveSweep, AllreduceSumEverywhere) {
  const int n = GetParam();
  simmpi::Runtime rt(n);
  rt.run([&](simmpi::Comm& comm) {
    EXPECT_EQ(simmpi::allreduce_sum(comm, comm.rank() + 1),
              n * (n + 1) / 2);
    EXPECT_EQ(simmpi::allreduce_max(comm, comm.rank()), n - 1);
  });
}

TEST_P(CollectiveSweep, AllreduceMergesSetsLikeHmerge) {
  const int n = GetParam();
  simmpi::Runtime rt(n);
  rt.run([&](simmpi::Comm& comm) {
    // Multiset-union operator (associative + commutative, like HMERGE).
    std::map<int, int> mine{{comm.rank() % 3, 1}};
    const auto merged = simmpi::allreduce(
        comm, mine, [](std::map<int, int> a, std::map<int, int> b) {
          for (const auto& [k, v] : b) a[k] += v;
          return a;
        });
    int total = 0;
    for (const auto& [k, v] : merged) total += v;
    EXPECT_EQ(total, n);  // every rank contributed exactly once
  });
}

TEST_P(CollectiveSweep, GatherCollectsByRank) {
  // simmpi has no gather: the dump collects per-rank values at a root
  // through reduce_kway, whose operator here concatenates (rank, value)
  // pairs.  Every rank's value must arrive exactly once, from every root.
  const int n = GetParam();
  simmpi::Runtime rt(n);
  rt.run([&](simmpi::Comm& comm) {
    for (int root = 0; root < n; ++root) {
      const std::map<int, int> mine{{comm.rank(), comm.rank() * 2}};
      const auto got = simmpi::reduce_kway(
          comm, mine,
          [](std::map<int, int> acc, std::vector<std::map<int, int>> kids) {
            for (const auto& kid : kids) {
              for (const auto& [r, v] : kid) {
                EXPECT_TRUE(acc.emplace(r, v).second) << "rank " << r;
              }
            }
            return acc;
          },
          root);
      if (comm.rank() == root) {
        ASSERT_EQ(static_cast<int>(got.size()), n);
        for (const auto& [r, v] : got) EXPECT_EQ(v, r * 2);
      }
    }
  });
}

TEST_P(CollectiveSweep, ScatterDistributesByRank) {
  // simmpi has no scatter: the dump ships per-partner payloads with
  // one-sided puts closed by one fence.  The root puts slot r into rank
  // r's window; after the fence each rank reads its own slot.
  const int n = GetParam();
  simmpi::Runtime rt(n);
  rt.run([&](simmpi::Comm& comm) {
    auto win = comm.win_create(sizeof(std::uint32_t));
    if (comm.rank() == 0) {
      for (int r = 0; r < n; ++r) {
        const std::uint32_t slot = 1000u + static_cast<std::uint32_t>(r);
        std::uint8_t bytes[sizeof slot];
        std::memcpy(bytes, &slot, sizeof slot);
        win.put(r, 0, bytes);
      }
    }
    win.fence();
    std::uint32_t mine = 0;
    std::memcpy(&mine, win.local().data(), sizeof mine);
    EXPECT_EQ(mine, 1000u + static_cast<std::uint32_t>(comm.rank()));
    win.free();
  });
}

TEST_P(CollectiveSweep, AllgatherEveryRankSeesAll) {
  const int n = GetParam();
  simmpi::Runtime rt(n);
  rt.run([&](simmpi::Comm& comm) {
    const auto all = simmpi::allgather(comm, comm.rank() * comm.rank());
    ASSERT_EQ(static_cast<int>(all.size()), n);
    for (int r = 0; r < n; ++r) {
      EXPECT_EQ(all[static_cast<std::size_t>(r)], r * r);
    }
  });
}

TEST_P(CollectiveSweep, AllgatherOfVectors) {
  const int n = GetParam();
  simmpi::Runtime rt(n);
  rt.run([&](simmpi::Comm& comm) {
    const std::vector<std::uint64_t> mine(
        static_cast<std::size_t>(comm.rank() + 1),
        static_cast<std::uint64_t>(comm.rank()));
    const auto all = simmpi::allgather(comm, mine);
    for (int r = 0; r < n; ++r) {
      ASSERT_EQ(all[static_cast<std::size_t>(r)].size(),
                static_cast<std::size_t>(r + 1));
      EXPECT_EQ(all[static_cast<std::size_t>(r)][0],
                static_cast<std::uint64_t>(r));
    }
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, CollectiveSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 13, 16, 17));

TEST(Collectives, BcastLargePayload) {
  simmpi::Runtime rt(6);
  rt.run([&](simmpi::Comm& comm) {
    std::vector<std::uint8_t> data;
    if (comm.rank() == 0) data.assign(1 << 18, 0xCD);
    simmpi::bcast(comm, data, 0);
    ASSERT_EQ(data.size(), static_cast<std::size_t>(1 << 18));
    EXPECT_EQ(data[12345], 0xCD);
  });
}

TEST(Collectives, ReduceIsDeterministicAcrossRuns) {
  // Floating-point reduction order is fixed by the binomial tree, so two
  // identical runs produce bit-identical results.
  const auto run_once = [] {
    simmpi::Runtime rt(7);
    double result = 0.0;
    rt.run([&](simmpi::Comm& comm) {
      const double mine = 0.1 * (comm.rank() + 1);
      const double sum =
          simmpi::allreduce(comm, mine, [](double a, double b) { return a + b; });
      if (comm.rank() == 0) result = sum;
    });
    return result;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Collectives, AllreduceAdvancesSimulatedTime) {
  simmpi::Runtime rt(8);
  rt.run([&](simmpi::Comm& comm) {
    const double before = comm.clock().now();
    (void)simmpi::allreduce_sum(comm, 1);
    comm.barrier();
    EXPECT_GT(comm.clock().now(), before);
  });
}

// -- rendezvous allgather vs the ring oracle ----------------------------------

// The message-by-message ring allgather that simmpi::allgather replays:
// N-1 steps, each rank forwards the block it received in the previous
// step.  Kept as the oracle the replay must match bit for bit.
template <class T>
std::vector<T> ring_allgather(simmpi::Comm& comm, const T& value,
                              std::source_location loc =
                                  std::source_location::current()) {
  const int n = comm.size();
  const simmpi::detail::CollectiveScope scope(
      comm, obs::CollectiveKind::kAllgather,
      static_cast<std::uint64_t>(n > 0 ? n - 1 : 0),
      simmpi::detail::fingerprint<T>(obs::CollectiveKind::kAllgather, -1),
      loc);
  const int r = comm.rank();
  std::vector<T> out(static_cast<std::size_t>(n));
  out[static_cast<std::size_t>(r)] = value;
  T current = value;
  for (int step = 0; step < n - 1; ++step) {
    const int dst = (r + 1) % n;
    const int src = (r - 1 + n) % n;
    comm.send_value(dst, simmpi::tags::kAllgather + step, current);
    current = comm.recv_value<T>(src, simmpi::tags::kAllgather + step);
    const int origin = ((r - 1 - step) % n + n) % n;
    out[static_cast<std::size_t>(origin)] = current;
  }
  comm.fault_point("coll.post");
  return out;
}

// A payload whose decode stalls on the rank that sets tl_slow_decoder:
// that rank is still reading one allgather's table while its peers
// deposit into the next one.
struct SlowDecode {
  std::vector<std::uint64_t> words;
  bool operator==(const SlowDecode&) const = default;
};
thread_local bool tl_slow_decoder = false;
void save(simmpi::OArchive& ar, const SlowDecode& p) { ar.put(p.words); }
void load(simmpi::IArchive& ar, SlowDecode& p) {
  if (tl_slow_decoder) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ar.get(p.words);
}

// Everything one world run leaves behind, indexed by world rank.
struct WorldOutcome {
  std::vector<std::vector<std::vector<SlowDecode>>> values;  // [rank][call]
  std::vector<double> clocks;  // final sim clock
  std::vector<obs::CommStats> stats;
  std::vector<std::vector<obs::TraceEvent>> events;
  std::size_t violations = 0;
};

// Runs `calls` allgathers through `gather` over `nranks` ranks with
// rank-dependent entry clocks and payload sizes.  With `victim` >= 0 that
// rank dies first and the survivors gather in the shrunk world, where
// dense and world ranks differ.  `slow` (world rank) decodes slowly.
template <class Gather>
WorldOutcome run_world(int nranks, int victim, int calls, int slow,
                       Gather gather) {
  obs::Telemetry tel;
  check::Checker checker;
  fault::FaultSchedule faults;
  if (victim >= 0) {
    fault::FaultEvent ev;
    ev.point = "test.kill";
    ev.rank = victim;
    ev.action = fault::FaultAction::kKillRank;
    faults.add(ev);
  }
  simmpi::RuntimeOptions opts;
  opts.telemetry = &tel;
  opts.checker = &checker;
  opts.faults = &faults;
  opts.contain_failures = true;
  WorldOutcome w;
  w.values.resize(static_cast<std::size_t>(nranks));
  w.clocks.assign(static_cast<std::size_t>(nranks), 0.0);
  simmpi::Runtime rt(nranks, opts);
  rt.run([&](simmpi::Comm& comm) {
    const int me = comm.world_rank();
    tl_slow_decoder = me == slow;
    comm.fault_point("test.kill");
    if (victim >= 0) {
      try {
        comm.barrier();
      } catch (const simmpi::RankDeadError&) {
        (void)comm.shrink();
      }
    }
    for (int call = 0; call < calls; ++call) {
      comm.charge(1.0e-6 * static_cast<double>((me * 37 + call * 11) % 13));
      SlowDecode mine;
      mine.words.assign(static_cast<std::size_t>((me * 7 + call * 5) % 11 + 1),
                        static_cast<std::uint64_t>(me * 1000 + call));
      w.values[static_cast<std::size_t>(me)].push_back(gather(comm, mine));
    }
    w.clocks[static_cast<std::size_t>(me)] = comm.clock().now();
    tl_slow_decoder = false;
  });
  for (int r = 0; r < nranks; ++r) {
    w.stats.push_back(tel.rank(r).comm);
    w.events.push_back(tel.rank(r).trace.snapshot());
  }
  w.violations = checker.violation_count();
  return w;
}

void expect_same_stats(const obs::CommStats& a, const obs::CommStats& b,
                       int rank) {
  SCOPED_TRACE("rank " + std::to_string(rank));
  EXPECT_EQ(a.sent_messages, b.sent_messages);
  EXPECT_EQ(a.sent_bytes, b.sent_bytes);
  EXPECT_EQ(a.recv_messages, b.recv_messages);
  EXPECT_EQ(a.recv_bytes, b.recv_bytes);
  EXPECT_EQ(a.intra_node_sent_bytes, b.intra_node_sent_bytes);
  EXPECT_EQ(a.inter_node_sent_bytes, b.inter_node_sent_bytes);
  ASSERT_EQ(a.sent_by_tag.size(), b.sent_by_tag.size());
  for (const auto& [tag, t] : a.sent_by_tag) {
    ASSERT_TRUE(b.sent_by_tag.contains(tag)) << "tag " << tag;
    EXPECT_EQ(t.messages, b.sent_by_tag.at(tag).messages) << "tag " << tag;
    EXPECT_EQ(t.bytes, b.sent_by_tag.at(tag).bytes) << "tag " << tag;
  }
  EXPECT_EQ(a.barriers, b.barriers);
  EXPECT_EQ(a.collective_calls, b.collective_calls);
  EXPECT_EQ(a.collective_rounds, b.collective_rounds);
}

void expect_same_world(const WorldOutcome& got, const WorldOutcome& want) {
  EXPECT_EQ(got.violations, 0u);
  EXPECT_EQ(want.violations, 0u);
  const std::size_t n = want.values.size();
  for (std::size_t r = 0; r < n; ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    EXPECT_EQ(got.values[r], want.values[r]);
    EXPECT_EQ(got.clocks[r], want.clocks[r]);  // bit-exact
    expect_same_stats(got.stats[r], want.stats[r], static_cast<int>(r));
    ASSERT_EQ(got.events[r].size(), want.events[r].size());
    for (std::size_t i = 0; i < want.events[r].size(); ++i) {
      const obs::TraceEvent& g = got.events[r][i];
      const obs::TraceEvent& e = want.events[r][i];
      SCOPED_TRACE("event " + std::to_string(i) + " (" + e.name + ")");
      EXPECT_EQ(g.kind, e.kind);
      EXPECT_EQ(g.ts, e.ts);
      EXPECT_STREQ(g.name, e.name);
      EXPECT_EQ(g.a, e.a);  // bytes
      EXPECT_EQ(g.b, e.b);  // peer
      EXPECT_EQ(g.c, e.c);  // flow id / sync generation
    }
  }
}

struct RingCase {
  int nranks;
  int victim;  // -1: healthy world
};

class AllgatherVsRing : public ::testing::TestWithParam<RingCase> {};

TEST_P(AllgatherVsRing, ReplayMatchesMessageRing) {
  const auto [n, victim] = GetParam();
  constexpr int kCalls = 2;
  const auto replayed = run_world(
      n, victim, kCalls, -1, [](simmpi::Comm& c, const SlowDecode& v) {
        return simmpi::allgather(c, v);
      });
  const auto oracle = run_world(
      n, victim, kCalls, -1,
      [](simmpi::Comm& c, const SlowDecode& v) { return ring_allgather(c, v); });
  expect_same_world(replayed, oracle);

  // The comparison has teeth: every survivor replayed its n-1 ring steps
  // per call, and the values are the survivors' contributions.
  const int live = victim >= 0 ? n - 1 : n;
  for (int r = 0; r < n; ++r) {
    if (r == victim) continue;
    const auto& calls = replayed.values[static_cast<std::size_t>(r)];
    ASSERT_EQ(calls.size(), static_cast<std::size_t>(kCalls));
    ASSERT_EQ(calls[0].size(), static_cast<std::size_t>(live));
    EXPECT_EQ(replayed.stats[static_cast<std::size_t>(r)].sent_messages,
              static_cast<std::uint64_t>(kCalls * (live - 1)));
  }
}

std::string ring_case_name(const ::testing::TestParamInfo<RingCase>& info) {
  std::string name = "n" + std::to_string(info.param.nranks);
  if (info.param.victim >= 0) {
    name += "_shrunk" + std::to_string(info.param.victim);
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Worlds, AllgatherVsRing,
    ::testing::Values(RingCase{1, -1}, RingCase{2, -1}, RingCase{3, -1},
                      RingCase{13, -1}, RingCase{40, -1}, RingCase{14, 5}),
    ring_case_name);

TEST(AllgatherTables, BackToBackWithSlowReaderAlternates) {
  // Rank 3 decodes slowly, so its peers run ahead into the next allgather
  // while it still reads the previous table: three calls cycle through
  // both slot tables (the TSan pass checks no deposit races a reader).
  constexpr int kRanks = 8;
  constexpr int kCalls = 3;
  const auto replayed = run_world(
      kRanks, -1, kCalls, 3, [](simmpi::Comm& c, const SlowDecode& v) {
        return simmpi::allgather(c, v);
      });
  const auto oracle = run_world(
      kRanks, -1, kCalls, 3,
      [](simmpi::Comm& c, const SlowDecode& v) { return ring_allgather(c, v); });
  expect_same_world(replayed, oracle);
}

TEST(AllgatherDeath, EverySurvivorThrowsThenShrunkWorldGathers) {
  constexpr int kRanks = 6;
  constexpr int kVictim = 2;
  fault::FaultSchedule faults;
  fault::FaultEvent ev;
  ev.point = "coll.pre";  // the victim's first collective is the allgather
  ev.rank = kVictim;
  ev.action = fault::FaultAction::kKillRank;
  faults.add(ev);
  check::Checker checker;
  simmpi::RuntimeOptions opts;
  opts.faults = &faults;
  opts.checker = &checker;
  opts.contain_failures = true;
  std::atomic<int> threw{0};
  std::vector<std::vector<int>> after(kRanks);
  simmpi::Runtime rt(kRanks, opts);
  rt.run([&](simmpi::Comm& comm) {
    comm.charge(1.0e-6 * comm.rank());
    try {
      (void)simmpi::allgather(comm, comm.rank());
      ADD_FAILURE() << "rank " << comm.world_rank()
                    << " returned from the allgather its peer died in";
    } catch (const simmpi::RankDeadError&) {
      ++threw;
      (void)comm.shrink();
    }
    after[static_cast<std::size_t>(comm.world_rank())] =
        simmpi::allgather(comm, comm.world_rank());
  });
  EXPECT_EQ(threw.load(), kRanks - 1);
  for (int r = 0; r < kRanks; ++r) {
    if (r == kVictim) continue;
    EXPECT_EQ(after[static_cast<std::size_t>(r)],
              (std::vector<int>{0, 1, 3, 4, 5}))
        << "rank " << r;
  }
  EXPECT_EQ(checker.violation_count(), 0u);
}

}  // namespace
