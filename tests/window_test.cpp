// One-sided window semantics: create/put/fence visibility, bounds checks,
// epoch cost accounting, and multi-window coexistence.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "obs/telemetry.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/runtime.hpp"

namespace {

using namespace collrep;

TEST(Window, PutVisibleAfterFence) {
  simmpi::Runtime rt(4);
  rt.run([&](simmpi::Comm& comm) {
    auto win = comm.win_create(16);
    const std::vector<std::uint8_t> mine(4,
                                         static_cast<std::uint8_t>(comm.rank()));
    // Every rank writes its id into every rank's window at offset 4*rank.
    for (int t = 0; t < comm.size(); ++t) {
      win.put(t, static_cast<std::size_t>(comm.rank()) * 4, mine);
    }
    win.fence();
    const auto local = win.local();
    for (int r = 0; r < comm.size(); ++r) {
      for (int b = 0; b < 4; ++b) {
        EXPECT_EQ(local[static_cast<std::size_t>(r * 4 + b)], r);
      }
    }
    win.free();
  });
}

TEST(Window, RegionsAreZeroInitialized) {
  simmpi::Runtime rt(2);
  rt.run([&](simmpi::Comm& comm) {
    auto win = comm.win_create(64);
    for (const auto byte : win.local()) EXPECT_EQ(byte, 0);
    win.free();
  });
}

TEST(Window, DifferentSizesPerRank) {
  simmpi::Runtime rt(3);
  rt.run([&](simmpi::Comm& comm) {
    auto win = comm.win_create(static_cast<std::size_t>(comm.rank()) * 8);
    EXPECT_EQ(win.local().size(), static_cast<std::size_t>(comm.rank()) * 8);
    if (comm.rank() == 0) {
      const std::vector<std::uint8_t> data(8, 0xEE);
      win.put(2, 8, data);
    }
    win.fence();
    if (comm.rank() == 2) {
      EXPECT_EQ(win.local()[8], 0xEE);
      EXPECT_EQ(win.local()[15], 0xEE);
      EXPECT_EQ(win.local()[0], 0);
    }
    win.free();
  });
}

TEST(Window, OutOfBoundsPutThrows) {
  simmpi::Runtime rt(2);
  EXPECT_THROW(rt.run([&](simmpi::Comm& comm) {
    auto win = comm.win_create(8);
    const std::vector<std::uint8_t> data(8, 1);
    if (comm.rank() == 0) win.put(1, 4, data);  // 4 + 8 > 8
    win.fence();
    win.free();
  }),
               std::out_of_range);
}

TEST(Window, HugeOffsetPutThrows) {
  // offset + size wraps around for offsets near SIZE_MAX; the bound must
  // not, or the put writes far outside the region.
  simmpi::Runtime rt(2);
  EXPECT_THROW(rt.run([&](simmpi::Comm& comm) {
    auto win = comm.win_create(8);
    const std::vector<std::uint8_t> data(8, 1);
    if (comm.rank() == 0) {
      win.put(1, std::numeric_limits<std::size_t>::max() - 3, data);
    }
    win.fence();
    win.free();
  }),
               std::out_of_range);
}

TEST(Window, FenceAdvancesClockByEpochBytes) {
  simmpi::RuntimeOptions opts;
  opts.cluster.ranks_per_node = 1;  // every transfer is inter-node
  simmpi::Runtime rt(2, opts);
  const double bw = opts.cluster.net_bandwidth_bps;
  rt.run([&](simmpi::Comm& comm) {
    auto win = comm.win_create(1 << 20);
    const double before = comm.clock().now();
    if (comm.rank() == 0) {
      const std::vector<std::uint8_t> data(1 << 20, 7);
      win.put(1, 0, data);
    }
    win.fence();
    const double elapsed = comm.clock().now() - before;
    // The epoch must cost at least bytes/bandwidth on both ranks (clocks
    // are aligned by the fence).
    EXPECT_GE(elapsed, static_cast<double>(1 << 20) / bw * 0.99);
    win.free();
  });
}

TEST(Window, ModeledBytesOverrideDrivesCost) {
  obs::Telemetry telemetry;
  simmpi::RuntimeOptions opts;
  opts.cluster.ranks_per_node = 1;
  opts.telemetry = &telemetry;
  simmpi::Runtime rt(2, opts);
  std::vector<double> elapsed(2, 0.0);
  rt.run([&](simmpi::Comm& comm) {
    auto win = comm.win_create(64);
    const double before = comm.clock().now();
    if (comm.rank() == 0) {
      const std::vector<std::uint8_t> tiny(16, 1);
      // 16 real bytes standing in for 4 MiB on the wire.
      win.put(1, 0, tiny, 4ull << 20);
    }
    win.fence();
    elapsed[static_cast<std::size_t>(comm.rank())] =
        comm.clock().now() - before;
    win.free();
  });
  // The epoch's put tally, which rank 0's fence event carries, counts the
  // modeled bytes, not the 16 real ones.
  std::vector<std::uint64_t> put_tallies;
  for (const auto& ev : telemetry.rank(0).trace.snapshot()) {
    if (ev.kind == obs::EventKind::kFence) put_tallies.push_back(ev.a);
  }
  EXPECT_EQ(put_tallies, std::vector<std::uint64_t>{4ull << 20});
  EXPECT_GE(elapsed[1],
            static_cast<double>(4ull << 20) / opts.cluster.net_bandwidth_bps *
                0.99);
}

TEST(Window, TwoWindowsCoexist) {
  simmpi::Runtime rt(2);
  rt.run([&](simmpi::Comm& comm) {
    auto win_a = comm.win_create(8);
    auto win_b = comm.win_create(8);
    const std::vector<std::uint8_t> a(8, 0xAA);
    const std::vector<std::uint8_t> b(8, 0xBB);
    if (comm.rank() == 0) {
      win_a.put(1, 0, a);
      win_b.put(1, 0, b);
    }
    win_a.fence();
    win_b.fence();
    if (comm.rank() == 1) {
      EXPECT_EQ(win_a.local()[0], 0xAA);
      EXPECT_EQ(win_b.local()[0], 0xBB);
    }
    win_a.free();
    win_b.free();
  });
}

TEST(Window, RecreateAfterFree) {
  simmpi::Runtime rt(2);
  rt.run([&](simmpi::Comm& comm) {
    for (int round = 0; round < 3; ++round) {
      auto win = comm.win_create(4);
      const std::vector<std::uint8_t> data(
          4, static_cast<std::uint8_t>(round + 1));
      win.put((comm.rank() + 1) % 2, 0, data);
      win.fence();
      EXPECT_EQ(win.local()[0], round + 1);
      win.free();
    }
  });
}

TEST(Window, DestructorReleasesCollectively) {
  simmpi::Runtime rt(2);
  rt.run([&](simmpi::Comm& comm) {
    {
      auto win = comm.win_create(4);
      win.fence();
    }  // destructor performs the collective free on both ranks
    auto win2 = comm.win_create(4);
    win2.free();
  });
}

TEST(Window, IntraNodeEpochCheaperThanInterNode) {
  const auto epoch_time = [](int ranks_per_node) {
    simmpi::RuntimeOptions opts;
    opts.cluster.ranks_per_node = ranks_per_node;
    simmpi::Runtime rt(2, opts);
    double result = 0.0;
    rt.run([&](simmpi::Comm& comm) {
      auto win = comm.win_create(1 << 20);
      const double before = comm.clock().now();
      if (comm.rank() == 0) {
        const std::vector<std::uint8_t> data(1 << 20, 3);
        win.put(1, 0, data);
      }
      win.fence();
      if (comm.rank() == 0) result = comm.clock().now() - before;
      win.free();
    });
    return result;
  };
  EXPECT_LT(epoch_time(2) * 5, epoch_time(1));  // same node ≫ cheaper
}

// One put of the tally test: `modeled` bytes from `src` to `dst` in fence
// epoch `epoch`; the real payload is 8 bytes at offset 8 * src.
struct PlannedPut {
  int epoch;
  int src;
  int dst;
  std::uint64_t modeled;
};

std::vector<PlannedPut> tally_plan(int nranks, int epochs) {
  std::vector<PlannedPut> plan;
  for (int e = 0; e < epochs; ++e) {
    for (int r = 0; r < nranks; ++r) {
      if ((r + e) % 7 == 3) continue;  // some ranks sit an epoch out
      // Same-node neighbours, a self-put, and targets on other nodes.
      const int targets[] = {(r + 1) % nranks, (r + 5 + e) % nranks,
                             (r + 13) % nranks, (r + 29 - e) % nranks, r};
      for (int k = 0; k < 5; ++k) {
        if (k == 4 && (r + e) % 3 != 0) continue;
        plan.push_back(PlannedPut{
            e, r, targets[k],
            static_cast<std::uint64_t>(4096 + 977 * r + 131 * k + 17 * e)});
      }
    }
  }
  return plan;
}

// The clock every rank holds after the fence that closes `epoch`, replayed
// from the plan with the cost model's arithmetic (puts charge modelled
// bytes at memory rate; the fence starts at the latest clock or put issue
// and lasts as long as the busiest node's NIC-out, NIC-in or memory
// traffic), and in `recv` the modelled bytes delivered to every rank.
double oracle_release(const sim::ClusterConfig& cl, int nranks,
                      const std::vector<PlannedPut>& plan, int epoch,
                      double start_clock, std::vector<std::uint64_t>& recv) {
  const auto nnodes = static_cast<std::size_t>(cl.node_count(nranks));
  std::vector<std::uint64_t> out(nnodes, 0);
  std::vector<std::uint64_t> in(nnodes, 0);
  std::vector<std::uint64_t> mem(nnodes, 0);
  std::vector<sim::SimClock> clocks(static_cast<std::size_t>(nranks));
  for (auto& c : clocks) c.reset(start_clock);
  recv.assign(static_cast<std::size_t>(nranks), 0);
  double last_issue = 0.0;
  for (const auto& p : plan) {
    if (p.epoch != epoch) continue;
    auto& clock = clocks[static_cast<std::size_t>(p.src)];
    last_issue = std::max(last_issue, clock.now());
    clock.advance(static_cast<double>(p.modeled) / cl.mem_bandwidth_bps);
    const auto sn = static_cast<std::size_t>(cl.node_of(p.src));
    const auto dn = static_cast<std::size_t>(cl.node_of(p.dst));
    if (sn == dn) {
      mem[sn] += p.modeled;
    } else {
      out[sn] += p.modeled;
      in[dn] += p.modeled;
    }
    recv[static_cast<std::size_t>(p.dst)] += p.modeled;
  }
  double max_clock = 0.0;
  for (const auto& c : clocks) max_clock = std::max(max_clock, c.now());
  double busiest = 0.0;
  for (std::size_t n = 0; n < nnodes; ++n) {
    busiest = std::max({busiest,
                        static_cast<double>(out[n]) / cl.net_bandwidth_bps,
                        static_cast<double>(in[n]) / cl.net_bandwidth_bps,
                        static_cast<double>(mem[n]) / cl.mem_bandwidth_bps});
  }
  return std::max(max_clock, last_issue) + busiest + cl.net_latency_s;
}

TEST(Window, PerRankTalliesMatchPlanOracle) {
  constexpr int kRanks = 40;
  constexpr int kEpochs = 3;
  simmpi::RuntimeOptions opts;
  opts.cluster.ranks_per_node = 12;  // nodes of 12, 12, 12 and 4 ranks
  const auto plan = tally_plan(kRanks, kEpochs);
  simmpi::Runtime rt(kRanks, opts);
  rt.run([&](simmpi::Comm& comm) {
    const int me = comm.rank();
    auto win = comm.win_create(8 * kRanks);
    for (int e = 0; e < kEpochs; ++e) {
      const double start = comm.clock().now();  // aligned by the last sync
      for (const auto& p : plan) {
        if (p.epoch != e || p.src != me) continue;
        const std::vector<std::uint8_t> payload(
            8, static_cast<std::uint8_t>(p.modeled));
        win.put(p.dst, 8 * static_cast<std::size_t>(me), payload, p.modeled);
      }
      win.fence();
      std::vector<std::uint64_t> recv;
      const double release =
          oracle_release(opts.cluster, kRanks, plan, e, start, recv);
      EXPECT_EQ(comm.clock().now(), release) << "rank " << me << " epoch " << e;
      EXPECT_EQ(comm.epoch_bytes_recv(), recv[static_cast<std::size_t>(me)])
          << "rank " << me << " epoch " << e;
      for (const auto& p : plan) {
        if (p.epoch != e || p.dst != me) continue;
        EXPECT_EQ(win.local()[8 * static_cast<std::size_t>(p.src)],
                  static_cast<std::uint8_t>(p.modeled));
      }
      comm.barrier();  // every rank read its region before the next epoch
    }
    win.free();
  });
}

}  // namespace
