// Unit tests for the message-passing runtime: point-to-point semantics,
// barriers, exception propagation, and the simulated-clock causality rules.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "obs/telemetry.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/runtime.hpp"

namespace {

using namespace collrep;

TEST(Runtime, RanksSeeTheirIdentity) {
  simmpi::Runtime rt(5);
  std::vector<int> seen(5, -1);
  rt.run([&](simmpi::Comm& comm) {
    EXPECT_EQ(comm.size(), 5);
    seen[static_cast<std::size_t>(comm.rank())] = comm.rank();
  });
  for (int r = 0; r < 5; ++r) EXPECT_EQ(seen[static_cast<std::size_t>(r)], r);
}

TEST(Runtime, SingleRankWorks) {
  simmpi::Runtime rt(1);
  int visits = 0;
  rt.run([&](simmpi::Comm& comm) {
    comm.barrier();
    ++visits;
  });
  EXPECT_EQ(visits, 1);
}

TEST(Runtime, ZeroRanksRejected) {
  EXPECT_THROW(simmpi::Runtime rt(0), std::invalid_argument);
}

TEST(Runtime, ExceptionPropagatesToCaller) {
  simmpi::Runtime rt(4);
  EXPECT_THROW(rt.run([&](simmpi::Comm& comm) {
    if (comm.rank() == 2) throw std::runtime_error("rank 2 failed");
    // Other ranks block on a message that will never come; the abort
    // must wake them instead of deadlocking.
    (void)comm.recv_bytes((comm.rank() + 1) % 4, 9);
  }),
               std::runtime_error);
}

TEST(Runtime, ExceptionInBarrierAborts) {
  simmpi::Runtime rt(3);
  EXPECT_THROW(rt.run([&](simmpi::Comm& comm) {
    if (comm.rank() == 0) throw std::logic_error("boom");
    comm.barrier();
  }),
               std::logic_error);
}

TEST(PointToPoint, BytesArriveInOrder) {
  simmpi::Runtime rt(2);
  rt.run([&](simmpi::Comm& comm) {
    constexpr int kTag = 5;
    if (comm.rank() == 0) {
      for (std::uint8_t i = 0; i < 10; ++i) {
        comm.send_bytes(1, kTag, std::span<const std::uint8_t>{&i, 1});
      }
    } else {
      for (std::uint8_t i = 0; i < 10; ++i) {
        const auto msg = comm.recv_bytes(0, kTag);
        ASSERT_EQ(msg.size(), 1u);
        EXPECT_EQ(msg[0], i);
      }
    }
  });
}

TEST(PointToPoint, TagsAreIndependentChannels) {
  simmpi::Runtime rt(2);
  rt.run([&](simmpi::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 1, std::string{"tag one"});
      comm.send_value(1, 2, std::string{"tag two"});
    } else {
      // Receive in reverse send order: matching is by tag.
      EXPECT_EQ(comm.recv_value<std::string>(0, 2), "tag two");
      EXPECT_EQ(comm.recv_value<std::string>(0, 1), "tag one");
    }
  });
}

TEST(PointToPoint, TypedRoundTrip) {
  simmpi::Runtime rt(2);
  rt.run([&](simmpi::Comm& comm) {
    const std::vector<double> payload{1.0, 2.5, -3.0};
    if (comm.rank() == 0) {
      comm.send_value(1, 7, payload);
    } else {
      EXPECT_EQ(comm.recv_value<std::vector<double>>(0, 7), payload);
    }
  });
}

// All-to-all traffic of varying sizes on 6 ranks (3 nodes), sent either
// through the rvalue send_bytes, which moves each buffer into its message,
// or through the span overload, which copies it.
struct SendOutcome {
  std::vector<std::vector<std::uint8_t>> received;  // by rank, in recv order
  std::vector<double> clocks;                      // by rank, at the end
  std::vector<obs::CommStats> stats;               // by rank
};

SendOutcome all_to_all(bool move) {
  constexpr int kRanks = 6;
  obs::Telemetry tel;
  simmpi::RuntimeOptions opts;
  opts.telemetry = &tel;
  opts.cluster.ranks_per_node = 2;
  SendOutcome out;
  out.received.resize(kRanks);
  out.clocks.resize(kRanks);
  simmpi::Runtime rt(kRanks, opts);
  rt.run([&](simmpi::Comm& comm) {
    const int me = comm.rank();
    for (int hop = 1; hop < kRanks; ++hop) {
      std::vector<std::uint8_t> payload(
          static_cast<std::size_t>(1000 * hop + 37 * me),
          static_cast<std::uint8_t>(16 * me + hop));
      if (move) {
        comm.send_bytes((me + hop) % kRanks, hop, std::move(payload));
      } else {
        comm.send_bytes((me + hop) % kRanks, hop, payload);
      }
    }
    auto& got = out.received[static_cast<std::size_t>(me)];
    for (int hop = 1; hop < kRanks; ++hop) {
      const auto bytes = comm.recv_bytes((me - hop + kRanks) % kRanks, hop);
      got.insert(got.end(), bytes.begin(), bytes.end());
    }
    out.clocks[static_cast<std::size_t>(me)] = comm.clock().now();
  });
  for (int r = 0; r < kRanks; ++r) out.stats.push_back(tel.rank(r).comm);
  return out;
}

TEST(PointToPoint, MoveSendMatchesSpanSend) {
  const auto copied = all_to_all(false);
  const auto moved = all_to_all(true);
  EXPECT_EQ(moved.received, copied.received);
  EXPECT_EQ(moved.clocks, copied.clocks);  // bit-exact
  for (std::size_t r = 0; r < copied.stats.size(); ++r) {
    const auto& a = moved.stats[r];
    const auto& b = copied.stats[r];
    EXPECT_EQ(a.sent_messages, b.sent_messages);
    EXPECT_EQ(a.sent_bytes, b.sent_bytes);
    EXPECT_EQ(a.recv_messages, b.recv_messages);
    EXPECT_EQ(a.recv_bytes, b.recv_bytes);
    EXPECT_EQ(a.intra_node_sent_bytes, b.intra_node_sent_bytes);
    EXPECT_EQ(a.inter_node_sent_bytes, b.inter_node_sent_bytes);
    ASSERT_EQ(a.sent_by_tag.size(), b.sent_by_tag.size());
    for (const auto& [tag, traffic] : b.sent_by_tag) {
      EXPECT_EQ(a.sent_by_tag.at(tag).messages, traffic.messages);
      EXPECT_EQ(a.sent_by_tag.at(tag).bytes, traffic.bytes);
    }
  }
  EXPECT_EQ(copied.stats[0].sent_messages, 5u);
}

TEST(PointToPoint, InvalidRankRejected) {
  simmpi::Runtime rt(2);
  EXPECT_THROW(rt.run([&](simmpi::Comm& comm) {
    if (comm.rank() == 0) {
      const std::uint8_t b = 0;
      comm.send_bytes(5, 0, std::span<const std::uint8_t>{&b, 1});
    }
  }),
               std::out_of_range);
}

TEST(PointToPoint, SelfSendWorks) {
  simmpi::Runtime rt(2);
  rt.run([&](simmpi::Comm& comm) {
    comm.send_value(comm.rank(), 3, comm.rank() * 10);
    // Deliberate self-recv: the matching self-send above is already in the
    // mailbox, which is exactly what this test pins.
    // collcheck:allow(CC-P2P-SELF)
    EXPECT_EQ(comm.recv_value<int>(comm.rank(), 3), comm.rank() * 10);
  });
}

TEST(Clock, MessageDeliveryAdvancesReceiverClock) {
  simmpi::Runtime rt(2);
  rt.run([&](simmpi::Comm& comm) {
    if (comm.rank() == 0) {
      comm.clock().advance(1.0);  // sender is 1 simulated second ahead
      comm.send_value(1, 0, 42);
    } else {
      EXPECT_EQ(comm.recv_value<int>(0, 0), 42);
      // Receiver cannot observe the message before it was sent.
      EXPECT_GE(comm.clock().now(), 1.0);
    }
  });
}

TEST(Clock, BarrierAlignsClocksToMax) {
  simmpi::Runtime rt(4);
  std::vector<double> after(4, 0.0);
  rt.run([&](simmpi::Comm& comm) {
    comm.clock().advance(static_cast<double>(comm.rank()));
    comm.barrier();
    after[static_cast<std::size_t>(comm.rank())] = comm.clock().now();
  });
  for (int r = 0; r < 4; ++r) {
    EXPECT_GE(after[static_cast<std::size_t>(r)], 3.0);
    EXPECT_EQ(after[static_cast<std::size_t>(r)], after[0]);
  }
}

TEST(Clock, InterNodeTransfersAreSlower) {
  simmpi::RuntimeOptions opts;
  opts.cluster.ranks_per_node = 2;  // ranks 0,1 node 0; rank 2 node 1
  simmpi::Runtime rt(3, opts);
  std::vector<double> arrival(3, 0.0);
  rt.run([&](simmpi::Comm& comm) {
    const std::vector<std::uint8_t> big(1 << 20, 1);
    if (comm.rank() == 0) {
      comm.send_bytes(1, 0, big);
      comm.send_bytes(2, 0, big);
    } else {
      (void)comm.recv_bytes(0, 0);
      arrival[static_cast<std::size_t>(comm.rank())] = comm.clock().now();
    }
  });
  // Same payload: the intra-node receiver observed it much earlier.
  EXPECT_LT(arrival[1] * 5, arrival[2]);
}

TEST(Clock, ChargeAccumulates) {
  simmpi::Runtime rt(1);
  rt.run([&](simmpi::Comm& comm) {
    comm.charge(0.5);
    comm.charge(0.25);
    comm.charge(-1.0);  // negative charges are ignored (monotone clock)
    EXPECT_DOUBLE_EQ(comm.clock().now(), 0.75);
  });
}

TEST(Runtime, ManyRanksBarrierStorm) {
  constexpr int kRanks = 64;
  simmpi::Runtime rt(kRanks);
  std::atomic<int> count{0};
  rt.run([&](simmpi::Comm& comm) {
    for (int i = 0; i < 20; ++i) comm.barrier();
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), kRanks);
}

TEST(Runtime, ReusableForSequentialRuns) {
  simmpi::Runtime rt(3);
  for (int round = 0; round < 3; ++round) {
    std::atomic<int> sum{0};
    rt.run([&](simmpi::Comm& comm) { sum.fetch_add(comm.rank()); });
    EXPECT_EQ(sum.load(), 3);
  }
}

TEST(Window, EpochBytesRecvCountedAtFenceDelivery) {
  simmpi::Runtime rt(3);
  rt.run([&](simmpi::Comm& comm) {
    auto win = comm.win_create(256);
    // Rank 0 sends 32 modeled bytes to rank 1 and 64 (16 real standing in
    // for 64 on the wire) to rank 2; nobody targets rank 0.
    if (comm.rank() == 0) {
      const std::vector<std::uint8_t> data(32, 0xAB);
      win.put(1, 0, data);
      win.put(2, 0, std::span<const std::uint8_t>{data.data(), 16}, 64);
    }
    // Nothing is delivered before the fence.
    EXPECT_EQ(comm.epoch_bytes_recv(), 0u);
    win.fence();
    const std::uint64_t expected =
        comm.rank() == 1 ? 32u : (comm.rank() == 2 ? 64u : 0u);
    EXPECT_EQ(comm.epoch_bytes_recv(), expected);
    EXPECT_EQ(comm.epoch_bytes_put(), 0u);  // put tally reset by the fence

    // An empty follow-up epoch overwrites the reading with 0.
    win.fence();
    EXPECT_EQ(comm.epoch_bytes_recv(), 0u);
    win.free();
  });
}

TEST(Window, EpochBytesRecvResetsPerEpoch) {
  simmpi::Runtime rt(2);
  rt.run([&](simmpi::Comm& comm) {
    auto win = comm.win_create(64);
    const std::vector<std::uint8_t> data(8, 1);
    if (comm.rank() == 0) win.put(1, 0, data);
    win.fence();
    if (comm.rank() == 1) {
      EXPECT_EQ(comm.epoch_bytes_recv(), 8u);
    }
    // Second epoch flows the other way; readings track the latest fence.
    if (comm.rank() == 1) win.put(0, 0, data);
    win.fence();
    EXPECT_EQ(comm.epoch_bytes_recv(), comm.rank() == 0 ? 8u : 0u);
    win.free();
  });
}

}  // namespace
