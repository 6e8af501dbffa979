// Clean negatives for the CC-SCHED family: config-invariant alternation,
// schedule-equal rank branches, rank-guarded p2p, invariant loops,
// order-equal helpers behind different names, rank-dependent exits that
// stop before any collective, collectives in control-flow headers that
// every rank evaluates, and a handler that engages recovery before any
// collective.  collcheck must report nothing here.
#include "simmpi/collectives.hpp"
#include "simmpi/comm.hpp"

namespace sched_fx {

struct Config {
  bool use_sum;
  int rounds;
};

// Branching on config is rank-invariant: every rank takes the same arm.
void config_alternation(collrep::simmpi::Comm& comm, const Config& cfg) {
  int value = 5;
  if (cfg.use_sum) {
    (void)collrep::simmpi::allreduce_sum(comm, value);
  } else {
    collrep::simmpi::bcast(comm, value, 0);
  }
}

// Rank-dependent condition, but both arms run the same schedule.
void divergent_but_equal(collrep::simmpi::Comm& comm) {
  if (comm.rank() == 0) {
    comm.barrier();
  } else {
    comm.barrier();
  }
}

// Rank-guarded p2p is the normal root/leaf pattern: p2p ops are not part
// of the collective schedule.
void root_sends_leaves_receive(collrep::simmpi::Comm& comm) {
  if (comm.rank() == 0) {
    for (int r = 1; r < comm.size(); ++r) {
      comm.send_value(r, 9, r * 2);
    }
  } else {
    (void)comm.recv_value<int>(0, 9);
  }
  comm.barrier();
}

void sync_via_alpha(collrep::simmpi::Comm& comm) {
  comm.barrier();
}

void sync_via_beta(collrep::simmpi::Comm& comm) {
  comm.barrier();
}

// Differently-named helpers with identical schedules: the ORDER
// signature inlines callees transparently, so this must stay quiet.
void equal_via_helpers(collrep::simmpi::Comm& comm) {
  if (comm.rank() == 0) {
    sync_via_alpha(comm);
  } else {
    sync_via_beta(comm);
  }
}

// Loop bound comes from config: the same number of rounds on every rank.
void invariant_rounds(collrep::simmpi::Comm& comm, const Config& cfg) {
  for (int i = 0; i < cfg.rounds; ++i) {
    comm.barrier();
  }
}

// A break leaves only its loop or switch: the barrier after them runs on
// every rank.
void exits_stop_at_loop_and_switch(collrep::simmpi::Comm& comm, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    if (comm.rank() == 0) break;
  }
  do {
    if (comm.rank() == 0) break;
  } while (--rounds > 0);
  switch (comm.rank()) {
    case 0:
      break;
    default:
      break;
  }
  comm.barrier();
}

// A collective in a loop condition runs on every trip of every rank: the
// trip count is agreed by the reduction itself.
void reduction_decides_trips(collrep::simmpi::Comm& comm, int v) {
  while (collrep::simmpi::allreduce_sum(comm, v) > 0) --v;
}

// An `else if` header runs at the head of every arm after its own `if`:
// rank 0 reduces in its arm, the others in the header, so every path runs
// allreduce_sum then barrier.
void else_if_header_evens_the_arms(collrep::simmpi::Comm& comm, int v) {
  if (comm.rank() == 0) {
    (void)collrep::simmpi::allreduce_sum(comm, v);
    comm.barrier();
  } else if (collrep::simmpi::allreduce_sum(comm, v) > 0) {
    comm.barrier();
  } else {
    comm.barrier();
  }
}

// The handler hands control to the failure protocol before any
// collective: the sanctioned recovery shape.
struct Recovery {
  int recover_world(collrep::simmpi::Comm& comm);
};

void recover_properly(collrep::simmpi::Comm& comm, Recovery& recovery) {
  try {
    comm.barrier();
  } catch (const collrep::simmpi::RankDeadError&) {
    (void)recovery.recover_world(comm);
  }
}

}  // namespace sched_fx
