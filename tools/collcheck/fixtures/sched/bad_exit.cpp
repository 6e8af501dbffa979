// Seeded true positives for CC-SCHED-DIV that need more than a direct
// branch comparison: a rank-guarded window fence, and rank-dependent early
// exits that skip later collectives from inside a loop body or from a
// nested branch.  Not compiled; scanned by collcheck_test with
// --include-fixtures.
#include "simmpi/collectives.hpp"
#include "simmpi/comm.hpp"

namespace sched_fx {

// Window::fence is a collective: only rank 0 closing the epoch leaves
// every other rank parked in its fence.
void rank_guarded_fence(collrep::simmpi::Comm& comm) {
  auto win = comm.win_create(64);
  if (comm.rank() == 0) {  // expect CC-SCHED-DIV line 15
    win.fence();
  }
  win.free();
}

// Rank 0 leaves the loop before the barrier; the others wait in it.
void break_skips_loop_tail(collrep::simmpi::Comm& comm, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    if (comm.rank() == 0) break;  // expect CC-SCHED-DIV line 24
    comm.barrier();
  }
}

// Rank 0 skips the barrier of every round.
void continue_skips_loop_tail(collrep::simmpi::Comm& comm, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    if (comm.rank() == 0) continue;  // expect CC-SCHED-DIV line 32
    comm.barrier();
  }
}

// The rank-guarded return sits one branch deeper than the barrier it
// skips.
void nested_return_skips_tail(collrep::simmpi::Comm& comm, bool flag) {
  if (flag) {
    if (comm.rank() != 0) return;  // expect CC-SCHED-DIV line 41
  }
  comm.barrier();
}

}  // namespace sched_fx
