// Seeded true positives for CC-SCHED-DIV: rank-dependent branching whose
// arms run different collective schedules.  Not compiled; scanned by
// collcheck_test with --include-fixtures.
#include "simmpi/collectives.hpp"
#include "simmpi/comm.hpp"

namespace sched_fx {

// Both arms run a collective, but not the same one: each rank waits in a
// collective the other arm never posts.
void mismatched_branches(collrep::simmpi::Comm& comm) {
  int value = 3;
  if (comm.rank() == 0) {  // expect CC-SCHED-DIV line 13
    collrep::simmpi::bcast(comm, value, 0);
  } else {
    (void)collrep::simmpi::allreduce_sum(comm, value);
  }
}

// A rank-guarded early return leaves the tail collective single-sided.
void early_return_skips_tail(collrep::simmpi::Comm& comm) {
  if (comm.rank() != 0) {  // expect CC-SCHED-DIV line 22
    return;
  }
  comm.barrier();
}

}  // namespace sched_fx
