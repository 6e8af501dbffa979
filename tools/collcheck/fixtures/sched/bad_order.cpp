// Seeded true positives for CC-SCHED-ORDER: both arms run the same set
// of collectives, but in a different order, so matched ranks pair up
// mismatched operations at runtime.
#include "simmpi/collectives.hpp"
#include "simmpi/comm.hpp"

namespace sched_fx {

void swapped_direct(collrep::simmpi::Comm& comm, int value) {
  if (comm.rank() % 2 == 0) {  // expect CC-SCHED-ORDER line 10
    (void)collrep::simmpi::allreduce_sum(comm, value);
    comm.barrier();
  } else {
    comm.barrier();
    (void)collrep::simmpi::allreduce_sum(comm, value);
  }
}

void sum_then_sync(collrep::simmpi::Comm& comm, int v) {
  (void)collrep::simmpi::allreduce_sum(comm, v);
  comm.barrier();
}

void sync_then_sum(collrep::simmpi::Comm& comm, int v) {
  comm.barrier();
  (void)collrep::simmpi::allreduce_sum(comm, v);
}

// The swap hides one call level down; the inlined schedule signatures
// still differ even though each arm is a single call.
void swapped_via_calls(collrep::simmpi::Comm& comm, int value) {
  if (comm.rank() == 0) {  // expect CC-SCHED-ORDER line 32
    sum_then_sync(comm, value);
  } else {
    sync_then_sum(comm, value);
  }
}

}  // namespace sched_fx
