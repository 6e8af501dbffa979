// Seeded true positives for CC-SCHED-LOOP: collectives inside loops
// whose trip count depends on the rank, so ranks disagree about how many
// collective rounds run.
#include "simmpi/collectives.hpp"
#include "simmpi/comm.hpp"

namespace sched_fx {

void rank_bounded_rounds(collrep::simmpi::Comm& comm) {
  for (int i = 0; i < comm.rank(); ++i) {  // expect CC-SCHED-LOOP line 10
    comm.barrier();
  }
}

void derived_trip_count(collrep::simmpi::Comm& comm, int value) {
  int steps = comm.rank() * 2;
  while (steps > 0) {  // expect CC-SCHED-LOOP line 17
    (void)collrep::simmpi::allreduce_sum(comm, value);
    steps = steps - 1;
  }
}

}  // namespace sched_fx
