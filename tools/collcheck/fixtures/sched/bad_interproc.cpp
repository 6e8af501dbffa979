// Seeded true positive for CC-SCHED-DIV through a helper: the collective
// hides one call level down, so only the inlined schedule sees it.
#include "simmpi/collectives.hpp"
#include "simmpi/comm.hpp"

namespace sched_fx {

void sync_and_publish(collrep::simmpi::Comm& comm, int& value) {
  collrep::simmpi::bcast(comm, value, 0);
}

void leader_only_publish(collrep::simmpi::Comm& comm) {
  int value = 7;
  const int me = comm.rank();
  if (me == 0) {  // expect CC-SCHED-DIV line 15
    sync_and_publish(comm, value);
  }
}

}  // namespace sched_fx
