// Seeded true positives for a collective inside a control-flow header.
// The schedule pass places a header's ops where they run, so a collective
// in the condition of a rank-guarded loop is a divergent schedule, as one
// in the loop body would be.  Not compiled; scanned by collcheck_test with
// --include-fixtures.
#include "simmpi/collectives.hpp"
#include "simmpi/comm.hpp"

namespace sched_fx {

// Only rank 0 evaluates the loop condition, so only rank 0 reduces.
void rank_guarded_loop_condition(collrep::simmpi::Comm& comm, int v) {
  if (comm.rank() == 0) {  // expect CC-SCHED-DIV line 13
    while (collrep::simmpi::allreduce_sum(comm, v) > 0) --v;  // LOOP 14
  }
}

}  // namespace sched_fx
