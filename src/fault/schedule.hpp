// FaultSchedule: deterministic, seeded fault injection for the collective
// I/O pipeline (the concrete simmpi::FaultHook implementation).
//
// The schedule is a list of FaultEvents, each pinned to a named injection
// point ("dump.exchange.mid", "win.fence", "coll.pre", ...), a triggering
// rank, and optionally a checkpoint epoch and a skip count of earlier
// matching visits.  When a rank thread reaches a matching point the event
// fires exactly once: it fails / wipes / recovers a store armed via arm(),
// or throws RankKilledError to kill the rank itself.  By default the run
// then aborts and Runtime::run() rethrows (fail-stop without fault-
// tolerant collectives; recovery goes through restore + repair); with
// RuntimeOptions::contain_failures the kill is absorbed by the runtime and
// the survivors shrink and continue (see recover::RecoveryService).
//
// Determinism: events fire on the target rank's own thread at program
// points that are deterministic per rank, so the same schedule over the
// same program yields the same failure pattern — and with the seeded
// helper, the same seed yields the same victims.
#pragma once

#include <cstdint>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "chunk/store.hpp"
#include "simmpi/runtime.hpp"

namespace collrep::obs {
class Telemetry;
}  // namespace collrep::obs

namespace collrep::fault {

// Thrown on the consulting rank's thread by a kKillRank event.  Derives
// from simmpi::RankFailure so the runtime can recognize the fail-stop
// death: without containment it aborts the run and Runtime::run()
// rethrows; with RuntimeOptions::contain_failures the rank simply dies
// and the survivors carry on.
class RankKilledError : public simmpi::RankFailure {
 public:
  RankKilledError(int rank, const std::string& point)
      : simmpi::RankFailure(rank, "fault: rank " + std::to_string(rank) +
                                      " killed at " + point) {}
};

enum class FaultAction : std::uint8_t {
  kFailStore = 0,    // stores[target]->fail(): device goes dark
  kWipeStore,        // stores[target]->wipe() + fail(): blank replacement
  kRecoverStore,     // stores[target]->recover(): transient outage ends
  kKillRank,         // throw RankKilledError on the consulting rank
};

[[nodiscard]] const char* to_string(FaultAction a) noexcept;

struct FaultEvent {
  std::string point;  // injection point name, e.g. "dump.exchange.mid"
  int rank = 0;       // consulting rank whose visit triggers the event
  // Store index acted on by the store actions; -1 means "the triggering
  // rank's own store".  A target other than `rank` races with the target
  // rank's thread unless the program synchronizes around the point; the
  // provided tests and benches always use target == rank.
  int target = -1;
  // Checkpoint epoch the visit must carry; kAnyEpoch matches every visit
  // (including epoch-less sites like "coll.pre" / "win.fence").
  std::uint64_t epoch = simmpi::FaultHook::kAnyEpoch;
  // Number of otherwise-matching visits to let pass before firing.
  std::uint64_t skip = 0;
  FaultAction action = FaultAction::kFailStore;
};

// One fired event, in firing order (the log is shared by all ranks).
struct FiredFault {
  std::size_t event_index = 0;  // index into the schedule's event list
  int rank = 0;
  int target = 0;
  std::uint64_t epoch = 0;  // epoch carried by the triggering visit
  FaultAction action = FaultAction::kFailStore;
  std::string point;
};

class FaultSchedule final : public simmpi::FaultHook {
 public:
  explicit FaultSchedule(std::uint64_t seed = 0) noexcept : seed_(seed) {}

  // Schedule construction; must not be called while a run is in flight.
  void add(FaultEvent event);
  // Seeded helper: schedules `count` distinct store victims out of
  // `nranks` (chosen by the constructor seed's splitmix64 stream), each
  // firing on its own rank at (point, epoch).  Returns the victims.
  std::vector<int> add_random_store_failures(
      int nranks, int count, std::string point,
      std::uint64_t epoch = simmpi::FaultHook::kAnyEpoch,
      FaultAction action = FaultAction::kFailStore);

  // Arms the store actions: stores[i] is rank i's device.  The span's
  // pointees must outlive the runs this schedule observes.
  void arm(std::span<chunk::ChunkStore* const> stores);
  // Optional observability: fired events are counted under "fault.*"
  // metrics and recorded as kFault trace events on the triggering rank.
  void attach(obs::Telemetry* telemetry) noexcept { telemetry_ = telemetry; }

  void at_point(int rank, const char* point, std::uint64_t epoch,
                double sim_now) override;

  // Snapshot of the fired log (locking copy; stable once a run ended).
  [[nodiscard]] std::vector<FiredFault> fired() const;
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

 private:
  struct EventState {
    FaultEvent event;
    std::uint64_t skipped = 0;  // matching visits consumed so far
    bool fired = false;
  };

  void fire(std::size_t index, int rank, const char* point,
            std::uint64_t epoch, double sim_now);

  std::uint64_t seed_;
  std::uint64_t rng_state_ = 0;
  bool rng_init_ = false;
  // Immutable during a run; each element is only mutated by its own
  // event.rank thread, so no lock is needed on the hot path.
  std::vector<EventState> events_;
  std::vector<chunk::ChunkStore*> stores_;
  obs::Telemetry* telemetry_ = nullptr;

  mutable std::mutex fired_mu_;
  std::vector<FiredFault> fired_;
};

}  // namespace collrep::fault
