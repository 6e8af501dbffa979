// CheckpointRuntime: the AC-FTE-style checkpoint-restart driver (paper §IV).
//
// The application runs its iteration loop and calls maybe_checkpoint(i)
// at every synchronization point; when the schedule fires, the runtime
// snapshots the tracked arena (all live application memory) and hands it
// to DUMP_OUTPUT — exactly how the paper wires AC-FTE's transparent page
// capture to the proposed collective write primitive.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "core/dump.hpp"
#include "core/repair.hpp"
#include "core/restore.hpp"
#include "ftrt/tracked_arena.hpp"
#include "recover/service.hpp"

namespace collrep::ftrt {

// What the runtime does when a dump comes back degraded (a store was down
// and the achieved replication fell below K; see DumpStats::degraded).
enum class DegradedPolicy : std::uint8_t {
  kAbort = 0,  // throw DegradedDumpError (strict: no weak checkpoints)
  kAccept,     // keep the degraded checkpoint as-is (paper baseline: the
               // next scheduled dump re-replicates naturally)
  kRepair,     // run core::repair_replicas to top the replicas back to K
  kShrink,     // survive rank deaths: when a dump dies with RankDeadError
               // (RuntimeOptions::contain_failures), run the configured
               // recover::RecoveryService and re-dump in the shrunken
               // world; degraded-but-complete dumps are kept as-is (the
               // recovery rebalance already topped surviving chunks up)
};

class DegradedDumpError : public std::runtime_error {
 public:
  explicit DegradedDumpError(const core::DumpStats& stats)
      : std::runtime_error(
            "checkpoint degraded on rank " + std::to_string(stats.rank) +
            ": k_achieved_min=" +
            std::to_string(stats.k_achieved_min) + " < k_effective=" +
            std::to_string(stats.k_effective)),
        stats_(stats) {}

  [[nodiscard]] const core::DumpStats& stats() const noexcept {
    return stats_;
  }

 private:
  core::DumpStats stats_;
};

struct CheckpointConfig {
  core::DumpConfig dump;
  int replication_factor = 3;
  // Checkpoint every `interval` iterations (0 disables the schedule; use
  // checkpoint_now() for manual control).
  int interval = 0;
  int first_iteration = 0;  // first iteration eligible for the schedule
  DegradedPolicy on_degraded = DegradedPolicy::kAbort;
  // Degraded dumps beyond the first: re-dump under a fresh epoch up to
  // this many extra times before applying on_degraded (useful when the
  // outage is transient and the store recovers between attempts; 0 means
  // the policy applies to the first degraded attempt directly).
  int max_dump_retries = 0;
  // Required by DegradedPolicy::kShrink: the recovery service driven when
  // a dump observes a rank death.  Must outlive the runtime.
  recover::RecoveryService* recovery = nullptr;
};

class CheckpointRuntime {
 public:
  CheckpointRuntime(simmpi::Comm& comm, chunk::ChunkStore& store,
                    TrackedArena& arena, CheckpointConfig config)
      : comm_(comm), store_(store), arena_(arena), config_(config) {}

  // Collective when it fires (all ranks share the schedule, so either all
  // or none enter dump_output).  Returns the stats when a checkpoint was
  // taken this iteration.  `stores` is only needed by DegradedPolicy::
  // kRepair (the scrub is collective over every rank's device).
  std::optional<core::DumpStats> maybe_checkpoint(
      int iteration, std::span<chunk::ChunkStore* const> stores = {}) {
    if (config_.interval <= 0 || iteration < config_.first_iteration ||
        (iteration - config_.first_iteration) % config_.interval != 0) {
      return std::nullopt;
    }
    return checkpoint_now(stores);
  }

  // Collective: snapshot + dump, unconditionally.  A degraded dump (some
  // store was down; DumpStats::degraded) is first retried under a fresh
  // epoch up to max_dump_retries times, then handled per on_degraded:
  // abort (throw), accept as-is, or repair the shortfall in place.  The
  // degraded flag comes out of a collective audit, so every rank takes the
  // same branch.
  core::DumpStats checkpoint_now(
      std::span<chunk::ChunkStore* const> stores = {}) {
    core::DumpStats stats = shielded_dump_attempt();
    for (int retry = 0; stats.degraded && retry < config_.max_dump_retries;
         ++retry) {
      stats = shielded_dump_attempt();
    }
    if (stats.degraded) {
      switch (config_.on_degraded) {
        case DegradedPolicy::kAbort:
          throw DegradedDumpError(stats);
        case DegradedPolicy::kAccept:
        case DegradedPolicy::kShrink:
          // kShrink keeps a degraded-but-complete dump: the recovery
          // rebalance already restored K_eff for everything that survived,
          // and the next scheduled dump re-replicates naturally.
          break;
        case DegradedPolicy::kRepair:
          if (static_cast<int>(stores.size()) != comm_.size()) {
            throw std::logic_error(
                "checkpoint_now: DegradedPolicy::kRepair needs the stores "
                "span (one entry per rank)");
          }
          last_repair_ =
              core::repair_replicas(comm_, stores,
                                    config_.replication_factor);
          break;
      }
    }
    history_.push_back(stats);
    return stats;
  }

  // Stats of the most recent kRepair scrub, if any ran.
  [[nodiscard]] const std::optional<core::RepairStats>& last_repair()
      const noexcept {
    return last_repair_;
  }

  // Stats of the most recent shrink recovery, if any ran (kShrink).
  [[nodiscard]] const std::optional<recover::RecoveryStats>& last_recovery()
      const noexcept {
    return last_recovery_;
  }

  [[nodiscard]] const std::vector<core::DumpStats>& history() const noexcept {
    return history_;
  }
  [[nodiscard]] std::uint64_t checkpoints_taken() const noexcept {
    return history_.size();
  }

 private:
  core::DumpStats dump_attempt() {
    core::DumpConfig cfg = config_.dump;
    cfg.epoch = next_epoch_++;
    core::Dumper dumper(comm_, store_, cfg);
    return dumper.dump_output(arena_.snapshot(), config_.replication_factor);
  }

  // Under kShrink a dump that dies with RankDeadError (a rank was killed
  // and the runtime contained it) is recovered and re-attempted in the
  // shrunken world under a fresh epoch.  Every survivor takes the same
  // path: the containment protocol raises RankDeadError uniformly at the
  // collective where the death surfaced.  Each round absorbs at least one
  // death, so the loop is bounded by the pre-loop world size.
  core::DumpStats shielded_dump_attempt() {
    if (config_.on_degraded != DegradedPolicy::kShrink) {
      return dump_attempt();
    }
    if (config_.recovery == nullptr) {
      throw std::logic_error(
          "checkpoint_now: DegradedPolicy::kShrink needs a "
          "RecoveryService (CheckpointConfig::recovery)");
    }
    const int bound = comm_.size() + 1;
    for (int round = 0; round < bound; ++round) {
      try {
        return dump_attempt();
      } catch (const simmpi::RankDeadError&) {
        last_recovery_ = config_.recovery->recover_world(comm_);
      }
    }
    throw std::logic_error(
        "checkpoint_now: shrink recovery did not converge");
  }

  simmpi::Comm& comm_;
  chunk::ChunkStore& store_;
  TrackedArena& arena_;
  CheckpointConfig config_;
  std::uint64_t next_epoch_ = 1;
  std::vector<core::DumpStats> history_;
  std::optional<core::RepairStats> last_repair_;
  std::optional<recover::RecoveryStats> last_recovery_;
};

// Deterministic failure injection for the restart tests: kills up to
// `count` distinct stores (never more than the surviving-majority bound
// the caller asks for) using a splitmix64 stream.
class FailureInjector {
 public:
  explicit FailureInjector(std::uint64_t seed) : state_(seed) {}

  std::vector<int> kill_stores(std::span<chunk::ChunkStore* const> stores,
                               int count) {
    std::vector<int> victims;
    const int n = static_cast<int>(stores.size());
    // The quota is bounded by the stores still alive, not by n: with
    // already-failed stores in the span, an n-based bound would spin
    // forever once every live store is exhausted.
    int live = 0;
    for (const auto* s : stores) live += s->failed() ? 0 : 1;
    const int quota = count < live ? count : live;
    while (static_cast<int>(victims.size()) < quota) {
      const int v = static_cast<int>(next() % static_cast<std::uint64_t>(n));
      if (!stores[static_cast<std::size_t>(v)]->failed()) {
        stores[static_cast<std::size_t>(v)]->fail();
        victims.push_back(v);
      }
    }
    return victims;
  }

 private:
  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::uint64_t state_;
};

}  // namespace collrep::ftrt
