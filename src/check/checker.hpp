// Checker: runtime verification of collective / RMA / point-to-point
// semantics for the threaded simmpi runtime (the concrete
// simmpi::CheckHook implementation).
//
// Four independent checks, all driven by the hooks simmpi calls on the
// rank threads themselves:
//
//  1. Collective matching.  Every collective entry carries a fingerprint
//     (operation, root, payload type hash, fence flags) plus a per-rank
//     sequence number that advances identically on every rank of an SPMD
//     program.  The first rank to reach sequence s deposits its
//     fingerprint; every later arrival is compared against the deposit,
//     and a divergent rank is reported (and, in abort mode, killed) with
//     both call sites — before the mismatched collective can deadlock the
//     messaging layer or silently mis-combine payloads.
//
//  2. RMA epoch discipline.  win_create opens a window's first access
//     epoch; a fence carrying simmpi::kFenceNoSucceed closes it (a plain
//     fence rolls straight into the next epoch).  A put with no open
//     access epoch is an epoch violation.  Within an epoch, puts into the
//     same target rank are interval-tracked: byte ranges that overlap a
//     put from a *different* origin rank in the same epoch are a semantic
//     data race (last-writer-wins nondeterminism in real MPI) and are
//     flagged with both origins and call sites.
//
//  3. Lockstep watchdog.  A monitor thread observes a heartbeat that
//     every hook bumps; if no rank makes progress for watchdog_s wall
//     seconds, the watchdog aborts the run (unblocking every blocked
//     rank) and converts the would-be deadlock into a per-rank report of
//     the last collective each rank entered or completed.
//
//  4. Finalize leak check.  Per-(src, dst, tag) signed send/recv balance;
//     when a run ends cleanly with any channel off zero, the channels are
//     reported: positive means sends nobody received, negative means
//     receives with no matching send.  The balance is signed because the
//     allgather replays its ring after one rendezvous, so a replayed
//     receive can be recorded before its peer's replayed send.
//
// Violations are recorded in a log readable after the run; in abort mode
// (the default) the detecting rank additionally throws ViolationError,
// which aborts the run and is rethrown from Runtime::run().  With a
// Telemetry attached, verdicts are published as "check.*" metrics.
//
// Cost model: a run with no checker attached pays one untaken branch per
// instrumentation site.  An attached checker takes one mutex per
// collective entry/exit and per put, so it belongs in tests, CI, and
// debug runs, not in benchmark timings.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "simmpi/check_hook.hpp"

namespace collrep::obs {
class Telemetry;
}  // namespace collrep::obs

namespace collrep::check {

enum class ViolationKind : std::uint8_t {
  kCollectiveMismatch = 0,  // divergent fingerprint at the same sequence
  kEpochViolation,          // put with no open access epoch
  kOverlappingPut,          // same-epoch overlapping puts, different origins
  kMessageLeak,             // unreceived point-to-point messages at finalize
  kStuckRanks,              // watchdog: no progress for watchdog_s seconds
};
inline constexpr std::size_t kViolationKindCount = 5;

[[nodiscard]] const char* to_string(ViolationKind k) noexcept;

// One detected semantic violation.  `rank` is the detecting/divergent
// rank, `other_rank` the peer it diverged from or raced with (-1 when
// there is no single peer, e.g. leaks and stuck reports).  `site` /
// `other_site` are "file:line (function)" strings; `detail` is the full
// human-readable diagnosis (for stuck reports, the per-rank progress
// table).
struct Violation {
  ViolationKind kind = ViolationKind::kCollectiveMismatch;
  int rank = -1;
  int other_rank = -1;
  std::uint64_t seq = 0;  // collective sequence number or window epoch
  std::string site;
  std::string other_site;
  std::string detail;

  [[nodiscard]] std::string to_string() const;
};

// Thrown on the detecting rank's thread (abort mode) or from
// Runtime::run() itself (leaks, stuck reports); carries the violation.
class ViolationError : public std::runtime_error {
 public:
  explicit ViolationError(Violation v)
      : std::runtime_error("check: " + v.to_string()),
        violation_(std::move(v)) {}

  [[nodiscard]] const Violation& violation() const noexcept {
    return violation_;
  }

 private:
  Violation violation_;
};

struct CheckerConfig {
  // Throw ViolationError on the detecting rank (killing the run) as soon
  // as a violation is found.  When false, violations are only recorded —
  // useful for collecting several per run — but note that a genuinely
  // mismatched collective will then proceed into the messaging layer and
  // usually hang until the watchdog trips.
  bool abort_on_violation = true;
  // Wall-clock seconds without any checker event (across all ranks)
  // before the watchdog declares the run stuck.  0 disables the
  // watchdog.  This is real time, not simulated time: a rank legitimately
  // computing for longer than this without communicating will
  // false-positive, so keep it generous.
  double watchdog_s = 30.0;
  // Recording stops after this many violations (detection continues).
  std::size_t max_violations = 64;
};

class Checker final : public simmpi::CheckHook {
 public:
  explicit Checker(CheckerConfig config = {});
  ~Checker() override;

  Checker(const Checker&) = delete;
  Checker& operator=(const Checker&) = delete;

  // Optional observability: violations and per-run check counts are
  // published into telemetry->metrics() under "check.*".
  void attach(obs::Telemetry* telemetry) noexcept { telemetry_ = telemetry; }

  // Snapshot of the violation log (accumulates across runs until clear()).
  [[nodiscard]] std::vector<Violation> violations() const;
  [[nodiscard]] std::size_t violation_count() const;
  void clear();

  // Work done over this checker's lifetime, for "did it actually look"
  // assertions and the check.* metrics.
  [[nodiscard]] std::uint64_t collectives_checked() const noexcept {
    return collectives_checked_.load();
  }
  [[nodiscard]] std::uint64_t puts_checked() const noexcept {
    return puts_checked_.load();
  }

  // -- simmpi::CheckHook ----------------------------------------------------
  void run_begin(int nranks, std::function<void()> abort_run) override;
  std::exception_ptr run_end(bool aborted) override;
  void on_collective(int rank, const simmpi::CollFingerprint& fp,
                     simmpi::CallSite site) override;
  void on_collective_done(int rank) noexcept override;
  void on_send(int rank, int dst, int tag, std::size_t bytes) override;
  void on_recv(int rank, int src, int tag, std::size_t bytes) override;
  void on_win_create(int rank, int win, std::size_t bytes) override;
  void on_put(int rank, int win, int target, std::size_t offset,
              std::size_t bytes, simmpi::CallSite site) override;
  void on_fence(int rank, int win, unsigned flags) override;
  void on_win_free(int rank, int win) override;
  // Failure containment: a dead rank leaves the heartbeat/lockstep set (so
  // survivors are never reported as stuck on a corpse), and a shrink
  // realigns all cross-rank state over the survivors.
  void on_rank_dead(int rank) override;
  void on_shrink(const std::vector<int>& alive_world) override;

 private:
  // What one rank last did, for the watchdog's stuck report.  Guarded by
  // coll_mu_ (written by the owning rank, read by the watchdog thread).
  struct RankProgress {
    simmpi::CollOp op = simmpi::CollOp::kBarrier;
    std::uint64_t seq = 0;
    std::string site;
    int depth = 0;  // >0: inside a collective (nested ones count)
    bool any = false;
    bool dead = false;  // contained fail-stop failure; exempt from lockstep
  };

  // First-arrival deposit for one collective sequence number.
  struct CollSlot {
    simmpi::CollFingerprint fp;
    int rank = -1;
    std::string site;
    int arrived = 0;
  };

  struct PutRecord {
    std::size_t end = 0;  // one past the last byte written
    int rank = -1;
    std::string site;
  };

  struct WinCheck {
    int freed = 0;
    // Per-origin-rank epoch state.  Fences are collective (the
    // fingerprint check enforces matching flags), so every rank's view
    // of "which epoch am I in / is it open" advances in lockstep; keeping
    // it per rank avoids any cross-rank ordering requirement on the
    // post-sync on_fence calls.
    std::vector<std::uint64_t> rank_epoch;
    std::vector<std::uint8_t> epoch_open;
    // epoch -> target rank -> (offset -> put record).  Epoch-keyed so a
    // rank already in epoch e+1 never collides with a peer's epoch-e
    // intervals that have not been garbage-collected yet.
    std::map<std::uint64_t, std::map<int, std::map<std::size_t, PutRecord>>>
        epochs;
  };

  void beat() noexcept { heartbeat_.fetch_add(1, std::memory_order_relaxed); }
  // Records (and publishes) `v`; throws ViolationError on the calling
  // rank when abort mode is on and `may_throw`.
  void report(Violation v, bool may_throw);
  [[nodiscard]] std::string stuck_report();
  void watchdog_main(const std::function<void()>& abort_run);
  void stop_watchdog();

  CheckerConfig config_;
  obs::Telemetry* telemetry_ = nullptr;
  int nranks_ = 0;
  // Containment-mode membership mirror: collectives/win-frees complete
  // once every *live* rank arrived, and dead ranks' channels are exempt
  // from the finalize leak audit.  Atomics because the three check
  // families read them under different mutexes.
  std::atomic<int> live_{0};
  std::unique_ptr<std::atomic<std::uint8_t>[]> dead_;

  std::atomic<std::uint64_t> heartbeat_{0};
  std::atomic<std::uint64_t> collectives_checked_{0};
  std::atomic<std::uint64_t> puts_checked_{0};
  std::atomic<std::uint64_t> msgs_tracked_{0};
  // Lifetime-counter values at run_begin, so run_end can publish per-run
  // deltas into the metrics registry.
  std::uint64_t run_base_collectives_ = 0;
  std::uint64_t run_base_puts_ = 0;
  std::uint64_t run_base_msgs_ = 0;

  // Collective cross-check + per-rank progress (watchdog report).
  std::mutex coll_mu_;
  std::vector<std::uint64_t> rank_seq_;
  std::vector<RankProgress> progress_;
  std::unordered_map<std::uint64_t, CollSlot> slots_;

  // Windows: epoch discipline + overlap tracking.
  std::mutex win_mu_;
  std::unordered_map<int, WinCheck> wins_;

  // Point-to-point accounting: (src, dst, tag) -> sends minus receives;
  // channels at zero are erased.
  std::mutex msg_mu_;
  std::map<std::tuple<int, int, int>, std::int64_t> in_flight_;

  // Violation log.
  mutable std::mutex viol_mu_;
  std::vector<Violation> violations_;

  // Watchdog.
  std::mutex wd_mu_;
  std::condition_variable wd_cv_;
  bool wd_stop_ = false;
  bool wd_fired_ = false;
  Violation wd_violation_;
  std::thread watchdog_;
};

}  // namespace collrep::check
