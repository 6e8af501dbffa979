// In-process SPMD message-passing runtime (MPI substitute).
//
// Ranks are threads executing the same body; they exchange tagged messages
// through per-rank mailboxes, synchronize through clock-aligning barriers,
// and expose one-sided windows with MPI-like create/put/fence semantics.
// Every operation charges simulated time on the owning rank's SimClock
// according to the sim::ClusterConfig cost model, so a run yields both real
// results and deterministic simulated phase timings (see DESIGN.md §1).
//
// Failure containment (RuntimeOptions::contain_failures): by default an
// injected rank kill (RankFailure) aborts the whole run.  With containment
// on, the killed rank's thread unwinds cleanly, its death is published to
// the shared membership table, and survivors learn about it at their next
// collective entry via RankDeadError — the FT-MPI/ULFM-style error-on-
// failure model.  The application then calls Comm::shrink() (all survivors
// collectively) to agree on the dead set and continue in a dense re-ranked
// smaller world (see DESIGN.md §12).
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <vector>

#include "simmpi/check_hook.hpp"
#include "simtime/cluster.hpp"

namespace collrep::obs {
class Telemetry;
}  // namespace collrep::obs

namespace collrep::simmpi {

class Comm;
class RunState;

// Thrown inside ranks blocked on communication when a sibling rank failed;
// the originating exception is what Runtime::run() rethrows.
class AbortedError : public std::runtime_error {
 public:
  AbortedError() : std::runtime_error("simmpi: run aborted by peer failure") {}
};

// Base class of injected fail-stop rank failures (fault::RankKilledError
// derives from it; defined here so the runtime can recognize a rank death
// without depending on the fault layer).  With contain_failures off (the
// default) the run aborts and Runtime::run() rethrows it; with containment
// on it is absorbed and the rank simply ceases to exist.
class RankFailure : public std::runtime_error {
 public:
  RankFailure(int rank, const std::string& what)
      : std::runtime_error(what), rank_(rank) {}

  [[nodiscard]] int rank() const noexcept { return rank_; }

 private:
  int rank_;
};

// Thrown on a *surviving* rank (contain_failures mode) when a peer died:
// at the next collective entry once the death is agreed-visible, or from a
// blocked receive whose sender can no longer deliver.  The application
// handles it by having every survivor call Comm::shrink() and continuing
// in the shrunken world; letting it escape the rank body is a primary
// error (the run then aborts loudly rather than losing the signal).
class RankDeadError : public std::runtime_error {
 public:
  RankDeadError()
      : std::runtime_error(
            "simmpi: a peer rank died; every survivor must call "
            "Comm::shrink() to continue in the surviving world") {}
};

// Fault-injection attachment point (see src/fault for the concrete
// schedule).  The runtime and the dump pipeline consult the hook at named
// injection points — before/after collectives, at window fences, at store
// commits — always on the consulting rank's own thread, so an
// implementation may fail that rank's store in place or throw a
// RankFailure to kill the rank itself (aborting the run, or — with
// RuntimeOptions::contain_failures — leaving the survivors to shrink and
// continue).
class FaultHook {
 public:
  // Passed as `epoch` by sites that have no checkpoint-epoch context
  // (collectives, fences); schedules match such visits only with
  // epoch-wildcard events.
  static constexpr std::uint64_t kAnyEpoch = ~0ull;

  virtual ~FaultHook() = default;
  // `point` has static storage duration ("coll.pre", "win.fence",
  // "dump.exchange.mid", ...); `sim_now` is the consulting rank's
  // simulated clock.  Called concurrently by all rank threads.
  virtual void at_point(int rank, const char* point, std::uint64_t epoch,
                        double sim_now) = 0;
};

struct RuntimeOptions {
  sim::ClusterConfig cluster = sim::ClusterConfig::shamrock();
  // Optional observability attachment (src/obs).  nullptr (the default)
  // disables all telemetry; the instrumentation then costs one untaken
  // branch per site.  The Telemetry object must outlive the Runtime::run()
  // calls it observes and may span several of them.
  obs::Telemetry* telemetry = nullptr;
  // Optional fault-injection attachment (src/fault).  nullptr (the
  // default) disables every injection point at the cost of one untaken
  // branch.  Must outlive the runs it observes.
  FaultHook* faults = nullptr;
  // Optional runtime-verification attachment (src/check).  nullptr (the
  // default) disables every verification site at the cost of one untaken
  // branch.  Must outlive the runs it observes.
  CheckHook* checker = nullptr;
  // Fail-stop containment: absorb RankFailure throws instead of aborting,
  // so survivors can Comm::shrink() and continue (DESIGN.md §12).  Off by
  // default — without an application prepared to handle RankDeadError,
  // aborting is the honest behavior.
  bool contain_failures = false;
};

namespace detail {

// Membership states of one rank (RunState::member_status).
inline constexpr std::uint8_t kMemberLive = 0;
// Parked inside the shrink rendezvous, waiting for the other survivors.
inline constexpr std::uint8_t kMemberParked = 1;
inline constexpr std::uint8_t kMemberDead = 2;

struct Message {
  std::vector<std::uint8_t> payload;
  double arrival_time = 0.0;
  // Sender-assigned causal id ((src_rank << 32) | per-rank seq); the
  // receiver re-emits it so tools/collprof can pair the kSend/kRecv trace
  // events into a happens-before edge.
  std::uint64_t flow = 0;
};

class Mailbox {
 public:
  void push(int src, int tag, Message msg);
  // Blocks until a message with (src, tag) is available, the run aborts
  // (AbortedError), or the sender provably cannot deliver — it is dead, or
  // it is parked in a shrink rendezvous that revoked the old world
  // (RankDeadError).  `src` is a world rank.
  Message pop(int src, int tag, const RunState& state);
  // Wakes blocked poppers so they re-evaluate abort/membership state.
  void notify_state_change();
  // Drops every queued message (shrink: the old world's in-flight traffic
  // must not leak tag-matched into the new world).
  void drain();

 private:
  using Key = std::uint64_t;
  static Key key(int src, int tag) noexcept {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
           static_cast<std::uint32_t>(tag);
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::map<Key, std::deque<Message>> queues_;
};

// Sim-clock arithmetic of one point-to-point message.  Comm's send/recv
// and the allgather's ring table (RunState::allgather_sync) both go through
// these two functions, so the replayed ring produces the same bits as the
// message-by-message one.
// Sender: copy-out, then the flight; returns the arrival time at `dst`.
inline double clock_send(const sim::ClusterConfig& cl, sim::SimClock& clock,
                         int src, int dst, std::size_t bytes) noexcept {
  clock.advance(static_cast<double>(bytes) / cl.mem_bandwidth_bps);
  return clock.now() + cl.message_time(src, dst, bytes);
}
// Receiver: wait for the arrival, then copy-in.
inline void clock_recv(const sim::ClusterConfig& cl, sim::SimClock& clock,
                       double arrival, std::size_t bytes) noexcept {
  clock.at_least(arrival);
  clock.advance(static_cast<double>(bytes) / cl.mem_bandwidth_bps);
}

// One rank's deposit in an allgather rendezvous.
struct AllgatherSlot {
  std::vector<std::uint8_t> block;  // serialized contribution
  double entry = 0.0;               // sim clock at entry
  std::uint64_t flow_base = 0;      // sender's next flow sequence number
};

// One of the two alternating allgather tables (RunState::allgather_sync).
struct AllgatherTable {
  std::vector<AllgatherSlot> slots;  // indexed by world rank
  // Ring arrival times, [dense rank * (n - 1) + step]: when the block that
  // dense rank receives at `step` arrives from its predecessor.
  std::vector<double> arrivals;
};

// One collective window.  A put takes only its target region's lock; the
// open epoch's modelled traffic is tallied per rank (DESIGN.md §2.2) and
// folded into per-node totals by the fence that closes the epoch.
struct WindowState {
  explicit WindowState(int nranks)
      : regions(static_cast<std::size_t>(nranks)),
        sources(static_cast<std::size_t>(nranks)),
        delivered(static_cast<std::size_t>(nranks), 0),
        freed(static_cast<std::size_t>(nranks), 0) {}

  // One rank's exposed memory and the modelled bytes the open epoch put
  // into it, split by whether the putter shares the target's node.  `mu`
  // guards all three against concurrent putters.
  struct alignas(64) Region {
    std::mutex mu;
    std::vector<std::uint8_t> bytes;
    std::uint64_t intra_bytes = 0;
    std::uint64_t inter_bytes = 0;
  };
  // What one rank issued in the open epoch.  Only that rank writes it, so
  // it needs no lock; the fence reads it while every rank is parked.
  struct alignas(64) SourceTally {
    std::uint64_t inter_bytes = 0;  // modelled bytes sent off-node
    double last_issue = 0.0;        // latest sim clock at which it put
  };

  // Closes the epoch; run by the fence's completing agent while every
  // rank is blocked in the rendezvous.  Folds the tallies into per-node
  // NIC-out / NIC-in / memory bytes, publishes each rank's delivered bytes
  // in `delivered`, resets the tallies, and returns the release time: the
  // epoch starts at the later of `max_clock` and the last put issue and
  // lasts as long as its busiest resource.  Integer sums and a max, so the
  // result does not depend on the order of the puts.
  double close_epoch(const sim::ClusterConfig& cl, double max_clock);

  std::vector<Region> regions;       // indexed by world rank
  std::vector<SourceTally> sources;  // indexed by world rank
  // Modelled bytes delivered into each rank's region by the last completed
  // epoch (Comm::epoch_bytes_recv); next-epoch puts never touch it.
  std::vector<std::uint64_t> delivered;
  // Per-rank release flags (world numbering): the window is reclaimed once
  // every rank has either freed it or died.  A shared counter cannot tell
  // "dead rank freed during unwind, then survivors freed" from a double
  // free, so the flags are explicit.
  std::vector<std::uint8_t> freed;
};

}  // namespace detail

// Shared state of one SPMD run; owned by Runtime, referenced by Comms.
class RunState {
 public:
  RunState(int nranks, RuntimeOptions opts);

  [[nodiscard]] int nranks() const noexcept { return nranks_; }
  [[nodiscard]] const sim::ClusterConfig& cluster() const noexcept {
    return opts_.cluster;
  }

  detail::Mailbox& mailbox(int rank) { return *mailboxes_[rank]; }
  [[nodiscard]] const std::atomic<bool>& aborted() const noexcept {
    return aborted_;
  }

  void abort() noexcept;

  [[nodiscard]] obs::Telemetry* telemetry() const noexcept {
    return opts_.telemetry;
  }

  [[nodiscard]] FaultHook* faults() const noexcept { return opts_.faults; }

  [[nodiscard]] CheckHook* checker() const noexcept { return opts_.checker; }

  [[nodiscard]] bool contain_failures() const noexcept {
    return opts_.contain_failures;
  }

  // -- membership (failure containment) -------------------------------------
  // detail::kMemberLive / kMemberParked / kMemberDead; `rank` is a world
  // rank.  Lock-free read — exact at collective boundaries, advisory
  // in between (a send racing a fresh death is delivered-then-drained).
  [[nodiscard]] std::uint8_t member_status(int rank) const noexcept {
    return member_[static_cast<std::size_t>(rank)].load();
  }
  // True while a shrink rendezvous is in progress: the old world's
  // communication plan is revoked, so blocked ranks must unwind.
  [[nodiscard]] bool revoked() const noexcept { return revoked_.load(); }
  // Publishes `rank`'s fail-stop death (called on the dying rank's own
  // thread, after its stack unwound).  Completes any rendezvous the death
  // unblocks and wakes every blocked receiver.
  void rank_died(int rank);
  [[nodiscard]] int live_count() const;
  [[nodiscard]] std::uint64_t death_count() const;

  // Clock-aligning rendezvous: every live rank contributes its clock; the
  // completing agent (last arriver, or a rank death that leaves every
  // survivor arrived) maps the maximum through `on_release` (null for a
  // plain barrier) and all ranks return that release time plus the death
  // count observed at release — the failure-agreement input survivors use
  // to detect deaths at collective boundaries.
  struct SyncResult {
    double release = 0.0;
    std::uint64_t deaths = 0;
  };
  SyncResult sync(double my_time,
                  const std::function<double(double)>& on_release = nullptr);

  // The rendezvous behind simmpi::allgather (DESIGN.md §2.1).  Deposits
  // `mine` at `rank` (world) in the table of `parity`, then syncs like a
  // barrier that aligns no clock: the completing agent fills the table's
  // ring arrival times over `group` (dense -> world ranks).  The table is
  // read-only until the rendezvous after next, which needs every rank to
  // have finished this one — hence two tables used alternately.  Does not
  // advance the barrier generation (ShrinkResult::sync_gen).
  SyncResult allgather_sync(int parity, int rank, const std::vector<int>& group,
                            detail::AllgatherSlot mine);
  [[nodiscard]] const detail::AllgatherTable& allgather_table(
      int parity) const noexcept {
    return allgather_[parity];
  }

  // The shrink rendezvous behind Comm::shrink(): parks the calling rank,
  // revokes the old world (unblocking stragglers into RankDeadError), and
  // — once every live rank is parked — drains all mailboxes, fixes the
  // agreed dead set, realigns an attached checker, and releases everyone
  // into the shrunken world at a common clock.
  struct ShrinkResult {
    double start = 0.0;    // max clock over parked survivors (latency base)
    double release = 0.0;  // aligned clock after the agreement step
    std::uint64_t deaths = 0;  // total deaths agreed so far
    std::uint64_t epoch = 0;   // 1-based shrink count
    std::uint64_t sync_gen = 0;  // barrier generation of the agreement
    std::vector<int> alive;      // surviving world ranks, ascending
  };
  ShrinkResult shrink_rendezvous(int rank, double my_time);

  // Windows.  Creation is collective: every rank registers the same id
  // (ids come from a per-rank counter that advances identically on all
  // ranks because win_create is collective) along with its region size,
  // and gets the shared state back.  It stays valid until this rank frees
  // the window: reclaiming waits for every live rank's window_free.
  detail::WindowState* window_register(int rank, int id, std::size_t bytes);
  void window_free(int rank, int id);

  [[nodiscard]] double barrier_cost() const noexcept;

 private:
  // These three require sync_mu_ held.  `barrier_like` marks a barrier or
  // fence rendezvous, the only kind that advances barrier_gen_.
  SyncResult sync_locked(std::unique_lock<std::mutex>& lk, double my_time,
                         const std::function<double(double)>& on_release,
                         bool barrier_like);
  void complete_sync_locked();
  void maybe_complete_shrink_locked();
  void wake_blocked_ranks();
  void reclaim_dead_windows();
  [[nodiscard]] double rendezvous_cost(int participants) const noexcept;

  int nranks_;
  RuntimeOptions opts_;
  std::vector<std::unique_ptr<detail::Mailbox>> mailboxes_;
  std::atomic<bool> aborted_{false};

  // Membership: lock-free status per rank; the counters that must move
  // consistently with rendezvous state are guarded by sync_mu_.
  std::unique_ptr<std::atomic<std::uint8_t>[]> member_;
  std::atomic<bool> revoked_{false};

  mutable std::mutex sync_mu_;
  std::condition_variable sync_cv_;
  int live_count_;        // guarded by sync_mu_
  int parked_count_ = 0;  // guarded by sync_mu_
  std::uint64_t death_count_ = 0;  // guarded by sync_mu_
  int sync_count_ = 0;
  std::uint64_t sync_gen_ = 0;  // completed rendezvous of any kind
  // Completed barrier/fence rendezvous plus shrink agreements: the
  // generation Comm stamps on kSyncBegin/End, so an allgather in between
  // never shifts the trace's sync ids.
  std::uint64_t barrier_gen_ = 0;
  bool sync_barrier_like_ = false;  // kind of the in-progress rendezvous
  double sync_max_ = 0.0;
  double sync_release_ = 0.0;
  std::uint64_t sync_deaths_ = 0;
  // First non-null on_release of the in-progress rendezvous; stays valid
  // because its owner blocks inside sync() until the release.
  const std::function<double(double)>* sync_on_release_ = nullptr;
  // Allgather slot tables, used alternately (guarded by sync_mu_ while a
  // rendezvous on them is open; read-only from its release until the
  // rendezvous of the other table completes).
  std::array<detail::AllgatherTable, 2> allgather_;
  // Shrink rendezvous state (guarded by sync_mu_).
  std::uint64_t shrink_gen_ = 0;
  std::uint64_t shrink_epoch_ = 0;
  double shrink_max_ = 0.0;
  ShrinkResult shrink_result_;

  // Guards the window table and the release flags; puts never take it.
  std::mutex win_mu_;
  std::vector<std::unique_ptr<detail::WindowState>> windows_;
};

// Runs `body` as an SPMD program over `nranks` ranks (threads).  If any
// rank throws, the run aborts and the first non-abort exception is
// rethrown from run().  With RuntimeOptions::contain_failures, RankFailure
// throws instead end only the failing rank; the run succeeds if the
// survivors shrink and run to completion.
class Runtime {
 public:
  explicit Runtime(int nranks, RuntimeOptions opts = {});

  void run(const std::function<void(Comm&)>& body);

  [[nodiscard]] int nranks() const noexcept { return nranks_; }
  [[nodiscard]] const RuntimeOptions& options() const noexcept { return opts_; }

 private:
  int nranks_;
  RuntimeOptions opts_;
};

}  // namespace collrep::simmpi
