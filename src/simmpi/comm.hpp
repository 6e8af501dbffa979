// Comm: the per-rank communication endpoint (MPI communicator analogue).
//
// Point-to-point operations are tagged and FIFO-ordered per (source, tag).
// Sends are buffered (never block); receives block until a matching message
// arrives.  Typed variants serialize through simmpi::OArchive/IArchive the
// way Boost.MPI serializes user data structures in the paper's prototype.
//
// With failure containment (RuntimeOptions::contain_failures) a Comm is a
// *view* over the surviving world: rank()/size() are dense over the current
// group, peers named in send/recv/put are dense group ranks, and shrink()
// — called by every survivor after catching RankDeadError — agrees on the
// dead set and re-ranks the group densely (ULFM MPI_Comm_shrink analogue).
// world_rank() stays the original numbering; stores, node topology, and
// telemetry stay world-keyed across shrinks.
#pragma once

#include <cstdint>
#include <source_location>
#include <span>
#include <vector>

#include "obs/telemetry.hpp"
#include "simmpi/check_hook.hpp"
#include "simmpi/archive.hpp"
#include "simmpi/runtime.hpp"
#include "simtime/cluster.hpp"

namespace collrep::simmpi {

class Window;

class Comm {
 public:
  Comm(RunState& state, int rank)
      : state_(&state),
        rank_(rank),
        obs_(state.telemetry() ? &state.telemetry()->rank(rank) : nullptr),
        check_(state.checker()),
        crank_(rank) {
    group_.resize(static_cast<std::size_t>(state.nranks()));
    for (int r = 0; r < state.nranks(); ++r) {
      group_[static_cast<std::size_t>(r)] = r;
    }
  }

  Comm(const Comm&) = delete;
  Comm& operator=(const Comm&) = delete;

  // Dense rank in the current (possibly shrunken) group.
  [[nodiscard]] int rank() const noexcept { return crank_; }
  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(group_.size());
  }
  // Original world numbering; never changes across shrinks.  Equal to
  // rank() until the first shrink.
  [[nodiscard]] int world_rank() const noexcept { return rank_; }
  [[nodiscard]] int world_size() const noexcept { return state_->nranks(); }
  // World rank of the dense group rank `r`.
  [[nodiscard]] int world_of(int r) const {
    return group_.at(static_cast<std::size_t>(r));
  }
  [[nodiscard]] const sim::ClusterConfig& cluster() const noexcept {
    return state_->cluster();
  }
  [[nodiscard]] int node() const noexcept {
    return cluster().node_of(rank_);
  }

  [[nodiscard]] sim::SimClock& clock() noexcept { return clock_; }
  [[nodiscard]] const sim::SimClock& clock() const noexcept { return clock_; }

  // This rank's telemetry slice, or nullptr when the run has no
  // obs::Telemetry attached (RuntimeOptions::telemetry).
  [[nodiscard]] obs::RankTelemetry* obs() const noexcept { return obs_; }
  // Charge local compute time to this rank.
  void charge(double seconds) noexcept { clock_.advance(seconds); }

  // Consult the attached fault schedule (RuntimeOptions::faults) at a
  // named injection point; no-op without one.  The hook may fail this
  // rank's store in place or throw to kill the rank.
  void fault_point(const char* point,
                   std::uint64_t epoch = FaultHook::kAnyEpoch) {
    if (auto* f = state_->faults()) {
      f->at_point(rank_, point, epoch, clock_.now());
    }
  }

  // Runtime-verification hooks (RuntimeOptions::checker); each is a
  // single untaken branch when no checker is attached.  check_collective
  // may throw on this rank when the checker decides the fingerprint
  // diverges from its peers'.
  void check_collective(const CollFingerprint& fp,
                        const std::source_location& loc) {
    if (check_) check_->on_collective(rank_, fp, CallSite::from(loc));
  }
  void check_collective_done() noexcept {
    if (check_) check_->on_collective_done(rank_);
  }

  // -- point to point -------------------------------------------------------
  // The rvalue overload moves `data` into the message; the span overload
  // copies it once and delegates.
  void send_bytes(int dst, int tag, std::vector<std::uint8_t>&& data);
  void send_bytes(int dst, int tag, std::span<const std::uint8_t> data);
  [[nodiscard]] std::vector<std::uint8_t> recv_bytes(int src, int tag);

  template <class T>
  void send_value(int dst, int tag, const T& value) {
    OArchive ar;
    ar.put(value);
    send_bytes(dst, tag, ar.take());
  }

  template <class T>
  [[nodiscard]] T recv_value(int src, int tag) {
    const auto bytes = recv_bytes(src, tag);
    IArchive ar(bytes);
    return ar.get<T>();
  }

  // The exchange behind simmpi::allgather: one rendezvous in which every
  // rank deposits `mine`, then a replay of this rank's n - 1 steps of the
  // ring allgather (tags tag_base + step) through the same accounting as
  // send_bytes/recv_bytes — sim clock, CommStats, kSend/kRecv events and
  // checker calls come out as the message-by-message ring's.  Returns every
  // rank's block by dense rank; the spans stay valid until this rank enters
  // its next allgather.  Throws RankDeadError on every survivor when a peer
  // died before the rendezvous completed.
  [[nodiscard]] std::vector<std::span<const std::uint8_t>> allgather_bytes(
      std::vector<std::uint8_t> mine, int tag_base);

  // -- synchronization ------------------------------------------------------
  void barrier(std::source_location loc = std::source_location::current());

  // -- failure handling -----------------------------------------------------
  // What one shrink agreed on; returned identically on every survivor.
  struct ShrinkInfo {
    std::uint64_t epoch = 0;        // 1-based shrink count of this run
    double agreement_start_s = 0.0;  // max survivor clock entering agreement
    // Surviving world ranks, ascending == the new dense group (index =
    // new dense rank, value = world rank).
    std::vector<int> alive_world;
    // The group as it was before this shrink (index = previous dense rank,
    // value = world rank) — the key map for data that was placed under the
    // previous numbering (e.g. ChunkStore manifests).
    std::vector<int> prev_group_world;
    struct Dead {
      int prev_rank = -1;   // dense rank in the previous group
      int world_rank = -1;  // original world rank
    };
    std::vector<Dead> dead;  // ascending by prev_rank
  };

  // The ULFM-style recovery collective: every survivor must call it after
  // catching RankDeadError.  Parks this rank, revokes the old world's
  // pending communication (unblocking stragglers into RankDeadError of
  // their own), agrees on the dead set, drains in-flight messages, and
  // returns with the group densely re-ranked over the survivors.  Safe to
  // call proactively (no death pending): it then degrades to an
  // agreement-priced barrier with an empty dead list.
  ShrinkInfo shrink();

  // -- one-sided windows ----------------------------------------------------
  // Collective: every rank exposes `local_bytes` of zero-initialized memory.
  // Opens the window's first access epoch (see Window::fence).
  [[nodiscard]] Window win_create(
      std::size_t local_bytes,
      std::source_location loc = std::source_location::current());

  // Modeled bytes that were delivered *into this rank's* window regions
  // during the most recently completed epoch.  Counted at fence delivery
  // (puts are not visible before the fence), so it reads 0 until the first
  // fence and is overwritten by each subsequent one.
  [[nodiscard]] std::uint64_t epoch_bytes_recv() const noexcept {
    return epoch_bytes_recv_;
  }

 private:
  friend class Window;

  // Collective entry gate: a death observed once must not be lost to an
  // exception swallowed in a destructor (Window::release), so it re-arms
  // every collective until shrink() clears it.
  void raise_pending_failure() const {
    if (fail_pending_) throw RankDeadError{};
  }

  // Accounting halves of send_bytes/recv_bytes (checker, CommStats, sim
  // clock, kSend/kRecv events); the allgather replay calls them without a
  // mailbox.  account_send returns the message's arrival time at `wdst`.
  double account_send(int wdst, int tag, std::size_t bytes,
                      std::uint64_t flow);
  void account_recv(int wsrc, int tag, std::size_t bytes, double arrival,
                    std::uint64_t flow);
  // Causal id of the `seq`-th message sent by world rank `wrank`.
  [[nodiscard]] static std::uint64_t flow_id(int wrank,
                                             std::uint64_t seq) noexcept {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(wrank))
            << 32) |
           static_cast<std::uint32_t>(seq);
  }

  RunState* state_;
  int rank_;  // world rank (thread identity, mailbox/store/topology key)
  obs::RankTelemetry* obs_ = nullptr;
  CheckHook* check_ = nullptr;
  sim::SimClock clock_;
  // Modeled bytes this rank has put through windows in the open epoch;
  // the fence's trace events carry it, and every fence resets it.
  std::uint64_t epoch_bytes_put_ = 0;
  std::uint64_t epoch_bytes_recv_ = 0;
  int next_win_id_ = 0;  // advances identically on all ranks (collective)
  std::uint64_t flow_seq_ = 0;  // per-rank send counter -> Message::flow ids
  // Barrier generation.  barrier() and Window::fence() are the only
  // operations that advance it (allgather's rendezvous does not), and both
  // are collective, so this counter advances identically on all ranks;
  // collprof uses it to group each rank's kSyncBegin/kSyncEnd pair into one
  // cross-rank rendezvous.
  // Survivors can diverge transiently while a failure unwinds (some threw
  // at entry, some from inside sync); shrink() realigns every survivor to
  // the generation after the agreement step.
  std::uint64_t sync_seq_ = 0;
  // Which of RunState's two allgather tables the next allgather uses;
  // flips identically on all ranks, and shrink() resets it.
  int allgather_parity_ = 0;
  // Current dense group: index = dense rank, value = world rank.
  std::vector<int> group_;
  int crank_;  // this rank's dense position in group_
  // Set once this rank has observed a peer death (a collective threw
  // RankDeadError, or a receive failed); every collective entry re-throws
  // until shrink() clears it.
  bool fail_pending_ = false;
  // Death count already absorbed by a shrink; a SyncResult reporting more
  // means an unagreed death happened.
  std::uint64_t known_deaths_ = 0;
};

// RAII handle to one collective window.  Movable, not copyable; must be
// freed (collectively) via free() or destruction on all ranks.
class Window {
 public:
  Window() = default;
  Window(Comm& comm, int id, detail::WindowState* state)
      : comm_(&comm), state_(state), id_(id) {}
  Window(Window&& o) noexcept { swap(o); }
  Window& operator=(Window&& o) noexcept {
    if (this != &o) {
      release();
      swap(o);
    }
    return *this;
  }
  ~Window() { release(); }

  Window(const Window&) = delete;
  Window& operator=(const Window&) = delete;

  [[nodiscard]] bool valid() const noexcept { return comm_ != nullptr; }

  // One-sided put of `data` into `target`'s region at byte `offset`.
  // Callers are responsible for disjoint offsets (guaranteed by CALC_OFF;
  // an attached checker flags overlapping ranges from different ranks).
  // `modeled_bytes` overrides the wire size charged to the cost model —
  // metadata-only exchanges copy small records but must still pay for the
  // payload bytes they stand in for.  0 means "use data.size()".
  void put(int target, std::size_t offset, std::span<const std::uint8_t> data,
           std::uint64_t modeled_bytes = 0,
           std::source_location loc = std::source_location::current());

  // This rank's exposed region.
  [[nodiscard]] std::span<std::uint8_t> local();
  [[nodiscard]] std::span<const std::uint8_t> local() const;

  // Collective: completes the access epoch.  All puts issued before the
  // fence are visible in target regions after it; simulated clocks advance
  // by the bulk-transfer time of the epoch (max over node NICs).  By
  // default the next access epoch opens immediately; kFenceNoSucceed
  // (the MPI_MODE_NOSUCCEED analogue) declares that no RMA follows, so an
  // attached checker flags any later put as an epoch violation.
  void fence(unsigned flags = 0,
             std::source_location loc = std::source_location::current());

  // Collective: releases the window on all ranks.
  void free() { release(); }

 private:
  void release();
  void swap(Window& o) noexcept {
    std::swap(comm_, o.comm_);
    std::swap(state_, o.state_);
    std::swap(id_, o.id_);
  }

  Comm* comm_ = nullptr;
  // Shared with every rank's handle; RunState keeps it alive until this
  // rank releases the window.
  detail::WindowState* state_ = nullptr;
  int id_ = -1;
};

}  // namespace collrep::simmpi
