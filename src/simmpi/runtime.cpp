#include "simmpi/runtime.hpp"

#include <algorithm>
#include <cmath>
#include <thread>

#include "obs/telemetry.hpp"
#include "simmpi/comm.hpp"

namespace collrep::simmpi {

namespace detail {

void Mailbox::push(int src, int tag, Message msg) {
  {
    std::scoped_lock lk(mu_);
    queues_[key(src, tag)].push_back(std::move(msg));
  }
  cv_.notify_all();
}

Message Mailbox::pop(int src, int tag, const RunState& state) {
  std::unique_lock lk(mu_);
  const Key k = key(src, tag);
  // The mailbox wait IS the thread-backed scheduler's parking
  // primitive; the fiber port replaces this whole path with a
  // yield-to-scheduler.  collcheck: fiber-safe
  cv_.wait(lk, [&] {
    const auto it = queues_.find(k);
    if (it != queues_.end() && !it->second.empty()) return true;
    if (state.aborted().load()) return true;
    // The sender provably cannot deliver anymore: it died, or it is parked
    // in a shrink rendezvous that revoked the old world's communication
    // plan.  A merely-parked sender with no revoke in flight cannot happen
    // (parking sets the revoke first), and a live sender may still deliver
    // even while a revoke is pending — so keep waiting for it.
    const std::uint8_t st = state.member_status(src);
    return st == kMemberDead || (st == kMemberParked && state.revoked());
  });
  const auto it = queues_.find(k);
  if (it != queues_.end() && !it->second.empty()) {
    Message msg = std::move(it->second.front());
    it->second.pop_front();
    if (it->second.empty()) queues_.erase(it);
    return msg;
  }
  if (state.aborted().load()) throw AbortedError{};
  throw RankDeadError{};
}

void Mailbox::notify_state_change() { cv_.notify_all(); }

void Mailbox::drain() {
  std::scoped_lock lk(mu_);
  queues_.clear();
}

double WindowState::close_epoch(const sim::ClusterConfig& cl,
                                double max_clock) {
  const std::size_t nnodes =
      static_cast<std::size_t>(cl.node_count(static_cast<int>(regions.size())));
  std::vector<std::uint64_t> out(nnodes, 0);
  std::vector<std::uint64_t> in(nnodes, 0);
  std::vector<std::uint64_t> mem(nnodes, 0);
  double start = max_clock;
  for (std::size_t r = 0; r < regions.size(); ++r) {
    const auto node = static_cast<std::size_t>(cl.node_of(static_cast<int>(r)));
    auto& region = regions[r];
    auto& source = sources[r];
    out[node] += source.inter_bytes;
    in[node] += region.inter_bytes;
    // A same-node put lands on its source's node, so the target's node
    // carries the memory traffic.
    mem[node] += region.intra_bytes;
    delivered[r] = region.intra_bytes + region.inter_bytes;
    start = std::max(start, source.last_issue);
    region.intra_bytes = 0;
    region.inter_bytes = 0;
    source = SourceTally{};
  }
  // Bulk-synchronous epoch: each node's NIC moves its inter-node bytes at
  // link rate, intra-node traffic moves at memory rate.
  double epoch = 0.0;
  for (std::size_t n = 0; n < nnodes; ++n) {
    epoch = std::max({epoch,
                      static_cast<double>(out[n]) / cl.net_bandwidth_bps,
                      static_cast<double>(in[n]) / cl.net_bandwidth_bps,
                      static_cast<double>(mem[n]) / cl.mem_bandwidth_bps});
  }
  return start + epoch + cl.net_latency_s;
}

namespace {

// Fills `table.arrivals` for the ring over `group` (dense -> world ranks)
// from the deposited entry clocks and block sizes.
void fill_ring_arrivals(const sim::ClusterConfig& cl, AllgatherTable& table,
                        const std::vector<int>& group) {
  const std::size_t n = group.size();
  if (n < 2) return;
  const std::size_t steps = n - 1;
  std::vector<sim::SimClock> clocks(n);
  std::vector<std::size_t> bytes(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& slot = table.slots[static_cast<std::size_t>(group[i])];
    clocks[i].reset(slot.entry);
    bytes[i] = slot.block.size();
  }
  table.arrivals.assign(n * steps, 0.0);
  // Step s of the ring: dense rank i sends the block of origin i - s to
  // i + 1, then receives the block of origin i - 1 - s from i - 1.  All
  // sends of a step only depend on the previous step's receives, so the
  // whole ring is evaluated step by step in one pass.
  for (std::size_t s = 0; s < steps; ++s) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t to = (i + 1) % n;
      table.arrivals[to * steps + s] = clock_send(
          cl, clocks[i], group[i], group[to], bytes[(i + n - s) % n]);
    }
    for (std::size_t i = 0; i < n; ++i) {
      clock_recv(cl, clocks[i], table.arrivals[i * steps + s],
                 bytes[(i + 2 * n - 1 - s) % n]);
    }
  }
}

}  // namespace

}  // namespace detail

RunState::RunState(int nranks, RuntimeOptions opts)
    : nranks_(nranks), opts_(std::move(opts)), live_count_(nranks) {
  if (nranks < 1) throw std::invalid_argument("simmpi: nranks must be >= 1");
  mailboxes_.reserve(static_cast<std::size_t>(nranks));
  for (int i = 0; i < nranks; ++i) {
    mailboxes_.push_back(std::make_unique<detail::Mailbox>());
  }
  member_ = std::make_unique<std::atomic<std::uint8_t>[]>(
      static_cast<std::size_t>(nranks));
  for (int i = 0; i < nranks; ++i) {
    member_[static_cast<std::size_t>(i)].store(detail::kMemberLive);
  }
  for (auto& table : allgather_) {
    table.slots.resize(static_cast<std::size_t>(nranks));
  }
  if (opts_.telemetry) opts_.telemetry->begin_run(nranks);
}

void RunState::abort() noexcept {
  aborted_.store(true);
  wake_blocked_ranks();
}

void RunState::wake_blocked_ranks() {
  for (auto& mb : mailboxes_) mb->notify_state_change();
  sync_cv_.notify_all();
}

double RunState::rendezvous_cost(int participants) const noexcept {
  if (participants <= 1) return 0.0;
  const double rounds =
      std::ceil(std::log2(static_cast<double>(participants)));
  return 2.0 * rounds * opts_.cluster.net_latency_s;
}

double RunState::barrier_cost() const noexcept {
  return rendezvous_cost(nranks_);
}

int RunState::live_count() const {
  std::scoped_lock lk(sync_mu_);
  return live_count_;
}

std::uint64_t RunState::death_count() const {
  std::scoped_lock lk(sync_mu_);
  return death_count_;
}

void RunState::complete_sync_locked() {
  const double max_time = sync_max_;
  sync_release_ = sync_on_release_ ? (*sync_on_release_)(max_time)
                                   : max_time + rendezvous_cost(live_count_);
  sync_deaths_ = death_count_;
  sync_count_ = 0;
  sync_max_ = 0.0;
  sync_on_release_ = nullptr;
  ++sync_gen_;
  if (sync_barrier_like_) ++barrier_gen_;
  sync_cv_.notify_all();
}

RunState::SyncResult RunState::sync(
    double my_time, const std::function<double(double)>& on_release) {
  std::unique_lock lk(sync_mu_);
  return sync_locked(lk, my_time, on_release, true);
}

RunState::SyncResult RunState::allgather_sync(int parity, int rank,
                                              const std::vector<int>& group,
                                              detail::AllgatherSlot mine) {
  auto& table = allgather_[static_cast<std::size_t>(parity)];
  const double entry = mine.entry;
  // Stays valid while this rank blocks in the rendezvous, like a fence's
  // closure; it reads only the table and `group`, which every rank of the
  // rendezvous shares.
  const std::function<double(double)> ring = [this, &table,
                                              &group](double max_clock) {
    detail::fill_ring_arrivals(opts_.cluster, table, group);
    return max_clock;
  };
  std::unique_lock lk(sync_mu_);
  table.slots[static_cast<std::size_t>(rank)] = std::move(mine);
  return sync_locked(lk, entry, ring, false);
}

RunState::SyncResult RunState::sync_locked(
    std::unique_lock<std::mutex>& lk, double my_time,
    const std::function<double(double)>& on_release, bool barrier_like) {
  if (aborted_.load()) throw AbortedError{};
  // Once a shrink revoked the old world, no rendezvous of that world can
  // complete (the parked ranks will never arrive) — unwind immediately.
  if (revoked_.load()) throw RankDeadError{};
  const std::uint64_t gen = sync_gen_;
  // Every rank of one rendezvous runs the same collective (SPMD), so the
  // first arrival's kind is the rendezvous's kind.
  if (sync_count_ == 0) sync_barrier_like_ = barrier_like;
  sync_max_ = std::max(sync_max_, my_time);
  if (on_release && !sync_on_release_) {
    // All ranks pass the same semantic closure for the same collective
    // (SPMD); keep the first so a completion-by-death (whose agent has no
    // closure of its own) can still compute the release time.  The owner
    // stays blocked in this rendezvous until release, so the pointer
    // cannot dangle.
    sync_on_release_ = &on_release;
  }
  if (++sync_count_ == live_count_) {
    complete_sync_locked();
    return SyncResult{sync_release_, sync_deaths_};
  }
  // Scheduler-internal barrier parking (replaced wholesale by the
  // fiber port).  collcheck: fiber-safe
  sync_cv_.wait(lk, [&] {
    return sync_gen_ != gen || aborted_.load() || revoked_.load();
  });
  if (sync_gen_ != gen) return SyncResult{sync_release_, sync_deaths_};
  // Woken without a release: the run aborted, or a shrink revoked this
  // rendezvous.  Withdraw our contribution (the last one out clears the
  // accumulator so a post-shrink rendezvous starts clean) and unwind.
  if (--sync_count_ == 0) {
    sync_max_ = 0.0;
    sync_on_release_ = nullptr;
  }
  if (aborted_.load()) throw AbortedError{};
  throw RankDeadError{};
}

void RunState::rank_died(int rank) {
  {
    std::scoped_lock lk(sync_mu_);
    member_[static_cast<std::size_t>(rank)].store(detail::kMemberDead);
    --live_count_;
    ++death_count_;
    if (live_count_ > 0) {
      if (!revoked_.load() && sync_count_ > 0 && sync_count_ == live_count_) {
        // Every survivor is already waiting in a rendezvous this death
        // leaves complete; release them (they learn of the death from
        // SyncResult::deaths at the release).
        complete_sync_locked();
      } else {
        // The death may be the last event a pending shrink was waiting on.
        maybe_complete_shrink_locked();
      }
    }
  }
  wake_blocked_ranks();
  reclaim_dead_windows();
}

RunState::ShrinkResult RunState::shrink_rendezvous(int rank, double my_time) {
  std::unique_lock lk(sync_mu_);
  if (aborted_.load()) throw AbortedError{};
  member_[static_cast<std::size_t>(rank)].store(detail::kMemberParked);
  ++parked_count_;
  shrink_max_ = std::max(shrink_max_, my_time);
  const std::uint64_t gen = shrink_gen_;
  const bool first_parker = !revoked_.load();
  if (first_parker) revoked_.store(true);
  if (first_parker || parked_count_ == live_count_) {
    // Wake stragglers blocked in sync()/pop() so they observe the revoke
    // (first parker), and re-check completion once we ourselves parked.
    lk.unlock();
    wake_blocked_ranks();
    lk.lock();
    maybe_complete_shrink_locked();
  }
  // Scheduler-internal shrink parking (see above).  collcheck: fiber-safe
  sync_cv_.wait(lk, [&] { return shrink_gen_ != gen || aborted_.load(); });
  if (shrink_gen_ == gen) throw AbortedError{};
  return shrink_result_;
}

void RunState::maybe_complete_shrink_locked() {
  if (!revoked_.load()) return;
  if (live_count_ <= 0 || parked_count_ != live_count_) return;
  // Failure agreement: every survivor is parked (so no rank of the old
  // world can make progress) and every death is published.  The completing
  // thread — the last parker, or a dying rank whose death left everyone
  // else parked — has exclusive access to all shared state.
  for (auto& mb : mailboxes_) mb->drain();
  ShrinkResult res;
  res.start = shrink_max_;
  res.deaths = death_count_;
  res.epoch = ++shrink_epoch_;
  res.alive.reserve(static_cast<std::size_t>(live_count_));
  for (int r = 0; r < nranks_; ++r) {
    if (member_[static_cast<std::size_t>(r)].load() != detail::kMemberDead) {
      res.alive.push_back(r);
    }
  }
  // Cost of the agreement protocol itself: an allreduce-shaped vote over
  // the survivors (two log-depth sweeps), charged even for a lone survivor
  // (it still has to time out on its dead peers).
  const double participants = std::max(2.0, static_cast<double>(live_count_));
  res.release = res.start + 2.0 * std::ceil(std::log2(participants)) *
                                opts_.cluster.net_latency_s;
  if (opts_.checker) opts_.checker->on_shrink(res.alive);
  for (int r : res.alive) {
    member_[static_cast<std::size_t>(r)].store(detail::kMemberLive);
  }
  parked_count_ = 0;
  shrink_max_ = 0.0;
  // Burn one barrier generation on the agreement so collprof's
  // kSyncBegin/End pairing cannot collide with the next barrier.
  res.sync_gen = barrier_gen_++;
  shrink_result_ = std::move(res);
  revoked_.store(false);
  ++shrink_gen_;
  sync_cv_.notify_all();
}

detail::WindowState* RunState::window_register(int rank, int id,
                                               std::size_t bytes) {
  std::scoped_lock lk(win_mu_);
  if (static_cast<std::size_t>(id) >= windows_.size()) {
    windows_.resize(static_cast<std::size_t>(id) + 1);
  }
  auto& slot = windows_[static_cast<std::size_t>(id)];
  if (!slot) slot = std::make_unique<detail::WindowState>(nranks_);
  slot->regions[static_cast<std::size_t>(rank)].bytes.assign(bytes, 0);
  return slot.get();
}

void RunState::window_free(int rank, int id) {
  std::scoped_lock lk(win_mu_);
  auto& ws = windows_.at(static_cast<std::size_t>(id));
  if (!ws) throw std::logic_error("simmpi: double free of window");
  auto& flag = ws->freed[static_cast<std::size_t>(rank)];
  if (flag) throw std::logic_error("simmpi: double free of window");
  flag = 1;
  for (int r = 0; r < nranks_; ++r) {
    if (!ws->freed[static_cast<std::size_t>(r)] &&
        member_status(r) != detail::kMemberDead) {
      return;
    }
  }
  ws.reset();  // every rank released (or died); reclaim memory, keep the slot
}

void RunState::reclaim_dead_windows() {
  // A rank dying after every survivor already freed a window would leave it
  // unreclaimed forever (nobody frees again); sweep on each death.
  std::scoped_lock lk(win_mu_);
  for (auto& ws : windows_) {
    if (!ws) continue;
    bool reclaim = true;
    for (int r = 0; r < nranks_; ++r) {
      if (!ws->freed[static_cast<std::size_t>(r)] &&
          member_status(r) != detail::kMemberDead) {
        reclaim = false;
        break;
      }
    }
    if (reclaim) ws.reset();
  }
}

Runtime::Runtime(int nranks, RuntimeOptions opts)
    : nranks_(nranks), opts_(std::move(opts)) {
  if (nranks < 1) throw std::invalid_argument("simmpi: nranks must be >= 1");
}

void Runtime::run(const std::function<void(Comm&)>& body) {
  RunState state(nranks_, opts_);

  std::mutex err_mu;
  std::exception_ptr first_error;
  auto record_primary = [&] {
    {
      std::scoped_lock lk(err_mu);
      if (!first_error) first_error = std::current_exception();
    }
    state.abort();
  };

  if (opts_.checker) {
    // The abort callback references `state`, which outlives the checker's
    // use of it: run_end() below stops the checker's watchdog before this
    // frame returns.
    opts_.checker->run_begin(nranks_, [&state] { state.abort(); });
  }

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nranks_));
  for (int r = 0; r < nranks_; ++r) {
    threads.emplace_back([&, r] {
      Comm comm(state, r);
      try {
        body(comm);
      } catch (const AbortedError&) {
        // Secondary failure caused by a peer's abort; the primary
        // exception is already recorded (or will be by its owner).
      } catch (const RankDeadError&) {
        // A survivor let a peer's death escape instead of shrinking: the
        // death signal would be silently lost, so fail the run loudly.
        record_primary();
      } catch (const RankFailure&) {
        if (opts_.contain_failures) {
          // Fail-stop containment: the rank's stack has fully unwound
          // (windows released, scopes closed).  Deregister it from the
          // checker first so the watchdog never reports survivors as
          // waiting on a corpse, then publish the death — which may
          // itself release a pending rendezvous or complete a shrink.
          if (opts_.checker) opts_.checker->on_rank_dead(r);
          if (opts_.telemetry) {
            opts_.telemetry->metrics().add("simmpi.rank_deaths");
          }
          state.rank_died(r);
        } else {
          record_primary();
        }
      } catch (...) {
        record_primary();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (opts_.checker) {
    // The checker may hold the reason the run must fail even though no
    // rank thread threw a primary error (stuck-rank reports abort the run
    // from the watchdog; message leaks only show up once all ranks exit).
    auto checker_error = opts_.checker->run_end(state.aborted().load());
    if (checker_error && !first_error) first_error = checker_error;
  }
  if (opts_.telemetry) opts_.telemetry->end_run();

  if (first_error) std::rethrow_exception(first_error);
  if (state.aborted().load()) {
    throw std::runtime_error("simmpi: run aborted without recorded cause");
  }
  if (opts_.contain_failures && state.live_count() == 0) {
    throw std::runtime_error(
        "simmpi: every rank died; nothing survived to shrink");
  }
}

}  // namespace collrep::simmpi
