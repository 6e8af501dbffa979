#include "simmpi/comm.hpp"

#include <algorithm>
#include <cstring>
#include <exception>
#include <stdexcept>

namespace collrep::simmpi {

void Comm::send_bytes(int dst, int tag, std::vector<std::uint8_t>&& data) {
  if (state_->aborted().load()) throw AbortedError{};
  if (dst < 0 || dst >= size()) {
    throw std::out_of_range("simmpi: send to invalid rank");
  }
  const int wdst = group_[static_cast<std::size_t>(dst)];
  const std::uint64_t flow = flow_id(rank_, flow_seq_++);
  // Accounted before the mailbox push, so the checker observes a message's
  // send strictly before its receive.
  const double arrival = account_send(wdst, tag, data.size(), flow);
  state_->mailbox(wdst).push(
      rank_, tag, detail::Message{std::move(data), arrival, flow});
}

void Comm::send_bytes(int dst, int tag, std::span<const std::uint8_t> data) {
  send_bytes(dst, tag, std::vector<std::uint8_t>(data.begin(), data.end()));
}

std::vector<std::uint8_t> Comm::recv_bytes(int src, int tag) {
  if (src < 0 || src >= size()) {
    throw std::out_of_range("simmpi: recv from invalid rank");
  }
  const int wsrc = group_[static_cast<std::size_t>(src)];
  detail::Message msg;
  try {
    msg = state_->mailbox(rank_).pop(wsrc, tag, *state_);
  } catch (const RankDeadError&) {
    fail_pending_ = true;
    throw;
  }
  account_recv(wsrc, tag, msg.payload.size(), msg.arrival_time, msg.flow);
  return std::move(msg.payload);
}

double Comm::account_send(int wdst, int tag, std::size_t bytes,
                          std::uint64_t flow) {
  // Checker/obs/topology stay world-keyed.
  if (check_) check_->on_send(rank_, wdst, tag, bytes);
  const auto& cl = cluster();
  if (obs_) {
    auto& cs = obs_->comm;
    ++cs.sent_messages;
    cs.sent_bytes += bytes;
    auto& per_tag = cs.sent_by_tag[tag];
    ++per_tag.messages;
    per_tag.bytes += bytes;
    (cl.same_node(rank_, wdst) ? cs.intra_node_sent_bytes
                               : cs.inter_node_sent_bytes) += bytes;
  }
  const double arrival = detail::clock_send(cl, clock_, rank_, wdst, bytes);
  if (obs_) {
    obs_->event(obs::EventKind::kSend, clock_.now(), "send", bytes,
                static_cast<std::uint64_t>(wdst), flow);
  }
  return arrival;
}

void Comm::account_recv(int wsrc, int tag, std::size_t bytes, double arrival,
                        std::uint64_t flow) {
  if (check_) check_->on_recv(rank_, wsrc, tag, bytes);
  if (obs_) {
    ++obs_->comm.recv_messages;
    obs_->comm.recv_bytes += bytes;
  }
  detail::clock_recv(cluster(), clock_, arrival, bytes);
  if (obs_) {
    // Stamped after the arrival/copy-in advance: ts is when the receive
    // completed, so the matching kSend -> kRecv edge spans the flight time.
    obs_->event(obs::EventKind::kRecv, clock_.now(), "recv", bytes,
                static_cast<std::uint64_t>(wsrc), flow);
  }
}

std::vector<std::span<const std::uint8_t>> Comm::allgather_bytes(
    std::vector<std::uint8_t> mine, int tag_base) {
  raise_pending_failure();
  const int n = size();
  const int parity = allgather_parity_;
  allgather_parity_ ^= 1;
  RunState::SyncResult sr;
  try {
    sr = state_->allgather_sync(
        parity, rank_, group_,
        detail::AllgatherSlot{std::move(mine), clock_.now(), flow_seq_});
  } catch (const RankDeadError&) {
    fail_pending_ = true;
    throw;
  }
  if (sr.deaths > known_deaths_) {
    // Same uniform-throw contract as barrier(): a peer died before its
    // block was in, so no survivor returns from this allgather.
    fail_pending_ = true;
    throw RankDeadError{};
  }
  const auto& table = state_->allgather_table(parity);
  const auto block = [&](int dense) -> const std::vector<std::uint8_t>& {
    return table.slots[static_cast<std::size_t>(
                           group_[static_cast<std::size_t>((dense + n) % n)])]
        .block;
  };
  const int wnext = group_[static_cast<std::size_t>((crank_ + 1) % n)];
  const int wprev = group_[static_cast<std::size_t>((crank_ + n - 1) % n)];
  const std::uint64_t prev_flow_base =
      table.slots[static_cast<std::size_t>(wprev)].flow_base;
  const std::size_t steps = static_cast<std::size_t>(n - 1);
  // This rank's side of the ring, step by step: forward the block of
  // origin rank - step, then receive the one of origin rank - 1 - step.
  for (int step = 0; step < n - 1; ++step) {
    const int tag = tag_base + step;
    (void)account_send(wnext, tag, block(crank_ - step).size(),
                       flow_id(rank_, flow_seq_++));
    account_recv(wprev, tag, block(crank_ - 1 - step).size(),
                 table.arrivals[static_cast<std::size_t>(crank_) * steps +
                                static_cast<std::size_t>(step)],
                 flow_id(wprev, prev_flow_base +
                                    static_cast<std::uint64_t>(step)));
  }
  std::vector<std::span<const std::uint8_t>> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) out.emplace_back(block(r));
  return out;
}

void Comm::barrier(std::source_location loc) {
  raise_pending_failure();
  check_collective(CollFingerprint{.op = CollOp::kBarrier}, loc);
  const std::uint64_t gen = sync_seq_++;
  if (obs_) {
    ++obs_->comm.barriers;
    obs_->event(obs::EventKind::kSyncBegin, clock_.now(), "barrier", 0, 0,
                gen);
  }
  RunState::SyncResult sr;
  try {
    sr = state_->sync(clock_.now());
  } catch (const RankDeadError&) {
    fail_pending_ = true;
    throw;
  }
  clock_.at_least(sr.release);
  if (obs_) {
    obs_->event(obs::EventKind::kSyncEnd, clock_.now(), "barrier", 0, 0, gen);
  }
  check_collective_done();
  if (sr.deaths > known_deaths_) {
    // A peer died since the last agreement.  Every survivor observes the
    // same death count at the same rendezvous, so all of them throw here
    // uniformly — the collective completed, the *world* is what failed.
    fail_pending_ = true;
    throw RankDeadError{};
  }
}

Comm::ShrinkInfo Comm::shrink() {
  const double entry = clock_.now();
  const auto res = state_->shrink_rendezvous(rank_, entry);
  clock_.at_least(res.release);

  ShrinkInfo info;
  info.epoch = res.epoch;
  info.agreement_start_s = res.start;
  info.alive_world = res.alive;
  info.prev_group_world = group_;
  for (std::size_t i = 0; i < group_.size(); ++i) {
    if (!std::binary_search(res.alive.begin(), res.alive.end(), group_[i])) {
      info.dead.push_back(
          ShrinkInfo::Dead{static_cast<int>(i), group_[i]});
    }
  }

  // Dense re-rank over the survivors.  res.alive is ascending and every
  // previous group member that did not die is in it, so the new group
  // preserves the relative order of survivors.
  group_ = res.alive;
  const auto self = std::find(group_.begin(), group_.end(), rank_);
  crank_ = static_cast<int>(self - group_.begin());
  fail_pending_ = false;
  known_deaths_ = res.deaths;
  allgather_parity_ = 0;  // survivors may have diverged while unwinding
  epoch_bytes_put_ = 0;  // any half-open epoch died with the old world
  // Realign the rendezvous generation: the agreement consumed exactly one
  // global generation (RunState burned it), regardless of how far this
  // rank's counter drifted while the failure unwound.
  sync_seq_ = res.sync_gen + 1;

  if (obs_) {
    obs_->event(obs::EventKind::kSyncBegin, entry, "shrink", info.dead.size(),
                static_cast<std::uint64_t>(group_.size()), res.sync_gen);
    obs_->event(obs::EventKind::kSyncEnd, clock_.now(), "shrink",
                info.dead.size(), static_cast<std::uint64_t>(group_.size()),
                res.sync_gen);
  }
  if (auto* t = state_->telemetry(); t && crank_ == 0) {
    t->metrics().add("simmpi.shrinks");
    t->metrics().set("simmpi.world_size", static_cast<double>(group_.size()));
  }
  return info;
}

Window Comm::win_create(std::size_t local_bytes, std::source_location loc) {
  raise_pending_failure();
  const int id = next_win_id_++;
  check_collective(CollFingerprint{.op = CollOp::kWinCreate, .root = id}, loc);
  if (check_) check_->on_win_create(rank_, id, local_bytes);
  if (obs_) ++obs_->comm.windows_created;
  auto* ws = state_->window_register(rank_, id, local_bytes);
  barrier();  // all regions allocated before any put
  check_collective_done();
  return Window(*this, id, ws);
}

void Window::put(int target, std::size_t offset,
                 std::span<const std::uint8_t> data,
                 std::uint64_t modeled_bytes, std::source_location loc) {
  if (!comm_) throw std::logic_error("simmpi: put on invalid window");
  if (modeled_bytes == 0) modeled_bytes = data.size();
  if (target < 0 || target >= comm_->size()) {
    throw std::out_of_range("simmpi: put to invalid rank");
  }
  const int wtarget = comm_->group_[static_cast<std::size_t>(target)];
  if (auto* ck = comm_->check_) {
    ck->on_put(comm_->rank_, id_, wtarget, offset, data.size(),
               CallSite::from(loc));
  }
  const auto& cl = comm_->cluster();
  const bool same_node = cl.same_node(comm_->rank_, wtarget);
  {
    auto& region = state_->regions[static_cast<std::size_t>(wtarget)];
    std::scoped_lock lk(region.mu);
    const std::size_t size = region.bytes.size();
    if (offset > size || data.size() > size - offset) {
      throw std::out_of_range("simmpi: put beyond window bounds");
    }
    if (!data.empty()) {
      std::memcpy(region.bytes.data() + offset, data.data(), data.size());
    }
    (same_node ? region.intra_bytes : region.inter_bytes) += modeled_bytes;
  }
  auto& mine = state_->sources[static_cast<std::size_t>(comm_->rank_)];
  if (!same_node) mine.inter_bytes += modeled_bytes;
  mine.last_issue = std::max(mine.last_issue, comm_->clock().now());
  comm_->epoch_bytes_put_ += modeled_bytes;
  if (auto* t = comm_->obs_) {
    auto& cs = t->comm;
    ++cs.puts;
    cs.put_bytes += modeled_bytes;
    (same_node ? cs.intra_node_put_bytes : cs.inter_node_put_bytes) +=
        modeled_bytes;
    t->event(obs::EventKind::kPut, comm_->clock().now(), "put", modeled_bytes,
             static_cast<std::uint64_t>(wtarget));
  }
  comm_->charge(static_cast<double>(modeled_bytes) / cl.mem_bandwidth_bps);
}

std::span<std::uint8_t> Window::local() {
  if (!comm_) throw std::logic_error("simmpi: local() on invalid window");
  return state_->regions[static_cast<std::size_t>(comm_->world_rank())].bytes;
}

std::span<const std::uint8_t> Window::local() const {
  if (!comm_) throw std::logic_error("simmpi: local() on invalid window");
  return state_->regions[static_cast<std::size_t>(comm_->world_rank())].bytes;
}

void Window::fence(unsigned flags, std::source_location loc) {
  if (!comm_) throw std::logic_error("simmpi: fence on invalid window");
  comm_->raise_pending_failure();
  comm_->check_collective(
      CollFingerprint{.op = CollOp::kWinFence, .root = id_, .flags = flags},
      loc);
  comm_->fault_point("win.fence");
  const auto& cl = comm_->cluster();
  const std::uint64_t gen = comm_->sync_seq_++;
  if (auto* t = comm_->obs_) {
    t->event(obs::EventKind::kSyncBegin, comm_->clock().now(), "fence",
             comm_->epoch_bytes_put_, static_cast<std::uint64_t>(id_), gen);
  }
  RunState::SyncResult sr;
  try {
    // The release closure captures only window/cluster state, never the
    // calling rank's frame — it may run on whichever thread completes the
    // rendezvous (including a dying rank's).  Every live rank is parked in
    // the rendezvous while it folds the tallies, so no put races it, and
    // every rank reads its `delivered` slot before it can reach the next
    // fence.
    sr = comm_->state_->sync(comm_->clock().now(),
                             [ws = state_, &cl](double max_clock) {
                               return ws->close_epoch(cl, max_clock);
                             });
  } catch (const RankDeadError&) {
    comm_->fail_pending_ = true;
    throw;
  }
  comm_->clock().at_least(sr.release);
  comm_->epoch_bytes_recv_ =
      state_->delivered[static_cast<std::size_t>(comm_->world_rank())];
  if (auto* t = comm_->obs_) {
    ++t->comm.window_epochs;
    t->event(obs::EventKind::kSyncEnd, comm_->clock().now(), "fence",
             comm_->epoch_bytes_put_, comm_->epoch_bytes_recv_, gen);
    t->event(obs::EventKind::kFence, comm_->clock().now(), "fence",
             comm_->epoch_bytes_put_, comm_->epoch_bytes_recv_);
  }
  comm_->epoch_bytes_put_ = 0;
  if (auto* ck = comm_->check_) ck->on_fence(comm_->rank_, id_, flags);
  comm_->check_collective_done();
  if (sr.deaths > comm_->known_deaths_) {
    // Same uniform-throw contract as barrier(): the epoch completed (the
    // dead rank's puts were issued before it died or not at all — either
    // way identically on every survivor), but the world shrank.
    comm_->fail_pending_ = true;
    throw RankDeadError{};
  }
}

void Window::release() {
  if (!comm_) return;
  // MPI_Win_free is collective — but only when the world is healthy and
  // this is a normal (non-unwinding) release.  A dying rank, a rank
  // holding a pending failure, or a rank whose world was revoked must not
  // re-enter a rendezvous from a destructor; a death detected *by* this
  // barrier is re-armed via fail_pending_ and resurfaces at the next
  // explicit collective, so it is never lost to the catch below.
  try {
    if (!comm_->state_->aborted().load() && !comm_->fail_pending_ &&
        !comm_->state_->revoked() && std::uncaught_exceptions() == 0) {
      comm_->barrier();
    }
  } catch (...) {
    // Release runs from destructors during unwinding; never propagate.
  }
  try {
    // Always record this rank's release so the runtime can reclaim the
    // window once every rank has freed it or died.
    if (auto* ck = comm_->check_) ck->on_win_free(comm_->rank_, id_);
    comm_->state_->window_free(comm_->world_rank(), id_);
  } catch (...) {
  }
  comm_ = nullptr;
  state_ = nullptr;
  id_ = -1;
}

}  // namespace collrep::simmpi
