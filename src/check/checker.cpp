#include "check/checker.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <utility>

#include "obs/telemetry.hpp"

namespace collrep::check {

namespace {

// "file.cpp:123 (function)" — basename only; full paths differ between
// build trees and add nothing to a diagnosis.
std::string fmt_site(const simmpi::CallSite& site) {
  const char* file = site.file != nullptr ? site.file : "";
  if (const char* slash = std::strrchr(file, '/')) file = slash + 1;
  std::string out = file;
  out += ':';
  out += std::to_string(site.line);
  if (site.function != nullptr && site.function[0] != '\0') {
    out += " (";
    out += site.function;
    out += ')';
  }
  return out;
}

std::string fmt_fingerprint(const simmpi::CollFingerprint& fp) {
  char buf[64];
  std::string out = simmpi::to_string(fp.op);
  out += "(root=";
  out += std::to_string(fp.root);
  std::snprintf(buf, sizeof buf, ", type=%" PRIx64, fp.type_hash);
  out += buf;
  if (fp.flags != 0) {
    out += ", flags=";
    out += std::to_string(fp.flags);
  }
  out += ')';
  return out;
}

std::string fmt_range(std::size_t begin, std::size_t end) {
  // Built by append, not operator+ chaining: GCC 12's -Wrestrict
  // false-positives on the temporary chain (PR105651).
  std::string out = "[";
  out += std::to_string(begin);
  out += ", ";
  out += std::to_string(end);
  out += ')';
  return out;
}

}  // namespace

const char* to_string(ViolationKind k) noexcept {
  switch (k) {
    case ViolationKind::kCollectiveMismatch:
      return "collective_mismatch";
    case ViolationKind::kEpochViolation:
      return "epoch_violation";
    case ViolationKind::kOverlappingPut:
      return "overlapping_put";
    case ViolationKind::kMessageLeak:
      return "message_leak";
    case ViolationKind::kStuckRanks:
      return "stuck_ranks";
  }
  return "unknown";
}

std::string Violation::to_string() const {
  std::string out = check::to_string(kind);
  out += ": ";
  out += detail;
  return out;
}

Checker::Checker(CheckerConfig config) : config_(config) {}

Checker::~Checker() { stop_watchdog(); }

std::vector<Violation> Checker::violations() const {
  std::scoped_lock lk(viol_mu_);
  return violations_;
}

std::size_t Checker::violation_count() const {
  std::scoped_lock lk(viol_mu_);
  return violations_.size();
}

void Checker::clear() {
  std::scoped_lock lk(viol_mu_);
  violations_.clear();
}

void Checker::report(Violation v, bool may_throw) {
  {
    std::scoped_lock lk(viol_mu_);
    if (violations_.size() < config_.max_violations) violations_.push_back(v);
  }
  if (telemetry_ != nullptr) {
    auto& m = telemetry_->metrics();
    m.add("check.violations");
    m.add(std::string("check.violations.") + check::to_string(v.kind));
  }
  if (may_throw && config_.abort_on_violation) {
    throw ViolationError(std::move(v));
  }
}

// -- run lifecycle ----------------------------------------------------------

void Checker::run_begin(int nranks, std::function<void()> abort_run) {
  stop_watchdog();  // defensive: a previous run must already have ended
  // nranks_ is written once here, before any rank thread exists, and is
  // immutable for the rest of the run.  collcheck:allow(CC-RACE-UNGUARDED)
  nranks_ = nranks;
  live_.store(nranks);
  dead_ = std::make_unique<std::atomic<std::uint8_t>[]>(
      static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    dead_[static_cast<std::size_t>(r)].store(0);
  }
  {
    std::scoped_lock lk(coll_mu_);
    rank_seq_.assign(static_cast<std::size_t>(nranks), 0);
    progress_.assign(static_cast<std::size_t>(nranks), RankProgress{});
    slots_.clear();
  }
  {
    std::scoped_lock lk(win_mu_);
    wins_.clear();
  }
  {
    std::scoped_lock lk(msg_mu_);
    in_flight_.clear();
  }
  {
    std::scoped_lock lk(wd_mu_);
    wd_stop_ = false;
    wd_fired_ = false;
    wd_violation_ = Violation{};
  }
  run_base_collectives_ = collectives_checked_.load();
  run_base_puts_ = puts_checked_.load();
  run_base_msgs_ = msgs_tracked_.load();
  if (config_.watchdog_s > 0.0) {
    watchdog_ = std::thread(
        [this, abort = std::move(abort_run)] { watchdog_main(abort); });
  }
}

std::exception_ptr Checker::run_end(bool aborted) {
  stop_watchdog();
  if (telemetry_ != nullptr) {
    auto& m = telemetry_->metrics();
    m.add("check.runs");
    m.add("check.collectives_checked",
          collectives_checked_.load() - run_base_collectives_);
    m.add("check.puts_checked", puts_checked_.load() - run_base_puts_);
    m.add("check.messages_tracked", msgs_tracked_.load() - run_base_msgs_);
  }

  bool fired = false;
  Violation wd_v;
  {
    std::scoped_lock lk(wd_mu_);
    fired = wd_fired_;
    wd_v = wd_violation_;
  }
  if (fired) {
    // The watchdog aborted the run itself; without this error the run
    // would fail with "aborted without recorded cause", which is exactly
    // the undiagnosable state the watchdog exists to prevent.
    return std::make_exception_ptr(ViolationError(std::move(wd_v)));
  }
  if (aborted) return nullptr;  // leftover messages are expected, not leaks

  std::vector<std::pair<std::tuple<int, int, int>, std::int64_t>> leaks;
  {
    std::scoped_lock lk(msg_mu_);
    for (const auto& [key, balance] : in_flight_) {
      // Channels touching a dead rank are expected residue of a contained
      // failure (the runtime drained them at the shrink), not leaks.
      const auto& [src, dst, tag] = key;
      if (dead_ && (dead_[static_cast<std::size_t>(src)].load() != 0 ||
                    dead_[static_cast<std::size_t>(dst)].load() != 0)) {
        continue;
      }
      if (balance != 0) leaks.emplace_back(key, balance);
    }
  }
  if (leaks.empty()) return nullptr;

  std::uint64_t total = 0;
  std::string channels;
  constexpr std::size_t kMaxListed = 8;
  for (std::size_t i = 0; i < leaks.size(); ++i) {
    const std::int64_t balance = leaks[i].second;
    total += static_cast<std::uint64_t>(balance < 0 ? -balance : balance);
    if (i >= kMaxListed) continue;
    const auto& [src, dst, tag] = leaks[i].first;
    if (!channels.empty()) channels += ", ";
    channels += std::to_string(src) + "->" + std::to_string(dst) +
                " tag " + std::to_string(tag) + " (" +
                std::to_string(leaks[i].second) + ")";
  }
  if (leaks.size() > kMaxListed) {
    channels += ", ... " + std::to_string(leaks.size() - kMaxListed) + " more";
  }
  Violation v;
  v.kind = ViolationKind::kMessageLeak;
  v.detail = std::to_string(total) +
             " unmatched point-to-point message(s) at finalize (count > 0: "
             "never received, < 0: received but never sent): " +
             channels;
  report(v, false);
  if (config_.abort_on_violation) {
    return std::make_exception_ptr(ViolationError(std::move(v)));
  }
  return nullptr;
}

// -- collective cross-check -------------------------------------------------

void Checker::on_collective(int rank, const simmpi::CollFingerprint& fp,
                            simmpi::CallSite site) {
  beat();
  collectives_checked_.fetch_add(1, std::memory_order_relaxed);
  Violation v;
  bool mismatch = false;
  {
    std::scoped_lock lk(coll_mu_);
    const std::uint64_t seq = rank_seq_[static_cast<std::size_t>(rank)]++;
    auto& prog = progress_[static_cast<std::size_t>(rank)];
    prog.op = fp.op;
    prog.seq = seq;
    prog.site = fmt_site(site);
    ++prog.depth;
    prog.any = true;

    auto [it, inserted] = slots_.try_emplace(seq);
    CollSlot& slot = it->second;
    if (inserted) {
      slot.fp = fp;
      slot.rank = rank;
      slot.site = prog.site;
      slot.arrived = 1;
    } else if (fp != slot.fp) {
      mismatch = true;
      v.kind = ViolationKind::kCollectiveMismatch;
      v.rank = rank;
      v.other_rank = slot.rank;
      v.seq = seq;
      v.site = prog.site;
      v.other_site = slot.site;
      v.detail = "collective #" + std::to_string(seq) + ": rank " +
                 std::to_string(rank) + " entered " + fmt_fingerprint(fp) +
                 " at " + v.site + " but rank " + std::to_string(slot.rank) +
                 " entered " + fmt_fingerprint(slot.fp) + " at " + v.other_site;
    } else if (++slot.arrived >= live_.load()) {
      // Complete once every live rank arrived (== nranks_ while nobody
      // died).  A dead rank that managed to arrive before dying can push
      // the count past the threshold one arrival early; the stragglers
      // then deposit a fresh slot that on_shrink clears — transient and
      // harmless, since erase only happens on matching fingerprints.
      slots_.erase(it);
    }
  }
  if (mismatch) report(std::move(v), true);
}

void Checker::on_collective_done(int rank) noexcept {
  beat();
  std::scoped_lock lk(coll_mu_);
  auto& prog = progress_[static_cast<std::size_t>(rank)];
  if (prog.depth > 0) --prog.depth;
}

// -- point-to-point accounting ----------------------------------------------

void Checker::on_send(int rank, int dst, int tag, std::size_t /*bytes*/) {
  beat();
  msgs_tracked_.fetch_add(1, std::memory_order_relaxed);
  std::scoped_lock lk(msg_mu_);
  const auto it = in_flight_.try_emplace({rank, dst, tag}, 0).first;
  if (++it->second == 0) in_flight_.erase(it);
}

void Checker::on_recv(int rank, int src, int tag, std::size_t /*bytes*/) {
  beat();
  std::scoped_lock lk(msg_mu_);
  // A replayed allgather receive may precede its peer's replayed send, so
  // the balance can dip below zero until that send is recorded.
  const auto it = in_flight_.try_emplace({src, rank, tag}, 0).first;
  if (--it->second == 0) in_flight_.erase(it);
}

// -- one-sided windows ------------------------------------------------------

void Checker::on_win_create(int rank, int win, std::size_t /*bytes*/) {
  beat();
  std::scoped_lock lk(win_mu_);
  auto [it, inserted] = wins_.try_emplace(win);
  if (inserted) {
    it->second.rank_epoch.assign(static_cast<std::size_t>(nranks_), 0);
    // win_create opens the window's first access epoch on every rank.
    it->second.epoch_open.assign(static_cast<std::size_t>(nranks_), 1);
  }
  (void)rank;
}

void Checker::on_put(int rank, int win, int target, std::size_t offset,
                     std::size_t bytes, simmpi::CallSite site) {
  beat();
  puts_checked_.fetch_add(1, std::memory_order_relaxed);
  Violation v;
  bool found = false;
  {
    std::scoped_lock lk(win_mu_);
    const auto wit = wins_.find(win);
    if (wit == wins_.end()) return;  // freed/unknown window: put() throws
    WinCheck& w = wit->second;
    const auto r = static_cast<std::size_t>(rank);
    if (w.epoch_open[r] == 0) {
      v.kind = ViolationKind::kEpochViolation;
      v.rank = rank;
      v.seq = w.rank_epoch[r];
      v.site = fmt_site(site);
      v.detail = "rank " + std::to_string(rank) + " put " +
                 fmt_range(offset, offset + bytes) + " to rank " +
                 std::to_string(target) + " on window " + std::to_string(win) +
                 " at " + v.site +
                 " with no open access epoch (closed by a kFenceNoSucceed "
                 "fence)";
      found = true;
    } else if (bytes > 0) {
      const std::size_t end = offset + bytes;
      auto& intervals = w.epochs[w.rank_epoch[r]][target];
      // First interval that could overlap [offset, end): the predecessor
      // of upper_bound(offset), then everything starting before `end`.
      auto it = intervals.upper_bound(offset);
      if (it != intervals.begin()) {
        auto prev = std::prev(it);
        if (prev->second.end > offset) it = prev;
      }
      for (; it != intervals.end() && it->first < end; ++it) {
        if (it->second.end <= offset || it->second.rank == rank) continue;
        v.kind = ViolationKind::kOverlappingPut;
        v.rank = rank;
        v.other_rank = it->second.rank;
        v.seq = w.rank_epoch[r];
        v.site = fmt_site(site);
        v.other_site = it->second.site;
        v.detail = "epoch " + std::to_string(w.rank_epoch[r]) + " of window " +
                   std::to_string(win) + ": rank " + std::to_string(rank) +
                   " put " + fmt_range(offset, end) + " to rank " +
                   std::to_string(target) + " at " + v.site +
                   " overlapping rank " + std::to_string(it->second.rank) +
                   "'s put " + fmt_range(it->first, it->second.end) + " from " +
                   v.other_site;
        found = true;
        break;
      }
      auto& rec = intervals[offset];
      if (rec.end < end) rec = PutRecord{end, rank, fmt_site(site)};
    }
  }
  if (found) report(std::move(v), true);
}

void Checker::on_fence(int rank, int win, unsigned flags) {
  beat();
  std::scoped_lock lk(win_mu_);
  const auto wit = wins_.find(win);
  if (wit == wins_.end()) return;
  WinCheck& w = wit->second;
  const auto r = static_cast<std::size_t>(rank);
  ++w.rank_epoch[r];
  w.epoch_open[r] = (flags & simmpi::kFenceNoSucceed) != 0 ? 0 : 1;
  // Epochs every rank has left can no longer race with anything.
  const std::uint64_t min_epoch =
      *std::min_element(w.rank_epoch.begin(), w.rank_epoch.end());
  w.epochs.erase(w.epochs.begin(), w.epochs.lower_bound(min_epoch));
}

void Checker::on_win_free(int /*rank*/, int win) {
  beat();
  std::scoped_lock lk(win_mu_);
  const auto wit = wins_.find(win);
  if (wit != wins_.end() && ++wit->second.freed >= live_.load()) {
    wins_.erase(wit);
  }
}

// -- failure containment ------------------------------------------------------

void Checker::on_rank_dead(int rank) {
  beat();
  dead_[static_cast<std::size_t>(rank)].store(1);
  const int live = live_.fetch_sub(1) - 1;
  {
    std::scoped_lock lk(coll_mu_);
    progress_[static_cast<std::size_t>(rank)].dead = true;
    // Collectives that were only waiting on the dead rank are complete
    // among the survivors now.
    for (auto it = slots_.begin(); it != slots_.end();) {
      it = it->second.arrived >= live ? slots_.erase(it) : std::next(it);
    }
  }
  {
    std::scoped_lock lk(win_mu_);
    for (auto it = wins_.begin(); it != wins_.end();) {
      it = it->second.freed >= live ? wins_.erase(it) : std::next(it);
    }
  }
}

void Checker::on_shrink(const std::vector<int>& alive_world) {
  beat();
  // Runs with every survivor parked in the shrink rendezvous, so this is
  // the one place cross-rank state can be rebuilt exclusively.
  {
    std::scoped_lock lk(coll_mu_);
    // Survivors diverged while the failure unwound (some entered one more
    // collective than others before throwing); restart them from a common
    // sequence number so post-shrink fingerprints line up again.
    std::uint64_t max_seq = 0;
    for (int r : alive_world) {
      max_seq = std::max(max_seq, rank_seq_[static_cast<std::size_t>(r)]);
    }
    for (int r : alive_world) {
      rank_seq_[static_cast<std::size_t>(r)] = max_seq;
      progress_[static_cast<std::size_t>(r)].depth = 0;
    }
    slots_.clear();
  }
  {
    std::scoped_lock lk(win_mu_);
    wins_.clear();  // old-world windows died with their epochs
  }
  {
    std::scoped_lock lk(msg_mu_);
    in_flight_.clear();  // the runtime drained every mailbox
  }
}

// -- watchdog ---------------------------------------------------------------

std::string Checker::stuck_report() {
  std::scoped_lock lk(coll_mu_);
  std::string out;
  // nranks_ is set once in run_begin before the rank threads start; any
  // lock (here coll_mu_) suffices.  collcheck:allow(CC-RACE-UNGUARDED)
  for (int r = 0; r < nranks_; ++r) {
    if (!out.empty()) out += "; ";
    const auto& prog = progress_[static_cast<std::size_t>(r)];
    out += "rank " + std::to_string(r);
    if (prog.dead) {
      out += ": dead (contained failure)";
    } else if (!prog.any) {
      out += ": no collective activity";
    } else {
      out += prog.depth > 0 ? ": inside " : ": last completed ";
      out += simmpi::to_string(prog.op);
      out += " #" + std::to_string(prog.seq) + " at " + prog.site;
    }
  }
  return out;
}

void Checker::watchdog_main(const std::function<void()>& abort_run) {
  using clock = std::chrono::steady_clock;
  const auto timeout = std::chrono::duration_cast<clock::duration>(
      std::chrono::duration<double>(config_.watchdog_s));
  const auto poll = std::clamp(timeout / 8, clock::duration(std::chrono::milliseconds(10)),
                               clock::duration(std::chrono::seconds(1)));
  std::uint64_t last = heartbeat_.load();
  auto deadline = clock::now() + timeout;

  std::unique_lock lk(wd_mu_);
  while (!wd_stop_) {
    // The watchdog deliberately lives on its own OS thread so it can
    // observe hung ranks; it never runs in rank context.
    // collcheck: fiber-safe
    wd_cv_.wait_for(lk, poll);
    if (wd_stop_) return;
    const std::uint64_t hb = heartbeat_.load();
    if (hb != last) {
      last = hb;
      deadline = clock::now() + timeout;
      continue;
    }
    if (clock::now() < deadline) continue;

    lk.unlock();
    Violation v;
    v.kind = ViolationKind::kStuckRanks;
    v.detail = "no progress on any rank for " +
               std::to_string(config_.watchdog_s) + "s: " + stuck_report();
    report(v, false);
    abort_run();
    lk.lock();
    wd_fired_ = true;
    wd_violation_ = std::move(v);
    return;
  }
}

void Checker::stop_watchdog() {
  {
    std::scoped_lock lk(wd_mu_);
    wd_stop_ = true;
  }
  wd_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
}

}  // namespace collrep::check
