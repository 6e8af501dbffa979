#include "hooks.hpp"

#include <chrono>
#include <cstring>

#include "report.hpp"

namespace perfbench {

namespace {

const auto kEpoch = std::chrono::steady_clock::now();

// The dump pipeline's injection points, in order; each one fires on every
// rank right after the barrier that closes the previous phase.
constexpr std::array<const char*, kPhases> kPhasePoints = {
    "dump.hash", "dump.reduction", "dump.planning", "dump.exchange",
    "dump.commit"};

}  // namespace

double host_now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kEpoch)
      .count();
}

const char* to_string(OpKind k) noexcept {
  switch (k) {
    case OpKind::kDump:
      return "dump";
    case OpKind::kKillDump:
      return "kill_dump";
    case OpKind::kEcDump:
      return "ec_dump";
    case OpKind::kRecover:
      return "recover";
    case OpKind::kRestore:
      return "restore";
    case OpKind::kDecompose:
      return "decompose";
  }
  return "unknown";
}

const char* phase_name(int phase) noexcept {
  static constexpr std::array<const char*, kPhases> kNames = {
      "hash", "reduction", "planning", "exchange", "storage"};
  return phase >= 0 && phase < kPhases ? kNames[static_cast<std::size_t>(phase)]
                                       : "";
}

Tracer::Tracer(int nranks) : ranks_(static_cast<std::size_t>(nranks)) {}

void Tracer::begin_op(int rank, OpKind kind, int op) {
  RankOp& r = at(rank);
  std::vector<Span> spans = std::move(r.spans);
  r = RankOp{};
  r.spans = std::move(spans);
  r.active = true;
  r.kind = kind;
  r.op = op;
  r.t_begin = host_now();
}

void Tracer::end_op(int rank) {
  RankOp& r = at(rank);
  if (!r.active) return;
  r.t_end = host_now();
  close_phase(r, r.t_end);
  r.spans.push_back(Span{to_string(r.kind), "", r.op, r.t_begin, r.t_end});
  r.active = false;
}

void Tracer::span(int rank, const char* name, double t0, double t1) {
  RankOp& r = at(rank);
  if (!r.active) return;
  r.spans.push_back(Span{name, to_string(r.kind), r.op, t0, t1});
}

void Tracer::close_phase(RankOp& r, double now) {
  if (r.phase < 0) return;
  const auto p = static_cast<std::size_t>(r.phase);
  r.phase_s[p] += now - r.phase_begin;
  r.spans.push_back(
      Span{phase_name(r.phase), to_string(r.kind), r.op, r.phase_begin, now});
  r.phase = -1;
}

void Tracer::on_point(int rank, const char* point) {
  RankOp& r = at(rank);
  if (!r.active || r.kind != OpKind::kDump) return;
  if (std::strncmp(point, "dump.", 5) != 0) return;
  for (int p = 0; p < kPhases; ++p) {
    if (std::strcmp(point, kPhasePoints[static_cast<std::size_t>(p)]) != 0) {
      continue;
    }
    const double now = host_now();
    close_phase(r, now);
    r.phase = p;
    r.phase_begin = now;
    return;
  }
}

void Tracer::on_collective(int rank, collrep::simmpi::CollOp op) {
  RankOp& r = at(rank);
  if (!r.active) return;
  if (r.coll_depth++ == 0) {
    r.coll_op = op;
    r.coll_t0 = host_now();
  }
}

void Tracer::on_collective_done(int rank) {
  RankOp& r = at(rank);
  if (!r.active || r.coll_depth == 0) return;
  if (--r.coll_depth != 0) return;
  const double now = host_now();
  const double d = now - r.coll_t0;
  r.coll_s[static_cast<std::size_t>(r.coll_op)] += d;
  if (r.phase >= 0) r.phase_coll_s[static_cast<std::size_t>(r.phase)] += d;
  r.spans.push_back(Span{collrep::simmpi::to_string(r.coll_op),
                         r.phase >= 0 ? phase_name(r.phase) : to_string(r.kind),
                         r.op, r.coll_t0, now});
}

void Tracer::on_send(int rank, std::size_t bytes) {
  RankOp& r = at(rank);
  if (!r.active) return;
  ++r.sends;
  r.send_bytes += bytes;
}

std::string Tracer::spans_json() const {
  std::string out;
  for (int rank = 0; rank < nranks(); ++rank) {
    for (const Span& s : at(rank).spans) {
      out += "{\"rank\": " + std::to_string(rank) +
             ", \"op\": " + std::to_string(s.op) +
             ", \"name\": " + json_string(s.name) +
             ", \"parent\": " + json_string(s.parent) +
             ", \"t0_s\": " + json_number(s.t0) +
             ", \"t1_s\": " + json_number(s.t1) + "}\n";
    }
  }
  return out;
}

void PhaseHook::at_point(int rank, const char* point, std::uint64_t epoch,
                         double sim_now) {
  tracer_.on_point(rank, point);
  if (inner_ != nullptr) inner_->at_point(rank, point, epoch, sim_now);
}

}  // namespace perfbench
