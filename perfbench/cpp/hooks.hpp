// Benchmark-owned host-clock tracing around the program's public hooks.
//
// Nothing inside src/ is instrumented.  The traced run attaches two
// observers the runtime already supports and stamps them with
// std::chrono::steady_clock:
//   * PhaseHook (a simmpi::FaultHook) timestamps the existing "dump.*"
//     injection points, which fire right after each PhaseClock barrier, so
//     the gaps between them are the five dump phases; it forwards every
//     visit to the real fault schedule, so injected kills still happen;
//   * CollHook (a simmpi::CheckHook) timestamps collective entry/exit and
//     counts point-to-point sends.
// Both write only the calling rank's own slot while an operation is open
// (Tracer::begin_op .. end_op), and the benchmark reads the slots only
// after the barrier that closes the operation, so no locks are needed.
#pragma once

#include <array>
#include <cstdint>
#include <exception>  // check_hook.hpp uses std::exception_ptr
#include <functional>
#include <string>
#include <vector>

#include "simmpi/check_hook.hpp"
#include "simmpi/runtime.hpp"

namespace perfbench {

// Seconds on the steady clock since process start.
[[nodiscard]] double host_now();

enum class OpKind : std::uint8_t {
  kDump = 0,    // Dumper::dump_output, healthy
  kKillDump,    // dump_output that loses a rank at dump.exchange.mid
  kEcDump,      // EcDumper::dump_output
  kRecover,     // RecoveryService::recover_world
  kRestore,     // restore_input
  kDecompose,   // the benchmark's own decomposition pass
};
[[nodiscard]] const char* to_string(OpKind k) noexcept;

// hash, reduction, planning, exchange, storage
inline constexpr int kPhases = 5;
[[nodiscard]] const char* phase_name(int phase) noexcept;

// One host-clock interval recorded on one rank.
struct Span {
  const char* name = "";
  const char* parent = "";  // enclosing span's name ("" at op level)
  int op = 0;               // operation ordinal; spans of one op share it
  double t0 = 0.0;
  double t1 = 0.0;
};

// Per-rank record of the operation in flight.
struct alignas(64) RankOp {
  bool active = false;
  OpKind kind = OpKind::kDump;
  int op = 0;
  double t_begin = 0.0;
  double t_end = 0.0;
  // Dump phases (valid for kDump): host duration and the part of it spent
  // inside top-level collectives.
  int phase = -1;
  double phase_begin = 0.0;
  std::array<double, kPhases> phase_s{};
  std::array<double, kPhases> phase_coll_s{};
  // Top-level collective time by kind, and point-to-point sends.
  std::array<double, collrep::simmpi::kCollOpCount> coll_s{};
  std::uint64_t sends = 0;
  std::uint64_t send_bytes = 0;
  // Collective nesting (allreduce = reduce + bcast is timed once).
  int coll_depth = 0;
  collrep::simmpi::CollOp coll_op = collrep::simmpi::CollOp::kBarrier;
  double coll_t0 = 0.0;
  std::vector<Span> spans;  // kept in memory, written at exit
};

class Tracer {
 public:
  explicit Tracer(int nranks);

  // On `rank`'s own thread: begin_op right after the barrier that opens an
  // operation, end_op as soon as the call returns.
  void begin_op(int rank, OpKind kind, int op);
  void end_op(int rank);
  // A benchmark-owned span inside the open op (no-op when none is open).
  void span(int rank, const char* name, double t0, double t1);

  [[nodiscard]] RankOp& at(int rank) {
    return ranks_[static_cast<std::size_t>(rank)];
  }
  [[nodiscard]] const RankOp& at(int rank) const {
    return ranks_[static_cast<std::size_t>(rank)];
  }
  [[nodiscard]] int nranks() const noexcept {
    return static_cast<int>(ranks_.size());
  }

  // Hook entry points.
  void on_point(int rank, const char* point);
  void on_collective(int rank, collrep::simmpi::CollOp op);
  void on_collective_done(int rank);
  void on_send(int rank, std::size_t bytes);

  // All recorded spans as JSON lines {"rank":..,"op":..,"name":..}.
  [[nodiscard]] std::string spans_json() const;

 private:
  void close_phase(RankOp& r, double now);

  std::vector<RankOp> ranks_;
};

class PhaseHook final : public collrep::simmpi::FaultHook {
 public:
  PhaseHook(Tracer& tracer, collrep::simmpi::FaultHook* inner)
      : tracer_(tracer), inner_(inner) {}
  void at_point(int rank, const char* point, std::uint64_t epoch,
                double sim_now) override;

 private:
  Tracer& tracer_;
  collrep::simmpi::FaultHook* inner_;
};

class CollHook final : public collrep::simmpi::CheckHook {
 public:
  explicit CollHook(Tracer& tracer) : tracer_(tracer) {}

  void run_begin(int, std::function<void()>) override {}
  std::exception_ptr run_end(bool) override { return nullptr; }
  void on_collective(int rank, const collrep::simmpi::CollFingerprint& fp,
                     collrep::simmpi::CallSite) override {
    tracer_.on_collective(rank, fp.op);
  }
  void on_collective_done(int rank) noexcept override {
    tracer_.on_collective_done(rank);
  }
  void on_send(int rank, int, int, std::size_t bytes) override {
    tracer_.on_send(rank, bytes);
  }
  void on_recv(int, int, int, std::size_t) override {}
  void on_win_create(int, int, std::size_t) override {}
  void on_put(int, int, int, std::size_t, std::size_t,
              collrep::simmpi::CallSite) override {}
  void on_fence(int, int, unsigned) override {}
  void on_win_free(int, int) override {}

 private:
  Tracer& tracer_;
};

}  // namespace perfbench
