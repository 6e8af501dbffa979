#include "world.hpp"

#include <malloc.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>

#include "apps/hpccg.hpp"
#include "apps/synth.hpp"
#include "chunk/store.hpp"
#include "core/dump.hpp"
#include "core/group_parity.hpp"
#include "core/restore.hpp"
#include "decompose.hpp"
#include "fault/schedule.hpp"
#include "ftrt/tracked_arena.hpp"
#include "hash/hasher.hpp"
#include "obs/profile.hpp"
#include "obs/telemetry.hpp"
#include "recover/service.hpp"
#include "simmpi/collectives.hpp"
#include "simmpi/runtime.hpp"

namespace perfbench {

namespace {

using namespace collrep;

constexpr int kReplication = 3;  // K, the paper's default
constexpr int kEcSampleRanks = 2;

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

apps::SynthSpec synth_spec(const WorkloadSpec& spec, std::uint64_t seed) {
  apps::SynthSpec s;
  s.chunk_bytes = spec.chunk_bytes;
  s.chunks = spec.synth_chunks;
  s.local_dup = 0.05;
  s.global_shared = 0.10;
  s.global_pool = 4096;
  s.heavy_rank_fraction = 0.10;
  s.heavy_multiplier = 4.0;
  s.seed = seed;
  return s;
}

// Distinct kill victims, drawn from the ranks that carry the baseline image
// size and never world rank 0 (the timing leader).  A heavy victim would
// quadruple the orphan its adopter rebuilds, so the seed, not the code,
// would decide the recovery numbers of a run.
std::vector<int> pick_victims(const WorkloadSpec& spec, std::uint64_t seed,
                              int count) {
  std::vector<int> pool;
  for (int r = 1; r < spec.nranks; ++r) {
    if (!spec.synthetic ||
        apps::synth_chunk_count(r, spec.nranks, synth_spec(spec, seed)) ==
            spec.synth_chunks) {
      pool.push_back(r);
    }
  }
  std::uint64_t state = seed ^ 0x6B696C6C73ull;
  const auto n = std::min(pool.size(), static_cast<std::size_t>(count));
  for (std::size_t i = 0; i < n; ++i) {
    std::swap(pool[i], pool[i + splitmix(state) % (pool.size() - i)]);
  }
  pool.resize(n);
  return pool;
}

// Dump epochs advance by one per replication dump attempt: 1 is the warm-up,
// then each round's healthy dumps, and a failover's killed dump and redump.
std::uint64_t kill_epoch(const WorkloadSpec& spec, int round) {
  std::uint64_t e = 1;
  for (int r = 0; r <= round; ++r) {
    for (const Step s : spec.round) {
      if (s == Step::kDump) ++e;
      if (s != Step::kFailover) continue;
      ++e;
      if (r == round) return e;
      ++e;
    }
  }
  throw std::logic_error("workload round has no failover step");
}

core::DumpConfig dump_config(const WorkloadSpec& spec, std::uint64_t epoch) {
  core::DumpConfig cfg;  // coll-dedup, F = 2^17, SHA-1, payload exchange
  cfg.chunk_bytes = spec.chunk_bytes;
  cfg.epoch = epoch;
  return cfg;
}

core::EcConfig ec_config(const WorkloadSpec& spec, std::uint64_t epoch) {
  core::EcConfig cfg;  // defaults: RS 4+2, collective dedup on
  cfg.chunk_bytes = spec.chunk_bytes;
  cfg.epoch = epoch;
  return cfg;
}

// Per-segment digests: what an adopter checks an orphan's rebuilt image
// against after its owner died.
using Digest = std::vector<hash::Fingerprint>;

Digest digest_of(const chunk::Dataset& ds) {
  const auto& h = hash::hasher_for(hash::HashKind::kXx64);
  Digest d;
  for (std::size_t i = 0; i < ds.segment_count(); ++i) {
    d.push_back(h.fingerprint(ds.segment(i)));
  }
  return d;
}

Digest digest_of(const std::vector<std::vector<std::uint8_t>>& segments) {
  chunk::Dataset view;
  for (const auto& s : segments) view.add_segment(s);
  return digest_of(view);
}

bool same_bytes(const std::vector<std::vector<std::uint8_t>>& restored,
                const chunk::Dataset& source) {
  if (restored.size() != source.segment_count()) return false;
  for (std::size_t i = 0; i < restored.size(); ++i) {
    const auto seg = source.segment(i);
    if (restored[i].size() != seg.size() ||
        std::memcmp(restored[i].data(), seg.data(), seg.size()) != 0) {
      return false;
    }
  }
  return true;
}

// One rank's application memory, allocated from the checkpoint arena.
class Image {
 public:
  Image(simmpi::Comm& comm, const WorkloadSpec& spec, std::uint64_t seed)
      : arena_(spec.chunk_bytes) {
    if (spec.synthetic) {
      const auto bytes = apps::synth_dataset(comm.rank(), comm.size(),
                                             synth_spec(spec, seed));
      const auto region = arena_.allocate(bytes.size());
      std::memcpy(region.data(), bytes.data(), bytes.size());
    } else {
      apps::HpccgConfig cfg;
      cfg.nx = cfg.ny = cfg.nz = spec.hpccg_edge;
      solver_.emplace(comm, arena_, cfg);
      // The seed picks how far the solve has progressed before the first
      // checkpoint, so the vector pages differ from seed to seed.
      (void)solver_->iterate(3 + static_cast<int>(seed % 4));
    }
  }

  // Application progress between checkpoints (collective for HPCCG).
  void advance(int iters) {
    if (solver_ && iters > 0) (void)solver_->iterate(iters);
  }
  [[nodiscard]] chunk::Dataset snapshot() const { return arena_.snapshot(); }

 private:
  ftrt::TrackedArena arena_;
  std::optional<apps::HpccgSolver> solver_;
};

// What each rank leaves for the leader after an operation.
struct alignas(64) RankSlot {
  bool ok = true;
  std::string why;
  double snapshot_s = 0.0;
  core::DumpStats dump;
  core::EcDumpStats ec;
  std::uint64_t restore_own_chunks = 0;
  std::uint64_t restore_remote_chunks = 0;
  double restore_rank_s = 0.0;
  Decomposition decomp;

  void fail(std::string reason) {
    if (ok) why = std::move(reason);
    ok = false;
  }
};

// Host-side state of one world, shared by its rank threads.
struct Shared {
  explicit Shared(const WorldConfig& c)
      : cfg(c),
        spec(*c.spec),
        traced(c.mode == WorldMode::kTraced),
        stores(static_cast<std::size_t>(spec.nranks)),
        ec_stores(static_cast<std::size_t>(spec.nranks)),
        tracer(spec.nranks),
        phase_hook(tracer, &schedule),
        coll_hook(tracer),
        committed(static_cast<std::size_t>(spec.nranks)),
        slots(static_cast<std::size_t>(spec.nranks)) {
    for (auto& s : stores) store_ptrs.push_back(&s);
    schedule.arm(store_ptrs);
    const auto victims = pick_victims(spec, c.seed, spec.rounds_per_world);
    for (std::size_t r = 0; r < victims.size(); ++r) {
      fault::FaultEvent ev;
      ev.point = "dump.exchange.mid";
      ev.rank = victims[r];
      ev.epoch = kill_epoch(spec, static_cast<int>(r));
      ev.action = fault::FaultAction::kKillRank;
      schedule.add(ev);
    }
    max_rounds = static_cast<int>(victims.size());
    recover::RecoveryConfig rc;
    rc.replication = kReplication;
    recovery.emplace(store_ptrs, rc);
  }

  const WorldConfig& cfg;
  const WorkloadSpec& spec;
  bool traced;
  double t_start = 0.0;
  std::vector<chunk::ChunkStore> stores;     // replication, world-indexed
  std::vector<chunk::ChunkStore> ec_stores;  // erasure-coded, world-indexed
  std::vector<chunk::ChunkStore*> store_ptrs;
  fault::FaultSchedule schedule;
  std::optional<recover::RecoveryService> recovery;
  int max_rounds = 0;
  Tracer tracer;
  PhaseHook phase_hook;
  CollHook coll_hook;
  std::vector<Digest> committed;  // last committed image, by world rank
  std::vector<RankSlot> slots;    // by world rank
  bool keep_going = false;        // leader writes it between two barriers
  WorldResult out;                // leader only
};

// The closed loop on one rank.
class RankLoop {
 public:
  RankLoop(simmpi::Comm& comm, Shared& sh)
      : comm_(comm), sh_(sh), spec_(sh.spec) {}

  void run() {
    setup();
    if (sh_.cfg.mode == WorldMode::kSetupOnly) return;
    if (sh_.cfg.mode == WorldMode::kProfile) {
      // The same kind of dump the traced rounds time: a healthy one after
      // the application has advanced, not the warm-up.
      step_dump(0);
      return;
    }
    for (int round = 0;; ++round) {
      if (leader()) {
        sh_.keep_going = round < sh_.cfg.min_rounds ||
                         (round < sh_.max_rounds &&
                          host_now() < sh_.cfg.deadline);
      }
      comm_.barrier();
      if (!sh_.keep_going) break;
      for (const Step s : spec_.round) {
        switch (s) {
          case Step::kDump:
            step_dump(round);
            break;
          case Step::kEcDump:
            step_ec(round);
            break;
          case Step::kFailover:
            step_failover(round);
            break;
          case Step::kRestore:
            step_restore(round);
            break;
        }
      }
      comm_.barrier();
      if (leader()) ++sh_.out.rounds;
    }
  }

 private:
  [[nodiscard]] bool leader() const { return comm_.rank() == 0; }
  [[nodiscard]] int wrank() const { return comm_.world_rank(); }
  RankSlot& me() { return sh_.slots[static_cast<std::size_t>(wrank())]; }
  chunk::ChunkStore& store() {
    return sh_.stores[static_cast<std::size_t>(wrank())];
  }
  chunk::ChunkStore& ec_store() {
    return sh_.ec_stores[static_cast<std::size_t>(wrank())];
  }
  WorldResult& out() { return sh_.out; }

  // Slots and trace records of the current group, in dense-rank order.
  template <class Fn>
  void for_each_rank(Fn&& fn) const {
    for (int r = 0; r < comm_.size(); ++r) {
      const auto w = static_cast<std::size_t>(comm_.world_of(r));
      fn(sh_.slots[w], sh_.tracer.at(static_cast<int>(w)));
    }
  }
  template <class Fn>
  std::vector<double> per_rank(Fn&& fn) const {
    std::vector<double> v;
    for_each_rank([&](const RankSlot& s, const RankOp& op) {
      v.push_back(fn(s, op));
    });
    return v;
  }

  // Each rank's host time inside the traced operation just closed.
  std::vector<double> in_call() const {
    return per_rank([](const RankSlot&, const RankOp& op) {
      return op.t_end - op.t_begin;
    });
  }

  void rebuild_dense_views() {
    dense_.clear();
    dense_ec_.clear();
    for (int r = 0; r < comm_.size(); ++r) {
      const auto w = static_cast<std::size_t>(comm_.world_of(r));
      dense_.push_back(&sh_.stores[w]);
      dense_ec_.push_back(&sh_.ec_stores[w]);
    }
  }

  void begin(OpKind kind) {
    ++op_;
    if (sh_.traced) sh_.tracer.begin_op(wrank(), kind, op_);
  }
  void end() {
    if (sh_.traced) sh_.tracer.end_op(wrank());
  }

  // The leader's process counters at the start and the end of a timed
  // region; the difference is added to WorldResult::op_counters.
  [[nodiscard]] ProcCounters counters_before() const {
    return leader() ? ProcCounters::now() : ProcCounters{};
  }
  void counters_after(const ProcCounters& before) {
    if (leader()) out().op_counters += ProcCounters::now() - before;
  }

  // Barrier, the call, barrier: the host time and process counters of one
  // operation as the leader sees it.  Every operation starts at sim time 0
  // on every rank, so its simulated duration does not depend on what ran
  // before it.
  template <class Fn>
  double timed(OpKind kind, Fn&& fn) {
    comm_.barrier();
    comm_.clock().reset();
    begin(kind);
    const ProcCounters before = counters_before();
    const double t0 = host_now();
    fn();
    end();
    comm_.barrier();
    const double wall = host_now() - t0;
    counters_after(before);
    return wall;
  }

  // Closes an operation: after the barrier every rank's checks and slot
  // are final; the leader counts the operation as attempted (and as failed
  // when any rank's check failed) and folds the slots into samples via
  // `aggregate` before the second barrier lets any rank touch them again.
  template <class Fn>
  void settle(const char* what, Fn&& aggregate) {
    comm_.barrier();
    if (leader()) {
      ++out().attempted;
      std::string why;
      for_each_rank([&](const RankSlot& s, const RankOp&) {
        if (!s.ok && why.empty()) why = s.why;
      });
      if (!why.empty()) {
        ++out().failed;
        out().errors.push_back(std::string(what) + ": " + why);
      }
      aggregate();
    }
    comm_.barrier();
  }

  void record(OpKind kind, int round, double wall, double sim) {
    out().ops.push_back(OpSample{kind, round, wall, sim});
  }
  void sample(const std::string& name, double v) {
    out().samples[name].push_back(v);
  }
  void fixed(int round, const std::string& name, double v) {
    if (round < sh_.cfg.min_rounds) out().fixed[name].push_back(v);
  }

  void setup() {
    image_.emplace(comm_, spec_, sh_.cfg.seed);
    snap_ = image_->snapshot();
    rebuild_dense_views();
    core::Dumper dumper(comm_, store(), dump_config(spec_, ++epoch_));
    const core::DumpStats st = dumper.dump_output(snap_, kReplication);
    const auto g = core::Dumper::collect(comm_, st);
    check_healthy(g);
    sh_.committed[static_cast<std::size_t>(wrank())] = digest_of(snap_);
    comm_.barrier();
    if (leader()) {
      out().setup_s = host_now() - sh_.t_start;
      out().warmup = WarmupPrint{st.total_time_s, g.total_sent_bytes,
                                 g.total_stored_bytes, st.gview_entries};
      ++out().attempted;
      if (!me().ok) {
        ++out().failed;
        out().errors.push_back("warm-up dump: " + me().why);
      }
    }
  }

  void check_healthy(const core::GlobalDumpStats& g) {
    const int keff = std::min(kReplication, comm_.size());
    if (g.min_k_achieved != keff || g.total_under_replicated_bytes != 0) {
      me().fail("healthy dump reports min_k_achieved " +
                std::to_string(g.min_k_achieved) + " (K_eff " +
                std::to_string(keff) + ") and " +
                std::to_string(g.total_under_replicated_bytes) +
                " under-replicated bytes");
    }
  }

  void step_dump(int round) {
    me() = RankSlot{};
    // Replication stores hold one checkpoint at a time: each healthy dump
    // starts from empty stores (cleared outside the timed region).
    store().clear();
    image_->advance(spec_.cg_iters);
    take_snapshot();
    timed_dump(round);
  }

  // The checkpoint runtime's capture of the live pages before each dump.
  void take_snapshot() {
    const double t0 = host_now();
    snap_ = image_->snapshot();
    me().snapshot_s = host_now() - t0;
  }

  void timed_dump(int round) {
    core::Dumper dumper(comm_, store(), dump_config(spec_, ++epoch_));
    core::DumpStats st;
    const double wall =
        timed(OpKind::kDump,
              [&] { st = dumper.dump_output(snap_, kReplication); });
    const auto g = core::Dumper::collect(comm_, st);
    me().dump = st;
    check_healthy(g);
    sh_.committed[static_cast<std::size_t>(wrank())] = digest_of(snap_);
    last_dump_ = st;
    settle("dump", [&] {
      record(OpKind::kDump, round, wall, st.total_time_s);
      sample("dump_wall_s", wall);
      const auto total = static_cast<double>(g.total_dataset_bytes);
      fixed(round, "dump_sim_s", st.total_time_s);
      fixed(round, "sent_bytes_per_byte",
                  static_cast<double>(g.total_sent_bytes) / total);
      fixed(round, "stored_bytes_per_byte",
                  static_cast<double>(g.total_stored_bytes) / total);
      fixed(round, "sim.hash_s", g.max_phases.hash_s);
      fixed(round, "sim.reduction_s", g.max_phases.reduction_s);
      fixed(round, "sim.planning_s", g.max_phases.planning_s);
      fixed(round, "sim.exchange_s", g.max_phases.exchange_s);
      fixed(round, "sim.storage_s", g.max_phases.storage_s);
      fixed(round, "core.gview_entries", st.gview_entries);
      double discarded = 0.0;
      double unique = 0.0;
      for_each_rank([&](const RankSlot& s, const RankOp&) {
        discarded += static_cast<double>(s.dump.discarded_bytes);
        unique += static_cast<double>(s.dump.local_unique_bytes);
      });
      fixed(round, "core.discarded_frac", discarded / unique);
      if (sh_.traced) traced_dump(wall);
    });
  }

  // Host-clock decomposition of the dump just taken (leader, traced run).
  void traced_dump(double wall) {
    const auto t = in_call();
    sample("dump.rank_skew",
           *std::max_element(t.begin(), t.end()) / median(t));
    double covered = 0.0;
    for (int p = 0; p < kPhases; ++p) {
      const auto i = static_cast<std::size_t>(p);
      const double phase = median(per_rank(
          [i](const RankSlot&, const RankOp& op) { return op.phase_s[i]; }));
      covered += phase;
      sample(std::string("dump.") + phase_name(p) + "_wall_s", phase);
      sample(std::string("dump.") + phase_name(p) + "_self_s",
             median(per_rank([i](const RankSlot&, const RankOp& op) {
               return op.phase_s[i] - op.phase_coll_s[i];
             })));
    }
    sample("dump.uncovered_frac", 1.0 - covered / wall);
    using simmpi::CollOp;
    static constexpr std::pair<CollOp, const char*> kColls[] = {
        {CollOp::kBarrier, "barrier"},     {CollOp::kReduce, "reduce"},
        {CollOp::kBcast, "bcast"},         {CollOp::kAllgather, "allgather"},
        {CollOp::kAllreduce, "allreduce"}, {CollOp::kWinFence, "win_fence"}};
    for (const auto& [op, name] : kColls) {
      const auto i = static_cast<std::size_t>(op);
      const auto t = per_rank(
          [i](const RankSlot&, const RankOp& r) { return r.coll_s[i]; });
      sample(std::string("simmpi.") + name + "_s", median(t));
      sample(std::string("simmpi.") + name + "_max_s",
             *std::max_element(t.begin(), t.end()));
    }
    double sends = 0.0;
    double bytes = 0.0;
    for_each_rank([&](const RankSlot&, const RankOp& r) {
      sends += static_cast<double>(r.sends);
      bytes += static_cast<double>(r.send_bytes);
    });
    sample("simmpi.sends_per_op", sends);
    sample("simmpi.send_bytes_per_op", bytes);
    const auto snap = per_rank(
        [](const RankSlot& s, const RankOp&) { return s.snapshot_s; });
    sample("ftrt.snapshot_s", median(snap));
  }

  void step_ec(int round) {
    me() = RankSlot{};
    ec_store().clear();
    const core::EcConfig cfg = ec_config(spec_, ++ec_epoch_);
    core::EcDumper dumper(comm_, ec_store(), cfg);
    core::EcDumpStats st;
    const double wall =
        timed(OpKind::kEcDump, [&] { st = dumper.dump_output(snap_); });
    me().ec = st;
    // A seeded sample of ranks rebuilds its image from the coded stores.
    std::uint64_t pick =
        sh_.cfg.seed ^ (0xEC00ull + static_cast<std::uint64_t>(round));
    const int n = comm_.size();
    const int first =
        static_cast<int>(splitmix(pick) % static_cast<std::uint64_t>(n));
    for (int i = 0; i < std::min(kEcSampleRanks, n); ++i) {
      if ((first + i) % n != comm_.rank()) continue;
      const auto r = core::ec_restore_rank(dense_ec_, comm_.rank(), cfg);
      if (!same_bytes(r.segments, snap_)) {
        me().fail("erasure-coded restore differs from the source image");
      }
    }
    settle("ec_dump", [&] {
      record(OpKind::kEcDump, round, wall, st.total_time_s);
      sample("ec_dump_wall_s", wall);
      fixed(round, "ec_dump_sim_s", st.total_time_s);
      double device = 0.0;
      double user = 0.0;
      for_each_rank([&](const RankSlot& s, const RankOp&) {
        device += static_cast<double>(s.ec.stored_bytes + s.ec.parity_bytes);
        user += static_cast<double>(s.ec.dataset_bytes);
      });
      fixed(round, "ec_stored_bytes_per_byte", device / user);
      if (sh_.traced) {
        sample("ec.dump_rank_s", median(in_call()));
      }
    });
  }

  // One seeded rank dies at dump.exchange.mid; every survivor recovers, and
  // the checkpoint is taken again in the shrunken world.
  void step_failover(int round) {
    me() = RankSlot{};
    core::Dumper killed(comm_, store(), dump_config(spec_, ++epoch_));
    comm_.barrier();
    comm_.clock().reset();
    begin(OpKind::kKillDump);
    bool died = false;
    try {
      (void)killed.dump_output(snap_, kReplication);
    } catch (const simmpi::RankDeadError&) {
      died = true;  // the victim itself unwinds with RankKilledError
    }
    end();
    // Recovery is timed from the moment the failure surfaced.
    const ProcCounters before = counters_before();
    const double t0 = host_now();
    begin(OpKind::kRecover);
    recover::RecoveryStats rs;
    if (died) rs = sh_.recovery->recover_world(comm_);
    end();
    comm_.barrier();
    const double wall = host_now() - t0;
    counters_after(before);
    if (!died) me().fail("no rank died at dump.exchange.mid");
    for (const auto& orphan : rs.orphans) {
      if (digest_of(orphan.segments) !=
          sh_.committed[static_cast<std::size_t>(orphan.world_rank)]) {
        me().fail("adopted orphan of world rank " +
                  std::to_string(orphan.world_rank) +
                  " differs from its last committed image");
      }
    }
    rebuild_dense_views();
    settle("recover", [&] {
      record(OpKind::kRecover, round, wall, rs.total_time_s);
      sample("recover_wall_s", wall);
      fixed(round, "recover_sim_s", rs.total_time_s);
      fixed(round, "recover.agreement_sim_s", rs.agreement_time_s);
      const auto sat = static_cast<double>(rs.dedup_satisfied_bytes);
      fixed(round, "recover.dedup_satisfied_frac",
                  sat / (sat + static_cast<double>(rs.rereplicated_bytes)));
      if (sh_.traced) {
        sample("recover.world_s", median(in_call()));
      }
    });
    me() = RankSlot{};
    take_snapshot();
    timed_dump(round);
    if (sh_.traced) step_decompose();
  }

  void step_restore(int round) {
    me() = RankSlot{};
    std::pair<core::RestoreResult, core::CollectiveRestoreStats> res;
    const double wall = timed(OpKind::kRestore, [&] {
      res = core::restore_input(comm_, dense_);
    });
    if (!same_bytes(res.first.segments, snap_)) {
      me().fail("restored image differs from the source image");
    }
    me().restore_own_chunks = res.first.chunks_from_own_store;
    me().restore_remote_chunks = res.first.chunks_from_remote_stores;
    if (sh_.traced) {
      const double t0 = host_now();
      const auto again = core::restore_rank(dense_, comm_.rank());
      me().restore_rank_s = host_now() - t0;
      if (!same_bytes(again.segments, snap_)) {
        me().fail("restore_rank differs from the source image");
      }
    }
    settle("restore", [&] {
      record(OpKind::kRestore, round, wall, res.second.total_time_s);
      sample("restore_wall_s", wall);
      fixed(round, "restore_sim_s", res.second.total_time_s);
      double own = 0.0;
      double remote = 0.0;
      for_each_rank([&](const RankSlot& s, const RankOp&) {
        own += static_cast<double>(s.restore_own_chunks);
        remote += static_cast<double>(s.restore_remote_chunks);
      });
      fixed(round, "restore.remote_chunk_frac", remote / (own + remote));
      if (sh_.traced) {
        const auto t = per_rank(
            [](const RankSlot& s, const RankOp&) { return s.restore_rank_s; });
        sample("core.restore.rank_s", median(t));
        sample("core.restore.rank_max_s",
               *std::max_element(t.begin(), t.end()));
      }
    });
  }

  // The traced run's decomposition of the dump just redone (same input,
  // same communicator), checked against that dump's own counts.
  void step_decompose() {
    me() = RankSlot{};
    comm_.barrier();
    begin(OpKind::kDecompose);
    me().decomp = decompose(comm_, snap_, dump_config(spec_, epoch_),
                            kReplication,
                            store(), sh_.tracer);
    end();
    if (!me().decomp.matches(last_dump_)) {
      me().fail("decomposition pass disagrees with DumpStats (gview " +
                std::to_string(me().decomp.gview_entries) + " vs " +
                std::to_string(last_dump_.gview_entries) + ", sent " +
                std::to_string(me().decomp.sent_bytes) + " vs " +
                std::to_string(last_dump_.sent_bytes) + ")");
    }
    settle("decompose", [&] {
      Decomposition sum;
      std::vector<double> dedup_s, gbps, leaf, merge, archive, plan, shuffle,
          health;
      for_each_rank([&](const RankSlot& s, const RankOp&) {
        const Decomposition& d = s.decomp;
        dedup_s.push_back(d.local_dedup_s);
        gbps.push_back(static_cast<double>(d.bytes) / d.local_dedup_s * 1e-9);
        leaf.push_back(d.leaf_s);
        merge.push_back(d.merge_s);
        archive.push_back(d.archive_s);
        plan.push_back(d.plan_collective_s);
        shuffle.push_back(d.plan_shuffle_s);
        health.push_back(d.health_allreduce_s);
        sum.bytes += d.bytes;
        sum.chunks += d.chunks;
        sum.hash_only_s += d.hash_only_s;
        sum.local_dedup_s += d.local_dedup_s;
        sum.merge_s += d.merge_s;
        sum.merge_entries += d.merge_entries;
        sum.store_ops += d.store_ops;
        sum.put_s += d.put_s;
        sum.get_s += d.get_s;
        sum.encode_bytes += d.encode_bytes;
        sum.encode_s += d.encode_s;
        sum.health_merge_s += d.health_merge_s;
        sum.health_entries += d.health_entries;
      });
      sample("hash.local_dedup_s", median(dedup_s));
      sample("hash.gbps", median(gbps));
      sample("core.fpset.leaf_s", median(leaf));
      // Merges run on the interior nodes of the reduction tree; the root's
      // chain is the longest, so report the slowest rank.
      sample("core.fpset.merge_s",
             *std::max_element(merge.begin(), merge.end()));
      const double merge_s_per_entry =
          sum.merge_s / static_cast<double>(sum.merge_entries);
      sample("core.fpset.ns_per_entry", merge_s_per_entry * 1e9);
      sample("core.fpset.archive_s", median(archive));
      sample("core.plan.collective_s", median(plan));
      sample("core.plan.shuffle_s", median(shuffle));
      const auto ops = static_cast<double>(sum.store_ops);
      sample("chunk.put_ns", sum.put_s / ops * 1e9);
      sample("chunk.get_ns", sum.get_s / ops * 1e9);
      sample("ec.encode_gbps",
             static_cast<double>(sum.encode_bytes) / sum.encode_s * 1e-9);
      sample("recover.health_allreduce_s", median(health));

      // Calibration: each cost-model constant against the measured rate of
      // the code it charges for: modelled over measured (see README.md).
      const auto& cluster = comm_.cluster();
      const double modeled_bps =
          hash::hasher_for(hash::HashKind::kSha1).modeled_bytes_per_second();
      const double measured_bps =
          static_cast<double>(sum.bytes) / sum.hash_only_s;
      sample("calib.hash_modeled_bps", modeled_bps);
      sample("calib.hash_measured_bps", measured_bps);
      sample("calib.hash_ratio", modeled_bps / measured_bps);
      sample("calib.merge_modeled_s", cluster.merge_entry_cost_s);
      sample("calib.merge_measured_s", merge_s_per_entry);
      sample("calib.merge_ratio",
             cluster.merge_entry_cost_s / merge_s_per_entry);
      const double health_per_entry =
          sum.health_merge_s / static_cast<double>(sum.health_entries);
      sample("calib.health_merge_measured_s", health_per_entry);
      sample("calib.health_merge_ratio",
             cluster.merge_entry_cost_s / health_per_entry);
      const double overhead_per_chunk =
          (sum.local_dedup_s - sum.hash_only_s) /
          static_cast<double>(sum.chunks);
      sample("calib.chunk_overhead_modeled_s", cluster.chunk_overhead_s);
      sample("calib.chunk_overhead_measured_s", overhead_per_chunk);
      sample("calib.chunk_overhead_ratio",
             cluster.chunk_overhead_s / overhead_per_chunk);
    });
  }

  simmpi::Comm& comm_;
  Shared& sh_;
  const WorkloadSpec& spec_;
  std::optional<Image> image_;
  chunk::Dataset snap_;
  std::uint64_t epoch_ = 0;
  std::uint64_t ec_epoch_ = 0;
  int op_ = 0;
  // Stores by dense rank of the current group: replication, erasure-coded.
  std::vector<chunk::ChunkStore*> dense_;
  std::vector<chunk::ChunkStore*> dense_ec_;
  core::DumpStats last_dump_;
};

}  // namespace

WorkloadSpec workload_spec(const std::string& name, bool smoke) {
  WorkloadSpec s;
  s.name = name;
  if (name == "hpccg_dedup") {
    s.nranks = smoke ? 16 : 128;
    s.chunk_bytes = 512;
    s.hpccg_edge = smoke ? 6 : 12;
    s.cg_iters = 2;
    s.round = {Step::kDump,   Step::kDump,     Step::kDump,
               Step::kDump,   Step::kEcDump,   Step::kFailover,
               Step::kRestore, Step::kRestore};
  } else if (name == "unique_skewed") {
    s.synthetic = true;
    s.nranks = smoke ? 12 : 96;
    s.chunk_bytes = 4096;
    s.synth_chunks = smoke ? 32 : 384;
    // Restores are short here (each rank's chunks are mostly its own), so
    // four per round give the median enough samples.
    s.round = {Step::kDump,    Step::kEcDump,  Step::kDump,
               Step::kEcDump,  Step::kFailover, Step::kRestore,
               Step::kRestore, Step::kRestore,  Step::kRestore};
  } else if (name == "restart") {
    s.nranks = smoke ? 16 : 128;
    s.chunk_bytes = 512;
    s.hpccg_edge = smoke ? 6 : 12;
    s.round = {Step::kEcDump, Step::kFailover, Step::kRestore, Step::kRestore,
               Step::kRestore};
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  s.rounds_per_world = smoke ? 1 : 4;
  return s;
}

namespace {

WorldResult run_world_once(const WorldConfig& config) {
  const double t_start = host_now();
  Shared sh(config);
  sh.t_start = t_start;
  simmpi::RuntimeOptions opts;
  opts.contain_failures = true;
  // The profile world's dump is a healthy one: no kill is armed for it.
  opts.faults = config.mode == WorldMode::kProfile ? nullptr : &sh.schedule;
  std::unique_ptr<obs::Telemetry> telemetry;
  if (sh.traced) {
    opts.faults = &sh.phase_hook;
    opts.checker = &sh.coll_hook;
  }
  if (config.mode == WorldMode::kProfile) {
    telemetry = std::make_unique<obs::Telemetry>();
    opts.telemetry = telemetry.get();
  }
  try {
    simmpi::Runtime runtime(config.spec->nranks, opts);
    runtime.run([&sh](simmpi::Comm& comm) { RankLoop(comm, sh).run(); });
  } catch (const std::exception& e) {
    ++sh.out.attempted;
    ++sh.out.failed;
    sh.out.errors.push_back(std::string("world aborted: ") + e.what());
  }
  if (sh.traced) sh.out.spans_json = sh.tracer.spans_json();
  if (telemetry) {
    const obs::Profile profile = obs::build_profile(
        obs::collect_events(*telemetry), telemetry->dropped_events());
    if (profile.dumps.empty() || profile.dropped_events != 0) {
      ++sh.out.failed;
      sh.out.errors.push_back("sim critical-path profile is incomplete");
    } else {
      for (const obs::PhaseProfile& p : profile.dumps.back().phases) {
        sh.out.samples["dump." + p.phase + "_critical_sim_s"].push_back(
            static_cast<double>(p.critical_ns) * 1e-9);
      }
    }
    sh.out.profile_json = obs::profile_json(profile);
  }
  return std::move(sh.out);
}

}  // namespace

WorldResult run_world(const WorldConfig& config) {
  WorldResult out = run_world_once(config);
  // Hand the world's freed heap back to the OS, so peak_rss_mb reads one
  // world's footprint rather than what earlier worlds left in the
  // allocator's per-thread arenas.
  malloc_trim(0);
  return out;
}

}  // namespace perfbench
