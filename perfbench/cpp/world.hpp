// Workloads and the closed loop that drives them.
//
// A *world* is one simmpi run: it builds the application image on every
// rank, takes a warm-up dump (the end of set-up), then runs *rounds* back to
// back, as an application's main loop would.  A round is a fixed list of
// steps — healthy dumps, erasure-coded dumps, a failover (one seeded rank
// killed mid-dump, recover_world on every survivor, the dump redone) and
// restores — so every end-to-end operation is exercised on every workload,
// in the proportions the workload stands for.  Each timed step runs from a
// barrier before the call to a barrier after it; its outputs are verified
// after that barrier, outside the timed region.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "hooks.hpp"
#include "report.hpp"

namespace perfbench {

enum class Step : std::uint8_t { kDump, kEcDump, kFailover, kRestore };

struct WorkloadSpec {
  std::string name;
  bool synthetic = false;  // apps::synth_dataset image; else HPCCG
  int nranks = 0;
  std::size_t chunk_bytes = 512;
  std::vector<Step> round;
  int cg_iters = 0;     // HPCCG iterations before each healthy dump
  int hpccg_edge = 12;   // HPCCG sub-block volume is edge^3
  std::size_t synth_chunks = 0;  // baseline chunks per synthetic rank
  // Bounds how far kills shrink a world; also spreads a run over several
  // worlds, so one world's thread placement does not decide the run.
  int rounds_per_world = 4;
};

// Throws std::invalid_argument for an unknown name.  `smoke` scales the
// workload down to a few ranks for the benchmark's own tests.
[[nodiscard]] WorkloadSpec workload_spec(const std::string& name, bool smoke);

enum class WorldMode : std::uint8_t {
  kMeasure,    // untraced rounds: the end-to-end numbers
  kTraced,     // hooks, spans and the decomposition pass attached
  kSetupOnly,  // set-up and warm-up only (more setup_s samples)
  kProfile,    // set-up and one healthy dump, with obs::Telemetry for the
               // sim critical path of that dump
};

struct WorldConfig {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 0;
  WorldMode mode = WorldMode::kMeasure;
  double deadline = 0.0;  // host_now() after which no further round starts
  // Rounds that run whatever the deadline; their sim-clock and byte-count
  // samples (WorldResult::fixed) are deterministic for a seed.
  int min_rounds = 1;
};

struct OpSample {
  OpKind kind = OpKind::kDump;
  int round = 0;
  double wall_s = 0.0;
  double sim_s = 0.0;
};

// Deterministic outputs of the warm-up dump; every world of one seed must
// reproduce them bit for bit, traced or not.
struct WarmupPrint {
  double sim_s = 0.0;
  std::uint64_t sent_bytes = 0;
  std::uint64_t stored_bytes = 0;
  std::uint32_t gview_entries = 0;
  bool operator==(const WarmupPrint&) const = default;
};

struct WorldResult {
  double setup_s = 0.0;
  WarmupPrint warmup;
  std::vector<OpSample> ops;
  // Host-measured samples by metric name, over every round.
  std::map<std::string, std::vector<double>> samples;
  // Sim-clock and byte-count samples of the first WorldConfig::min_rounds
  // rounds: deterministic for a seed, so comparable bit for bit across runs.
  std::map<std::string, std::vector<double>> fixed;
  // Process counters of the timed operations only (each from its opening
  // to its closing barrier, as the leader sees it), summed over the rounds.
  ProcCounters op_counters;
  int rounds = 0;
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> errors;
  std::string spans_json;
  std::string profile_json;
};

[[nodiscard]] WorldResult run_world(const WorldConfig& config);

}  // namespace perfbench
