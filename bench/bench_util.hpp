// Shared infrastructure for the paper-reproduction benches.
//
// Every bench runs the *real* pipeline (real mini-app memory images, real
// fingerprinting, real collective reduction and window exchange) at
// laptop-scaled per-rank sizes, with byte-accounting stores and
// metadata-only exchange so 408-rank configurations fit in RAM.  Reported
// times are deterministic simulated seconds from the simtime cost model
// (see DESIGN.md §1).
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/hpccg.hpp"
#include "apps/minicm.hpp"
#include "core/collrep.hpp"
#include "ftrt/checkpoint.hpp"
#include "kernels/kernels.hpp"
#include "obs/profile.hpp"
#include "obs/telemetry.hpp"

namespace collrep::bench {

// -- telemetry ----------------------------------------------------------------
//
// Every fig/ablation binary accepts
//   --trace=<file>     Chrome trace-event JSON (load in Perfetto)
//   --metrics=<file>   MetricsRegistry JSON (counters/gauges/histograms)
//   --profile=<file>   collprof critical-path profile JSON (built in-process
//                      from the same events; see src/obs/profile.hpp).  The
//                      flag also raises the per-rank trace-ring capacity so
//                      the happens-before DAG stays complete.
// Telemetry stays off (null pointer, zero recording cost) unless at least
// one flag is present.  Construct one TelemetryScope at the top of main();
// the files are written when it leaves scope.

inline std::unique_ptr<obs::Telemetry>& telemetry_slot() {
  static std::unique_ptr<obs::Telemetry> slot;
  return slot;
}

// nullptr when telemetry is disabled.
inline obs::Telemetry* telemetry() { return telemetry_slot().get(); }

// The options every bench Runtime starts from: the default (Shamrock-like)
// cluster model with the bench's telemetry attached.
inline simmpi::RuntimeOptions runtime_options() {
  simmpi::RuntimeOptions opts;
  opts.telemetry = telemetry();
  return opts;
}

class TelemetryScope {
 public:
  TelemetryScope(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strncmp(arg, "--trace=", 8) == 0) {
        trace_path_ = arg + 8;
      } else if (std::strncmp(arg, "--metrics=", 10) == 0) {
        metrics_path_ = arg + 10;
      } else if (std::strncmp(arg, "--profile=", 10) == 0) {
        profile_path_ = arg + 10;
      }
    }
    if (!trace_path_.empty() || !metrics_path_.empty() ||
        !profile_path_.empty()) {
      obs::TelemetryConfig cfg;
      if (!profile_path_.empty()) {
        // Profiling needs every event of every dump: 8x the default ring.
        cfg.trace_capacity = std::size_t{1} << 17;
      }
      telemetry_slot() = std::make_unique<obs::Telemetry>(cfg);
    }
  }

  TelemetryScope(const TelemetryScope&) = delete;
  TelemetryScope& operator=(const TelemetryScope&) = delete;

  ~TelemetryScope() {
    obs::Telemetry* t = telemetry();
    if (t != nullptr) {
      if (!metrics_path_.empty()) {
        t->publish_rollup();
        write_file(metrics_path_, t->metrics().to_json());
      }
      if (!trace_path_.empty()) write_file(trace_path_, t->trace_json());
      if (!profile_path_.empty()) {
        const obs::Profile profile =
            obs::build_profile(obs::collect_events(*t), t->dropped_events());
        if (profile.dropped_events != 0) {
          std::fprintf(stderr,
                       "telemetry: warning: %llu trace events dropped; the "
                       "profile's happens-before DAG is incomplete\n",
                       static_cast<unsigned long long>(
                           profile.dropped_events));
        }
        write_file(profile_path_, obs::profile_json(profile));
      }
    }
    telemetry_slot().reset();
  }

 private:
  static void write_file(const std::string& path, const std::string& body) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "telemetry: cannot open %s for writing\n",
                   path.c_str());
      return;
    }
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
    std::fprintf(stderr, "telemetry: wrote %s (%zu bytes)\n", path.c_str(),
                 body.size());
  }

  std::string trace_path_;
  std::string metrics_path_;
  std::string profile_path_;
};

enum class App { kHpccg, kCm1 };

inline const char* app_name(App app) {
  return app == App::kHpccg ? "HPCCG" : "CM1";
}

struct BenchSpec {
  App app = App::kHpccg;
  int nranks = 408;
  int k = 3;
  core::Strategy strategy = core::Strategy::kCollDedup;
  bool rank_shuffle = true;
  std::uint32_t threshold_f = 1u << 17;
  // Scaled with the sub-problem: the paper chunks 1.5 GB/rank images into
  // 4 KB pages (page ~ 0.13x of an interior stencil run at 150^3); at the
  // laptop-scale 12^3 sub-blocks the same ratio gives ~512 B chunks.
  std::size_t chunk_bytes = 512;

  // Laptop-scale sub-problem sizes (paper: HPCCG 150^3 ~ 1.5 GB/rank,
  // CM1 200x200 ~ 800 MB/rank).
  int hpccg_n = 12;
  int cm_nx = 24;
  int cm_ny = 24;
  int cm_nz = 8;

  // Application schedule.  HPCCG (paper): 127 iterations, checkpoint at
  // 100.  CM1 (paper): 70 steps, checkpoint every 30.
  int iterations = 127;
  int checkpoint_at = 100;     // HPCCG-style single checkpoint
  int checkpoint_every = 0;    // CM1-style periodic (overrides _at if > 0)
};

struct BenchResult {
  double completion_s = 0.0;       // simulated app time incl. checkpoints
  double baseline_s = 0.0;         // same run minus all checkpoint time
  double checkpoint_s = 0.0;       // total DUMP_OUTPUT time
  sim::PhaseBreakdown phases;      // max-over-ranks, summed over checkpoints
  core::GlobalDumpStats global;    // from the last checkpoint
  std::uint64_t per_rank_bytes = 0;
  int checkpoints = 0;
};

// Scales the default rank counts down when COLLREP_QUICK is set, so the
// whole bench suite can be smoke-run in seconds.
inline bool quick_mode() {
  const char* env = std::getenv("COLLREP_QUICK");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

inline int scaled_ranks(int n) {
  if (!quick_mode()) return n;
  return std::max(4, n / 16);
}

inline BenchResult run_app_bench(const BenchSpec& spec) {
  BenchResult result;
  std::vector<chunk::ChunkStore> stores;
  stores.reserve(static_cast<std::size_t>(spec.nranks));
  for (int r = 0; r < spec.nranks; ++r) {
    stores.emplace_back(chunk::StoreMode::kAccounting);
  }

  simmpi::Runtime rt(spec.nranks, runtime_options());
  rt.run([&](simmpi::Comm& comm) {
    ftrt::TrackedArena arena(spec.chunk_bytes);

    core::DumpConfig dump_cfg;
    dump_cfg.strategy = spec.strategy;
    dump_cfg.chunk_bytes = spec.chunk_bytes;
    dump_cfg.threshold_f = spec.threshold_f;
    dump_cfg.rank_shuffle = spec.rank_shuffle;
    dump_cfg.payload_exchange = false;  // accounting-scale runs

    ftrt::CheckpointConfig ckpt_cfg;
    ckpt_cfg.dump = dump_cfg;
    ckpt_cfg.replication_factor = spec.k;

    ftrt::CheckpointRuntime ckpt(
        comm, stores[static_cast<std::size_t>(comm.rank())], arena, ckpt_cfg);

    std::optional<apps::HpccgSolver> hpccg;
    std::optional<apps::MiniCmModel> cm;
    if (spec.app == App::kHpccg) {
      apps::HpccgConfig cfg;
      cfg.nx = cfg.ny = cfg.nz = spec.hpccg_n;
      hpccg.emplace(comm, arena, cfg);
    } else {
      apps::MiniCmConfig cfg;
      cfg.nx = spec.cm_nx;
      cfg.ny = spec.cm_ny;
      cfg.nz = spec.cm_nz;
      cm.emplace(comm, arena, cfg);
    }

    double ckpt_time = 0.0;
    sim::PhaseBreakdown phases;
    core::DumpStats last{};
    int taken = 0;
    for (int iter = 1; iter <= spec.iterations; ++iter) {
      if (hpccg) {
        (void)hpccg->iterate(1);
      } else {
        (void)cm->step(1);
      }
      const bool fire = spec.checkpoint_every > 0
                            ? iter % spec.checkpoint_every == 0
                            : iter == spec.checkpoint_at;
      if (fire) {
        last = ckpt.checkpoint_now();
        ckpt_time += last.total_time_s;
        phases += last.phases;
        ++taken;
      }
    }
    comm.barrier();

    if (comm.rank() == 0) {
      result.completion_s = comm.clock().now();
      result.baseline_s = comm.clock().now() - ckpt_time;
      result.checkpoint_s = ckpt_time;
      result.phases = phases;
      result.per_rank_bytes = last.dataset_bytes;
      result.checkpoints = taken;
    }
    const auto g = core::Dumper::collect(comm, last);
    if (comm.rank() == 0) result.global = g;
  });
  return result;
}

// Canonical spec for each application at a given rank count.
inline BenchSpec hpccg_spec(int nranks) {
  BenchSpec spec;
  spec.app = App::kHpccg;
  spec.nranks = nranks;
  spec.iterations = 127;
  spec.checkpoint_at = 100;
  spec.checkpoint_every = 0;
  return spec;
}

inline BenchSpec cm1_spec(int nranks) {
  BenchSpec spec;
  spec.app = App::kCm1;
  spec.nranks = nranks;
  spec.iterations = 70;
  spec.checkpoint_at = 0;
  spec.checkpoint_every = 30;
  return spec;
}

// -- formatting ----------------------------------------------------------------

inline std::string human_bytes(double bytes) {
  char buf[64];
  if (bytes >= 1e9) {
    std::snprintf(buf, sizeof buf, "%.2f GB", bytes / 1e9);
  } else if (bytes >= 1e6) {
    std::snprintf(buf, sizeof buf, "%.2f MB", bytes / 1e6);
  } else if (bytes >= 1e3) {
    std::snprintf(buf, sizeof buf, "%.2f KB", bytes / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.0f B", bytes);
  }
  return buf;
}

inline void print_header(const char* title, const char* paper_ref) {
  // The dispatched kernel variants depend on the host CPU, so they go to
  // stderr (scripts/bench_e2e.sh records them) and stdout stays the same on
  // every host.
  const auto& k = kernels::dispatch();
  std::fprintf(stderr,
               "kernels: gf=%s crc32c=%s sha1=%s sha1_lanes=%s hmerge=%s\n",
               k.gf_name, k.crc32c_name, k.sha1_name, k.sha1_lanes_name,
               k.hmerge_name);
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("Reproduces: %s\n", paper_ref);
  if (quick_mode()) std::printf("(COLLREP_QUICK: rank counts reduced)\n");
  std::printf("================================================================\n");
}

}  // namespace collrep::bench
