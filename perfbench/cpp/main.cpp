// perfbench: the dual-clock checkpoint benchmark.
//
//   perfbench --workload <hpccg_dedup|unique_skewed|restart> --seed <n>
//             --seconds <s> --trace <0|1> [--smoke] [--out-dir <dir>]
//             [--commit <sha>]
//
// --trace 0 runs the closed loop untraced for --seconds and reports the
// end-to-end metrics; --trace 1 alternates untraced worlds (the overhead
// baseline) with traced ones, adds a set-up-only world with the in-process
// sim critical-path profiler, and reports the per-layer metrics.  Either
// way the last stdout line is one JSON object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// and a full record (host fingerprint, sample counts, tail percentiles,
// errors; in trace mode also the host spans and the sim profile) is written
// under --out-dir.  The exit code is 0 only when every check passed.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "hooks.hpp"
#include "report.hpp"
#include "world.hpp"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The contract with BENCHMARK.json: every name here is printed on every
// run of the matching mode.
constexpr MetricDef kEndToEnd[] = {
    {"dump_wall_s", "s"},
    {"dump_sim_s", "sim_s"},
    {"ec_dump_wall_s", "s"},
    {"ec_dump_sim_s", "sim_s"},
    {"recover_wall_s", "s"},
    {"recover_sim_s", "sim_s"},
    {"restore_wall_s", "s"},
    {"restore_sim_s", "sim_s"},
    {"sent_bytes_per_byte", "B/B"},
    {"stored_bytes_per_byte", "B/B"},
    {"ec_stored_bytes_per_byte", "B/B"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"cpu_s", "s"},
};

// Per-layer metrics from the fixed first rounds of the first untraced world
// (sim clock and byte counts: deterministic for a seed).
constexpr MetricDef kFixedLayers[] = {
    {"sim.hash_s", "sim_s"},
    {"sim.reduction_s", "sim_s"},
    {"sim.planning_s", "sim_s"},
    {"sim.exchange_s", "sim_s"},
    {"sim.storage_s", "sim_s"},
    {"core.discarded_frac", "ratio"},
    {"core.gview_entries", "count"},
    {"recover.dedup_satisfied_frac", "ratio"},
    {"recover.agreement_sim_s", "sim_s"},
    {"restore.remote_chunk_frac", "ratio"},
};

// Per-layer metrics sampled in the traced world (and the profile world).
constexpr MetricDef kTracedLayers[] = {
    {"dump.hash_wall_s", "s"},
    {"dump.reduction_wall_s", "s"},
    {"dump.planning_wall_s", "s"},
    {"dump.exchange_wall_s", "s"},
    {"dump.storage_wall_s", "s"},
    {"dump.hash_self_s", "s"},
    {"dump.reduction_self_s", "s"},
    {"dump.planning_self_s", "s"},
    {"dump.exchange_self_s", "s"},
    {"dump.storage_self_s", "s"},
    {"dump.hash_critical_sim_s", "sim_s"},
    {"dump.reduction_critical_sim_s", "sim_s"},
    {"dump.planning_critical_sim_s", "sim_s"},
    {"dump.exchange_critical_sim_s", "sim_s"},
    {"dump.storage_critical_sim_s", "sim_s"},
    {"dump.rank_skew", "ratio"},
    {"dump.uncovered_frac", "ratio"},
    {"simmpi.barrier_s", "s"},
    {"simmpi.barrier_max_s", "s"},
    {"simmpi.reduce_s", "s"},
    {"simmpi.reduce_max_s", "s"},
    {"simmpi.bcast_s", "s"},
    {"simmpi.bcast_max_s", "s"},
    {"simmpi.allgather_s", "s"},
    {"simmpi.allgather_max_s", "s"},
    {"simmpi.allreduce_s", "s"},
    {"simmpi.allreduce_max_s", "s"},
    {"simmpi.win_fence_s", "s"},
    {"simmpi.win_fence_max_s", "s"},
    {"simmpi.sends_per_op", "count"},
    {"simmpi.send_bytes_per_op", "B"},
    {"ftrt.snapshot_s", "s"},
    {"hash.local_dedup_s", "s"},
    {"hash.gbps", "GB/s"},
    {"core.fpset.leaf_s", "s"},
    {"core.fpset.merge_s", "s"},
    {"core.fpset.ns_per_entry", "ns"},
    {"core.fpset.archive_s", "s"},
    {"core.plan.collective_s", "s"},
    {"core.plan.shuffle_s", "s"},
    {"chunk.put_ns", "ns"},
    {"chunk.get_ns", "ns"},
    {"core.restore.rank_s", "s"},
    {"core.restore.rank_max_s", "s"},
    {"recover.health_allreduce_s", "s"},
    {"recover.world_s", "s"},
    {"ec.dump_rank_s", "s"},
    {"ec.encode_gbps", "GB/s"},
    {"calib.hash_ratio", "ratio"},
    {"calib.hash_modeled_bps", "B/s"},
    {"calib.hash_measured_bps", "B/s"},
    {"calib.merge_ratio", "ratio"},
    {"calib.merge_modeled_s", "s"},
    {"calib.merge_measured_s", "s"},
    {"calib.health_merge_ratio", "ratio"},
    {"calib.health_merge_measured_s", "s"},
    {"calib.chunk_overhead_ratio", "ratio"},
    {"calib.chunk_overhead_modeled_s", "s"},
    {"calib.chunk_overhead_measured_s", "s"},
};

// Per-layer metrics over the untraced rounds of a traced run: process
// counters per timed operation (or per round), and the tracing overhead.
constexpr MetricDef kRunLayers[] = {
    {"proc.vcsw_per_op", "count"},
    {"proc.ivcsw_per_op", "count"},
    {"proc.minflt_per_op", "count"},
    {"proc.sys_s", "s"},
    {"trace.overhead_frac", "ratio"},
};

// Minimum set-up samples per untraced run (setup_s is their median).
constexpr int kSetupSamples = 3;
// Rounds the first world of each kind always runs.  The sim-clock and
// byte-ratio metrics are means over them: they are exact for a seed, and a
// mean over four kill victims moves less from seed to seed than a median.
constexpr int kFixedRounds = 4;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string out_dir = ".bench_build/perfbench-out";
  std::string commit;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke] [--out-dir <dir>] "
               "[--commit <sha>]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        o.workload = value();
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
      } else if (a == "--trace") {
        o.trace = std::stoi(value()) != 0;
      } else if (a == "--smoke") {
        o.smoke = true;
      } else if (a == "--out-dir") {
        o.out_dir = value();
      } else if (a == "--commit") {
        o.commit = value();
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

std::vector<double> pooled(const std::vector<WorldResult>& worlds,
                           const std::string& name) {
  std::vector<double> out;
  for (const auto& w : worlds) {
    const auto it = w.samples.find(name);
    if (it != w.samples.end()) {
      out.insert(out.end(), it->second.begin(), it->second.end());
    }
  }
  return out;
}

// Runs worlds of `mode` until `deadline`: a new world starts only while
// its set-up and first round still fit before the deadline.
void run_until(std::vector<WorldResult>& into, const WorkloadSpec& spec,
               std::uint64_t seed, WorldMode mode, double deadline) {
  do {
    const double t0 = host_now();
    const int min_rounds =
        into.empty() ? std::min(kFixedRounds, spec.rounds_per_world) : 1;
    into.push_back(
        run_world(WorldConfig{&spec, seed, mode, deadline, min_rounds}));
    const WorldResult& w = into.back();
    const double first_round =
        (host_now() - t0 - w.setup_s) / std::max(1, w.rounds);
    if (host_now() + w.setup_s + first_round > deadline) break;
  } while (true);
}

class Report {
 public:
  Report(const Options& opt, const WorkloadSpec& spec)
      : opt_(opt), spec_(spec) {}

  void fail(const std::string& why) { errors_.push_back(why); }
  void add_worlds(const std::vector<WorldResult>& worlds) {
    for (const auto& w : worlds) {
      attempted_ += w.attempted;
      failed_ += w.failed;
      for (const auto& e : w.errors) errors_.push_back(e);
    }
  }
  void set(const MetricDef& def, Metric m) {
    m.unit = def.unit;
    metrics_[def.name] = std::move(m);
  }
  void from_samples_or_fail(const MetricDef& def,
                            const std::vector<double>& samples) {
    if (samples.empty()) {
      fail(std::string("no samples for ") + def.name);
      return;
    }
    set(def, from_samples(samples, def.unit));
  }
  void mean_or_fail(const MetricDef& def, const std::vector<double>& samples) {
    if (samples.empty()) {
      fail(std::string("no samples for ") + def.name);
      return;
    }
    double sum = 0.0;
    for (const double v : samples) sum += v;
    set(def, Metric{sum / static_cast<double>(samples.size()), "",
                    samples.size(), 0, 0});
  }

  // Every contract metric must be present; end-to-end ones must not be 0.
  void require(std::span<const MetricDef> defs, bool nonzero) {
    for (const auto& d : defs) {
      const auto it = metrics_.find(d.name);
      if (it == metrics_.end()) {
        fail(std::string("missing metric ") + d.name);
      } else if (nonzero && !(it->second.value > 0.0)) {
        fail(std::string("metric ") + d.name + " is not positive");
      }
    }
  }

  [[nodiscard]] bool correct() const { return failed_ == 0 && errors_.empty(); }

  void print(const HostInfo& host, const std::string& extra_json) const {
    std::printf(
        "perfbench workload=%s seed=%llu seconds=%g trace=%d ranks=%d%s\n",
        spec_.name.c_str(), static_cast<unsigned long long>(opt_.seed),
                opt_.seconds, opt_.trace ? 1 : 0, spec_.nranks,
                opt_.smoke ? " smoke" : "");
    std::printf(
        "host cpu=\"%s\" nproc=%u build=%s commit=%s kernels: gf=%s "
        "crc32c=%s sha1=%s hmerge=%s\n",
        host.cpu_model.c_str(), host.nproc, host.build_type.c_str(),
        host.commit.c_str(), host.gf_kernel.c_str(), host.crc32c_kernel.c_str(),
        host.sha1_kernel.c_str(), host.hmerge_kernel.c_str());
    for (const auto& [name, m] : metrics_) {
      std::printf("  %-34s %16.9g %-6s", name.c_str(), m.value, m.unit.c_str());
      if (m.samples > 0) std::printf("  n=%zu", m.samples);
      if (m.tail_p > 0.0) {
        std::printf("  p%g=%.9g", m.tail_p * 100.0, m.tail_value);
      }
      std::printf("\n");
    }
    std::printf("  %-34s %16.9g %-6s  (%d of %d operations)\n",
                "failed_ops_frac",
                attempted_ > 0 ? static_cast<double>(failed_) / attempted_
                               : 0.0,
                "ratio", failed_, attempted_);
    for (const auto& e : errors_) std::printf("ERROR: %s\n", e.c_str());
    write_record(host, extra_json);
    // A run-level error (a determinism mismatch, a missing metric) with no
    // failed operation behind it still reports one failure.
    const int failed = failed_ > 0 || errors_.empty() ? failed_ : 1;
    std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
                "\"metrics\": %s}\n",
                correct() ? "true" : "false", std::max(attempted_, failed),
                failed, metrics_json(metrics_).c_str());
    std::fflush(stdout);
  }

  [[nodiscard]] std::string file_stem() const {
    return opt_.out_dir + "/" + spec_.name + "-seed" +
           std::to_string(opt_.seed) + "-trace" + (opt_.trace ? "1" : "0");
  }

 private:
  void write_record(const HostInfo& host, const std::string& extra_json) const {
    std::string j = "{\n  \"workload\": " + json_string(spec_.name) +
                    ",\n  \"seed\": " + std::to_string(opt_.seed) +
                    ",\n  \"seconds\": " + json_number(opt_.seconds) +
                    ",\n  \"trace\": " + (opt_.trace ? "1" : "0") +
                    ",\n  \"ranks\": " + std::to_string(spec_.nranks) +
                    ",\n  \"host\": {\"cpu_model\": " +
                    json_string(host.cpu_model) +
                    ", \"nproc\": " + std::to_string(host.nproc) +
                    ", \"build_type\": " + json_string(host.build_type) +
                    ", \"commit\": " + json_string(host.commit) +
                    ", \"kernels\": {\"gf\": " + json_string(host.gf_kernel) +
                    ", \"crc32c\": " + json_string(host.crc32c_kernel) +
                    ", \"sha1\": " + json_string(host.sha1_kernel) +
                    ", \"hmerge\": " + json_string(host.hmerge_kernel) + "}}" +
                    ",\n  \"attempted\": " + std::to_string(attempted_) +
                    ",\n  \"failed\": " + std::to_string(failed_) +
                    ",\n  \"errors\": [";
    for (std::size_t i = 0; i < errors_.size(); ++i) {
      j += (i ? ", " : "") + json_string(errors_[i]);
    }
    j += "],\n  \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : metrics_) {
      j += std::string(first ? "\n" : ",\n") + "    " + json_string(name) +
           ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) +
           ", \"samples\": " + std::to_string(m.samples);
      if (m.tail_p > 0.0) {
        j += ", \"tail_p\": " + json_number(m.tail_p) +
             ", \"tail_value\": " + json_number(m.tail_value);
      }
      j += "}";
      first = false;
    }
    j += "\n  }" + extra_json + "\n}\n";
    write_file(file_stem() + ".json", j);
  }

 public:
  static void write_file(const std::string& path, const std::string& body) {
    std::ofstream f(path);
    if (!f) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return;
    }
    f << body;
  }

 private:
  const Options& opt_;
  const WorkloadSpec& spec_;
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> errors_;
  int attempted_ = 0;
  int failed_ = 0;
};

// Sim-clock and byte-count outputs are deterministic for a seed: every
// world's warm-up dump, and the fixed first rounds of the traced and
// untraced worlds, must agree bit for bit.  A difference is an error, not
// noise.
void check_determinism(Report& report, const std::vector<WorldResult>& worlds,
                       const WorldResult* traced, const WorldResult& base) {
  for (const auto& w : worlds) {
    if (!(w.warmup == base.warmup)) {
      report.fail("warm-up dump differs between worlds of one seed (sim " +
                  json_number(w.warmup.sim_s) + " vs " +
                  json_number(base.warmup.sim_s) + ")");
      break;
    }
  }
  if (traced == nullptr) return;
  for (const auto& [name, values] : base.fixed) {
    const auto it = traced->fixed.find(name);
    if (it != traced->fixed.end() && it->second != values) {
      report.fail("sim-clock output " + name +
                  " differs between the traced and untraced runs");
    }
  }
}

int run(const Options& opt) {
  const WorkloadSpec spec = workload_spec(opt.workload, opt.smoke);
  const HostInfo host = probe_host(opt.commit);
  std::filesystem::create_directories(opt.out_dir);
  Report report(opt, spec);

  std::vector<WorldResult> measured;
  std::vector<WorldResult> traced;
  std::vector<WorldResult> others;  // set-up-only and profile worlds
  // A first world that only sets up: the process's first rank threads
  // create the allocator's arenas, and a world that does so measures
  // slower by a factor that varies from run to run.  Its checks count, but
  // it is no setup_s sample.
  const std::vector<WorldResult> cold = {run_world(
      WorldConfig{&spec, opt.seed, WorldMode::kSetupOnly, 0.0, 0})};
  const double start = host_now();
  if (!opt.trace) {
    run_until(measured, spec, opt.seed, WorldMode::kMeasure,
              start + opt.seconds);
    while (measured.size() + others.size() < kSetupSamples) {
      others.push_back(run_world(
          WorldConfig{&spec, opt.seed, WorldMode::kSetupOnly, 0.0, 0}));
    }
  } else {
    // Untraced and traced slices alternate, so drift in the host's speed
    // over the run lands on both sides of trace.overhead_frac alike.
    for (int slice = 0; slice < 4; ++slice) {
      run_until(slice % 2 == 0 ? measured : traced, spec, opt.seed,
                slice % 2 == 0 ? WorldMode::kMeasure : WorldMode::kTraced,
                start + opt.seconds * (slice + 1) / 4);
    }
    others.push_back(
        run_world(WorldConfig{&spec, opt.seed, WorldMode::kProfile, 0.0, 0}));
  }
  report.add_worlds(cold);
  report.add_worlds(measured);
  report.add_worlds(traced);
  report.add_worlds(others);
  std::vector<WorldResult> all = measured;
  all.insert(all.end(), traced.begin(), traced.end());
  all.insert(all.end(), others.begin(), others.end());
  const WorldResult& base = measured.front();
  check_determinism(report, all, opt.trace ? &traced.front() : nullptr, base);
  check_determinism(report, cold, nullptr, base);

  const auto fixed = [&](const char* name) {
    const auto it = base.fixed.find(name);
    return it == base.fixed.end() ? std::vector<double>{} : it->second;
  };
  ProcCounters counters;
  int rounds = 0;
  int ops = 0;
  for (const auto& w : measured) {
    counters += w.op_counters;
    rounds += w.rounds;
    ops += static_cast<int>(w.ops.size());
  }

  // Every timed operation, so each median above can be recomputed.
  std::string extra = ",\n  \"ops\": [";
  for (std::size_t i = 0; i < measured.size(); ++i) {
    for (const OpSample& op : measured[i].ops) {
      extra += std::string(extra.back() == '[' ? "\n" : ",\n") +
               "    {\"world\": " + std::to_string(i) +
               ", \"round\": " + std::to_string(op.round) +
               ", \"op\": " + json_string(to_string(op.kind)) +
               ", \"wall_s\": " + json_number(op.wall_s) +
               ", \"sim_s\": " + json_number(op.sim_s) + "}";
    }
  }
  // Process counters over the timed operations of those rounds.
  extra += "\n  ],\n  \"rounds\": {\"count\": " + std::to_string(rounds) +
           ", \"timed_ops\": " + std::to_string(ops) +
           ", \"user_s\": " + json_number(counters.user_s) +
           ", \"sys_s\": " + json_number(counters.sys_s) +
           ", \"vcsw\": " + json_number(counters.vcsw) +
           ", \"ivcsw\": " + json_number(counters.ivcsw) +
           ", \"minflt\": " + json_number(counters.minflt) +
           ", \"host_steal_s\": " + json_number(counters.steal_s) + "}";
  if (!opt.trace) {
    for (const auto& d : kEndToEnd) {
      const std::string name = d.name;
      if (name == "setup_s") {
        std::vector<double> setups;
        for (const auto& w : all) setups.push_back(w.setup_s);
        report.from_samples_or_fail(d, setups);
      } else if (name == "peak_rss_mb") {
        report.set(d, Metric{ProcCounters::now().maxrss_mb, d.unit, 0, 0, 0});
      } else if (name == "cpu_s") {
        report.set(d, Metric{(counters.user_s + counters.sys_s) / rounds,
                             d.unit, static_cast<std::size_t>(rounds), 0, 0});
      } else if (name.find("_wall_s") != std::string::npos) {
        report.from_samples_or_fail(d, pooled(measured, name));
      } else {
        report.mean_or_fail(d, fixed(d.name));
      }
    }
    report.require(kEndToEnd, true);
  } else {
    for (const auto& d : kFixedLayers) {
      report.mean_or_fail(d, fixed(d.name));
    }
    for (const auto& d : kTracedLayers) {
      auto samples = pooled(traced, d.name);
      if (samples.empty()) samples = pooled(others, d.name);
      report.from_samples_or_fail(d, samples);
    }
    const double n_ops = std::max(1, ops);
    const auto untraced = pooled(measured, "dump_wall_s");
    const auto with_trace = pooled(traced, "dump_wall_s");
    const std::map<std::string, double> run_values = {
        {"proc.vcsw_per_op", counters.vcsw / n_ops},
        {"proc.ivcsw_per_op", counters.ivcsw / n_ops},
        {"proc.minflt_per_op", counters.minflt / n_ops},
        {"proc.sys_s", counters.sys_s / std::max(1, rounds)},
        {"trace.overhead_frac",
         untraced.empty() || with_trace.empty()
             ? 0.0
             : median(with_trace) / median(untraced) - 1.0},
    };
    for (const auto& d : kRunLayers) {
      report.set(d, Metric{run_values.at(d.name), "", 0, 0, 0});
    }
    // The host spans and the sim critical path, side by side.
    std::string spans;
    for (const auto& w : traced) spans += w.spans_json;
    Report::write_file(report.file_stem() + "-spans.jsonl", spans);
    for (const auto& w : others) {
      if (!w.profile_json.empty()) {
        Report::write_file(report.file_stem() + "-sim-profile.json",
                           w.profile_json);
      }
    }
    extra += ",\n  \"artifacts\": {\"host_spans\": " +
            json_string(report.file_stem() + "-spans.jsonl") +
            ", \"sim_profile\": " +
            json_string(report.file_stem() + "-sim-profile.json") + "}";
  }
  report.print(host, extra);
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options opt = perfbench::parse(argc, argv);
  try {
    return perfbench::run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
