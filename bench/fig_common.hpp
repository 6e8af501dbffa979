// Matrix runner for the figure benches: build the application state once
// per rank count, then evaluate many (strategy, K, shuffle, F, chunk)
// configurations against that same memory image.  This keeps the 408-rank
// sweeps tractable while every cell still executes the full pipeline.
#pragma once

#include <vector>

#include "bench_util.hpp"

namespace collrep::bench {

struct CellCfg {
  core::Strategy strategy = core::Strategy::kCollDedup;
  int k = 3;
  bool rank_shuffle = true;
  std::uint32_t threshold_f = 1u << 17;
  std::size_t chunk_bytes = 512;  // scaled page size; see bench_util.hpp
  hash::HashKind hash_kind = hash::HashKind::kSha1;
};

struct CellResult {
  CellCfg cfg;
  double dump_s = 0.0;
  sim::PhaseBreakdown max_phases;
  core::GlobalDumpStats global;
  std::uint32_t gview_entries = 0;
};

struct MatrixOut {
  double baseline_s = 0.0;      // simulated app time without checkpoints
  std::uint64_t per_rank_bytes = 0;
  std::vector<CellResult> cells;
};

inline MatrixOut run_matrix(App app, int nranks, int app_iterations,
                            const std::vector<CellCfg>& cfgs) {
  MatrixOut out;
  out.cells.resize(cfgs.size());

  // One accounting store per rank, emptied before each cell: no cell reads
  // its stores after its collect, so each cell starts from empty stores
  // without keeping the earlier cells' alive.
  std::vector<chunk::ChunkStore> stores;
  stores.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    stores.emplace_back(chunk::StoreMode::kAccounting);
  }

  simmpi::RuntimeOptions opts;
  opts.telemetry = telemetry();
  simmpi::Runtime rt(nranks, opts);
  rt.run([&](simmpi::Comm& comm) {
    ftrt::TrackedArena arena(4096);
    std::optional<apps::HpccgSolver> hpccg;
    std::optional<apps::MiniCmModel> cm;
    if (app == App::kHpccg) {
      apps::HpccgConfig cfg;
      cfg.nx = cfg.ny = cfg.nz = 12;
      hpccg.emplace(comm, arena, cfg);
      (void)hpccg->iterate(app_iterations);
    } else {
      apps::MiniCmConfig cfg;
      cfg.nx = cfg.ny = 24;
      cfg.nz = 8;
      cm.emplace(comm, arena, cfg);
      (void)cm->step(app_iterations);
    }
    comm.barrier();
    if (comm.rank() == 0) out.baseline_s = comm.clock().now();

    const auto snapshot = arena.snapshot();
    if (comm.rank() == 0) out.per_rank_bytes = snapshot.total_bytes();

    for (std::size_t c = 0; c < cfgs.size(); ++c) {
      core::DumpConfig dump_cfg;
      dump_cfg.strategy = cfgs[c].strategy;
      dump_cfg.chunk_bytes = cfgs[c].chunk_bytes;
      dump_cfg.threshold_f = cfgs[c].threshold_f;
      dump_cfg.rank_shuffle = cfgs[c].rank_shuffle;
      dump_cfg.hash_kind = cfgs[c].hash_kind;
      dump_cfg.payload_exchange = false;
      chunk::ChunkStore& store = stores[static_cast<std::size_t>(comm.rank())];
      store.clear();
      core::Dumper dumper(comm, store, dump_cfg);
      const auto stats = dumper.dump_output(snapshot, cfgs[c].k);
      const auto g = core::Dumper::collect(comm, stats);
      if (comm.rank() == 0) {
        out.cells[c].cfg = cfgs[c];
        out.cells[c].dump_s = stats.total_time_s;
        out.cells[c].max_phases = g.max_phases;
        out.cells[c].global = g;
        out.cells[c].gview_entries = stats.gview_entries;
      }
    }
  });
  return out;
}

// ---- shared figure printers (HPCCG and CM1 variants of Figs. 3b/3c, 4, 5) ----

inline std::vector<int> sweep_ranks(App app) {
  if (app == App::kHpccg) {
    return {scaled_ranks(16), scaled_ranks(64), scaled_ranks(128),
            scaled_ranks(256), scaled_ranks(408)};
  }
  return {scaled_ranks(12), scaled_ranks(48), scaled_ranks(120),
          scaled_ranks(264), scaled_ranks(408)};
}

// Figs. 3(b)/3(c): overhead of the collective hash value reduction for an
// increasing number of processes, F = 2^17, K in {2, 4, 6}; local-dedup's
// scale-independent hashing is the baseline curve.
inline void print_reduction_overhead(App app, const char* figure) {
  print_header(
      app == App::kHpccg
          ? "Overhead of the collective hash value reduction (HPCCG)"
          : "Overhead of the collective hash value reduction (CM1)",
      figure);
  std::printf(
      "%8s %14s %14s %14s %14s   (simulated seconds; F = 2^17)\n", "procs",
      "local-dedup", "coll K=2", "coll K=4", "coll K=6");

  for (const int n : sweep_ranks(app)) {
    std::vector<CellCfg> cfgs;
    cfgs.push_back({core::Strategy::kLocalDedup, 2});
    for (const int k : {2, 4, 6}) {
      cfgs.push_back({core::Strategy::kCollDedup, k});
    }
    const auto out = run_matrix(app, n, 3, cfgs);
    // Dedup overhead = hashing (+ reduction for coll).
    const auto dedup_time = [](const CellResult& cell) {
      return cell.max_phases.hash_s + cell.max_phases.reduction_s;
    };
    std::printf("%8d %14.4f %14.4f %14.4f %14.4f\n", n,
                dedup_time(out.cells[0]), dedup_time(out.cells[1]),
                dedup_time(out.cells[2]), dedup_time(out.cells[3]));
  }
  std::printf(
      "\nPaper shape: coll-dedup overhead grows with scale but the three K\n"
      "curves stay close together (the reduction absorbs extra replicas\n"
      "cheaply); local-dedup is flat.  HPCCG overheads sit below CM1's.\n");
}

// Figs. 4(a)/5(a): increase in execution time vs replication factor.
inline void print_exec_increase(App app, const char* figure,
                                double paper_baseline_s) {
  const int n = scaled_ranks(408);
  print_header(app == App::kHpccg
                   ? "Increase in execution time vs replication factor (HPCCG)"
                   : "Increase in execution time vs replication factor (CM1)",
               figure);

  std::vector<CellCfg> cfgs;
  for (const int k : {1, 2, 3, 4, 5, 6}) {
    cfgs.push_back({core::Strategy::kNoDedup, k});
    cfgs.push_back({core::Strategy::kLocalDedup, k});
    cfgs.push_back({core::Strategy::kCollDedup, k});
  }
  const auto out = run_matrix(app, n, 8, cfgs);

  std::printf("%4s %16s %16s %16s   (simulated seconds, %d procs)\n", "K",
              "no-dedup", "local-dedup", "coll-dedup", n);
  for (std::size_t i = 0; i < cfgs.size(); i += 3) {
    std::printf("%4d %16.4f %16.4f %16.4f\n", cfgs[i].k, out.cells[i].dump_s,
                out.cells[i + 1].dump_s, out.cells[i + 2].dump_s);
  }
  const double nd1 = out.cells[0].dump_s;
  const double nd6 = out.cells[15].dump_s;
  const double ld6 = out.cells[16].dump_s;
  const double cd6 = out.cells[17].dump_s;
  std::printf(
      "\nMeasured @K=6: no-dedup/coll = %.1fx, local/coll = %.1fx, "
      "no-dedup K6/K1 growth = %.1fx\n",
      nd6 / cd6, ld6 / cd6, nd6 / nd1);
  std::printf(
      "Paper @K=6 (%s, baseline %.0fs): coll-dedup %s faster than no-dedup, "
      "%s faster than local-dedup;\nno-dedup grows %s from K=1 to K=6.\n",
      app_name(app), paper_baseline_s,
      app == App::kHpccg ? "6x" : ">8x", app == App::kHpccg ? "2x" : "2.3x",
      app == App::kHpccg ? "3x" : "5x");
}

// Figs. 4(b)/5(b): average and maximal replicated data per process.
inline void print_replicated_data(App app, const char* figure) {
  const int n = scaled_ranks(408);
  print_header(
      app == App::kHpccg
          ? "Amount of replicated data per process vs K (HPCCG)"
          : "Amount of replicated data per process vs K (CM1)",
      figure);

  std::vector<CellCfg> cfgs;
  for (const int k : {2, 3, 4, 5, 6}) {
    cfgs.push_back({core::Strategy::kNoDedup, k});
    cfgs.push_back({core::Strategy::kLocalDedup, k});
    cfgs.push_back({core::Strategy::kCollDedup, k});
  }
  const auto out = run_matrix(app, n, 6, cfgs);

  std::printf("%4s | %12s %12s | %12s %12s | %12s %12s   (%d procs)\n", "K",
              "full avg", "full max", "local avg", "local max", "coll avg",
              "coll max", n);
  for (std::size_t i = 0; i < cfgs.size(); i += 3) {
    const auto& nd = out.cells[i].global;
    const auto& ld = out.cells[i + 1].global;
    const auto& cd = out.cells[i + 2].global;
    std::printf(
        "%4d | %12s %12s | %12s %12s | %12s %12s\n", cfgs[i].k,
        human_bytes(nd.avg_sent_bytes).c_str(),
        human_bytes(static_cast<double>(nd.max_sent_bytes)).c_str(),
        human_bytes(ld.avg_sent_bytes).c_str(),
        human_bytes(static_cast<double>(ld.max_sent_bytes)).c_str(),
        human_bytes(cd.avg_sent_bytes).c_str(),
        human_bytes(static_cast<double>(cd.max_sent_bytes)).c_str());
  }
  std::printf(
      "\nPaper shape: coll-dedup's average send volume sits far below\n"
      "local-dedup's (5x at K=6 for HPCCG) with a visible avg-max gap that\n"
      "grows with K; no-dedup's avg == max for HPCCG (uniform datasets).\n");
}

// Figs. 4(c)/5(c): impact of rank shuffling on the maximal receive size.
inline void print_shuffle_impact(App app, const char* figure) {
  const int n = scaled_ranks(408);
  print_header(app == App::kHpccg
                   ? "Impact of rank shuffling on max receive size (HPCCG)"
                   : "Impact of rank shuffling on max receive size (CM1)",
               figure);

  std::vector<CellCfg> cfgs;
  for (const int k : {2, 3, 4, 5, 6}) {
    cfgs.push_back({core::Strategy::kCollDedup, k, /*rank_shuffle=*/false});
    cfgs.push_back({core::Strategy::kCollDedup, k, /*rank_shuffle=*/true});
  }
  const auto out = run_matrix(app, n, 6, cfgs);

  std::printf("%4s %18s %18s %12s   (%d procs)\n", "K", "coll-no-shuffle",
              "coll-shuffle", "reduction", n);
  for (std::size_t i = 0; i < cfgs.size(); i += 2) {
    const double plain =
        static_cast<double>(out.cells[i].global.max_recv_bytes);
    const double shuffled =
        static_cast<double>(out.cells[i + 1].global.max_recv_bytes);
    std::printf("%4d %18s %18s %11.1f%%\n", cfgs[i].k,
                human_bytes(plain).c_str(), human_bytes(shuffled).c_str(),
                plain > 0 ? 100.0 * (plain - shuffled) / plain : 0.0);
  }
  std::printf(
      "\nPaper shape: no difference at K=2, a visible and roughly constant\n"
      "gap from K=3 on (up to 8%% for HPCCG, ~30%% for CM1).\n");
}

}  // namespace collrep::bench
