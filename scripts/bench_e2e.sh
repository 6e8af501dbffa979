#!/usr/bin/env bash
# End-to-end host-time ledger: builds the bench binaries in Release (as
# bench_kernels.sh and profile_smoke.sh do, so ledgers of two trees compare
# like with like), runs every fig/table/ablation binary at full size one
# after another, and records per-binary host cost from the child's
# getrusage — wall, user and sys seconds, voluntary/involuntary context
# switches, minor page faults and peak RSS — with a host fingerprint (CPU
# model, nproc, build type, commit, and the dispatched data-plane kernel
# variants each binary reports on stderr).  The result is written to
# BENCH_e2e.json at the repo root.
#
#   scripts/bench_e2e.sh                        # all 21 binaries, 1 run each
#   scripts/bench_e2e.sh fig3b_reduction_overhead_hpccg fig4a_hpccg_exec_increase
#   COLLREP_E2E_REPS=3 scripts/bench_e2e.sh     # per-metric medians of 3 runs
#   COLLREP_E2E_BUILD_DIR=build-release         # build tree (default: build)
#   COLLREP_E2E_OUT=/tmp/e2e.json               # output path
#   COLLREP_E2E_STDOUT_DIR=/tmp/e2e-out         # keep each binary's stdout
#
# Sim-time outputs do not depend on the host, so the stdout kept with
# COLLREP_E2E_STDOUT_DIR must match between two builds of the same model;
# only the ledger's numbers move.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"

build="${COLLREP_E2E_BUILD_DIR:-build}"
reps="${COLLREP_E2E_REPS:-1}"
out="${COLLREP_E2E_OUT:-$repo/BENCH_e2e.json}"

# Every bench binary except the kernel micro-benchmarks (BENCH_kernels.json
# covers those).
all=(
  fig2_partner_selection fig3a_unique_content fig3b_reduction_overhead_hpccg
  fig3c_reduction_overhead_cm1 table1_completion_time fig4a_hpccg_exec_increase
  fig4b_hpccg_replicated_data fig4c_hpccg_shuffle fig5a_cm1_exec_increase
  fig5b_cm1_replicated_data fig5c_cm1_shuffle motivation_pfs_dump
  ablate_chunk_size ablate_threshold_f ablate_erasure_coding ablate_cdc
  ablate_topology ablate_hash_functions ablate_compression ablate_failures
  ablate_recovery
)
if [[ $# -gt 0 ]]; then
  binaries=("$@")
else
  binaries=("${all[@]}")
fi

cmake -B "$build" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$build" -j --target "${binaries[@]}" >/dev/null

python3 - "$build" "$reps" "$out" "${binaries[@]}" <<'PY'
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

build, reps, out_path, *binaries = sys.argv[1:]
reps = int(reps)
stdout_dir = os.environ.get("COLLREP_E2E_STDOUT_DIR")
if stdout_dir:
    os.makedirs(stdout_dir, exist_ok=True)


def host_fingerprint():
    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    build_type = "unknown"
    with open(os.path.join(build, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    git = ["git", "-C", os.getcwd()]
    commit = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                            text=True).stdout.strip()
    dirty = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                           capture_output=True, text=True).stdout.strip() != ""
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "build_type": build_type,
        "commit": commit,
        "dirty": dirty,
        "kernels": kernels or "unknown",
    }


# Kernel variant per kernel, from the "kernels: gf=... sha1=..." line that
# bench::print_header writes to stderr.
kernels = {}


def note_kernels(stderr_text):
    for line in stderr_text.splitlines():
        if line.startswith("kernels: "):
            kernels.update(kv.split("=", 1) for kv in line.split()[1:])


def run_once(name, rep):
    exe = os.path.join(build, "bench", name)
    sink = subprocess.DEVNULL
    if stdout_dir:
        sink = open(os.path.join(stdout_dir, f"{name}.{rep}.txt"), "wb")
    with tempfile.TemporaryFile() as err:
        t0 = time.monotonic()
        proc = subprocess.Popen([exe], stdout=sink, stderr=err)
        _, status, ru = os.wait4(proc.pid, 0)
        wall = time.monotonic() - t0
        err.seek(0)
        note_kernels(err.read().decode(errors="replace"))
    proc.returncode = os.waitstatus_to_exitcode(status)
    if sink is not subprocess.DEVNULL:
        sink.close()
    return {
        "exit": proc.returncode,
        "wall_s": wall,
        "user_s": ru.ru_utime,
        "sys_s": ru.ru_stime,
        "vcsw": ru.ru_nvcsw,
        "ivcsw": ru.ru_nivcsw,
        "minflt": ru.ru_minflt,
        "maxrss_mb": ru.ru_maxrss / 1024.0,  # Linux reports KiB
    }


records = {}
failed = []
for name in binaries:
    runs = [run_once(name, rep) for rep in range(reps)]
    if any(r["exit"] != 0 for r in runs):
        failed.append(name)
    rec = {k: statistics.median(r[k] for r in runs)
           for k in runs[0] if k != "exit"}
    rec["reps"] = reps
    records[name] = rec
    print(f"{name:34s} wall {rec['wall_s']:7.2f} s  user {rec['user_s']:7.2f} s"
          f"  sys {rec['sys_s']:6.2f} s  vcsw {rec['vcsw']:9.0f}"
          f"  maxrss {rec['maxrss_mb']:7.1f} MB", flush=True)

totals = {k: sum(r[k] for r in records.values())
          for k in ("wall_s", "user_s", "sys_s", "vcsw", "ivcsw", "minflt")}
doc = {
    "schema": "collrep-bench-e2e-v1",
    "host": host_fingerprint(),
    "binaries": records,
    "total": totals,
}
with open(out_path, "w") as f:
    json.dump(doc, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"total wall {totals['wall_s']:.1f} s -> {out_path}")
if failed:
    print("bench_e2e: nonzero exit from " + ", ".join(failed), file=sys.stderr)
    sys.exit(1)
PY
