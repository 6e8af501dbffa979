#!/usr/bin/env bash
# Kernel throughput gate: builds the Release bench binaries, measures every
# data-plane kernel variant (median of N repetitions, GB/s; SHA-1 lanes
# over 512-B and 4-KiB messages) plus the flat fingerprint-set
# merge/serialization throughput (entries/s), times the fig3b end-to-end
# bench twice — once with COLLREP_KERNELS=scalar (the pre-dispatch
# baseline) and once with the dispatched kernels — and writes the results
# to BENCH_kernels.json at the repo root.  Fails when the dispatched SHA-1
# lanes hash slower than the dispatched single stream.
#
#   scripts/bench_kernels.sh                 # full run
#   COLLREP_QUICK=1 scripts/bench_kernels.sh # scaled-down fig3b
#   COLLREP_BENCH_REPS=3 scripts/bench_kernels.sh
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"

build=build-release
reps="${COLLREP_BENCH_REPS:-5}"
out="${COLLREP_BENCH_OUT:-$repo/BENCH_kernels.json}"

cmake -B "$build" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$build" -j --target micro_primitives fig3b_reduction_overhead_hpccg

echo "== kernel micro-benchmarks (median of $reps) =="
"$build/bench/micro_primitives" \
  --benchmark_filter='gf_mul_add|crc32c|sha1_blocks|sha1_lanes|cdc_chunking|hmerge_keys|BM_HMerge|BM_FpSetSerialization' \
  --benchmark_repetitions="$reps" \
  --benchmark_report_aggregates_only=true \
  --benchmark_format=json > "$build/micro_kernels.json"

fig3b="$build/bench/fig3b_reduction_overhead_hpccg"

echo "== fig3b end-to-end, scalar kernels =="
scalar_s=$( { time -p COLLREP_KERNELS=scalar "$fig3b" > /dev/null; } 2>&1 \
            | awk '/^real/ {print $2}' )
echo "scalar wall-clock: ${scalar_s}s"

echo "== fig3b end-to-end, dispatched kernels =="
dispatched_s=$( { time -p "$fig3b" > /dev/null; } 2>&1 \
                | awk '/^real/ {print $2}' )
echo "dispatched wall-clock: ${dispatched_s}s"

python3 - "$build/micro_kernels.json" "$out" "$reps" "$scalar_s" "$dispatched_s" <<'PY'
import json
import sys

micro_path, out_path, reps, scalar_s, dispatched_s = sys.argv[1:6]
scalar_s, dispatched_s = float(scalar_s), float(dispatched_s)

with open(micro_path) as f:
    report = json.load(f)

# Median aggregates only; strip google-benchmark's parameter suffixes.
medians = {}
for b in report["benchmarks"]:
    if b.get("run_type") != "aggregate" or b.get("aggregate_name") != "median":
        continue
    name = b["name"].rsplit("_median", 1)[0]
    name = name.split("/min_warmup_time", 1)[0]
    medians[name] = b

kernels = {}
for kernel in ("gf_mul_add", "crc32c", "sha1_blocks", "cdc_chunking"):
    variants = {}
    for name, b in medians.items():
        if name.startswith(kernel + "/"):
            variants[name.split("/", 1)[1]] = b["bytes_per_second"] / 1e9
    if not variants:
        continue
    baseline_name = "reference" if kernel == "cdc_chunking" else "scalar"
    baseline = variants[baseline_name]
    best = max(variants, key=variants.get)
    kernels[kernel] = {
        "variants_gbps": {k: round(v, 3) for k, v in sorted(variants.items())},
        "baseline": baseline_name,
        "best": best,
        "speedup": round(variants[best] / baseline, 2),
    }

# hmerge kernel: entries/s per variant across the size x duplicate-ratio
# sweep, plus dispatched-vs-scalar speedups at the 65536-entry point the
# acceptance gate uses (geomean across the overlap sweep so neither the
# disjoint nor the all-duplicate fast path dominates the ratio).
hmerge_rates = {}
for name, b in medians.items():
    if not name.startswith("hmerge_keys/"):
        continue
    _, variant, size, overlap = name.split("/")
    hmerge_rates.setdefault(variant, {})[f"{size}/{overlap}"] = round(
        b["items_per_second"] / 1e6, 1)

if hmerge_rates and "scalar" in hmerge_rates:
    overlaps = ("0", "25", "75", "100")

    def speedup_at(variant, size, ov):
        return (hmerge_rates[variant][f"{size}/{ov}"] /
                hmerge_rates["scalar"][f"{size}/{ov}"])

    def geomean(vals):
        prod = 1.0
        for v in vals:
            prod *= v
        return prod ** (1.0 / len(vals))

    best = max(hmerge_rates,
               key=lambda v: geomean([speedup_at(v, 65536, ov)
                                      for ov in overlaps]))
    kernels["hmerge"] = {
        "variants_mkeys_per_s": {k: dict(sorted(v.items()))
                                 for k, v in sorted(hmerge_rates.items())},
        "baseline": "scalar",
        "best": best,
        "speedup_65536_by_overlap": {
            ov: round(speedup_at(best, 65536, ov), 2) for ov in overlaps},
        "speedup": round(geomean([speedup_at(best, 65536, ov)
                                  for ov in overlaps]), 2),
    }

# SHA-1 lanes: GB/s per variant and message size ("<variant>/<bytes>"),
# against the dispatched single-stream sha1_blocks rate.  micro_primitives
# registers the available variants in list order and the dispatcher picks
# the last available one (kernels/dispatch.cpp), so the last registered
# variant of each kernel is the dispatched one.
lanes_rates = {}
for name, b in medians.items():
    if name.startswith("sha1_lanes/"):
        _, variant, size = name.split("/")
        lanes_rates[f"{variant}/{size}"] = round(b["bytes_per_second"] / 1e9, 3)
if lanes_rates and "sha1_blocks" in kernels:
    dispatched = list(lanes_rates)[-1].split("/")[0]
    single_name = [name.split("/", 1)[1] for name in medians
                   if name.startswith("sha1_blocks/")][-1]
    single = kernels["sha1_blocks"]["variants_gbps"][single_name]
    kernels["sha1_lanes"] = {
        "variants_gbps": dict(sorted(lanes_rates.items())),
        "dispatched": dispatched,
        "single_stream": single_name,
        "speedup": round(min(v for k, v in lanes_rates.items()
                             if k.startswith(dispatched + "/")) / single, 2),
    }

def items(prefix):
    return {
        name.split("/", 1)[1]: round(b["items_per_second"] / 1e6, 3)
        for name, b in medians.items()
        if name.startswith(prefix + "/")
    }

result = {
    "repetitions": int(reps),
    "kernels": kernels,
    "fp_set": {
        "hmerge_mentries_per_s": items("BM_HMerge"),
        "hmerge_kway_mentries_per_s": items("BM_HMergeKway"),
        "serialization_mentries_per_s": items("BM_FpSetSerialization"),
    },
    "fig3b": {
        "scalar_wall_s": scalar_s,
        "dispatched_wall_s": dispatched_s,
        "speedup": round(scalar_s / dispatched_s, 2),
    },
}

with open(out_path, "w") as f:
    json.dump(result, f, indent=2)
    f.write("\n")

print(f"wrote {out_path}")
for kernel, info in kernels.items():
    if kernel == "sha1_lanes":
        print(f"  {kernel}: {info['dispatched']} {info['speedup']}x over "
              f"single-stream {info['single_stream']}")
        continue
    print(f"  {kernel}: {info['best']} {info['speedup']}x over {info['baseline']}")
print(f"  fig3b: {result['fig3b']['speedup']}x")

# Floor gate: with any SIMD merge variant available, the dispatched HMERGE
# kernel must clear COLLREP_HMERGE_MIN_SPEEDUP x scalar at 65536 entries
# (geomean over the overlap sweep).  The default floor is deliberately
# below the 3x measured on the AVX2 reference host so shared-runner noise
# does not flake CI; the checked-in BENCH_kernels.json carries the real
# ratio and the perf-gate ratchets it.
import os
floor = float(os.environ.get("COLLREP_HMERGE_MIN_SPEEDUP", "2.0"))
if "hmerge" in kernels and len(hmerge_rates) > 1:
    got = kernels["hmerge"]["speedup"]
    if got < floor:
        print(f"FAIL: hmerge dispatched speedup {got}x < {floor}x floor "
              f"(COLLREP_HMERGE_MIN_SPEEDUP)", file=sys.stderr)
        sys.exit(1)
    print(f"  hmerge floor: {got}x >= {floor}x ok")

# Lanes gate: Sha1::digest_many hashes equal-length chunks through the
# dispatched lanes variant, so that variant must hash each message size at
# least as fast as the dispatched single stream does a bulk buffer.  The
# one-lane scalar reference is exempt: with it dispatched, digest_many
# takes the single-stream path.
lanes = kernels.get("sha1_lanes")
if lanes and lanes["dispatched"] != "scalar":
    if lanes["speedup"] < 1.0:
        print(f"FAIL: sha1_lanes {lanes['dispatched']} is slower than "
              f"single-stream {lanes['single_stream']} "
              f"({lanes['speedup']}x)", file=sys.stderr)
        sys.exit(1)
    print(f"  sha1_lanes gate: {lanes['speedup']}x >= 1.0x ok")
PY
