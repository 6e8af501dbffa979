#!/usr/bin/env bash
# collcheck gate: build the project-specific static analyzer and run it over
# the tree.  Exits non-zero on any finding not covered by the checked-in
# baseline (tools/collcheck/baseline.txt) or an inline
# `// collcheck:allow(RULE)` comment.  Rule catalog: `collcheck --list-rules`
# or DESIGN.md §10/§13/§15.
#
#   scripts/analyze.sh              # analyze src/ tools/ bench/ tests/ examples/
#   scripts/analyze.sh --fail-on-new   # also fail on STALE baseline entries,
#                                      # printing a +/- diff against baseline
#   scripts/analyze.sh --update-schedules  # regenerate the checked-in
#                                      # schedule snapshot after an intended
#                                      # collective-schedule change
#   COLLCHECK_SARIF=out.sarif scripts/analyze.sh        # also write SARIF
#
# Beyond the tree scan, this runs the schedule-drift gate: the canonical
# per-entry-point collective schedules (--dump-schedules) must match the
# checked-in tools/collcheck/schedules.txt byte for byte, so a PR that
# reorders or drops collectives shows up as a reviewable diff.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"

extra=()
update_schedules=0
for arg in "$@"; do
  case "$arg" in
    --fail-on-new) extra+=(--fail-on-new) ;;
    --update-schedules) update_schedules=1 ;;
    *) echo "analyze.sh: unknown argument '$arg'" >&2; exit 2 ;;
  esac
done

build_dir="${COLLCHECK_BUILD_DIR:-build-analyze}"
cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$build_dir" --target collcheck -j >/dev/null

collcheck_bin="$build_dir/tools/collcheck/collcheck"

args=(--repo-root "$repo" --baseline tools/collcheck/baseline.txt)
if [[ -n "${COLLCHECK_SARIF:-}" ]]; then
  args+=(--sarif "$COLLCHECK_SARIF")
fi

# One scan covers the whole tree, the analyzer, profiler and bench
# harness included; baseline.txt takes no tools/ entries.
echo "== analyze: collcheck =="
"$collcheck_bin" "${args[@]}" "${extra[@]}" \
    src tools bench tests examples

# Schedule-drift gate: regenerate the canonical per-entry-point schedule
# snapshot from src/ and compare it to the checked-in artifact.  A diff
# means a PR changed the collective schedule of a public entry point —
# legitimate changes re-run with --update-schedules and commit the result.
# src/ only: the snapshot inlines the lexically first definition of each
# name, so a same-named function under bench/ or examples/ would shadow
# the src/ one.
snapshot=tools/collcheck/schedules.txt
current="$build_dir/schedules.current.txt"
echo "== analyze: schedule drift =="
"$collcheck_bin" --repo-root "$repo" \
    --baseline tools/collcheck/baseline.txt \
    --dump-schedules "$current" src >/dev/null
if [[ "$update_schedules" == 1 ]]; then
  cp "$current" "$snapshot"
  echo "schedule snapshot updated: $snapshot"
elif ! cmp -s "$current" "$snapshot"; then
  echo "analyze.sh: collective schedule drift detected:" >&2
  diff -u "$snapshot" "$current" >&2 || true
  echo "analyze.sh: if this change is intended, run" >&2
  echo "  scripts/analyze.sh --update-schedules" >&2
  echo "and commit the regenerated $snapshot" >&2
  exit 1
else
  echo "schedules match $snapshot"
fi

echo "analyze: OK"
