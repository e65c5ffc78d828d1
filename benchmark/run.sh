#!/usr/bin/env bash
# One-command benchmark for idrepair.
#
#   bash benchmark/run.sh [--workload W] [--seed S] [--seconds N]
#                         [--trace 0|1] [--smoke]
#
# Builds benchmark/ (and the library, Release) into build-bench/, then runs
# each workload — all five unless --workload names one — in its own
# process. Each run prints one `workload metric value unit` line per metric
# and, as its last line, the result object; the full result (with
# provenance) goes to build-bench/results/<workload>-seed<S>[-trace].json.
#
#   --seconds N sizes the fixed work of each run: about N seconds of it on
#               the machine of README.md's first numbers (default 12, as
#               in BENCHMARK.json). The work depends on N alone.
#   --trace 0   end-to-end metrics, tracing off (default)
#   --trace 1   per-layer metrics from the traced composition; `--trace`
#               alone means 1. The Chrome trace lands next to the result.
#   --smoke     about 1/20 scale and minimum repetitions, same gates
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"

workload=all
seed=0
seconds=12
trace=0
smoke=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload=$2; shift 2 ;;
    --seed) seed=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    --trace)
      if [[ $# -gt 1 && ( $2 == 0 || $2 == 1 ) ]]; then trace=$2; shift 2
      else trace=1; shift; fi ;;
    --smoke) smoke=(--smoke); shift ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done

if [[ ! -f src/repair/repairer.h || ! -f CMakeLists.txt ]]; then
  echo "run.sh: the idrepair sources are not next to benchmark/" >&2
  exit 2
fi

build=build-bench
mkdir -p "$build/results"
generator=()
if [[ ! -f $build/CMakeCache.txt ]] && command -v ninja > /dev/null; then
  generator=(-G Ninja)
fi
if ! { cmake -S benchmark -B "$build" "${generator[@]}" &&
       cmake --build "$build" -j "$(nproc)"; } > "$build/build.log" 2>&1; then
  tail -n 40 "$build/build.log" >&2
  echo "run.sh: build failed (full log: $build/build.log)" >&2
  exit 1
fi

provenance=()
if sha=$(git rev-parse HEAD 2> /dev/null); then
  provenance=(--git-sha "$sha")
  if [[ -n $(git status --porcelain --untracked-files=no 2> /dev/null) ]]; then
    provenance+=(--git-dirty)
  fi
fi

binary=$build/idrepair_bench
suffix=${smoke:+-smoke}
if [[ $trace == 1 ]]; then
  binary=$build/idrepair_bench_traced
  suffix+=-trace
fi

if [[ $workload == all ]]; then
  workloads=(giant_dense sparse_fleet dmin_conflict stream_replay
             daemon_catalog)
else
  workloads=("$workload")
fi
status=0
for w in "${workloads[@]}"; do
  "$binary" --workload "$w" --seed "$seed" --seconds "$seconds" \
    "${smoke[@]}" "${provenance[@]}" \
    --out "$build/results/$w-seed$seed$suffix.json" || status=$?
done
exit "$status"
