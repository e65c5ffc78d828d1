#!/usr/bin/env bash
# Builds the repair pipeline with AddressSanitizer (or UBSan) and runs the
# tests that push the most data through it — the parallel execution engine,
# sharded candidate generation, the cross-engine differential suite, the
# chaos fuzzers, and the set construction every engine applies its rewrites
# through. Any heap error (or UB with `undefined`) fails the script.
#
# Usage: scripts/check_asan.sh [build-dir] [sanitizer]
#   build-dir  default: build-asan
#   sanitizer  address (default) or undefined — passed to IDREPAIR_SANITIZE
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"
SANITIZER="${2:-address}"

case "$SANITIZER" in
  address|undefined) ;;
  *)
    echo "check_asan: unknown sanitizer '$SANITIZER' (want address|undefined)" >&2
    exit 2
    ;;
esac

cmake -S . -B "$BUILD_DIR" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DIDREPAIR_SANITIZE="$SANITIZER" \
  >/dev/null

TESTS=(exec_test stream_test stream_differential_test candidates_test
  selectors_parallel_test differential_test fuzz_test obs_test fault_test
  chaos_test stats_json_test common_test sim_test selectors_test graph_test
  scaling_test snapshot_test server_test properties_test lig_test
  scenario_test predicates_test gen_test cliques_test serialization_test
  generation_oracle_test traj_test repairer_test baselines_test)
# ctest -R wants one anchored alternation: ^(a|b|...)$.
PATTERN="^($(IFS='|'; echo "${TESTS[*]}"))\$"

cmake --build "$BUILD_DIR" -j "$(nproc)" --target "${TESTS[@]}"

# scenario_test runs the shrunk matrix (IDREPAIR_SCENARIO_LIGHT):
# sanitizer instrumentation makes the full city-scale sweep too slow.
ASAN_OPTIONS="halt_on_error=1 detect_leaks=1" \
UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1" \
IDREPAIR_SCENARIO_LIGHT=1 \
  ctest --test-dir "$BUILD_DIR" \
  -R "$PATTERN" \
  --output-on-failure

echo "check_asan ($SANITIZER): OK"
