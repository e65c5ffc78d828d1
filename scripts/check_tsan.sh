#!/usr/bin/env bash
# Builds the concurrency-sensitive targets with ThreadSanitizer and runs the
# tests that exercise the parallel execution engine. Any data race in the
# thread pool, task groups, sharded Gm construction, sharded candidate
# generation, the parallel selection phase, or parallel partitioned repair
# fails the script.
#
# Usage: scripts/check_tsan.sh [build-dir]   (default: build-tsan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -S . -B "$BUILD_DIR" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DIDREPAIR_SANITIZE=thread \
  >/dev/null

cmake --build "$BUILD_DIR" -j "$(nproc)" \
  --target exec_test partitioned_test stream_test stream_differential_test \
           candidates_test \
           selectors_parallel_test differential_test fuzz_test obs_test \
           fault_test chaos_test stats_json_test common_test sim_test \
           selectors_test graph_test scaling_test snapshot_test server_test \
           properties_test lig_test scenario_test

# scaling_test's 8-thread byte-identity check is exactly the
# schedule-dependent surface TSan should watch. server_test rides along
# because the daemon's acceptor/connection/shutdown threads are precisely
# the kind of surface TSan exists for. scenario_test runs the
# shrunk matrix (IDREPAIR_SCENARIO_LIGHT) to keep the city-scale engine
# sweep affordable under instrumentation.
TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
IDREPAIR_SCENARIO_LIGHT=1 \
  ctest --test-dir "$BUILD_DIR" \
  -R 'exec_test|partitioned_test|stream_test|stream_differential_test|candidates_test|selectors_parallel_test|differential_test|fuzz_test|obs_test|fault_test|chaos_test|stats_json_test|common_test|sim_test|selectors_test|graph_test|scaling_test|snapshot_test|server_test|properties_test|lig_test|scenario_test' \
  --output-on-failure

echo "check_tsan: OK"
