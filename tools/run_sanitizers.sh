#!/usr/bin/env bash
# Build and run the full test suite under sanitizers (the `asan`, `ubsan`
# and `tsan` CMake presets).  The fault-injection suite in particular is
# meant to run under asan/ubsan: an injected fault that corrupts memory
# instead of throwing a typed error fails here even if the plain build
# happens to pass.  The tsan preset targets what still runs concurrently:
# Service::run_batch's workers, the tuple-menu passes (bound_menus and the
# solve waves) and the server's connection threads with their evaluation
# slots, whose first-touch model builds and disk appends run unlocked.
# NANOCACHE_THREADS=4 forces the pool to fork even on small boxes, so races
# in the pool, the memo and disk caches or the explorer's maps and logs
# surface as hard errors.
#
# Usage: tools/run_sanitizers.sh [asan|ubsan|tsan ...]   (default: asan ubsan)
set -euo pipefail
cd "$(dirname "$0")/.."

presets=("${@:-asan ubsan}")
# shellcheck disable=SC2128,SC2086
read -r -a presets <<< "${presets[*]}"

# Exercise the thread pool under the sanitizers regardless of the host's
# core count (results are identical at any thread count by contract).
export NANOCACHE_THREADS=4

for preset in "${presets[@]}"; do
  echo "=== configuring ${preset} ==="
  cmake --preset "${preset}"
  echo "=== building ${preset} ==="
  cmake --build --preset "${preset}" -j "$(nproc)"
  echo "=== testing ${preset} ==="
  ctest --preset "${preset}" -j "$(nproc)"
done
echo "=== all sanitizer suites passed ==="
