#!/usr/bin/env bash
# Runs the full ctest suite under sanitizers, in two configurations:
#
#   1. FIELDSWAP_SANITIZE=address,undefined  (ASan + UBSan: memory errors,
#      leaks, undefined behaviour)
#   2. FIELDSWAP_SANITIZE=thread             (TSan: data races in the
#      src/par pool and the obs registry)
#
# Together with tools/check_determinism.sh this is the pre-merge gate:
# both scripts must pass before landing changes (see DESIGN.md).
#
# Sanitizer builds define FIELDSWAP_SANITIZE_BUILD, so the parallel layer
# defaults to serial; intentionally-concurrent tests still exercise the
# pool under TSan via explicit SetThreads calls.
#
# Usage: tools/check_sanitizers.sh [asan|tsan]   (default: both)
# Build trees go to build-asan/ and build-tsan/ (kept for incremental
# reruns).

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$REPO_ROOT"

MODE="${1:-both}"
# A bare -j gives make and ctest no job limit; sanitizer compiles are
# large, so both steps run one job per CPU.
JOBS="$(nproc)"

run_config() {
  local name="$1" sanitize="$2" build_dir="build-$1"
  echo "=== [$name] configure + build (FIELDSWAP_SANITIZE=$sanitize) ==="
  cmake -B "$build_dir" -S . -DFIELDSWAP_SANITIZE="$sanitize" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$build_dir" -j "$JOBS"
  echo "=== [$name] ctest (FS_VALIDATE_LOCKS=1) ==="
  # The runtime lock validator rides along: every acquisition order the
  # suite executes is checked against the global graph, so an inversion
  # surfaces as a named lock-order violation instead of a TSan-invisible
  # latent deadlock (src/par/lock_validator.h).
  (cd "$build_dir" && FS_VALIDATE_LOCKS=1 ctest --output-on-failure -j "$JOBS")
  echo "=== [$name] OK ==="
}

case "$MODE" in
  asan) run_config asan "address,undefined" ;;
  tsan) run_config tsan "thread" ;;
  both)
    run_config asan "address,undefined"
    run_config tsan "thread"
    ;;
  *)
    echo "usage: tools/check_sanitizers.sh [asan|tsan]" >&2
    exit 2
    ;;
esac

echo "sanitizer gate passed"
