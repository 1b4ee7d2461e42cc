#!/usr/bin/env bash
# Concurrency gate: both halves of the lock-discipline story (DESIGN.md
# "Concurrency analysis").
#
#   1. Static: fslint's concurrency rules (guarded-by, lock-order,
#      no-lock-across-callback) over the whole tree, checking every
#      observed nested acquisition against the canonical order in
#      tools/lock_order.txt.
#   2. Drift report: `fslint --dump-lock-order` prints the observed
#      nested-acquisition graph — the exact lines a complete manifest
#      needs — so manifest drift is visible in the log.
#   3. Dynamic: the concurrency-heavy test suites with the runtime lock
#      validator enabled (FS_VALIDATE_LOCKS=1, src/par/lock_validator.h),
#      so every acquisition order actually executed is validated —
#      including edges that cross call boundaries the static walker
#      cannot see.
#
# Usage: tools/check_concurrency.sh [build_dir]   (default: build)
#
# Exits non-zero on any static violation or runtime inversion.

set -euo pipefail

BUILD_DIR="${1:-build}"
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$REPO_ROOT"

FSLINT_BIN="$BUILD_DIR/tools/fslint"
TEST_BIN="$BUILD_DIR/tests/fieldswap_unit_tests"
for bin in "$FSLINT_BIN" "$TEST_BIN"; do
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin not built; run cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j first" >&2
    exit 2
  fi
done

echo "== static: fslint concurrency rules + tools/lock_order.txt =="
"$FSLINT_BIN" --root "$REPO_ROOT" --lock-order tools/lock_order.txt \
  src bench examples tests tools

echo
echo "== observed nested acquisitions (each must appear in tools/lock_order.txt) =="
"$FSLINT_BIN" --root "$REPO_ROOT" --dump-lock-order \
  src bench examples tests tools

echo
echo "== dynamic: runtime lock validator (FS_VALIDATE_LOCKS=1) =="
FS_VALIDATE_LOCKS=1 "$TEST_BIN" --gtest_brief=1 \
  --gtest_filter='LockValidatorTest.*:ParallelTest.*:ParallelDeterminismTest.*:ExtractionServerTest.*:MultiTenantServerTest.*:ModelRegistryTest.*'

echo
echo "concurrency gate passed"
