#!/usr/bin/env bash
# Verifies the src/par determinism contract: the full test suite must pass,
# a seeded generated corpus must checksum identically whether the parallel
# layer runs serially (FIELDSWAP_THREADS=1) or on a pool
# (FIELDSWAP_THREADS=4), and the batched extraction server must emit
# byte-identical JSONL responses at 1 thread / batch 1 vs 8 threads /
# batch 16 — the last check repeated per kernel backend (scalar, avx2,
# ...): within a backend, thread count and batch size must never change a
# served byte, in both float and int8 inference. A final corpus-streaming
# leg converts a lazy .synth spec through the native and JSONL format
# drivers and requires the sharded corpus checksum to be bit-identical
# across thread counts and across all three formats.
#
# Usage: tools/check_determinism.sh [build_dir]   (default: build)
#
# Exits non-zero if any ctest pass fails or any output pair drifts.

set -euo pipefail

BUILD_DIR="${1:-build}"
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$REPO_ROOT"

if [[ ! -d "$BUILD_DIR" ]]; then
  echo "error: build dir '$BUILD_DIR' not found; run cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j first" >&2
  exit 2
fi

CHECKSUM_BIN="$BUILD_DIR/examples/corpus_checksum"
if [[ ! -x "$CHECKSUM_BIN" ]]; then
  echo "error: $CHECKSUM_BIN not built" >&2
  exit 2
fi

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

for threads in 1 4; do
  echo "=== ctest with FIELDSWAP_THREADS=$threads ==="
  (cd "$BUILD_DIR" && FIELDSWAP_THREADS=$threads ctest --output-on-failure -j)

  echo "=== corpus checksum with FIELDSWAP_THREADS=$threads ==="
  FIELDSWAP_THREADS=$threads "$CHECKSUM_BIN" | tee "$tmpdir/checksum_$threads.txt"
done

echo "=== diffing corpus checksums (threads=1 vs threads=4) ==="
if diff "$tmpdir/checksum_1.txt" "$tmpdir/checksum_4.txt"; then
  echo "OK: corpus bit-identical across thread counts"
else
  echo "FAIL: generated corpus differs between FIELDSWAP_THREADS=1 and 4" >&2
  exit 1
fi

SERVE_BIN="$BUILD_DIR/tools/fieldswap_serve"
if [[ ! -x "$SERVE_BIN" ]]; then
  echo "error: $SERVE_BIN not built" >&2
  exit 2
fi

# Serve leg: the same corpus through the batched ExtractionServer (a
# one-tenant facade over the multi-tenant engine) must produce byte-identical
# JSONL whether it runs serially one document at a time or pooled in large
# batches (stderr carries the timings; stdout is the determinism contract).
# The contract is per kernel backend — scalar and SIMD may differ from each
# other by bounded ulps (tests/kernels_test.cc pins the bound), but WITHIN a
# backend thread count, batch size, and the int8 path must be bit-stable, so
# the whole pair runs once per available backend and once more for int8
# inference on the best backend.
serve_pair() {
  local label="$1"; shift
  echo "=== serve responses [$label] with FIELDSWAP_THREADS=1, batch 1 ==="
  FIELDSWAP_THREADS=1 "$SERVE_BIN" --domain invoices --generate 12 --batch 1 \
    --train-docs 12 --train-steps 40 --repeat 2 "$@" \
    > "$tmpdir/serve_serial.jsonl"
  echo "=== serve responses [$label] with FIELDSWAP_THREADS=8, batch 16 ==="
  FIELDSWAP_THREADS=8 "$SERVE_BIN" --domain invoices --generate 12 --batch 16 \
    --train-docs 12 --train-steps 40 --repeat 2 "$@" \
    > "$tmpdir/serve_pooled.jsonl"
  echo "=== diffing serve JSONL [$label] (1 thread/batch 1 vs 8 threads/batch 16) ==="
  if diff "$tmpdir/serve_serial.jsonl" "$tmpdir/serve_pooled.jsonl"; then
    echo "OK [$label]: served responses bit-identical across threads and batches"
  else
    echo "FAIL [$label]: fieldswap_serve output differs across threads/batch size" >&2
    exit 1
  fi
}

backends="$("$SERVE_BIN" --list-kernel-backends)"
echo "=== kernel backends available: $(echo $backends | tr '\n' ' ')==="
for backend in $backends; do
  serve_pair "backend=$backend" --kernel-backend "$backend"
done

# Int8 inference on the best backend (the first listed). Quantization error
# shifts which spans are predicted, but determinism must hold regardless.
best_backend="$(echo "$backends" | head -n1)"
serve_pair "backend=$best_backend,int8" --kernel-backend "$best_backend" --int8

# Multi-tenant leg: two tenants through the registry server, submission
# order shuffled (seed-deterministic), 1 thread/batch 1 vs 8 threads/
# batch 16. Per-tenant responses — and therefore the whole tenant-tagged
# stream — must be byte-identical: DRR scheduling and cross-tenant packing
# decide which batch serves a document, never the response bytes.
cat > "$tmpdir/tenants.json" <<'MANIFEST'
{"tenants": [
  {"name": "acme",   "domain": "invoices", "seed": 11},
  {"name": "globex", "domain": "earnings", "seed": 12,
   "queue_capacity": 32, "batch_quantum": 8}
]}
MANIFEST
echo "=== multi-tenant serve with FIELDSWAP_THREADS=1, batch 1 ==="
FIELDSWAP_THREADS=1 "$SERVE_BIN" --tenant-manifest "$tmpdir/tenants.json" \
  --order shuffled --generate 10 --batch 1 --train-docs 12 --train-steps 40 \
  --repeat 2 > "$tmpdir/tenant_serial.jsonl"
echo "=== multi-tenant serve with FIELDSWAP_THREADS=8, batch 16 ==="
FIELDSWAP_THREADS=8 "$SERVE_BIN" --tenant-manifest "$tmpdir/tenants.json" \
  --order shuffled --generate 10 --batch 16 --train-docs 12 --train-steps 40 \
  --repeat 2 > "$tmpdir/tenant_pooled.jsonl"
echo "=== diffing multi-tenant JSONL (per-tenant streams) ==="
for tenant in acme globex; do
  grep "\"tenant\": \"$tenant\"" "$tmpdir/tenant_serial.jsonl" \
    > "$tmpdir/tenant_serial_$tenant.jsonl"
  grep "\"tenant\": \"$tenant\"" "$tmpdir/tenant_pooled.jsonl" \
    > "$tmpdir/tenant_pooled_$tenant.jsonl"
  if diff "$tmpdir/tenant_serial_$tenant.jsonl" \
          "$tmpdir/tenant_pooled_$tenant.jsonl"; then
    echo "OK [tenant=$tenant]: responses bit-identical across threads and batches"
  else
    echo "FAIL [tenant=$tenant]: multi-tenant serve output differs" >&2
    exit 1
  fi
done
if diff "$tmpdir/tenant_serial.jsonl" "$tmpdir/tenant_pooled.jsonl" > /dev/null; then
  echo "OK [multi-tenant]: full interleaved stream bit-identical"
else
  echo "FAIL [multi-tenant]: interleaved stream differs across threads/batch size" >&2
  exit 1
fi

# Corpus-streaming leg: the format-driver stack (see DESIGN.md "Format
# drivers and corpus streaming") must hold the same contract. A .synth
# spec streams the generator lazily; converting it to native and JSONL and
# checksumming each at FIELDSWAP_THREADS=1 vs 4 must produce identical
# `info` output per format, and all three formats must agree on the
# corpus checksum (JSON quantizes doubles to %.3f on write, the binary
# codec stores raw f64 bits — both land on the same canonical JSON at
# checksum time).
CORPUS_BIN="$BUILD_DIR/tools/fieldswap_corpus"
if [[ ! -x "$CORPUS_BIN" ]]; then
  echo "error: $CORPUS_BIN not built" >&2
  exit 2
fi
cat > "$tmpdir/stream.synth" <<'SPEC'
{"fieldswap_synthetic": 1, "domain": "earnings", "count": 60,
 "seed": 777, "id_prefix": "det"}
SPEC
echo "=== corpus streaming: convert .synth -> native and jsonl ==="
"$CORPUS_BIN" convert "$tmpdir/stream.synth" "$tmpdir/stream.fsc"
"$CORPUS_BIN" convert "$tmpdir/stream.synth" "$tmpdir/stream.jsonl"
for corpus in stream.synth stream.fsc stream.jsonl; do
  for threads in 1 4; do
    echo "=== corpus info --checksum [$corpus] with FIELDSWAP_THREADS=$threads ==="
    FIELDSWAP_THREADS=$threads "$CORPUS_BIN" info "$tmpdir/$corpus" --checksum \
      | tee "$tmpdir/info_${corpus}_${threads}.txt"
  done
  echo "=== diffing corpus info [$corpus] (threads=1 vs threads=4) ==="
  if diff "$tmpdir/info_${corpus}_1.txt" "$tmpdir/info_${corpus}_4.txt"; then
    echo "OK [$corpus]: sharded corpus checksum bit-identical across thread counts"
  else
    echo "FAIL [$corpus]: corpus checksum differs between FIELDSWAP_THREADS=1 and 4" >&2
    exit 1
  fi
done
echo "=== cross-format corpus checksum equality ==="
synth_sum="$(grep '^corpus_checksum' "$tmpdir/info_stream.synth_1.txt")"
native_sum="$(grep '^corpus_checksum' "$tmpdir/info_stream.fsc_1.txt")"
jsonl_sum="$(grep '^corpus_checksum' "$tmpdir/info_stream.jsonl_1.txt")"
if [[ "$synth_sum" == "$native_sum" && "$native_sum" == "$jsonl_sum" ]]; then
  echo "OK [cross-format]: synthetic, native, and jsonl agree on $synth_sum"
else
  echo "FAIL [cross-format]: checksums diverge across formats:" >&2
  echo "  synth:  $synth_sum" >&2
  echo "  native: $native_sum" >&2
  echo "  jsonl:  $jsonl_sum" >&2
  exit 1
fi
