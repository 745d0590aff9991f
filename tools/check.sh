#!/usr/bin/env sh
# Tier-1 verification gate: configure, build, run the full test suite, then
# smoke-check the observability layer (trace capture -> validation, bench
# manifest emission) and re-run the obsx tests under ASan+UBSan.
# Exits nonzero on the first failure — the entry point a CI workflow calls.
#
# Usage: tools/check.sh [build-dir] [extra cmake args...]
#   tools/check.sh                       # default build/ tree
#   tools/check.sh build-asan -DCITYMESH_SANITIZE=ON
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"${repo_root}/build"}
[ $# -gt 0 ] && shift

cmake -B "${build_dir}" -S "${repo_root}" "$@"
cmake --build "${build_dir}" -j "$(nproc 2>/dev/null || echo 4)"
ctest --test-dir "${build_dir}" --output-on-failure -j "$(nproc 2>/dev/null || echo 4)"

# --- Observability smoke: a traced delivery must round-trip through the
# JSONL file and validate, and a bench must emit a parseable manifest.
smoke_dir=$(mktemp -d)
trap 'rm -rf "${smoke_dir}"' EXIT

cli="${build_dir}/tools/citymesh"
"${cli}" send boston 10 200 --trace "${smoke_dir}/send.jsonl" >/dev/null || true
[ -s "${smoke_dir}/send.jsonl" ] || {
  echo "check.sh: citymesh send --trace wrote no events" >&2; exit 1; }
"${cli}" trace "${smoke_dir}/send.jsonl" | grep -q "originate" || {
  echo "check.sh: trace validation found no originate event" >&2; exit 1; }

"${build_dir}/bench/ablation_width" --json "${smoke_dir}/bench.json" >/dev/null
for key in '"schema"' '"citymesh-manifest-v1"' '"digest"' '"metrics"' \
           '"medium.transmissions"' '"net.delivered"' '"wall_clock_s"'; do
  grep -q -- "${key}" "${smoke_dir}/bench.json" || {
    echo "check.sh: bench manifest missing ${key}" >&2; exit 1; }
done
echo "check.sh: obsx smoke (trace round-trip + bench manifest) OK"

# --- trafficx smoke: a tiny workload must run through `citymesh load` and
# two same-seed runs must emit byte-identical manifests (the determinism
# digest covers the schedule and the capacity summary).
cat > "${smoke_dir}/load.spec" <<'EOF'
name check-smoke
seed 11
duration 4
rate 2
spatial hotspot bias 8
payload 64 128
EOF
"${cli}" load boston --spec "${smoke_dir}/load.spec" \
  --json "${smoke_dir}/load1.json" >/dev/null || {
  echo "check.sh: citymesh load failed" >&2; exit 1; }
"${cli}" load boston --spec "${smoke_dir}/load.spec" \
  --json "${smoke_dir}/load2.json" >/dev/null
cmp -s "${smoke_dir}/load1.json" "${smoke_dir}/load2.json" || {
  echo "check.sh: citymesh load manifests differ across same-seed runs" >&2
  exit 1; }
grep -q '"medium.airtime_us"' "${smoke_dir}/load1.json" || {
  echo "check.sh: load manifest missing contention counters" >&2; exit 1; }
echo "check.sh: trafficx smoke (citymesh load + manifest digest) OK"

# --- runx smoke: a sweep grid must produce byte-identical merged manifests
# (including the determinism digest) no matter how many worker threads
# execute it — the engine's core contract.
cat > "${smoke_dir}/sweep.spec" <<'EOF'
name check-sweep
cities cambridge
seeds 1 2
pairs 20
deliver 2
point eval
EOF
"${cli}" sweep "${smoke_dir}/sweep.spec" --jobs 1 \
  --json "${smoke_dir}/sweep1.json" >/dev/null || {
  echo "check.sh: citymesh sweep failed" >&2; exit 1; }
"${cli}" sweep "${smoke_dir}/sweep.spec" --jobs 4 \
  --json "${smoke_dir}/sweep4.json" >/dev/null
cmp -s "${smoke_dir}/sweep1.json" "${smoke_dir}/sweep4.json" || {
  echo "check.sh: sweep manifests differ between --jobs 1 and --jobs 4" >&2
  exit 1; }
grep -q '"digest"' "${smoke_dir}/sweep1.json" || {
  echo "check.sh: sweep manifest missing digest" >&2; exit 1; }
echo "check.sh: runx smoke (sweep digest identical across --jobs) OK"

# --- Golden digest-identity gate: the committed manifest in tools/golden was
# produced by the pre-compile-once packet pipeline. Any behavioral drift in
# decode, conduit reconstruction, rebroadcast membership, RNG draw order, or
# event ordering changes the determinism digest and fails the byte compare —
# refactors may move *when* work happens, never *what* the protocol does.
"${cli}" sweep "${repo_root}/tools/golden/fig6_smoke.spec" --jobs 1 \
  --json "${smoke_dir}/golden.json" >/dev/null || {
  echo "check.sh: golden sweep failed" >&2; exit 1; }
cmp -s "${repo_root}/tools/golden/fig6_smoke.json" "${smoke_dir}/golden.json" || {
  echo "check.sh: sweep manifest drifted from tools/golden/fig6_smoke.json" >&2
  exit 1; }
echo "check.sh: golden digest-identity gate OK"

# --- relayx smoke: the fig11 overhead/deliverability frontier must run its
# quick grid and produce the same determinism digest across two same-seed
# runs (the digest folds every policy row, so any nondeterminism in the
# suppression timers or per-AP RNG streams shows up here; the full-file
# bytes legitimately differ in wall_clock_s, unlike the CLI manifests).
"${build_dir}/bench/fig11_frontier" --quick --json "${smoke_dir}/fig11a.json" \
  >/dev/null || { echo "check.sh: fig11_frontier --quick failed" >&2; exit 1; }
"${build_dir}/bench/fig11_frontier" --quick --json "${smoke_dir}/fig11b.json" \
  >/dev/null
fig11_digest() { grep -o '"digest": "[0-9a-f]*"' "$1"; }
[ -n "$(fig11_digest "${smoke_dir}/fig11a.json")" ] || {
  echo "check.sh: fig11 manifest missing digest" >&2; exit 1; }
[ "$(fig11_digest "${smoke_dir}/fig11a.json")" = \
  "$(fig11_digest "${smoke_dir}/fig11b.json")" ] || {
  echo "check.sh: fig11_frontier digests differ across same-seed runs" >&2
  exit 1; }
echo "check.sh: relayx smoke (fig11 quick-grid digest deterministic) OK"

# --- fig10 smoke: the metro scale ladder must run its quick rung and emit
# a manifest with a determinism digest.
"${build_dir}/bench/fig10_scale" --quick --json "${smoke_dir}/fig10.json" \
  >/dev/null || { echo "check.sh: fig10_scale --quick failed" >&2; exit 1; }
grep -q '"digest": "[0-9a-f]*"' "${smoke_dir}/fig10.json" || {
  echo "check.sh: fig10 manifest missing digest" >&2; exit 1; }
echo "check.sh: fig10 smoke (quick metro ladder) OK"

# --- qfgeo smoke: the fig12 conduit-vs-QF-Geo quick grid must emit the same
# determinism digest no matter how many workers execute it (wall_clock_s
# makes full-file compares meaningless here, like fig11).
fig12_digest() { grep -o '"digest": "[0-9a-f]*"' "$1"; }
"${build_dir}/bench/fig12_baselines" --quick --jobs 1 \
  --json "${smoke_dir}/fig12_j1.json" >/dev/null || {
  echo "check.sh: fig12_baselines --quick failed" >&2; exit 1; }
"${build_dir}/bench/fig12_baselines" --quick --jobs 4 \
  --json "${smoke_dir}/fig12_j4.json" >/dev/null
[ -n "$(fig12_digest "${smoke_dir}/fig12_j1.json")" ] || {
  echo "check.sh: fig12 manifest missing digest" >&2; exit 1; }
[ "$(fig12_digest "${smoke_dir}/fig12_j4.json")" = \
  "$(fig12_digest "${smoke_dir}/fig12_j1.json")" ] || {
  echo "check.sh: fig12 digest differs between --jobs 1 and --jobs 4" >&2; exit 1; }
echo "check.sh: qfgeo smoke (fig12 digest identical across --jobs) OK"

# --- perfbench: the benchmark compiles the library from src/ through its own
# CMake project, so a source change can break it without touching this tree.
# Configure it into a separate build tree and run its tests (digest
# reproduction, span accounting, run.py and BENCHMARK.json schema).
perf_dir="${build_dir}-perfbench"
cmake -B "${perf_dir}" -S "${repo_root}/perfbench" >/dev/null
cmake --build "${perf_dir}" -j "$(nproc 2>/dev/null || echo 4)"
ctest --test-dir "${perf_dir}" --output-on-failure
echo "check.sh: perfbench build + ctest OK"

# --- The obsx buffer/JSONL code is pointer-heavy, the trafficx runner
# threads raw pointers through scheduled closures, the medium fans shared
# immutable packets through queues and backoff closures, and the compiled-
# message layer shares read-only CompiledMessages across receptions, and the
# relayx policies keep per-AP state the backoff closures point into, and
# the qfgeo election timers capture per-reception state into medium
# closures, and the calendar queue moves event records between buckets
# on every rebuild, and the metro-memory slabs (CSR views, the agent-state
# slab, medium transmit rings) index shared flat arrays; run all eight
# suites under ASan+UBSan in a separate tree (skipped if that tree's
# configure fails, e.g. no sanitizer runtime on minimal images).
san_dir="${build_dir}-asan"
if cmake -B "${san_dir}" -S "${repo_root}" -DCITYMESH_SANITIZE=ON >/dev/null; then
  cmake --build "${san_dir}" -j "$(nproc 2>/dev/null || echo 4)" \
    --target test_obsx --target test_trafficx --target test_sim \
    --target test_compiled --target test_relayx \
    --target test_qfgeo --target test_scheduler --target test_metromem
  "${san_dir}/tests/test_obsx"
  "${san_dir}/tests/test_trafficx"
  "${san_dir}/tests/test_sim"
  "${san_dir}/tests/test_compiled"
  "${san_dir}/tests/test_relayx"
  "${san_dir}/tests/test_qfgeo"
  "${san_dir}/tests/test_scheduler"
  "${san_dir}/tests/test_metromem"
  echo "check.sh: test_obsx + test_trafficx + test_sim + test_compiled + test_relayx + test_qfgeo + test_scheduler + test_metromem clean under ASan+UBSan"
else
  echo "check.sh: sanitizer configure failed; skipping ASan+UBSan pass" >&2
fi

# --- The runx engine shares compiled cities across worker threads, the
# compile-once refactor additionally shares immutable CompiledMessages, and
# the qfgeo sweep tests drive the protocol axis across worker threads; run
# those tests (plus the event engine they drive) under TSan in a third tree
# to catch data races the determinism digest can't see.
tsan_dir="${build_dir}-tsan"
if cmake -B "${tsan_dir}" -S "${repo_root}" -DCITYMESH_SANITIZE=thread >/dev/null; then
  cmake --build "${tsan_dir}" -j "$(nproc 2>/dev/null || echo 4)" \
    --target test_runx --target test_sim --target test_compiled \
    --target test_relayx --target test_qfgeo \
    --target test_scheduler --target test_metromem
  "${tsan_dir}/tests/test_runx"
  "${tsan_dir}/tests/test_sim"
  "${tsan_dir}/tests/test_compiled"
  "${tsan_dir}/tests/test_relayx"
  "${tsan_dir}/tests/test_qfgeo"
  "${tsan_dir}/tests/test_scheduler"
  "${tsan_dir}/tests/test_metromem"
  echo "check.sh: test_runx + test_sim + test_compiled + test_relayx + test_qfgeo + test_scheduler + test_metromem clean under TSan"
else
  echo "check.sh: TSan configure failed; skipping thread-sanitizer pass" >&2
fi
