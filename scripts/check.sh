#!/usr/bin/env bash
# Fast pre-commit gate: Release build with warnings as errors (two layouts
# are checked by static_asserts here: the PEACH2 register map in
# src/peach2/registers.h and the collectives' flag-word partition in
# src/coll/communicator.cpp), tca_lint over the whole tree (coroutine-
# lifetime / determinism / protocol-lifecycle invariants and named MMIO
# offsets), a clang-tidy baseline diff (skipped when clang-tidy is not
# installed), the reachability check (scripts/reachability.sh: every
# function a src/ library defines is kept by some bench, example, tool or
# tcabench binary), full test suite
# (soak label excluded — run `ctest -L soak` for the long fault campaigns;
# the `repro` label diffs every full-simulator bench against tests/golden/),
# a sanitizer pass over the scheduler core, fault, collective, memory and
# link suites, a ~1 s bench_sim_core smoke run (scheduler speedup
# tripwire + determinism and seed-equivalence checks),
# collective bench smoke runs, a chaos smoke (seeded campaigns with
# same-seed replay check + committed corpus replay), and tca_explore smoke
# invocations (--stats, --workload and --trace).
#
# The build trees are CMake presets (CMakePresets.json, Ninja generator):
# `check` is the Release gate, `asan` the instrumented suites, `perf` the
# bench tree. For a full instrumented pass: cmake --preset asan && ctest
# --preset asan (drop the filter by running ctest --test-dir
# build-check-asan directly).
set -eu
cd "$(dirname "$0")/.."

BUILD=build-check

cmake --preset check > /dev/null
cmake --build --preset check -j

echo "== tca_lint (project invariants) =="
"$BUILD"/tools/tca_lint/tca_lint --root .

echo "== clang-tidy (baseline diff; skips when not installed) =="
scripts/clang_tidy.sh "$BUILD"

echo "== reachability (every src/ function kept by some binary) =="
scripts/reachability.sh

echo "== tests =="
ctest --preset check -j "$(nproc)"

echo "== scheduler core, fault, collective, memory, link and TLP data-path suites under ASan/UBSan =="
# memory_test runs instrumented so the Dram mapping's ownership code and
# its bounds-check death tests are covered: the mapping has no redzones.
# indexed_queue_test runs instrumented because a broken list link in the
# calendar ring reads a recycled slot long before a fire order goes wrong.
# The scheduler's own suites (sim_test's Scheduler, Task, Trigger, Barrier,
# Semaphore and PollUntil, scheduler_stress_test's SchedulerStress and
# EventFn) and pcie_test's ZeroFlightLink run instrumented because a wake
# or a poller that outlives its coroutine frame, or a zero-flight hop's one
# event cancelled twice, shows up here first: under ASan FrameArena hands
# frames to the heap, so resuming a destroyed frame from the wake lane is a
# heap-use-after-free.
# The TLP data path runs instrumented too, over every layer a TLP handle
# crosses (sim_test's Ring, pcie_test's Tlp, TlpPtr, Payload and Link,
# chip_test's Chip, gpu_test's GpuDevice, node_test's RootComplex,
# driver_test's Driver (pio_store), api_test's Runtime and RuntimeCreate
# (memcpy_pio), channel_test's Channels (the multi-channel DMAC) and
# baseline_test's Ntb (the NTB bridge)): under ASan FrameArena hands every
# TLP and payload block to the heap, so an overrun, a TLP or payload used
# after its free, or a ring element read from a buffer that growth has
# freed is reported here. A TLP that outlives its scheduler is the one
# fault this cannot see (with no arena there is nothing to outlive); the
# arena's live-block count fails a TCA_ASSERT on it in the uninstrumented
# test run above.
SAN_BUILD=build-check-asan
cmake --preset asan > /dev/null
cmake --build --preset asan -j --target fault_test fault_recovery_test \
  coll_test memory_test indexed_queue_test sim_test scheduler_stress_test \
  pcie_test chip_test gpu_test node_test driver_test api_test channel_test \
  baseline_test
ctest --preset asan -j "$(nproc)"

echo "== bench_sim_core smoke =="
"$BUILD"/bench/bench_sim_core --smoke

echo "== collective bench smoke =="
"$BUILD"/bench/bench_coll_allreduce --smoke
"$BUILD"/bench/bench_coll_halo --smoke

echo "== tca_explore --stats smoke =="
METRICS_JSON=$(mktemp)
trap 'rm -f "$METRICS_JSON"' EXIT
"$BUILD"/tools/tca_explore --nodes 4 --op pipelined --target remote-host \
  --dest 2 --burst 8 --sizes 4096 --stats-out "$METRICS_JSON"
if command -v python3 > /dev/null 2>&1; then
  python3 - "$METRICS_JSON" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
for key in ("meta", "counters", "gauges", "histograms"):
    assert key in doc, f"metrics JSON missing top-level key: {key}"
assert doc["meta"].get("schema") == "tca-metrics-v1", "unknown metrics schema"
assert doc["counters"].get("fabric.payload_bytes", 0) > 0, \
    "no payload crossed the fabric"
print(f"metrics JSON OK ({len(doc['counters'])} counters)")
EOF
else
  # No python3: at least require the schema marker and a fabric counter.
  grep -q '"schema": "tca-metrics-v1"' "$METRICS_JSON"
  grep -q '"fabric.payload_bytes"' "$METRICS_JSON"
  echo "metrics JSON OK (grep fallback)"
fi

echo "== tca_explore --workload smoke =="
"$BUILD"/tools/tca_explore --workload allreduce --size 65536 --nodes 4
"$BUILD"/tools/tca_explore --workload halo --size 2048 --nodes 4

echo "== chaos smoke (seeded campaigns + same-seed replay check) =="
# Fast slice of the nightly soak: 25 seeded campaigns over both fabrics,
# each replayed to hold metrics/traces byte-identical, plus a replay of the
# committed regression corpus. The full 1000+-campaign sweep runs nightly
# (.github/workflows/nightly-soak.yml).
# TCA_LOG=error: fault campaigns legitimately emit driver/link WARNs;
# keep the per-campaign summary lines readable.
TCA_LOG=error "$BUILD"/tools/tca_chaos --seed 1 --campaigns 25 --replay-check
TCA_LOG=error "$BUILD"/tools/tca_chaos --corpus tests/chaos

echo "== tca_explore torus smoke =="
# 2D torus, dimension-order routed: a cross-dimension DMA plus collectives
# riding the boustrophedon ring order (allreduce verifies the result, halo
# each rank's rows from its ring neighbors). The 4x4 allreduce also writes
# its --trace, which must parse with events in it; the 8x8 one (64 ranks
# spinning on flags) is the smallest row of bench_perf.sh's torus scaling.
TRACE_JSON=$(mktemp)
trap 'rm -f "$METRICS_JSON" "$TRACE_JSON"' EXIT
"$BUILD"/tools/tca_explore --topology torus:4x4 --op pipelined \
  --target remote-host --dest 5 --burst 8 --sizes 4096
"$BUILD"/tools/tca_explore --topology torus:4x4 --workload halo --size 2048
"$BUILD"/tools/tca_explore --topology torus:4x4 --workload allreduce \
  --size 65536 --trace "$TRACE_JSON"
"$BUILD"/tools/tca_explore --topology torus:8x8 --workload allreduce \
  --size 65536
if command -v python3 > /dev/null 2>&1; then
  python3 - "$TRACE_JSON" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    events = json.load(f).get("traceEvents")
assert isinstance(events, list) and events, "trace JSON has no traceEvents"
print(f"trace JSON OK ({len(events)} events)")
EOF
else
  # No python3: at least require the event array and one recorded span.
  grep -q '"traceEvents":\[' "$TRACE_JSON"
  grep -q '"ph":"X"' "$TRACE_JSON"
  echo "trace JSON OK (grep fallback)"
fi

echo "check.sh: OK"
