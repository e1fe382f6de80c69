#!/usr/bin/env bash
# Simulator-core performance measurement (see docs/ARCHITECTURE.md,
# "Simulator core performance").
#
# Builds Release (the `perf` preset's build-perf/ tree), then:
#   1. bench_sim_core — events/sec of sim::Scheduler vs. the seed queue
#      (bench/seed_scheduler.h) on synthetic churn (gates the >=3x headline
#      and timer_fire_small >= 1.0x), plus determinism / seed-equivalence
#      checks.
#   2. The collective-library sweeps (bench_coll_allreduce, bench_coll_halo)
#      against the conventional MPI/IB stack.
#   3. End-to-end host cost of every full-simulator bench: wall, user and
#      kernel time, minor page faults and peak RSS per bench (median-wall
#      run of three, interleaved across benches). The same loop times
#      tca_explore's 64 KiB allreduce on torus:8x8 and torus:16x16 (64 and
#      256 ranks spinning on flags); torus:32x32 (1024 nodes, about a
#      minute) runs once after it.
#
# That simulated results stay put is the golden gate's job (`ctest -L
# repro`, tests/golden/), not this script's.
#
# Everything lands in BENCH_sim_core.json, BENCH_coll.json and
# BENCH_e2e.json at the repository root. Collector outputs (reports, JSON
# fragments) live under $BUILD/bench_out inside the repo — require_in_repo
# refuses any path that escapes the repository root, loudly.
set -u
cd "$(dirname "$0")/.."
REPO_ROOT=$(pwd)

BUILD=build-perf
OUT="$BUILD/bench_out"
JSON=BENCH_sim_core.json
COLL_JSON=BENCH_coll.json
E2E_JSON=BENCH_e2e.json
# Every bench that runs the full simulator: figures, tables, extensions,
# ablation, related work and collectives (step 1 is a microbench).
E2E_BENCHES="bench_fig7_dma_local bench_fig8_dma_single bench_fig9_dma_chain
  bench_fig10_pio_latency bench_fig12_remote_dma bench_table1_system_spec
  bench_table2_test_env bench_peak_efficiency bench_ext_channels
  bench_ext_reliability bench_ext_small_dma bench_ablation_dmac
  bench_related_ntb bench_ring_scaling bench_tca_vs_ib bench_coll_allreduce
  bench_coll_halo"

# Every path a collector writes must resolve inside the repository root.
# A collector quietly dropping files in /tmp (or anywhere else outside the
# repo) is how benchmark artifacts silently diverge from what gets
# committed — fail loudly instead.
require_in_repo() {
  local resolved
  resolved=$(realpath -m "$1")
  case "$resolved" in
    "$REPO_ROOT"/*) return 0 ;;
    *)
      echo "FATAL: collector output '$1' resolves to '$resolved'," >&2
      echo "       which is outside the repository root '$REPO_ROOT'" >&2
      exit 1
      ;;
  esac
}

cmake --preset perf > /dev/null || exit 1
# E2E_BENCHES is a word list: left unquoted on purpose here and below.
cmake --build --preset perf -j --target bench_sim_core tca_explore \
  $E2E_BENCHES > /dev/null || exit 1
mkdir -p "$OUT"

echo "== bench_sim_core (events/sec: indexed vs. seed queue) =="
status=0
require_in_repo "$JSON"
"$BUILD"/bench/bench_sim_core --json "$JSON" || status=1
echo
echo "wrote $JSON"

echo
echo "== collective library vs the conventional stack =="
require_in_repo "$OUT/bench_coll_allreduce.json"
require_in_repo "$OUT/bench_coll_halo.json"
"$BUILD"/bench/bench_coll_allreduce --json "$OUT/bench_coll_allreduce.json" \
  > "$OUT/bench_coll_allreduce.txt" 2>&1 || status=1
"$BUILD"/bench/bench_coll_halo --json "$OUT/bench_coll_halo.json" \
  > "$OUT/bench_coll_halo.txt" 2>&1 || status=1
{
  echo "{"
  echo "\"allreduce\":"
  cat "$OUT/bench_coll_allreduce.json"
  echo ","
  echo "\"halo\":"
  cat "$OUT/bench_coll_halo.json"
  echo "}"
} > "$COLL_JSON"
echo
echo "wrote $COLL_JSON"

echo
echo "== end-to-end host cost of every full-simulator bench =="
for bench in $E2E_BENCHES torus_8x8 torus_16x16 torus_32x32; do
  require_in_repo "$OUT/$bench.e2e.txt"
done
# Each run's own wall, user and kernel time and minor faults come from
# os.wait4 on that child (/usr/bin/time is not assumed installed).
# getrusage(RUSAGE_CHILDREN) would also count whatever the interpreter's
# launcher ran before exec (a pyenv shim, say), and its max RSS is a
# maximum over all of those. Peak RSS is the `VmHWM:` line each bench
# prints to stderr on exit (bench::ShapeCheck::finish): a posix_spawn'ed
# child's ru_maxrss starts at the interpreter's own high-water mark, so it
# never reads below it. ru_maxrss stands in when a bench prints no such
# line. Repetitions are interleaved across benches, so a slow phase of the
# box is spread over every bench. The torus rows are tca_explore runs, which
# print no VmHWM line: their RSS is ru_maxrss.
python3 - "$BUILD/bench" "$BUILD/tools/tca_explore" "$OUT" "$E2E_JSON" \
  $E2E_BENCHES <<'EOF' || status=1
import json, os, re, sys, time
bin_dir, explore, out_dir, json_path, *benches = sys.argv[1:]
REPS = 3
HWM = re.compile(r"^VmHWM:\s+(\d+)\s+kB", re.M)
TORUS = ("8x8", "16x16", "32x32")  # 64, 256 and 1024 nodes
commands = {name: [os.path.join(bin_dir, name)] for name in benches}
for shape in TORUS:
    commands["torus_" + shape] = [
        explore, "--topology", "torus:" + shape, "--workload", "allreduce",
        "--size", "65536"]
runs = {name: [] for name in commands}

def run(name):
    argv = commands[name]
    out_path = os.path.join(out_dir, name + ".e2e.txt")
    with open(out_path, "w") as out:
        start = time.monotonic()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=[
            (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, out.fileno(), 2)])
        _, status, ru = os.wait4(pid, 0)
        wall = time.monotonic() - start
    with open(out_path) as out:
        hwm = HWM.search(out.read())
    rss_kb = int(hwm.group(1)) if hwm else ru.ru_maxrss
    runs[name].append({
        "exit": os.waitstatus_to_exitcode(status), "wall_s": wall,
        "user_s": ru.ru_utime, "sys_s": ru.ru_stime,
        "minor_faults": ru.ru_minflt, "max_rss_mb": rss_kb / 1024,
        "rss_source": "VmHWM" if hwm else "ru_maxrss"})

for _ in range(REPS):
    for name in commands:
        if name != "torus_32x32":
            run(name)
run("torus_32x32")
cpu = "unknown"
with open("/proc/cpuinfo") as f:
    for line in f:
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
doc = {"host": {"cpu": cpu, "cpus": os.cpu_count()},
       "pick": f"median-wall run of {REPS} (torus_32x32: its one run), all "
               "its fields from that one run",
       "rss": "max_rss_mb is the bench's own VmHWM at exit (ru_maxrss "
              "where rss_source says so)",
       "torus": "torus_<shape>: tca_explore --topology torus:<shape> "
                "--workload allreduce --size 65536",
       "benches": {}}
failed = [name for name, reps in runs.items()
          if any(r["exit"] != 0 for r in reps)]
print(f"{'bench':26} {'wall s':>7} {'user s':>7} {'sys s':>7} {'sys %':>6}"
      f" {'minflt':>9} {'RSS MB':>7}")
for name, reps in runs.items():
    r = sorted(reps, key=lambda r: r["wall_s"])[len(reps) // 2]
    cpu_s = r["user_s"] + r["sys_s"]
    share = r["sys_s"] / cpu_s if cpu_s > 0 else 0.0
    doc["benches"][name] = {
        "wall_s": round(r["wall_s"], 3), "user_s": round(r["user_s"], 3),
        "sys_s": round(r["sys_s"], 3), "sys_share": round(share, 3),
        "minor_faults": r["minor_faults"],
        "max_rss_mb": round(r["max_rss_mb"], 1),
        "rss_source": r["rss_source"],
        "wall_s_runs": sorted(round(x["wall_s"], 3) for x in reps)}
    print(f"{name:26} {r['wall_s']:7.3f} {r['user_s']:7.3f} {r['sys_s']:7.3f}"
          f" {100 * share:5.1f}% {r['minor_faults']:9d}"
          f" {r['max_rss_mb']:7.1f}")
doc["all_exit_zero"] = not failed
with open(json_path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
if failed:
    print("FAILED (nonzero exit): " + " ".join(failed))
    sys.exit(1)
EOF
echo
echo "wrote $E2E_JSON"
exit $status
