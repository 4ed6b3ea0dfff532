#!/usr/bin/env bash
# Tier-1 verification plus sanitizer passes (TSan on the batch engine and
# the shared script-outcome memo, ASan on fault/cell paths and the HTML/CSS
# front end, UBSan on the event engine, MiniScript and the HTML/CSS front
# end) and a throughput gate against scripts/perf_baseline.json.
#
#   scripts/check.sh            # full check
#   JOBS=8 scripts/check.sh     # pin build/test parallelism
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"

echo "== tier-1: configure + build + ctest =="
cmake -B build -S .
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS" | tee build/ctest.log
# A skipped test checks nothing.  Parameter matrices instantiate over the
# cases that actually exist (no index range padded with GTEST_SKIPs), so any
# skip fails the gate instead of passing silently.
if grep -q '(Skipped)' build/ctest.log; then
  echo "TIER-1 FAILED: ctest skipped tests:" >&2
  grep '(Skipped)' build/ctest.log >&2
  exit 1
fi

echo "== knobs: registry and README name the same EAB_* knobs =="
# Every knob registered in bench/knobs.hpp is documented in README.md and
# README.md documents no knob the registry lacks.  EAB_SANITIZE is a CMake
# build option, not a bench knob.
registered=$(grep -oE '_knob\("EAB_[A-Z0-9_]+"' bench/knobs.hpp \
  | grep -oE 'EAB_[A-Z0-9_]+' | sort -u)
documented=$(grep -oE 'EAB_[A-Z0-9_]+' README.md | grep -vx EAB_SANITIZE \
  | sort -u)
if [ "$registered" != "$documented" ]; then
  echo "KNOB DOCS FAILED: bench/knobs.hpp (<) vs README.md (>):" >&2
  diff <(echo "$registered") <(echo "$documented") >&2 || true
  exit 1
fi
echo "$(echo "$registered" | wc -l) knobs registered and documented"

# Runs web_parse_oracle_test from the build directory $1.  Its truncated-
# prefix shards are the slow part under a sanitizer (about 80 s each under
# ASan), so they run side by side with the rest of the suite.
run_parse_oracle() {
  local bin="$1/tests/web_parse_oracle_test" pids=() pid shard
  for shard in 0 1 2 3; do
    "$bin" --gtest_filter="Shards/PrefixOracle.*/$shard" &
    pids+=("$!")
  done
  "$bin" --gtest_filter='-Shards/PrefixOracle.*'
  for pid in "${pids[@]}"; do wait "$pid"; done
}

echo "== TSan: core_batch_test under -fsanitize=thread =="
cmake -B build-tsan -S . -DEAB_SANITIZE=thread
cmake --build build-tsan -j "$JOBS" --target core_batch_test \
  --target web_js_memo_test
# Force multiple workers even on small machines so the pool is exercised.
EAB_JOBS=4 ./build-tsan/tests/core_batch_test
# The script-outcome memo is one per process: four BatchRunner workers race
# lookups, admissions and replays of the same chain on it.
./build-tsan/tests/web_js_memo_test \
  --gtest_filter='ScriptMemo.ThreadedSameChainIsIdentical'

echo "== ASan: fault-path tests under -fsanitize=address =="
# The fault layer synthesizes partial resources and cancels in-flight
# events/flows; ASan guards the lifetime contracts (retained partial bodies,
# stale-callback drops, cancelled-flow teardown).
cmake -B build-asan -S . -DEAB_SANITIZE=address
cmake --build build-asan -j "$JOBS" \
  --target net_fault_test --target net_http_test --target web_robustness_test \
  --target web_js_resolve_test --target web_parse_oracle_test
./build-asan/tests/net_fault_test
./build-asan/tests/net_http_test
./build-asan/tests/web_robustness_test
# The HTML tokenizer and CSS parser hand out slices of the resource body
# they parse; the parse oracle's truncated prefixes, soups and edge cases
# make a slice that outlives or overruns its body an ASan report here.
run_parse_oracle build-asan
# MiniScript function values point into the resolved program that declared
# them; the resolve oracle's chains call functions declared by earlier
# scripts, so a program freed too early is a use-after-free here.
./build-asan/tests/web_js_resolve_test
# The UE stack every driver is built on (core::UeStack): the CPU scheduler
# disarms an aborted load's running task, and the single-load and session
# pins run every optional layer (faults, outages, cache storms, RIL
# failures, aborts, tracing) through one wiring.
cmake --build build-asan -j "$JOBS" \
  --target browser_cpu_test --target core_scenario_test \
  --target core_session_test
./build-asan/tests/browser_cpu_test
./build-asan/tests/core_scenario_test
./build-asan/tests/core_session_test

echo "== chaos: seeded sweep + reproducer corpus replay =="
# 256 seed-derived cross-layer fault scenarios (net faults, RIL failures,
# timer drift, mid-load aborts, cache storms, CPU slowdown) audited against
# the invariant oracle; the bench exits non-zero on any violation or hang.
# Then the checked-in minimal reproducers are replayed byte-for-byte.
(cd build/bench && EAB_CHAOS_SEEDS=256 ./bench_ext_chaos > /dev/null)
./build/examples/chaos_replay tests/chaos_corpus/*.json
# A smaller sweep under ASan guards the abort/teardown lifetime contracts
# (cancelled flows, settled-after-abort callbacks, storm-cleared caches).
cmake --build build-asan -j "$JOBS" --target bench_ext_chaos
(cd build-asan/bench && EAB_CHAOS_SEEDS=64 ./bench_ext_chaos > /dev/null)
echo "chaos contract held"

echo "== cell: co-simulation determinism + ASan sweep =="
# The shared-cell co-simulation must be a pure function of its config
# (serial == BatchRunner-sharded sweeps, audited traces) — cell_test covers
# that in-process; run it in the tier-1 build, then the 32-seed chaos sweep
# over cell scenarios again under ASan to guard the per-session teardown
# (client/load replacement, stale abort events, grant release on demotion).
./build/tests/cell_test
cmake --build build-asan -j "$JOBS" --target cell_test
# 16 seeds under ASan: half the in-process sweep, same fault atoms.  The
# cell codec tests ride along: the decoder parses bytes from worker pipes
# and crash journals, so torn, padded and oversized-count records run under
# ASan too.  The round-trip test runs with abort_rate 0.2: an aborted
# load's running JS task must not call back into the freed PageLoad.
EAB_CELL_CHAOS_SEEDS=16 ./build-asan/tests/cell_test \
  --gtest_filter='CellTest.ChaosSweepOverCellScenarios:CellTest.GrantExhaustionDropsSessionsAndStaysClean:CellTest.SameSeedSameResult:CellTest.CellCodecRejectsTornAndPaddedRecords:CellTest.CellCodecRejectsOversizedUeCount:CellTest.CellCodecLayoutIsPinned:CellTest.CellResultSerializationRoundTripsBitExactly'
# A small --cell bench run end-to-end: knobs parse, JSON lands, exit 0.
(cd build/bench && EAB_CELL_USERS=8 EAB_CELL_SEED=3 ./bench_fig11_capacity --cell > /dev/null)
echo "cell checks passed"

echo "== radio failure: RLF/outage boundary sweep + null-path bytes =="
# The degraded-radio contract (DESIGN.md "Radio failure model"): coverage
# holes at every RRC state and fetch-settle boundary must tear down cleanly
# (no leaked flows/markers, audited traces) — run under ASan because RLF
# cancels in-flight signalling and settles fetches from a failing state.
cmake --build build-asan -j "$JOBS" \
  --target radio_outage_boundary_test --target radio_rrc_test
./build-asan/tests/radio_outage_boundary_test
./build-asan/tests/radio_rrc_test
# Trimmed cell outage sweep under ASan: serial == supervised with per-UE
# fades and whole-cell blackouts active.
EAB_CELL_OUTAGE_SEEDS=8 ./build-asan/tests/cell_test \
  --gtest_filter='CellTest.OutageSweepSerialShardedSupervisedBitIdentical'
# Null path: with the outage knobs explicitly set to their disabled values,
# the --cell bench must emit byte-identical stdout and artifacts to a run
# that never mentions them.
radio=build/bench/radio_null
rm -rf "$radio"
mkdir -p "$radio"
radio_env="EAB_CELL_USERS=8 EAB_CELL_SEED=3"
(cd build/bench && env $radio_env ./bench_fig11_capacity --cell \
  > radio_null/ref_stdout.txt)
cp build/bench/BENCH_cell.json "$radio/ref_cell.json"
cp build/bench/BENCH_cell.metrics.json "$radio/ref_cell.metrics.json"
(cd build/bench && env $radio_env EAB_OUTAGE_COUNT=0 EAB_CELL_OUTAGE_COUNT=0 \
  ./bench_fig11_capacity --cell > radio_null/off_stdout.txt)
cmp "$radio/ref_stdout.txt" "$radio/off_stdout.txt"
cmp "$radio/ref_cell.json" build/bench/BENCH_cell.json
cmp "$radio/ref_cell.metrics.json" build/bench/BENCH_cell.metrics.json
# Enabled path end-to-end: the ext_faults outage sweep (both pipelines, three
# re-establishment failure rates) with every load traced and audited.
(cd build/bench && EAB_TRACE=1 EAB_OUTAGE_COUNT=2 EAB_OUTAGE_START=1 \
  EAB_OUTAGE_PERIOD=6 EAB_OUTAGE_DURATION=1.5 ./bench_ext_faults > /dev/null)
echo "radio failure checks passed"

echo "== supervision: crash-recovery soak =="
# The bit-identity contract end-to-end: a supervised --cell sweep whose
# workers AND orchestrator are SIGKILLed at seed-derived points must, after
# relaunching from the checkpoint journal, produce stdout, BENCH_cell.json
# and the metrics snapshot byte-identical to an uninterrupted in-process
# run.  Three chaos seeds drive different kill schedules; the grep at the
# end requires at least 8 injected kills and at least one orchestrator kill
# across the soak.
soak=build/bench/soak
rm -rf "$soak"
mkdir -p "$soak"
soak_env="EAB_CELL_USERS=16 EAB_CELL_SEED=5"
(cd build/bench && env $soak_env ./bench_fig11_capacity --cell > soak/ref_stdout.txt)
cp build/bench/BENCH_cell.json "$soak/ref_cell.json"
cp build/bench/BENCH_cell.metrics.json "$soak/ref_cell.metrics.json"

# Supervised but uninterrupted: forked workers, same bytes.
(cd build/bench && env $soak_env EAB_SUPERVISE=1 EAB_WORKERS=2 \
  ./bench_fig11_capacity --cell > soak/sup_stdout.txt 2> soak/sup_stderr.txt)
cmp "$soak/ref_stdout.txt" "$soak/sup_stdout.txt"
cmp "$soak/ref_cell.json" build/bench/BENCH_cell.json
cmp "$soak/ref_cell.metrics.json" build/bench/BENCH_cell.metrics.json

# Chaos: relaunch until the sweep survives its own kill schedule.  Each
# launch is killed mid-run (workers at seed-derived commit points, the
# orchestrator once, right after a durable commit), so convergence itself
# proves the journal resumes; stdout is rewritten per launch, leaving the
# final successful launch's output for the byte-compare.
for chaos_seed in 77 101 202; do
  rm -rf "$soak/ckpt"
  mkdir -p "$soak/ckpt"
  relaunches=0
  until (cd build/bench && env $soak_env EAB_SUPERVISE=1 EAB_WORKERS=2 \
      EAB_CHECKPOINT_DIR="soak/ckpt" EAB_SELF_CHAOS="$chaos_seed" \
      EAB_SELF_CHAOS_KILLS=16 EAB_SELF_CHAOS_ORC=1 \
      ./bench_fig11_capacity --cell > soak/chaos_stdout.txt \
      2>> soak/chaos_stderr.txt); do
    relaunches=$((relaunches + 1))
    if [ "$relaunches" -gt 20 ]; then
      echo "SOAK FAILED: seed $chaos_seed never converged" >&2
      exit 1
    fi
  done
  echo "chaos seed $chaos_seed: recovered after $relaunches relaunch(es)"
  cmp "$soak/ref_stdout.txt" "$soak/chaos_stdout.txt"
  cmp "$soak/ref_cell.json" build/bench/BENCH_cell.json
  cmp "$soak/ref_cell.metrics.json" build/bench/BENCH_cell.metrics.json
done
kills=$(grep -c 'supervisor: chaos SIGKILL' "$soak/chaos_stderr.txt")
orc_kills=$(grep -c 'supervisor: chaos SIGKILL orchestrator' "$soak/chaos_stderr.txt")
echo "soak: $kills chaos kills injected ($orc_kills orchestrator)"
if [ "$kills" -lt 8 ] || [ "$orc_kills" -lt 1 ]; then
  echo "SOAK FAILED: expected >= 8 kills incl >= 1 orchestrator kill" >&2
  exit 1
fi
echo "crash recovery byte-identical under $kills SIGKILLs"

# The supervision layer itself under ASan: fork/pipe lifecycle, journal
# recovery buffers, torn-tail truncation.
cmake --build build-asan -j "$JOBS" \
  --target core_supervisor_test --target core_checkpoint_test
./build-asan/tests/core_supervisor_test
./build-asan/tests/core_checkpoint_test

echo "== metro: multi-cell mobility determinism + ASan sweep =="
# Tier-1 metro suites in the regular build: the full metro contract
# (1-cell ≡ run_cell bytes, execution-tier invariance, ledger conservation,
# audited mobility traces) plus the forced-handover boundary matrix.
./build/tests/metro_test
./build/tests/metro_handover_boundary_test
# 16 mobility seeds under ASan: a handover pauses flows mid-fetch and
# re-routes them through another scheduler, a refused admission aborts the
# load from inside the move — ASan guards those cross-cell lifetimes.  The
# metro codec tests ride along for the same reason as the cell ones.
cmake --build build-asan -j "$JOBS" \
  --target metro_test --target metro_handover_boundary_test
EAB_METRO_SWEEP_SEEDS=16 ./build-asan/tests/metro_test \
  --gtest_filter='MetroTest.MobilitySeedSweepStaysClean:MetroTest.MobilityLedgerConserves:MetroTest.SerializeRoundTripsAndRejectsGarbage:MetroTest.MetroCodecRejectsOversizedCellCount:MetroTest.MetroCodecLayoutIsPinned'
./build-asan/tests/metro_handover_boundary_test
# Disabled-mobility gate: a 1-cell, zero-dwell metro must reproduce plain
# cell::run_cell byte for byte (telemetry and outages included).
./build/tests/metro_test \
  --gtest_filter='MetroTest.OneCellZeroMobilityIsByteIdenticalToRunCell:MetroTest.OneCellTelemetryAndOutagesStillMatchRunCell'
# End-to-end acceptance: stdout and BENCH_metro.json byte-identical across
# serial and supervised runs of the same metro sweep.
metro=build/bench/metro_check
rm -rf "$metro"
mkdir -p "$metro"
metro_env="EAB_METRO_GRID_W=2 EAB_METRO_GRID_H=2 EAB_METRO_USERS=6 EAB_METRO_HORIZON=120"
(cd build/bench && env $metro_env ./bench_metro > metro_check/ref_stdout.txt)
cp build/bench/BENCH_metro.json "$metro/ref_metro.json"
(cd build/bench && env $metro_env EAB_SUPERVISE=1 EAB_WORKERS=2 \
  ./bench_metro > metro_check/sup_stdout.txt 2>> metro_check/sup_stderr.txt)
cmp "$metro/ref_metro.json" build/bench/BENCH_metro.json
cmp "$metro/ref_stdout.txt" "$metro/sup_stdout.txt"
echo "metro sweep byte-identical across serial/supervised"

echo "== telemetry: determinism suite + overhead gate + cross-mode bytes =="
# The telemetry ladder (DESIGN.md §11): integer-quanta merge associativity,
# codec corruption rejection, and the sampling-never-bends-the-workload
# contract — run under ASan because series ship across process boundaries
# as bytes decoded by the util/bytes.hpp field visitor.
cmake --build build-asan -j "$JOBS" --target obs_telemetry_test
./build-asan/tests/obs_telemetry_test
# bench_obs_overhead's sampling phase: cell workload bit-identical with
# telemetry on, wall-clock overhead within the 5% budget.  The bench
# enforces both internally (nonzero exit), and the grep makes the JSON
# fields load-bearing too.
(cd build/bench && ./bench_obs_overhead > /dev/null)
grep -q '"sampling_within_budget": true' build/bench/BENCH_obs_overhead.json
grep -q '"cell_workload_identical": true' build/bench/BENCH_obs_overhead.json
# End-to-end acceptance: BENCH_cell.timeseries.json must be byte-identical
# across serial and supervised runs of the same sweep.
ts_env="EAB_CELL_USERS=16 EAB_CELL_SEED=5 EAB_TELEMETRY=1"
(cd build/bench && env $ts_env ./bench_fig11_capacity --cell > /dev/null)
cp build/bench/BENCH_cell.timeseries.json "$soak/ref_cell.timeseries.json"
(cd build/bench && env $ts_env EAB_SUPERVISE=1 EAB_WORKERS=2 \
  ./bench_fig11_capacity --cell > /dev/null 2>> soak/sup_stderr.txt)
cmp "$soak/ref_cell.timeseries.json" build/bench/BENCH_cell.timeseries.json
echo "telemetry series byte-identical across serial/supervised"

echo "== UBSan: event-engine, MiniScript and HTML/CSS tests under -fsanitize=undefined =="
# The pooled event engine type-erases callables into recycled slot storage
# (placement new, raw vtable calls, power-of-two size-class blocks); UBSan
# guards the alignment/lifetime contracts, driven hardest by the
# differential test's random op soups.  MiniScript
# turns script doubles into indexes and remainders; float-cast-overflow
# (named explicitly in CMakeLists.txt) catches any that reach a cast out of
# range, over the fuzz soups, random programs and the memo and resolve
# oracles' corpus, truncated and budget chains.  The HTML/CSS front end
# computes slice offsets and lengths from terminator searches; the parse
# oracle drives them over corpus pages, truncated prefixes and soups.
cmake -B build-ubsan -S . -DEAB_SANITIZE=undefined
cmake --build build-ubsan -j "$JOBS" \
  --target sim_simulator_test --target sim_differential_test \
  --target web_js_test --target web_robustness_test --target web_js_memo_test \
  --target web_js_resolve_test --target web_parse_oracle_test
./build-ubsan/tests/sim_simulator_test
./build-ubsan/tests/sim_differential_test
./build-ubsan/tests/web_js_test
run_parse_oracle build-ubsan
./build-ubsan/tests/web_js_resolve_test
./build-ubsan/tests/web_robustness_test
./build-ubsan/tests/web_js_memo_test

echo "== perf gate: simulator throughput vs checked-in baseline =="
# bench_throughput's serial events/s must stay within a generous margin of
# scripts/perf_baseline.json (40% floor: catches an accidental O(n) in the
# hot path, ignores machine-to-machine noise).  Refresh the baseline with
# scripts/check.sh's printed value when the engine is deliberately retuned.
(cd build/bench && ./bench_throughput > /dev/null)
actual=$(grep -o '"serial_events_per_sec": [0-9.]*' build/bench/BENCH_throughput.json | awk '{print $2}')
baseline=$(grep -o '"serial_events_per_sec": [0-9.]*' scripts/perf_baseline.json | awk '{print $2}')
floor=$(awk -v b="$baseline" 'BEGIN { printf "%.1f", b * 0.4 }')
echo "serial events/s: actual=$actual baseline=$baseline floor=$floor"
awk -v a="$actual" -v f="$floor" 'BEGIN { exit !(a >= f) }' || {
  echo "PERF REGRESSION: serial_events_per_sec $actual < floor $floor" >&2
  exit 1
}

echo "== trace audit: benches under EAB_TRACE=1 =="
# Every load/session records a structured trace and the TraceAuditor replays
# it (RRC legality, timer discipline, transfer markers, retry budget, energy
# reconciliation).  The benches exit non-zero on any violation or epsilon
# breach, which fails this script.
(cd build/bench && EAB_TRACE=1 ./bench_fig10_energy > /dev/null)
(cd build/bench && EAB_TRACE=1 ./bench_fig16_policies > /dev/null)
(cd build/bench && EAB_TRACE=1 ./bench_ext_faults > /dev/null)
echo "trace audits passed"

echo "== all checks passed =="
