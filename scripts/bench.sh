#!/usr/bin/env bash
# bench.sh — the per-PR bench runner: measures the translation hot path
# and the fleet control loop (go test -bench) and the full quick-scale
# experiment suite serial vs parallel, verifies the parallel run is
# byte-identical, verifies core-sharded stepping is output-transparent
# across widths, and emits a machine-readable
# BENCH_<n>.json extending the perf trajectory. The previous PR's
# BENCH_<n-1>.json is required — it is embedded as the before_this_pr
# baseline so regressions are visible in one file; a missing or
# malformed baseline aborts the run rather than silently emitting a
# trajectory with a hole in it.
#
# Usage: scripts/bench.sh [output.json]
set -euo pipefail
cd "$(dirname "$0")/.."

out=${1:-BENCH_10.json}
pr=$(basename "$out" .json | sed 's/^BENCH_//')
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# The baseline is checked before spending minutes benchmarking. Not
# every PR re-runs the bench, so fall back to the highest-numbered
# BENCH file below this one rather than demanding exactly pr-1.
prev=""
for ((k = pr - 1; k >= 1; k--)); do
    if [ -f "BENCH_$k.json" ]; then
        prev="BENCH_$k.json"
        break
    fi
done
if [ -z "$prev" ]; then
    echo "bench.sh: no baseline BENCH_<k>.json (k < $pr) found." >&2
    echo "bench.sh: the perf trajectory needs the pre-PR numbers; check out a" >&2
    echo "bench.sh: previous PR's BENCH file (or pass the right output name:" >&2
    echo "bench.sh: 'scripts/bench.sh BENCH_$pr.json' looks for the highest" >&2
    echo "bench.sh: BENCH below $pr beside it)." >&2
    exit 1
fi
before=$(awk '/"benchmarks_ns_per_op": \{/,/\}/' "$prev" | sed '1d;$d')
if [ -z "$before" ]; then
    echo "bench.sh: $prev is malformed: no benchmarks_ns_per_op object found." >&2
    echo "bench.sh: regenerate it at the pre-PR tree before benchmarking this one." >&2
    exit 1
fi
if echo "$before" | grep -Evq '^\s*"[^"]+": [0-9]+(\.[0-9]+)?,?\s*$'; then
    echo "bench.sh: $prev is malformed: benchmarks_ns_per_op has non-numeric entries:" >&2
    echo "$before" | grep -Ev '^\s*"[^"]+": [0-9]+(\.[0-9]+)?,?\s*$' >&2
    exit 1
fi
before_note="measured at the pre-PR tree ($prev), same benchmarks"

# run_bench PKG PATTERN OUT — one go test -bench invocation. A compile
# error, panic, or failed benchmark aborts the whole run with an explicit
# message instead of flowing a partial bench log into ns_of (which would
# either die on a missing line or, worse, emit a truncated BENCH json).
run_bench() {
    local pkg=$1 pattern=$2 outfile=$3
    if ! go test -run '^$' -bench "$pattern" -benchtime 1s "$pkg" \
        > "$outfile" 2> "$tmp/bench_err.txt"; then
        echo "bench.sh: FAIL: 'go test -bench $pattern $pkg' exited non-zero." >&2
        echo "bench.sh: no BENCH json was written; fix the benchmark and re-run." >&2
        echo "--- benchmark output ---" >&2
        cat "$outfile" "$tmp/bench_err.txt" >&2
        exit 1
    fi
    cat "$outfile"
}

echo "== micro-benchmarks (internal/sim + facade + fleet) =="
run_bench ./internal/sim/ 'BenchmarkTranslate$|BenchmarkMachineRun' "$tmp/bench_sim.txt"
run_bench . 'BenchmarkTLBLookup$|BenchmarkTranslateWalk$' "$tmp/bench_root.txt"
run_bench ./internal/fleet/ 'BenchmarkFleetEpoch$|BenchmarkFleetLoadEpoch$' "$tmp/bench_fleet.txt"

# ns_of NAME FILE — ns/op of one benchmark line ("Name-8  N  12.3 ns/op");
# fails loudly when the benchmark did not produce a number.
ns_of() {
    local ns
    ns=$(awk -v name="$1" '$1 ~ "^"name"(-[0-9]+)?$" { print $3; exit }' "$2")
    if [ -z "$ns" ]; then
        echo "bench.sh: benchmark $1 produced no ns/op line in $2" >&2
        exit 1
    fi
    echo "$ns"
}
ns_translate=$(ns_of BenchmarkTranslate "$tmp/bench_sim.txt")
ns_run_base=$(ns_of 'BenchmarkMachineRun/Baseline' "$tmp/bench_sim.txt")
ns_run_bf=$(ns_of 'BenchmarkMachineRun/BabelFish' "$tmp/bench_sim.txt")
ns_run_wide=$(ns_of 'BenchmarkMachineRun/BabelFishWide' "$tmp/bench_sim.txt")
ns_run_shard=$(ns_of 'BenchmarkMachineRun/BabelFishSharded' "$tmp/bench_sim.txt")
ns_run_victima=$(ns_of 'BenchmarkMachineRun/Victima' "$tmp/bench_sim.txt")
ns_run_coal=$(ns_of 'BenchmarkMachineRun/Coalesced' "$tmp/bench_sim.txt")
ns_tlb=$(ns_of BenchmarkTLBLookup "$tmp/bench_root.txt")
ns_walk=$(ns_of BenchmarkTranslateWalk "$tmp/bench_root.txt")
ns_fleet=$(ns_of BenchmarkFleetEpoch "$tmp/bench_fleet.txt")
ns_fleet_load=$(ns_of BenchmarkFleetLoadEpoch "$tmp/bench_fleet.txt")

# instr_of NAME FILE — the instrs/op metric of one MachineRun line. The
# classic and sharded schedules simulate different instruction mixes per
# op, so speedups are compared per simulated instruction, not per op.
instr_of() {
    local n
    n=$(awk -v name="$1" '$1 ~ "^"name"(-[0-9]+)?$" { print $5; exit }' "$2")
    if [ -z "$n" ]; then
        echo "bench.sh: benchmark $1 produced no instrs/op metric in $2" >&2
        exit 1
    fi
    echo "$n"
}
instr_wide=$(instr_of 'BenchmarkMachineRun/BabelFishWide' "$tmp/bench_sim.txt")
instr_shard=$(instr_of 'BenchmarkMachineRun/BabelFishSharded' "$tmp/bench_sim.txt")

shard_machine_speedup=$(awk -v cns="$ns_run_wide" -v ci="$instr_wide" \
    -v sns="$ns_run_shard" -v si="$instr_shard" \
    'BEGIN { printf "%.3f", (cns/ci)/(sns/si) }')

echo "== experiment suite wall-clock: jobs=1 vs jobs=4 =="
go build -o "$tmp/bfbench" ./cmd/bfbench

t0=$(date +%s%N)
"$tmp/bfbench" -quick -format json -jobs 1 > "$tmp/serial.json"
t1=$(date +%s%N)
"$tmp/bfbench" -quick -format json -jobs 4 > "$tmp/par.json"
t2=$(date +%s%N)

serial_s=$(awk -v a="$t0" -v b="$t1" 'BEGIN { printf "%.3f", (b-a)/1e9 }')
par_s=$(awk -v a="$t1" -v b="$t2" 'BEGIN { printf "%.3f", (b-a)/1e9 }')
speedup=$(awk -v s="$serial_s" -v p="$par_s" 'BEGIN { printf "%.2f", s/p }')

identical=true
if ! cmp -s "$tmp/serial.json" "$tmp/par.json"; then
    identical=false
    echo "FAIL: serial and jobs=4 suite output diverge" >&2
fi
echo "serial ${serial_s}s, jobs=4 ${par_s}s (speedup ${speedup}x), identical=$identical"

echo "== core-sharded stepping: suite -core-shards=1 vs 4 =="
t3=$(date +%s%N)
"$tmp/bfbench" -quick -format json -jobs 1 -core-shards 1 > "$tmp/shards1.json"
t4=$(date +%s%N)
"$tmp/bfbench" -quick -format json -jobs 1 -core-shards 4 > "$tmp/shards4.json"
t5=$(date +%s%N)
shards1_s=$(awk -v a="$t3" -v b="$t4" 'BEGIN { printf "%.3f", (b-a)/1e9 }')
shards4_s=$(awk -v a="$t4" -v b="$t5" 'BEGIN { printf "%.3f", (b-a)/1e9 }')
shard_suite_speedup=$(awk -v s="$shards1_s" -v p="$shards4_s" 'BEGIN { printf "%.2f", s/p }')
shards_identical=true
if ! cmp -s "$tmp/shards1.json" "$tmp/shards4.json"; then
    shards_identical=false
    echo "FAIL: suite output diverges between -core-shards=1 and -core-shards=4" >&2
fi
echo "shards=1 ${shards1_s}s, shards=4 ${shards4_s}s (speedup ${shard_suite_speedup}x), identical=$shards_identical"

echo "== fleet chaos replay: seeded node kills, jobs=1 vs jobs=4 =="
go build -o "$tmp/bffleet" ./cmd/bffleet
fleet_flags=(-arch babelfish -nodes 8 -containers 16 -epochs 24
             -kill-nth 9 -kill-max 1 -part-nth 13 -part-max 1 -audit)
"$tmp/bffleet" "${fleet_flags[@]}" -jobs 1 > "$tmp/fleet_serial.txt"
"$tmp/bffleet" "${fleet_flags[@]}" -jobs 4 > "$tmp/fleet_par.txt"
fleet_identical=true
if ! cmp -s "$tmp/fleet_serial.txt" "$tmp/fleet_par.txt"; then
    fleet_identical=false
    echo "FAIL: fleet chaos run diverges between jobs=1 and jobs=4" >&2
fi
echo "fleet chaos replay identical=$fleet_identical"

echo "== open-loop offered load: flash-crowd overload, jobs=1 vs jobs=4 =="
load_flags=(-arch babelfish -nodes 4 -containers 8 -epochs 24
            -load-shape flash -load-rps 8 -load-peak 256 -queue-cap 8 -audit)
"$tmp/bffleet" "${load_flags[@]}" -jobs 1 > "$tmp/load_serial.txt"
"$tmp/bffleet" "${load_flags[@]}" -jobs 4 > "$tmp/load_par.txt"
load_identical=true
if ! cmp -s "$tmp/load_serial.txt" "$tmp/load_par.txt"; then
    load_identical=false
    echo "FAIL: open-loop flash-crowd run diverges between jobs=1 and jobs=4" >&2
fi
load_line=$(grep '^load:' "$tmp/load_serial.txt" || true)
if [ -z "$load_line" ]; then
    echo "bench.sh: bffleet -load-shape flash printed no load accounting line" >&2
    exit 1
fi
load_offered=$(echo "$load_line" | sed -n 's/.*offered \([0-9]*\).*/\1/p')
load_served=$(echo "$load_line" | sed -n 's/.*served \([0-9]*\).*/\1/p')
load_dropped=$(echo "$load_line" | sed -n 's/.*dropped \([0-9]*\).*/\1/p')
if [ "$load_dropped" -eq 0 ]; then
    echo "FAIL: the flash crowd never overflowed the bounded queues (dropped=0)" >&2
    load_identical=false
fi
echo "$load_line (replay identical=$load_identical)"

# Host metadata: ns/op numbers are only comparable across PRs when the
# host shape matches, so record enough to spot a host change in the
# trajectory (CPU count, effective GOMAXPROCS, OS/arch, toolchain).
ncpu=$(nproc 2>/dev/null || echo 1)
gomaxprocs=${GOMAXPROCS:-$ncpu}
cat > "$out" <<EOF
{
  "pr": $pr,
  "generated": "$(date -u +%FT%TZ)",
  "host": {
    "cpus": $ncpu,
    "gomaxprocs": $gomaxprocs,
    "os": "$(go env GOOS)",
    "arch": "$(go env GOARCH)",
    "go": "$(go env GOVERSION)"
  },
  "suite": {
    "command": "bfbench -quick -format json",
    "serial_seconds": $serial_s,
    "jobs4_seconds": $par_s,
    "speedup": $speedup,
    "output_identical": $identical,
    "note": "cells are independent machines, so the jobs=4 speedup scales with host CPUs; this run used a ${ncpu}-CPU host"
  },
  "sharding": {
    "suite_shards1_seconds": $shards1_s,
    "suite_shards4_seconds": $shards4_s,
    "suite_speedup": $shard_suite_speedup,
    "suite_output_identical_1_vs_4": $shards_identical,
    "machine_run_speedup": $shard_machine_speedup,
    "note": "machine_run_speedup = per-simulated-instruction time of MachineRun/BabelFishWide (4 cores, classic) over MachineRun/BabelFishSharded (4 cores, -core-shards=4); sharded stepping is byte-identical across widths >= 1 (a deterministic schedule distinct from classic 0); speedups are bounded by host CPUs — this run used a ${ncpu}-CPU host"
  },
  "fleet": {
    "command": "bffleet ${fleet_flags[*]}",
    "replay_identical": $fleet_identical
  },
  "load": {
    "command": "bffleet ${load_flags[*]}",
    "offered": $load_offered,
    "served": $load_served,
    "dropped": $load_dropped,
    "replay_identical": $load_identical,
    "note": "open-loop flash crowd against bounded per-container queues: arrivals are a pure function of (shape, seed, epoch), so overload shows up as drops and queueing delay, and the run replays byte-identically at any -jobs width"
  },
  "benchmarks_ns_per_op": {
    "BenchmarkTranslate": $ns_translate,
    "BenchmarkMachineRun/Baseline": $ns_run_base,
    "BenchmarkMachineRun/BabelFish": $ns_run_bf,
    "BenchmarkMachineRun/BabelFishWide": $ns_run_wide,
    "BenchmarkMachineRun/BabelFishSharded": $ns_run_shard,
    "BenchmarkMachineRun/Victima": $ns_run_victima,
    "BenchmarkMachineRun/Coalesced": $ns_run_coal,
    "BenchmarkTLBLookup": $ns_tlb,
    "BenchmarkTranslateWalk": $ns_walk,
    "BenchmarkFleetEpoch": $ns_fleet,
    "BenchmarkFleetLoadEpoch": $ns_fleet_load
  },
  "before_this_pr_ns_per_op": {
    "note": "$before_note",
$before
  }
}
EOF
echo "wrote $out"
[ "$identical" = true ] && [ "$fleet_identical" = true ] && \
    [ "$shards_identical" = true ] && [ "$load_identical" = true ]
