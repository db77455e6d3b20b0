#!/usr/bin/env bash
# Record one row of the wall/simulated trajectory (ROADMAP item 2(a)):
#
#   scripts/bench_record.sh <out.json> [seed] [seconds] [--explain <file>]
#
# runs BENCHMARK.json's command for each of the four workloads, once with
# `--trace 0` (end-to-end metrics) and once with `--trace 1` (per-layer
# metrics), and writes
#
#   {commit, parent, seed, seconds, nproc,
#    workloads: {<name>: {end_to_end: <perf's last stdout line>,
#                         per_layer:  <perf's last stdout line>}}}
#
# by concatenating perf's own JSON lines. Defaults: seed 1, 10 seconds per
# run. `commit` carries a `+dirty` suffix when the tree differs from HEAD.
#
# `--explain <file>` is for the PR that moves the simulated half on purpose
# (a planner or cost-model change): <file> holds one JSON object
#
#   {"reason": "<one sentence, no double quotes inside>",
#    "metrics": {"<workload>": ["sim_qps", "hw.sim_join_ns", ...], ...}}
#
# which is embedded in the row as "explained_drift" (after "nproc", on the
# row's first line). scripts/bench_compare.sh passes a deterministic metric
# that differs from the previous row only when this row lists it.
set -euo pipefail

usage="usage: scripts/bench_record.sh <out.json> [seed] [seconds] [--explain <file>]"
explain=
args=()
while [ $# -gt 0 ]; do
    case "$1" in
    --explain)
        explain=$(tr -s ' \n' ' ' <"${2:?$usage}" | sed 's/ *$//')
        shift 2
        ;;
    *)
        args+=("$1")
        shift
        ;;
    esac
done
set -- "${args[@]}"
out=${1:?$usage}
seed=${2:-1}
seconds=${3:-10}
case "$out" in /*) ;; *) out="$PWD/$out" ;; esac
cd "$(dirname "$0")/.."

perf() {
    cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml --bin perf -- \
        --seed "$seed" --seconds "$seconds" "$@" | tail -n 1
}

commit=$(git rev-parse HEAD)
git diff --quiet HEAD -- . ':!BENCH_*.json' || commit="$commit+dirty"

{
    printf '{"commit": "%s", "parent": "%s", "seed": %s, "seconds": %s, "nproc": %s, ' \
        "$commit" "$(git rev-parse HEAD^)" "$seed" "$seconds" "$(nproc)"
    [ -z "$explain" ] || printf '"explained_drift": %s, ' "$explain"
    printf '"workloads": {'
    sep=
    for w in tpch_power spill_tight serve_mix dist_4node; do
        printf '%s\n"%s": {\n"end_to_end": %s,\n"per_layer": %s}' "$sep" "$w" \
            "$(perf --workload "$w" --trace 0)" "$(perf --workload "$w" --trace 1)"
        sep=,
    done
    printf '\n}}\n'
} >"$out.tmp"
mv "$out.tmp" "$out"
