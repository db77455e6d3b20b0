#!/usr/bin/env bash
# Self-test of scripts/bench_compare.sh's exit codes on the two tiny rows
# under scripts/fixtures/ (row b moves three tpch_power metrics and
# declares exactly those in its "explained_drift"):
#
#   0  equal rows; a drift that row b declares
#   1  a drift nobody declares; a declaration for the wrong workload; a
#      declared metric that did not move
#   2  rows recorded at different seeds
#
# CI's lint job runs it before the comparison of the committed rows.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
a="$root/scripts/fixtures/bench_a.json"
b="$root/scripts/fixtures/bench_b.json"
mkdir -p "$root/target"
tmp=$(mktemp -d "$root/target/bench_compare_selftest.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

failures=0
# expect <exit code> <what> <a.json> <b.json> [<text the output must contain>]
expect() {
    local want=$1 what=$2 got=0 out
    out=$("$root/scripts/bench_compare.sh" "$3" "$4" 2>&1) || got=$?
    if [ "$got" -ne "$want" ]; then
        echo "FAIL: $what: exit $got, expected $want"
        failures=$((failures + 1))
    elif [ $# -eq 5 ] && ! grep -qF -- "$5" <<<"$out"; then
        echo "FAIL: $what: output lacks '$5'"
        failures=$((failures + 1))
    else
        echo "ok:   $what (exit $got)"
    fi
}

expect 0 "a row against itself" "$a" "$a" "deterministic half equal"
expect 0 "every differing metric declared by row b" "$a" "$b" "equal but for 3 metric(s)"

sed 's/"explained_drift": {.*}}, "workloads"/"workloads"/' "$b" >"$tmp/undeclared.json"
expect 1 "the same drift with the declaration removed" "$a" "$tmp/undeclared.json" "3 deterministic metric(s) differ unexplained"

sed 's/"sim_p95_ms", "hw.sim_join_ns"\]/"hw.sim_join_ns"]/' "$b" >"$tmp/partial.json"
expect 1 "one differing metric left out of the declaration" "$a" "$tmp/partial.json" "1 deterministic metric(s) differ unexplained"

sed 's/"metrics": {"tpch_power": \[/"metrics": {"dist_4node": [/' "$b" >"$tmp/wrong_workload.json"
expect 1 "the declaration names another workload" "$a" "$tmp/wrong_workload.json" "declares a drift of sim_qps on dist_4node, which did not differ"

sed 's/"hw.sim_join_ns"\]/"hw.sim_join_ns", "hw.sim_scan_ns"]/' "$b" >"$tmp/stale.json"
expect 1 "a declared metric that did not move" "$a" "$tmp/stale.json" "declares a drift of hw.sim_scan_ns on tpch_power, which did not differ"

sed 's/"seed": 1/"seed": 2/' "$b" >"$tmp/seed.json"
expect 2 "rows at different seeds" "$a" "$tmp/seed.json" "seeds differ"

[ "$failures" -eq 0 ] || { echo "$failures case(s) failed"; exit 1; }
echo "bench_compare.sh: all exit codes as documented"
