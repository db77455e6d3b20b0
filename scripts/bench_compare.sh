#!/usr/bin/env bash
# Compare two rows of the trajectory (ROADMAP item 2(b), the half that needs
# no perfbench change):
#
#   scripts/bench_compare.sh [<a.json> <b.json>]
#
# reads two files written by scripts/bench_record.sh; with no arguments, the
# two highest-numbered BENCH_<n>.json of the repository root, by number
# (BENCH_9 sorts before BENCH_10), which is how CI calls it. The simulated half of
# the benchmark is deterministic at equal seed, so per workload it prints
# `sim_*`, `hw.sim_*`, `core.waves / pipelines_run / morsels / tasks /
# kernel_launches`, `spill.*`, `nccl.wire_mb`, `nccl.dict_mb` and
# `serve.waves` side by side and marks each one that differs. A PR that moves
# the simulated half on purpose (a planner or cost-model change) says so in
# its own row: file b's "explained_drift" (scripts/bench_record.sh --explain)
# lists, per workload, the deterministic metrics it moves. Exit 0: nothing
# differs that b does not list, and everything b lists did differ. Exit 1: a
# metric differs that b does not list for that workload, or b lists one that
# did not differ (a stale or misspelt declaration). Then it
# prints b/a for each wall and allocator end-to-end metric beside the bound
# BENCHMARK.json fixes for it; those are single noisy runs, so a ratio past
# its bound is marked, not failed (gate wall time on alternating pairs).
# Exit 2: the two files were recorded at different seeds.
set -euo pipefail

usage="usage: scripts/bench_compare.sh [<a.json> <b.json>]"
root="$(dirname "$0")/.."
if [ $# -eq 0 ]; then
    numbers=$(ls "$root" | sed -n 's/^BENCH_\([0-9][0-9]*\)\.json$/\1/p' | sort -n | tail -n 2)
    # shellcheck disable=SC2046,SC2086 # word splitting wanted: one path per number
    set -- $(printf "$root/BENCH_%s.json " $numbers)
fi
[ $# -eq 2 ] || { echo "$usage" >&2; exit 2; }
a=$1
b=$2
bounds="$root/BENCHMARK.json"

awk -v name_a="$(basename "$a")" -v name_b="$(basename "$b")" '
function quoted(s) { sub(/^[^"]*"/, "", s); sub(/".*/, "", s); return s }
function after(s, key) { sub(".*\"" key "\": *", "", s); sub(/[,}].*/, "", s); gsub(/"/, "", s); return s }
function exact(run, m) {
    if (run == "end_to_end") return m ~ /^sim_/
    return m ~ /^(hw\.sim_|spill\.)/ || m ~ /^core\.(waves|pipelines_run|morsels|tasks|kernel_launches)$/ \
        || m ~ /^(nccl\.(wire|dict)_mb|serve\.waves)$/
}
FNR == 1 { file++ }
file == 1 {                                   # BENCHMARK.json: end-to-end bounds
    if ($0 ~ /"bound":/) { m = after($0, "name"); bound[m] = after($0, "bound") + 0; better[m] = after($0, "better") }
    next
}
/"seed":/ { seed[file] = after($0, "seed") }
file == 3 && /"explained_drift":/ {           # row b: {"reason": "..", "metrics": {"<workload>": ["<metric>", ..], ..}}
    line = $0
    sub(/.*"explained_drift": *[{]/, "", line); sub(/"workloads":.*/, "", line); sub(/"reason": *"[^"]*"/, "", line)
    while (match(line, /"[a-z_0-9]+": *\[[^]]*\]/)) {
        entry = substr(line, RSTART, RLENGTH)
        line = substr(line, RSTART + RLENGTH)
        dw = quoted(entry)
        sub(/.*\[/, "", entry); gsub(/[]" ]/, "", entry)
        for (k = split(entry, listed, ","); k > 0; k--) if (listed[k] != "") declared[dw, listed[k]] = 1
    }
}
/^"[a-z_0-9]+": [{]$/ { w = quoted($0); if (file == 2) workloads[++nw] = w; next }
/^"(end_to_end|per_layer)":/ {
    run = quoted($0)
    line = $0
    while (match(line, /"[a-z_.0-9]+": [{]"value": [^,}]+/)) {
        m = quoted(substr(line, RSTART, RLENGTH))
        v[file, w, m] = after(substr(line, RSTART, RLENGTH), "value")
        line = substr(line, RSTART + RLENGTH)
        if (file != 2) continue
        if (exact(run, m)) pinned[w, ++np[w]] = m
        else if (run == "end_to_end") loose[w, ++nl[w]] = m
    }
}
END {
    if (seed[2] != seed[3]) {
        printf "seeds differ (%s vs %s): the simulated half is only equal at equal seed\n", seed[2], seed[3]
        exit 2
    }
    for (i = 1; i <= nw; i++) {
        w = workloads[i]
        printf "\n== %s: deterministic at seed %s, must be equal or declared by %s\n%-28s %22s %22s\n", w, seed[2], name_b, "metric", name_a, name_b
        for (j = 1; j <= np[w]; j++) {
            m = pinned[w, j]
            mark = ""
            if (v[2, w, m] "" != v[3, w, m] "") {
                mark = "   <-- DIFFERS" ((w, m) in declared ? " (explained by " name_b ")" : "")
                if ((w, m) in declared) explained++; else diffs++
                delete declared[w, m]
            }
            printf "%-28s %22s %22s%s\n", m, v[2, w, m], v[3, w, m], mark
        }
    }
    for (key in declared) {
        split(key, part, SUBSEP)
        printf "\n%s declares a drift of %s on %s, which did not differ\n", name_b, part[2], part[1]
        stale++
    }
    printf "\n== wall and allocator, end to end: b/a beside the BENCHMARK.json bound (one run each: noisy)\n"
    printf "%-12s %-14s %14s %14s %7s  %s\n", "workload", "metric", name_a, name_b, "b/a", "bound"
    for (i = 1; i <= nw; i++) {
        w = workloads[i]
        for (j = 1; j <= nl[w]; j++) {
            m = loose[w, j]
            ratio = v[2, w, m] > 0 ? v[3, w, m] / v[2, w, m] : 1
            worse = better[m] ~ /higher/ ? 1 - ratio : ratio - 1
            mark = (worse > bound[m]) ? "   <-- past its bound" : ""
            printf "%-12s %-14s %14.4g %14.4g %7.3f  %s, %s is better%s\n", w, m, v[2, w, m], v[3, w, m], ratio, \
                bound[m], better[m], mark
        }
    }
    if (diffs || stale) {
        printf "\n%d deterministic metric(s) differ unexplained, %d declared one(s) did not differ\n", diffs, stale
        exit 1
    }
    if (explained) printf "\ndeterministic half equal but for %d metric(s) %s explains\n", explained, name_b
    else printf "\ndeterministic half equal\n"
}' "$bounds" "$a" "$b"
