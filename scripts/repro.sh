#!/bin/sh
# Run the release `repro` binary with the one nondeterministic part of its
# stdout masked: `repro plancache` prints host wall-clock planning times.
# Everything else `repro` prints is simulated time and byte-deterministic,
# so the masked output can be diffed — against tests/snapshots/repro_sf0.01.txt
# (CI) and against the generated blocks of EXPERIMENTS.md
# (scripts/regen_experiments.sh).
#
#   scripts/repro.sh all --sf 0.01 --seed 42 | diff - tests/snapshots/repro_sf0.01.txt
set -eu
cd "$(dirname "$0")/.."
out=$(mktemp)
trap 'rm -f "$out"' EXIT
# Not piped into sed: a failed assert inside `repro` must fail this script.
cargo run -q --release -p sirius-bench --bin repro -- "$@" >"$out"
sed -E 's/cold [0-9.]+ms, cached pass [0-9.]+ms \([0-9.]+x\)/cold <wall>ms, cached pass <wall>ms (<wall>x)/' "$out"
