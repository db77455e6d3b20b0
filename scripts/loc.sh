#!/bin/sh
# Code-size counter the simplicity PRs quote ("measured" figures in
# CHANGES.md / ROADMAP.md). For every crates/*/src/**/*.rs file: lines up
# to the test module (the first `#[cfg(test)]` that sits on a `mod`), minus
# blank lines and lines that start with `//` (comments and doc comments).
# Prints one row per file and one total per crate.
#
#   scripts/loc.sh              every crate
#   scripts/loc.sh sql core     only crates/sql and crates/core
set -eu
cd "$(dirname "$0")/.."

count() {
    awk '
        pending { pending = 0; if ($0 ~ /^[[:space:]]*(pub )?mod /) exit; n++ }
        /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { pending = 1; next }
        !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { n++ }
        END { print n + pending }' "$1"
}

[ $# -gt 0 ] || set -- $(ls crates)
grand=0
for crate in "$@"; do
    total=0
    for f in $(find "crates/$crate/src" -name '*.rs' | sort); do
        n=$(count "$f")
        printf '%6d  %s\n' "$n" "$f"
        total=$((total + n))
    done
    printf '%6d  crates/%s/src (total)\n\n' "$total" "$crate"
    grand=$((grand + total))
done
printf '%6d  all listed crates\n' "$grand"
