#!/bin/sh
# Code-size counter the simplicity PRs quote ("measured" figures in
# CHANGES.md / ROADMAP.md). For every crates/*/src/**/*.rs file: lines up
# to the test module (the first `#[cfg(test)]` that sits on a `mod`; a file
# that opens with `#![cfg(test)]` is a test module from its first line), minus
# blank lines and lines that start with `//` (comments and doc comments).
# Prints one row per file and one total per crate, then a second table with
# each file's longest function under the same cut (signature to closing
# brace; rustfmt puts that brace at the signature's indentation), so "no
# function longer than N" is read off the same output.
#
#   scripts/loc.sh              every crate
#   scripts/loc.sh sql core     only crates/sql and crates/core
#   scripts/loc.sh --max-fn 160 also exit 1 when a function of a listed crate
#                               is longer than 160 lines under that cut (the
#                               data generator crates/tpch/src/gen.rs is
#                               exempt: its one function is a table of rows)
#   scripts/loc.sh --max-total 6000 core serve
#                               also exit 1 when the listed crates' total is
#                               above 6000 lines
# The two flags may be combined; they come before the crate names.
set -eu
cd "$(dirname "$0")/.."

max_fn=0
max_total=0
while [ $# -gt 0 ]; do
    case $1 in
        --max-fn) max_fn=${2:?--max-fn needs a line count} ;;
        --max-total) max_total=${2:?--max-total needs a line count} ;;
        *) break ;;
    esac
    shift 2
done

# Prints "<lines> <longest fn lines> <longest fn name>".
count() {
    awk '
        /^#!\[cfg\(test\)\][[:space:]]*$/ { exit }
        pending { pending = 0; if ($0 ~ /^[[:space:]]*(pub )?mod /) exit; tick() }
        /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { pending = 1; next }
        !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { tick() }
        function tick() {
            n++
            if (!infn && match($0, /^[[:space:]]*(pub(\([a-z]+\))? )?(const )?(unsafe )?fn [A-Za-z_0-9]+/)) {
                infn = 1; len = 0
                name = substr($0, RSTART, RLENGTH); sub(/.*fn /, "", name)
                indent = $0; sub(/[^[:space:]].*/, "", indent)
            }
            if (!infn) return
            len++
            # Ends at the brace on the signature indentation, on the first
            # line for a one-liner or a bodiless declaration, or at the
            # `) -> T;` that closes a multi-line bodiless declaration.
            if ($0 == indent "}" || (len == 1 && $0 ~ /[;}]$/) || index($0, indent ")") == 1 && $0 ~ /;$/) {
                if (len > max) { max = len; maxname = name }
                infn = 0
            }
        }
        END { print n + pending, max + 0, (maxname == "" ? "-" : maxname) }' "$1"
}

[ $# -gt 0 ] || set -- $(ls crates)
grand=0
longest=""
too_long=""
for crate in "$@"; do
    total=0
    for f in $(find "crates/$crate/src" -name '*.rs' | sort); do
        set -- $(count "$f")
        printf '%6d  %s\n' "$1" "$f"
        total=$((total + $1))
        longest="$longest$(printf '%6d  %s  %s' "$2" "$f" "$3")
"
        if [ "$max_fn" -gt 0 ] && [ "$2" -gt "$max_fn" ] && [ "$f" != crates/tpch/src/gen.rs ]; then
            too_long="$too_long$f: $3 is $2 lines, over --max-fn $max_fn
"
        fi
    done
    printf '%6d  crates/%s/src (total)\n\n' "$total" "$crate"
    grand=$((grand + total))
done
printf '%6d  all listed crates\n\n' "$grand"
printf 'longest function per file (lines, file, name):\n%s' "$longest"
if [ "$max_total" -gt 0 ] && [ "$grand" -gt "$max_total" ]; then
    too_long="${too_long}the listed crates total $grand lines, over --max-total $max_total
"
fi
if [ -n "$too_long" ]; then
    printf '\n%s' "$too_long" >&2
    exit 1
fi
