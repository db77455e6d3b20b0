#!/bin/sh
# EXPERIMENTS.md's measured blocks are generated, not pasted. Every block sits
# between a `<!-- repro: <experiment> [args] -->` line and a `<!-- /repro -->`
# line; this script replaces what is between them with the fenced stdout of
# `scripts/repro.sh <experiment> [args]`.
#
#   scripts/regen_experiments.sh            rewrite EXPERIMENTS.md in place
#   scripts/regen_experiments.sh --check    fail (with a diff) if it is stale
set -eu
cd "$(dirname "$0")/.."
fresh=$(mktemp)
trap 'rm -f "$fresh"' EXIT
awk '
    /^<!-- repro: .* -->$/ {
        print
        cmd = $0
        sub(/^<!-- repro: /, "scripts/repro.sh ", cmd)
        sub(/ -->$/, "", cmd)
        print "```"
        while ((cmd | getline line) > 0) print line
        if (close(cmd) != 0) {
            print "regen_experiments: `" cmd "` failed" > "/dev/stderr"
            exit 1
        }
        print "```"
        generated = 1
        next
    }
    /^<!-- \/repro -->$/ { generated = 0 }
    !generated { print }
' EXPERIMENTS.md >"$fresh"
if [ "${1:-}" = "--check" ]; then
    diff -u EXPERIMENTS.md "$fresh"
else
    cp "$fresh" EXPERIMENTS.md
fi
