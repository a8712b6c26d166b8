#!/usr/bin/env sh
# Prints the non-test Rust lines per first-party crate: for every
# `src/**/*.rs`, the lines before its first `#[cfg(test)]` (all of them
# when it has none). `src/` is the root `pos` crate.
#
#   sh scripts/loc.sh
set -eu

cd "$(dirname "$0")/.."

non_test_lines() {
    find "$1" -name '*.rs' | sort | while read -r file; do
        awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file"
    done | awk '{ s += $1 } END { print s + 0 }'
}

total=0
for src in crates/*/src src; do
    case "$src" in
        src) name=pos ;;
        *) name=$(basename "$(dirname "$src")") ;;
    esac
    lines=$(non_test_lines "$src")
    total=$((total + lines))
    printf '%-10s %6d\n' "$name" "$lines"
done
printf '%-10s %6d\n' total "$total"
