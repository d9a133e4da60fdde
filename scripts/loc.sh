#!/usr/bin/env bash
# Non-test Rust lines: what ROADMAP's "net lines removed" metric counts.
#
# A file's non-test lines are the lines before its first top-level
# `#[cfg(test)]` (all of them when it has none), trailing blank lines
# dropped. Files under `tests/` and `benches/` directories count as tests.
#
#   scripts/loc.sh                 one row per crate under crates/, + total
#   scripts/loc.sh FILE...         one row per file, + total (a missing file
#                                  counts 0, so one list works on the commit
#                                  before and after a rename)
#
# Paths are relative to the current directory, so the same command run in a
# checkout of the parent commit gives the "before" column.
set -euo pipefail

non_test_lines() {
    [[ -f $1 ]] || { echo 0; return; }
    awk '/^#\[cfg\(test\)\]/ { exit } { n++ } NF { last = n } END { print last + 0 }' "$1"
}

total=0
row() { printf '%7d  %s\n' "$2" "$1"; total=$((total + $2)); }

if (($#)); then
    for f in "$@"; do row "$f" "$(non_test_lines "$f")"; done
else
    for crate in crates/*/; do
        n=0
        while IFS= read -r f; do
            n=$((n + $(non_test_lines "$f")))
        done < <(find "$crate" -name '*.rs' -not -path '*/tests/*' -not -path '*/benches/*' | sort)
        row "${crate%/}" "$n"
    done
fi
printf '%7d  total\n' "$total"
