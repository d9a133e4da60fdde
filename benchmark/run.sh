#!/usr/bin/env bash
# One command: build, three interleaved rounds of every workload, then one
# traced run of each. Prints every end-to-end and per-layer metric and writes
# benchmark/out/results.json and benchmark/out/trace.<workload>.json.
# Extra arguments go to `roombench all` (e.g. --quick, --seed 2, --rounds 5).
set -euo pipefail
cd "$(dirname "$0")"
exec cargo run --release --offline --quiet -- all "$@"
