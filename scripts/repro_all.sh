#!/usr/bin/env bash
# Regenerates every table and figure of the paper's evaluation.
# REPRO_QUICK=1 runs reduced sizes (minutes instead of tens of minutes).
# --trace additionally writes Perfetto-loadable Chrome traces and telemetry
# summaries next to each report (results/*.trace.json, results/*.telemetry.json).
set -euo pipefail
cd "$(dirname "$0")/.."
for arg in "$@"; do
  case "$arg" in
    --trace) export VGPU_TRACE=chrome ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done
cargo build --release -p bench
for bin in repro_table2 repro_fig2 repro_fig4 repro_fig5 repro_fig6 repro_ablations; do
  echo "==================== $bin ===================="
  ./target/release/$bin
done
echo "results written to results/*.json"
if [ "${VGPU_TRACE:-off}" = chrome ]; then
  echo "traces written to results/*.trace.json (open at https://ui.perfetto.dev)"
fi
