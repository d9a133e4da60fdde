#!/usr/bin/env bash
# Snapshots the perf-tracking benchmarks into BENCH_*.json at the repo
# root, stamped with the git revision they were measured at. The committed
# files are the before/after records behind EXPERIMENTS.md's
# dispatch-overhead, warp-vectorization, and batch-throughput entries:
# re-run this script after perf-relevant changes and commit the diff so
# regressions show up in review. Every record carries provenance fields
# (engine, threads, devices, sanitizer mode) — see
# crates/bench/src/provenance.rs.
#
# Every record also carries the virtual device count (VGPU_DEVICES, via
# crates/bench/src/provenance.rs) — sharded and unsharded numbers are not
# wall-clock-comparable — and the shard_bench leg snapshots the full
# device-scaling curve (ms/step and vgpu.halo.* bytes at 1/2/4 devices).
#
# Usage: scripts/bench_snapshot.sh [cube-edge] [steps] [rooms] [batch-threads]
#        (defaults 32, 60, 64, 4)
set -euo pipefail
cd "$(dirname "$0")/.."

cube="${1:-32}"
steps="${2:-60}"
rooms="${3:-64}"
batch_threads="${4:-4}"

sha="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
date="$(date -u +%Y-%m-%dT%H:%M:%SZ)"

# Splices provenance fields into a single-line JSON record, writes it, and
# appends it to BENCH_history.jsonl — an append-only log of every snapshot
# ever taken on this machine. The committed BENCH_*.json files only ever
# show the latest numbers; the history line (same record, same git_sha/date
# provenance) is what lets `bench_compare` diff against *any* past
# revision, not just the previous commit.
snapshot() {
  local record="$1" out_file="$2"
  local out="${record%\}},\"git_sha\":\"${sha}\",\"date\":\"${date}\"}"
  echo "$out" | tee "$out_file"
  echo "$out" >> BENCH_history.jsonl
}

cargo build --release -p bench --bin dispatch_bench --bin batch_bench --bin shard_bench

snapshot "$(./target/release/dispatch_bench "$cube" "$steps")" BENCH_dispatch.json
# Each bench runs in its own process, so every record starts artifact-cold.
snapshot "$(./target/release/batch_bench "$rooms" "$batch_threads")" BENCH_batch.json
# Device-scaling curve: smaller cube, the sweep runs 12 configurations.
snapshot "$(./target/release/shard_bench "$((cube / 2))" "$steps")" BENCH_shard.json
