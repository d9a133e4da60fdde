//! Throughput and cache-effectiveness benchmark for the batched multi-room
//! service, and the CI batch smoke gate.
//!
//! Runs a seeded mixed batch (shapes × boundaries × precisions) through
//! [`batch::BatchExecutor`] with the write-race detector on, prints one
//! JSON record (rooms/sec, artifact-cache traffic, provenance fields), and
//! exits nonzero on any regression a batch must never ship with:
//!
//! * a failed job (includes differential-engine mismatches and write races);
//! * a static-verifier finding on a shipped kernel;
//! * more artifact compilations than kernel classes (8 of them): kernel
//!   sets are shared per process, so a class compiles on its first launch
//!   and no later job looks it up again.
//!
//! With `VGPU_TRACE` set, per-job telemetry sidecars land in
//! `results/batch/`. Usage: `batch_bench [rooms] [threads] [seed]`
//! (defaults 64, 4, 42).

use batch::{BatchConfig, BatchExecutor, ScenarioGen};
use std::path::{Path, PathBuf};
use std::time::Instant;
use vgpu::telemetry::{self, TraceMode};
use vgpu::ExecMode;

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/batch")
}

fn main() {
    let mut args = std::env::args().skip(1);
    let rooms: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(64);
    let threads: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(42);

    let engine = bench::provenance::engine_label();
    let vgpu_threads = bench::provenance::threads();
    let devices = bench::provenance::device_count();
    let sanitize = bench::provenance::sanitize_label();

    let reg = telemetry::registry();
    let counter = |name: &str| reg.counter(name).get();
    let art_hits0 = counter("vgpu.artifact.hits");
    let art_misses0 = counter("vgpu.artifact.misses");

    let scenarios = ScenarioGen::new(seed).take(rooms);
    let exec = BatchExecutor::new(BatchConfig {
        threads,
        engine: None, // VGPU_ENGINE, like every other bench
        mode: ExecMode::Fast,
        race_check: true,
        sidecar_dir: (telemetry::mode() != TraceMode::Off).then(results_dir),
    });
    let t0 = Instant::now();
    let results = exec.run_all(scenarios);
    let wall_s = t0.elapsed().as_secs_f64();

    let failures: Vec<String> = results
        .iter()
        .filter_map(|r| r.outcome.as_ref().err().map(|e| format!("{}: {e}", r.scenario.label())))
        .collect();
    let verifier_clean =
        results.iter().filter_map(|r| r.outcome.as_ref().ok()).all(|o| o.verifier_clean);

    let art_hits = counter("vgpu.artifact.hits") - art_hits0;
    let art_misses = counter("vgpu.artifact.misses") - art_misses0;

    let record = format!(
        "{{\"bench\":\"batch\",\"rooms\":{rooms},\"threads\":{threads},\"seed\":{seed},\
         \"engine\":\"{engine}\",\
         \"vgpu_threads\":{vgpu_threads},\"devices\":{devices},\
         \"sanitize\":\"{sanitize}\",\
         \"wall_s\":{wall_s:.3},\"rooms_per_sec\":{:.2},\
         \"artifact_hits\":{art_hits},\"artifact_misses\":{art_misses},\
         \"failures\":{},\"verifier_clean\":{verifier_clean}}}",
        rooms as f64 / wall_s,
        failures.len(),
    );
    println!("{record}");
    match serde_json::from_str(&record) {
        Ok(value) => {
            bench::run_report::emit("batch_bench", value);
        }
        Err(e) => eprintln!("cannot parse own record for run report: {e}"),
    }

    let mut bad = false;
    for f in &failures {
        eprintln!("FAIL job: {f}");
        bad = true;
    }
    if !verifier_clean {
        eprintln!("FAIL: static verifier flagged a shipped kernel");
        bad = true;
    }
    if art_misses > 8 {
        eprintln!("FAIL: {art_misses} artifact compilations for 8 kernel classes");
        bad = true;
    }
    if bad {
        std::process::exit(1);
    }
}
