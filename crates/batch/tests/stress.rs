//! Threaded stress: parallel jobs sharing the process-wide artifact cache
//! and one runtime must be bit-identical to a serial run of the same
//! scenarios, with every launch under the differential engine (the tree
//! and tape legs asserted bit-equal inside each launch) on a sanitizing
//! runtime (a write race, uninit or stale read fails its job).

use batch::{BatchConfig, BatchExecutor, ScenarioGen};
use std::sync::Mutex;
use vgpu::{telemetry, Engine, Runtime, Settings};

/// Guards the deltas of the process-wide `vgpu.artifact.*` counters: every
/// test here compiles shipped kernel classes through the artifact map.
static COUNTERS: Mutex<()> = Mutex::new(());

/// An executor of `threads` workers on a differential, sanitizing runtime.
fn diff_executor(threads: usize) -> BatchExecutor {
    let cfg = BatchConfig { threads, ..Default::default() };
    let settings =
        Settings { engine: Engine::Differential, shadow: true, ..vgpu::runtime().settings };
    BatchExecutor::with_runtime(cfg, Runtime::new(settings))
}

#[test]
fn parallel_batch_is_bit_identical_to_serial_under_diff() {
    let _guard = COUNTERS.lock().unwrap();
    let scenarios = ScenarioGen::new(2024).take(10);

    let serial = diff_executor(1).run_all(scenarios.clone());
    let parallel = diff_executor(4).run_all(scenarios);

    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        let label = s.scenario.label();
        let so = s.outcome.as_ref().unwrap_or_else(|e| panic!("serial {label}: {e}"));
        let po = p.outcome.as_ref().unwrap_or_else(|e| panic!("parallel {label}: {e}"));
        // Bit-identical, not approximately equal: same kernels, same proofs,
        // same engines — threading must not change a single ulp.
        assert!(
            so.impulse_response == po.impulse_response,
            "{label}: parallel impulse response diverged from serial"
        );
        assert_eq!(so.energy.to_bits(), po.energy.to_bits(), "{label}: energy diverged");
        assert!(
            so.impulse_response.iter().any(|v| *v != 0.0),
            "{label}: impulse response is silent — mic never heard the source"
        );
        assert!(so.verifier_clean, "{label}: static verifier flagged a shipped kernel");
    }
}

#[test]
fn concurrent_rooms_share_compiled_artifacts() {
    let _guard = COUNTERS.lock().unwrap();
    let reg = telemetry::registry();
    let hits0 = reg.counter("vgpu.artifact.hits").get();
    let misses0 = reg.counter("vgpu.artifact.misses").get();

    let results = diff_executor(3).run_all(ScenarioGen::new(7).take(16));
    for r in &results {
        assert!(r.outcome.is_ok(), "{}: {:?}", r.scenario.label(), r.outcome);
    }

    let hits = reg.counter("vgpu.artifact.hits").get() - hits0;
    let misses = reg.counter("vgpu.artifact.misses").get() - misses0;
    // Kernel sets are shared per process, and a shared kernel looks its
    // artifact up once — on its first launch, by whichever room gets there
    // first (the verifier gate reuses it). So 16 rooms on 3 workers make at
    // most one lookup, a miss, per kernel class: 2 volume kernels (f32,
    // f64) and 3 boundary kernels at 2 precisions — fewer when an earlier
    // test of this binary already launched the class.
    assert_eq!(hits, 0, "no room looks up an artifact another room already holds");
    assert!(misses <= 8, "one compilation per kernel class, not {misses}");
}
