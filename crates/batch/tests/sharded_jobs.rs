//! A runtime's device count (`VGPU_DEVICES` for the default one) routes
//! batch jobs through the Z-slab sharded backend, bit-identically to the
//! single-device path.

use batch::{BatchConfig, BatchExecutor, ScenarioGen};
use vgpu::{Engine, Runtime, Settings};

#[test]
fn sharded_jobs_are_bit_identical_to_single_device() {
    let scenarios = ScenarioGen::new(99).take(6);
    let run = |devices: usize| {
        let cfg = BatchConfig { threads: 2, ..Default::default() };
        let env = vgpu::runtime().settings;
        let rt = Runtime::new(Settings { engine: Engine::Differential, devices, ..env });
        BatchExecutor::with_runtime(cfg, rt).run_all(scenarios.clone())
    };
    let (single, sharded) = (run(1), run(3));

    assert_eq!(single.len(), sharded.len());
    for (a, b) in single.iter().zip(&sharded) {
        let label = a.scenario.label();
        let ao = a.outcome.as_ref().unwrap_or_else(|e| panic!("single {label}: {e}"));
        let bo = b.outcome.as_ref().unwrap_or_else(|e| panic!("sharded {label}: {e}"));
        assert_eq!(ao.impulse_response.len(), bo.impulse_response.len());
        for (i, (x, y)) in ao.impulse_response.iter().zip(&bo.impulse_response).enumerate() {
            assert!(
                x.to_bits() == y.to_bits(),
                "{label}: impulse response diverges at step {i}: {x} vs {y}"
            );
        }
        assert_eq!(ao.energy.to_bits(), bo.energy.to_bits(), "{label}: energy");
        assert!(bo.verifier_clean, "{label}: slab kernels must verify clean");
        // The sharded job issues at least one launch per device per step.
        assert!(bo.launches >= ao.launches, "{label}: launches {} < {}", bo.launches, ao.launches);
    }
}
