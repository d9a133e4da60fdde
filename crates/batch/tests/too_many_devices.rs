//! A room the front end cannot build fails its own job with the typed
//! error's message; its neighbours complete.
//!
//! 12 devices per job (`VGPU_DEVICES=12` for the default runtime) on
//! `ScenarioGen` rooms (9–15 planes): rooms with fewer than 12 planes cannot
//! give every device a plane. This used to die in
//! `SlabPartition::balanced`'s `assert!` and reach the job as a caught
//! panic.

use batch::{BatchConfig, BatchExecutor, ScenarioGen};
use vgpu::{Runtime, Settings};

#[test]
fn a_room_with_fewer_planes_than_devices_fails_only_its_own_job() {
    let scenarios = ScenarioGen::new(5).take(12);
    assert!(scenarios.iter().any(|s| s.dims.nz < 12) && scenarios.iter().any(|s| s.dims.nz >= 12));

    let rt = Runtime::new(Settings { devices: 12, ..vgpu::runtime().settings });
    let results = BatchExecutor::with_runtime(BatchConfig::default(), rt).run_all(scenarios);

    for r in &results {
        let (label, nz) = (r.scenario.label(), r.scenario.dims.nz);
        match &r.outcome {
            Ok(out) => {
                assert!(nz >= 12, "{label}: {nz} planes cannot hold 12 devices");
                assert_eq!(out.impulse_response.len(), r.scenario.steps, "{label}");
            }
            Err(e) => {
                assert!(nz < 12, "{label}: {e}");
                let expect = format!("cannot give 12 devices at least one of {nz} z-planes each");
                assert_eq!(e, &expect, "{label}: a typed error, not a caught panic");
            }
        }
    }
}
