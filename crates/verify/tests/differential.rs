//! Differential cross-check: static race verdicts vs the shadow
//! sanitizer's dynamic write-race check.
//!
//! The static write-race detector proves every shipped kernel's store
//! maps disjoint across work-items (see `verify::suite`). Those proofs
//! rest on assumed data invariants (`boundaryIndices` distinct, interior
//! masks); this harness checks the other side of the bargain by running
//! every simulation backend on a sanitizing runtime — a
//! statically-proven kernel must never produce a dynamic race report,
//! and the deliberately racy fixture must be flagged by *both* levels
//! with matching element and site provenance.

use lift::prelude::*;
use room_acoustics::geometry::{GridDims, RoomShape};
use room_acoustics::sim::{SimConfig, SimSetup};
use room_acoustics::{BoundaryKernel, HandwrittenSim, Precision, Simulation};
use verify::fixtures;
use vgpu::{Arg, Device, DeviceProfile, ExecMode, Runtime};

/// A device on a sanitizing runtime of its own: a write race fails its
/// launch.
fn race_device() -> Device {
    Device::with_runtime(DeviceProfile::gtx780(), Runtime::sanitizing())
}

/// Every hand-written backend, both room shapes, stepped under the
/// dynamic detector. A detected race panics inside `step` (the sims
/// unwrap launch results), failing the test.
#[test]
fn handwritten_suite_is_dynamically_race_free() {
    for shape in [RoomShape::Box, RoomShape::LShape] {
        for boundary in [
            BoundaryKernel::FiMm { beta_constant: false },
            BoundaryKernel::FiMm { beta_constant: true },
            BoundaryKernel::FdMm,
        ] {
            let cfg = match boundary {
                BoundaryKernel::FdMm => SimConfig::fdmm(GridDims::cube(8), shape),
                _ => SimConfig::fimm(GridDims::cube(8), shape),
            };
            let setup = SimSetup::new(&cfg);
            let mut sim = HandwrittenSim::new(setup, Precision::Single, boundary, race_device());
            for _ in 0..3 {
                sim.step(ExecMode::Fast);
            }
        }
    }
}

/// Every LIFT-generated backend under the dynamic detector.
#[test]
fn generated_suite_is_dynamically_race_free() {
    use lift_acoustics::{LiftBoundary, LiftSim};
    for shape in [RoomShape::Box, RoomShape::LShape] {
        for boundary in [LiftBoundary::FiMm, LiftBoundary::FdMm] {
            let cfg = match boundary {
                LiftBoundary::FdMm => SimConfig::fdmm(GridDims::cube(8), shape),
                _ => SimConfig::fimm(GridDims::cube(8), shape),
            };
            let setup = SimSetup::new(&cfg);
            let mut sim = LiftSim::new(setup, Precision::Double, boundary, race_device());
            for _ in 0..3 {
                sim.step(ExecMode::Fast);
            }
        }
        let setup = SimSetup::new(&SimConfig::fimm(GridDims::cube(8), shape));
        let fi = LiftBoundary::Fi;
        let mut sim = Simulation::new(setup, Precision::Single, fi, vec![race_device()]);
        for _ in 0..3 {
            sim.step(ExecMode::Fast);
        }
    }
}

/// The racy fixture is caught by both levels, and their provenance
/// agrees: the static verdict names element 3 at store site 0, and the
/// dynamic report must name the same element and site.
#[test]
fn racy_fixture_flagged_statically_and_dynamically() {
    let entries = fixtures::entries();
    let racy = entries.iter().find(|e| e.kernel.name == "fixture_racy").unwrap();
    let report = lift::verify::verify_kernel(&racy.kernel, &racy.assumptions);
    let static_race = report
        .races
        .iter()
        .find(|r| matches!(&r.verdict, lift::verify::RaceVerdict::Definite { element } if element == "3"))
        .expect("static detector proves the collision");
    assert_eq!(static_race.sites, vec![0]);

    let mut dev = race_device();
    let prep = dev.compile(&racy.kernel).expect("fixture compiles");
    let out = dev.create_buffer(ScalarKind::F32, 32);
    let err = dev
        .launch(&prep, &[Arg::Buf(out), Arg::Val(Value::I32(32))], &[32], ExecMode::Fast)
        .expect_err("dynamic detector reports the race");
    let msg = err.to_string();
    let names = "write-race in `fixture_racy` site 0: buffer `out` element 3";
    assert!(msg.contains(names), "dynamic report names site, buffer and element: {msg}");
}

/// The tape executor must *refuse* proof-licensed elision for the OOB
/// fixture: no contract is registered for it, the launch-concrete facts
/// cannot prove the off-the-end store, so the site stays on the checked
/// path (`vgpu.tape.sites_checked` grows) and the overrun dies on the
/// release-mode bounds assert — a clean panic, not an unchecked write.
#[test]
fn oob_fixture_refuses_proof_licensed_elision() {
    let entries = fixtures::entries();
    let oob = entries.iter().find(|e| e.kernel.name == "fixture_oob").unwrap();
    // A runtime of its own counts this launch's proof and nothing else.
    let rt = Runtime::new(vgpu::runtime().settings);
    let mut dev = Device::with_runtime(DeviceProfile::gtx780(), rt.clone());
    dev.set_engine(vgpu::Engine::Fast);
    let prep = dev.compile(&oob.kernel).expect("fixture compiles");
    let out = dev.create_buffer(ScalarKind::F32, 32);
    // gid 31 survives the `gid >= N` guard and stores out[32] — one past
    // the end. The checked path must catch it.
    let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ =
            dev.launch(&prep, &[Arg::Buf(out), Arg::Val(Value::I32(32))], &[32], ExecMode::Fast);
    }))
    .expect_err("the overrun must panic on the dynamic check");
    let msg = panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(msg.contains("store out of bounds"), "clean bounds panic, got: {msg}");

    let checked = rt.registry.counter("vgpu.tape.sites_checked").get();
    let proven = rt.registry.counter("vgpu.tape.sites_proven").get();
    assert!(checked > 0, "the unprovable store site must keep its check");
    assert_eq!(proven, 0, "nothing about this launch is provable without a contract");
}

/// The OOB fixture is caught statically too: the bounds checker flags the
/// site before anything runs, rather than leaving it to a launch that
/// happens to reach the last work-item.
#[test]
fn oob_fixture_is_flagged_statically() {
    let entries = fixtures::entries();
    let oob = entries.iter().find(|e| e.kernel.name == "fixture_oob").unwrap();
    let report = lift::verify::verify_kernel(&oob.kernel, &oob.assumptions);
    let site = report
        .sites
        .iter()
        .find(|s| s.verdict == lift::verify::Verdict::Potential)
        .expect("bounds checker flags the overrun");
    assert_eq!(site.site, 0);
    assert_eq!(site.buffer, "out");
    assert!(site.reason.contains("upper bound"), "reason: {}", site.reason);
}
