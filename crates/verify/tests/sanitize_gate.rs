//! Static/dynamic cross-check gate (ISSUE 10 tentpole).
//!
//! The static layer (`lift::footprint`) predicts which schedules read
//! uninitialized or stale memory; the dynamic layer (the shadow-memory
//! sanitizer, `VGPU_SANITIZE=shadow`) observes actual reads at run time.
//! This binary pins the contract between them:
//!
//! * every *dynamic* finding on the uninit fixture is contained in the
//!   *static* prediction set (dynamic ⊆ static — the analysis is sound
//!   for the shapes we ship), and so is the racy fixture's write race:
//!   its site is among those of the static `Definite` race verdict;
//! * both deliberately broken fixtures are flagged by the static layer
//!   (`fixture_uninit_read` by the host audit, `fixture_stale_halo` by
//!   the halo-width proof), and the shipped kernels stay PROVEN;
//! * the full differential suite over the sharded simulator runs
//!   bit-identical to a single device with the sanitizer on — zero
//!   findings, write races included, on any shipped kernel.
//!
//! Each test that needs shadow mode runs on a runtime of its own with the
//! sanitizer on, whose findings are that test's alone.

use lift::prelude::{ScalarKind, Value};
use lift::verify::RaceVerdict;
use room_acoustics::{
    BoundaryKernel, GridDims, HandwrittenSim, Precision, RoomShape, ShardedSim, SimConfig, SimSetup,
};
use std::sync::Arc;
use vgpu::{
    run_host_program, Arg, Device, DeviceProfile, Engine, ExecMode, FaultKind, HostEnv, Runtime,
};

/// A device of `rt` on `engine`.
fn device(rt: &Arc<Runtime>, engine: Engine) -> Device {
    let mut d = Device::with_runtime(DeviceProfile::gtx780(), rt.clone());
    d.set_engine(engine);
    d
}

/// The uninit-read fixture must be flagged by both layers, and the
/// dynamic findings must be a subset of the static prediction: same
/// reading kernel, same buffer slot.
#[test]
fn dynamic_uninit_findings_are_contained_in_static_predictions() {
    let rt = Runtime::sanitizing();
    // Static side: the host audit predicts the launch of
    // `fixture_uninit_read` reads the never-written `src` allocation.
    let audit = verify::host_audit();
    let (_, fixture, predicted) = audit
        .iter()
        .find(|(label, _, _)| label == "fixture_uninit_read_host")
        .expect("host audit covers the uninit fixture");
    assert!(*fixture, "the uninit host program is marked as a fixture");
    assert!(!predicted.is_empty(), "static layer predicts the uninit read");
    assert!(
        predicted.iter().all(|p| p.reader == "fixture_uninit_read"),
        "predictions name the reading kernel: {predicted:?}"
    );

    // Dynamic side: actually run the program under the shadow sanitizer.
    // The `fast` engine reports findings without failing the launch, so
    // the run completes and we can inspect the registry.
    let mut dev = device(&rt, Engine::Fast);
    let prog = verify::fixtures::uninit_host_program();
    let env = HostEnv::new().size("N", 16);
    run_host_program(&prog, &env, &mut dev, ScalarKind::F32, ExecMode::Fast)
        .expect("fixture program executes (the bug is semantic, not a crash)");
    let observed = rt.findings.all();
    assert!(!observed.is_empty(), "dynamic layer observes the uninit read");

    // Cross-check: every observed (reader, buffer) pair was predicted.
    for f in &observed {
        assert_eq!(f.kernel, "fixture_uninit_read", "{f}");
        assert_eq!(f.kind, vgpu::FaultKind::UninitRead, "{f}");
        assert!(
            predicted.iter().any(|p| p.reader == f.kernel && p.buffer == f.buffer),
            "dynamic finding {f} has no static prediction among {predicted:?}"
        );
    }
}

/// The racy fixture, launched on a sanitizing runtime under the oracle and
/// the tape: each launch fails and records one write race, on `out`
/// element 3, at a site of the static `Definite` race report for `out`.
#[test]
fn dynamic_write_races_are_contained_in_static_race_verdicts() {
    let entries = verify::fixtures::entries();
    let racy = entries.iter().find(|e| e.kernel.name == "fixture_racy").unwrap();
    let report = lift::verify::verify_kernel(&racy.kernel, &racy.assumptions);
    let definite = report
        .races
        .iter()
        .find(|r| r.buffer == "out" && matches!(r.verdict, RaceVerdict::Definite { .. }))
        .expect("the static detector proves the collision on `out`");
    for engine in [Engine::Tree, Engine::Fast] {
        let rt = Runtime::sanitizing();
        let mut dev = device(&rt, engine);
        let prep = dev.compile(&racy.kernel).unwrap();
        let out = dev.create_buffer(ScalarKind::F32, 32);
        let args = [Arg::Buf(out), Arg::Val(Value::I32(32))];
        let err = dev.launch(&prep, &args, &[32], ExecMode::Fast).expect_err("a write race");
        let [f] = &rt.findings.all()[..] else { panic!("{engine:?}: one finding, {err}") };
        assert_eq!((f.kind, f.buffer.as_str(), f.element), (FaultKind::WriteRace, "out", 3), "{f}");
        assert!(definite.sites.contains(&f.site), "{f}: not among sites {:?}", definite.sites);
    }
}

/// The stale-halo fixture is flagged by the static halo-width proof
/// (its dynamic twin — a skipped halo exchange — is pinned in the vgpu
/// crate's `sanitize_shadow` tests), and every shipped kernel in the
/// same suite stays fully PROVEN.
#[test]
fn stale_halo_fixture_fails_static_proof_and_shipped_kernels_stay_proven() {
    let reports = verify::run_suite(&verify::suite_with_fixtures());
    let stale = reports
        .iter()
        .find(|r| r.name == "fixture_stale_halo")
        .expect("suite covers the stale-halo fixture");
    assert!(stale.fixture);
    assert!(
        !stale.halo_ok(),
        "static proof must reject the 2-plane stencil under a 1-plane exchange"
    );
    for r in reports.iter().filter(|r| !r.fixture) {
        assert!(r.is_proven(), "shipped kernel `{}` must stay PROVEN", r.name);
    }
}

/// Acceptance gate: the differential suite over the sharded
/// simulator is bit-identical to a single device under
/// `VGPU_SANITIZE=shadow`, and the shadow sanitizer stays silent for
/// every shipped kernel (halo exchanges keep the seams fresh).
#[test]
fn differential_sharded_run_is_bit_identical_and_clean_under_shadow() {
    let rt = Runtime::sanitizing();
    let diff_devices =
        |n: usize| -> Vec<Device> { (0..n).map(|_| device(&rt, Engine::Differential)).collect() };
    let s = SimSetup::new(&SimConfig::fimm(GridDims::cube(12), RoomShape::Box));
    let mut single = HandwrittenSim::new(
        s.clone(),
        Precision::Double,
        BoundaryKernel::FiMm { beta_constant: false },
        diff_devices(1).remove(0),
    );
    let mut sharded = ShardedSim::new(
        s,
        Precision::Double,
        BoundaryKernel::FiMm { beta_constant: false },
        diff_devices(3),
    );
    single.impulse(6, 6, 6, 1.0);
    sharded.impulse(6, 6, 6, 1.0);
    // The differential engine turns any sanitizer finding into a hard
    // launch error, so `run` itself is the gate.
    single.run(8);
    sharded.run(8);
    let a = single.read_curr();
    let b = sharded.read_curr();
    assert_eq!(a.len(), b.len());
    assert!(
        a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()),
        "sharded field diverges from single device under shadow sanitizer"
    );
    // No shipped kernel tripped the sanitizer: no write race, no read.
    let stray = rt.findings.all();
    assert!(stray.iter().all(|f| f.kind != FaultKind::WriteRace), "{stray:?}");
    assert!(stray.is_empty(), "shadow sanitizer flagged shipped kernels: {stray:?}");
}
