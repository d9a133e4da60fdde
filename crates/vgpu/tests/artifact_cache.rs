//! The process-wide artifact cache makes launch plans portable across
//! devices: a fresh device launching a kernel another device already
//! planned adopts the shared plan (`vgpu.plan.shared_hits`) instead of
//! replanning (`vgpu.plan.misses`).
//!
//! Runs in its own test binary so its counter-delta assertions only race
//! with the tests in this file, which serialise on [`COUNTERS`].

use lift::kast::{KExpr, KStmt, Kernel, KernelParam, MemRef};
use lift::prelude::{ScalarKind, Value};
use std::sync::Mutex;
use vgpu::{telemetry, Arg, BufData, Device, ExecMode};

static COUNTERS: Mutex<()> = Mutex::new(());

/// out[gid] = x[gid] * a.
fn scale_kernel(name: &str, kind: ScalarKind) -> Kernel {
    Kernel {
        name: name.into(),
        params: vec![
            KernelParam::global_buf("x", kind),
            KernelParam::global_buf("out", kind),
            KernelParam::scalar("a", kind),
        ],
        body: vec![KStmt::Store {
            mem: MemRef::Param(1),
            idx: KExpr::GlobalId(0),
            value: KExpr::load(MemRef::Param(0), KExpr::GlobalId(0)) * KExpr::var("a"),
        }],
        work_dim: 1,
    }
}

fn launch_scaled(prep: &vgpu::Prepared, a: f32) {
    let mut dev = Device::gtx780();
    let x = dev.upload(BufData::from(vec![1.0f32, 2.0, 3.0, 4.0]));
    let out = dev.upload(BufData::from(vec![0.0f32; 4]));
    dev.launch(prep, &[Arg::Buf(x), Arg::Buf(out), Arg::Val(Value::F32(a))], &[4], ExecMode::Fast)
        .unwrap();
    let want: Vec<f64> = [1.0, 2.0, 3.0, 4.0].iter().map(|x| (x * a) as f64).collect();
    assert_eq!(dev.read(out).to_f64_vec(), want);
}

#[test]
fn fresh_devices_adopt_shared_plans_instead_of_replanning() {
    let _guard = COUNTERS.lock().unwrap();
    let prep = vgpu::compile_cached(&scale_kernel("artifact_plan_share", ScalarKind::F32)).unwrap();
    let reg = telemetry::registry();
    let misses0 = reg.counter("vgpu.plan.misses").get();
    let shared0 = reg.counter("vgpu.plan.shared_hits").get();

    // First device to see the kernel pays the one planning miss...
    launch_scaled(&prep, 2.0);
    assert_eq!(reg.counter("vgpu.plan.misses").get() - misses0, 1);

    // ...and every later device adopts the published plan.
    for _ in 0..3 {
        launch_scaled(&prep, 2.0);
    }
    assert_eq!(
        reg.counter("vgpu.plan.misses").get() - misses0,
        1,
        "fresh devices must not replan a shared artifact"
    );
    assert_eq!(
        reg.counter("vgpu.plan.shared_hits").get() - shared0,
        3,
        "each fresh device adopts the shared plan once"
    );
}

#[test]
fn distinct_prepares_of_the_same_kernel_do_not_share_plans() {
    let _guard = COUNTERS.lock().unwrap();
    // Plain `Device::compile` bypasses the artifact cache: each `Prepared`
    // gets a fresh id, so the shared map cannot (and must not) alias them.
    let reg = telemetry::registry();
    let misses0 = reg.counter("vgpu.plan.misses").get();
    for _ in 0..2 {
        let dev = Device::gtx780();
        let prep = dev.compile(&scale_kernel("artifact_plan_private", ScalarKind::F32)).unwrap();
        launch_scaled(&prep, 2.0);
    }
    assert_eq!(
        reg.counter("vgpu.plan.misses").get() - misses0,
        2,
        "uncached prepares keep private plan identities"
    );
}

#[test]
fn compile_cached_counts_hits_and_misses() {
    let _guard = COUNTERS.lock().unwrap();
    let reg = telemetry::registry();
    let hits0 = reg.counter("vgpu.artifact.hits").get();
    let misses0 = reg.counter("vgpu.artifact.misses").get();
    let a = vgpu::compile_cached(&scale_kernel("artifact_counted", ScalarKind::F64)).unwrap();
    let b = vgpu::compile_cached(&scale_kernel("artifact_counted", ScalarKind::F64)).unwrap();
    assert_eq!(a.id(), b.id());
    assert_eq!(reg.counter("vgpu.artifact.misses").get() - misses0, 1);
    assert_eq!(reg.counter("vgpu.artifact.hits").get() - hits0, 1);
}

/// The bounds proof of a launch shape reads the kernel, the global size, the
/// buffer lengths and the i32 scalars — a float scalar that changes with
/// every launch (a source amplitude, a time-varying coefficient) reuses it.
#[test]
fn a_float_scalar_that_changes_per_launch_reuses_the_bounds_proof() {
    let _guard = COUNTERS.lock().unwrap();
    let prep = vgpu::compile_cached(&scale_kernel("artifact_proof_key", ScalarKind::F32)).unwrap();
    let reg = telemetry::registry();
    let sites = || {
        reg.counter("vgpu.tape.sites_proven").get() + reg.counter("vgpu.tape.sites_checked").get()
    };
    let sites0 = sites();
    for i in 0..100 {
        launch_scaled(&prep, i as f32 * 0.5);
    }
    assert_eq!(sites() - sites0, 2, "one table for the kernel's load and store site");
}
