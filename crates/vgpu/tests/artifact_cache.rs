//! One artifact per (kernel, launch contract), and everything derived from
//! a kernel lives on it: check tables are made under the contract the
//! artifact was compiled with and no other, their number is capped, and a
//! launch that does not match the kernel's parameters is an error before
//! anything runs.
//!
//! Launches count into a runtime of their own; compilations count into the
//! default registry, so the tests that compile through the artifact map
//! serialise on [`COUNTERS`].

use lift::arith::ArithExpr;
use lift::kast::{KExpr, KStmt, Kernel, KernelParam, MemRef};
use lift::prelude::{BinOp, ScalarKind, Value};
use lift::verify::{Assumptions, BufferFacts};
use std::sync::{Arc, Mutex};
use vgpu::{telemetry, Arg, BufData, Device, DeviceProfile, Engine, ExecMode, Runtime};

/// Guards the deltas of the process-wide `vgpu.artifact.*` counters, which
/// every `compile_cached*` call moves.
static COUNTERS: Mutex<()> = Mutex::new(());

/// A device on `engine`, on a fresh runtime with the environment's settings.
fn device(engine: Engine) -> Device {
    let rt = Runtime::new(vgpu::runtime().settings);
    let mut dev = Device::with_runtime(DeviceProfile::gtx780(), rt);
    dev.set_engine(engine);
    dev
}

/// `(proven, checked)` site totals of the check tables `dev`'s launches
/// built.
fn sites(dev: &Device) -> (u64, u64) {
    let reg = &dev.runtime().registry;
    (reg.counter("vgpu.tape.sites_proven").get(), reg.counter("vgpu.tape.sites_checked").get())
}

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

/// Launches `out = x * a` on `dev`.
fn launch_scaled(dev: &mut Device, prep: &vgpu::Prepared, a: f32) {
    let x = dev.upload(BufData::from(vec![1.0f32, 2.0, 3.0, 4.0]));
    let out = dev.upload(BufData::from(vec![0.0f32; 4]));
    dev.launch(prep, &[Arg::Buf(x), Arg::Buf(out), Arg::Val(Value::F32(a))], &[4], ExecMode::Fast)
        .unwrap();
    let want: Vec<f64> = [1.0, 2.0, 3.0, 4.0].iter().map(|x| (x * a) as f64).collect();
    assert_eq!(dev.read(out).to_f64_vec(), want);
}

#[test]
fn compile_cached_counts_hits_and_misses() {
    let _guard = COUNTERS.lock().unwrap();
    let reg = telemetry::registry();
    let hits0 = reg.counter("vgpu.artifact.hits").get();
    let misses0 = reg.counter("vgpu.artifact.misses").get();
    let a = vgpu::compile_cached(&scale_kernel("artifact_counted", ScalarKind::F64)).unwrap();
    let b = vgpu::compile_cached(&scale_kernel("artifact_counted", ScalarKind::F64)).unwrap();
    assert!(Arc::ptr_eq(&a, &b));
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
    let mut dev = device(Engine::Fast);
    for i in 0..100 {
        launch_scaled(&mut dev, &prep, i as f32 * 0.5);
    }
    let (proven, checked) = sites(&dev);
    assert_eq!(proven + checked, 2, "one table for the kernel's load and store site");
}

/// `if (gid < N) out[gid] = x[idx[gid]];` — whether the gather is in bounds
/// depends on what `idx` holds, which only a contract can state.
fn gather_kernel(name: &str) -> Kernel {
    let gid = || KExpr::GlobalId(0);
    Kernel {
        name: name.into(),
        params: vec![
            KernelParam::global_buf("idx", ScalarKind::I32),
            KernelParam::global_buf("x", ScalarKind::F32),
            KernelParam::global_buf("out", ScalarKind::F32),
            KernelParam::scalar("N", ScalarKind::I32),
        ],
        body: vec![
            KStmt::return_if(KExpr::bin(BinOp::Ge, gid(), KExpr::var("N"))),
            KStmt::Store {
                mem: MemRef::Param(2),
                idx: gid(),
                value: KExpr::load(MemRef::Param(1), KExpr::load(MemRef::Param(0), gid())),
            },
        ],
        work_dim: 1,
    }
}

/// Every buffer `N` long, `idx` holding values in `[0, N−1]`: all lengths
/// are over an argument, so a launch can check each of them.
fn gather_contract() -> Assumptions {
    let n = || ArithExpr::var("N");
    let mut asm = Assumptions::default();
    let values = lift::arith::SymRange::new(ArithExpr::cst(0), n() - ArithExpr::cst(1));
    asm.buffers.insert("idx".into(), BufferFacts::sized(n()).with_values(values));
    asm.buffers.insert("x".into(), BufferFacts::sized(n()));
    asm.buffers.insert("out".into(), BufferFacts::sized(n()));
    asm.size_bounds.push(("N".into(), 1));
    asm
}

/// Launches a gather kernel over `idx`, an `x_len`-element `x` and `n`
/// outputs; returns the launch's own `(proven, checked)` site counts.
fn launch_gather(prep: &vgpu::Prepared, idx: Vec<i32>, x_len: usize) -> (u64, u64) {
    let n = idx.len();
    let mut dev = device(Engine::Fast);
    let idx = dev.upload(BufData::from(idx));
    let x = dev.upload(BufData::from(vec![1.0f32; x_len]));
    let out = dev.upload(BufData::from(vec![0.0f32; n]));
    let args = [Arg::Buf(idx), Arg::Buf(x), Arg::Buf(out), Arg::Val(Value::I32(n as i32))];
    dev.launch(prep, &args, &[n], ExecMode::Fast).unwrap();
    sites(&dev)
}

#[test]
fn one_kernel_text_under_two_contracts_is_two_artifacts_with_their_own_tables() {
    let _guard = COUNTERS.lock().unwrap();
    let kernel = gather_kernel("artifact_two_contracts");
    let plain = vgpu::compile_cached(&kernel).unwrap();
    let under = vgpu::compile_cached_under(&kernel, &gather_contract()).unwrap();
    assert!(!Arc::ptr_eq(&plain, &under), "the contract is part of the artifact");
    let again = vgpu::compile_cached_under(&kernel, &gather_contract()).unwrap();
    assert!(Arc::ptr_eq(&under, &again));

    // The same launch shape on both: the contract-free artifact cannot
    // bound `x[idx[gid]]` and keeps its check, the other proves all three
    // sites — whichever launches first, and each on its own table.
    assert_eq!(launch_gather(&under, vec![3, 2, 1, 0], 4), (3, 0));
    assert_eq!(launch_gather(&plain, vec![3, 2, 1, 0], 4), (2, 1));
    assert_eq!(launch_gather(&under, vec![0, 1, 2, 3], 4), (0, 0), "a second launch hits");
    assert_eq!((plain.check_tables(), under.check_tables()), (1, 1));
}

/// The panic message of `f`, which must panic with a `String` payload.
fn panic_text(f: impl FnOnce()) -> String {
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .expect_err("the out-of-bounds access must panic");
    payload.downcast_ref::<String>().cloned().unwrap_or_default()
}

/// A contract whose lengths are all over arguments is checked, not trusted:
/// with `x` one element short of the `N` the contract states, the proof is
/// made against the real length, the gather keeps its check, and the access
/// past the end panics with the standard text — in `--release` too, where
/// a PROVEN site has no check at all.
#[test]
fn a_buffer_shorter_than_its_contract_length_is_proven_against_its_real_length() {
    let _guard = COUNTERS.lock().unwrap();
    let kernel = gather_kernel("artifact_short_buffer");
    let prep = vgpu::compile_cached_under(&kernel, &gather_contract()).unwrap();
    let msg = panic_text(|| {
        launch_gather(&prep, vec![0, 1, 2, 3], 3);
    });
    assert!(msg.contains("load out of bounds: param 1[3] (len 3)"), "got: {msg:?}");
}

#[test]
fn check_tables_are_capped_per_artifact() {
    let _guard = COUNTERS.lock().unwrap();
    let prep = vgpu::compile_cached(&scale_kernel("artifact_table_cap", ScalarKind::F32)).unwrap();
    let mut dev = device(Engine::Fast);
    let x = dev.upload(BufData::from(vec![1.0f32; 1000]));
    let out = dev.upload(BufData::from(vec![0.0f32; 1000]));
    let args = [Arg::Buf(x), Arg::Buf(out), Arg::Val(Value::F32(2.0))];
    for n in 1..=1000 {
        dev.launch(&prep, &args, &[n], ExecMode::Fast).unwrap();
        assert!(prep.check_tables() <= vgpu::exec::CHECK_TABLE_CAP, "after {n} shapes");
    }
    assert!(prep.check_tables() > 0);
}

/// Binding a buffer of another element kind than the parameter declares —
/// from the start, or after a kind-changing `Device::write` — is the same
/// error under every engine, names kernel, parameter and both kinds, and
/// counts no launch.
#[test]
fn a_kind_mismatched_buffer_is_the_same_error_under_every_engine() {
    let mut texts = Vec::new();
    for engine in [Engine::Fast, Engine::Tree, Engine::Differential] {
        let mut dev = device(engine);
        let rt = dev.runtime().clone();
        let launches = || {
            ["vgpu.launches.tape", "vgpu.launches.tree", "vgpu.launches.oracle"]
                .map(|c| rt.registry.counter(c).get())
        };
        let prep = dev.compile(&scale_kernel("artifact_kinds", ScalarKind::F32)).unwrap();
        let x = dev.upload(BufData::from(vec![1.0f64, 2.0]));
        let out = dev.upload(BufData::from(vec![0.0f32; 2]));
        let args = [Arg::Buf(x), Arg::Buf(out), Arg::Val(Value::F32(2.0))];
        let before = launches();
        let from_the_start = dev.launch(&prep, &args, &[2], ExecMode::Fast).unwrap_err();
        dev.write(x, BufData::from(vec![1.0f32, 2.0]));
        dev.launch(&prep, &args, &[2], ExecMode::Fast).expect("kinds match now");
        let counted = launches();
        dev.write(out, BufData::from(vec![0.0f64; 2]));
        let after_a_write = dev.launch(&prep, &args, &[2], ExecMode::Fast).unwrap_err();
        assert_eq!(launches(), counted, "{engine:?}: a refused launch is not counted");
        assert_ne!(counted, before, "{engine:?}: the matching launch was");
        texts.push([from_the_start.to_string(), after_a_write.to_string()]);
    }
    assert!(texts.iter().all(|t| t == &texts[0]), "{texts:#?}");
    let want = "kernel `artifact_kinds`: buffer parameter `x` is declared F32 but bound as F64";
    assert!(texts[0][0].contains(want), "{}", texts[0][0]);
    assert!(texts[0][1].contains("buffer parameter `out`"), "{}", texts[0][1]);
}

/// A kernel the tape compiler rejects has no executable form: compiling it
/// fails with the compiler's reason.
#[test]
fn a_kernel_the_tape_compiler_rejects_fails_to_compile() {
    let x = || KExpr::load(MemRef::Param(0), KExpr::GlobalId(0));
    let mut kernel = scale_kernel("artifact_float_rem", ScalarKind::F32);
    kernel.body = vec![KStmt::Store {
        mem: MemRef::Param(1),
        idx: KExpr::GlobalId(0),
        value: KExpr::bin(BinOp::Rem, x(), KExpr::var("a")),
    }];
    let err = Device::gtx780().compile(&kernel).unwrap_err().to_string();
    assert!(err.contains("artifact_float_rem") && err.contains("% on float operands"), "{err}");
    assert!(vgpu::compile_cached(&kernel).is_err());
}
