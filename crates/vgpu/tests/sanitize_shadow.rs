//! End-to-end tests of the shadow-memory sanitizer (`VGPU_SANITIZE=shadow`).
//!
//! Every test here runs its devices on a runtime of its own with the
//! sanitizer on, so its findings and counters are its own. Two deliberately
//! broken schedules — the dynamic
//! twins of the static fixtures `fixture_uninit_read` and
//! `fixture_stale_halo` — must be flagged with full provenance, and clean
//! schedules (including a halo exchange done right) must stay silent.

use lift::kast::{KExpr, KStmt, Kernel, KernelParam, MemRef};
use lift::prelude::{BinOp, ScalarKind, Value};
use std::sync::Arc;
use vgpu::sanitize::FaultKind;
use vgpu::{Arg, BufData, Device, DeviceProfile, Engine, ExecMode, Runtime, SlabPartition};

/// A device of `rt` on `engine`.
fn device(rt: &Arc<Runtime>, engine: Engine) -> Device {
    let mut d = Device::with_runtime(DeviceProfile::gtx780(), rt.clone());
    d.set_engine(engine);
    d
}

/// out[i] = src[i] — one load site, one store site.
fn copy_kernel(name: &str) -> Kernel {
    Kernel {
        name: name.into(),
        params: vec![
            KernelParam::global_buf("src", ScalarKind::F32),
            KernelParam::global_buf("out", ScalarKind::F32),
            KernelParam::scalar("N", ScalarKind::I32),
        ],
        body: vec![
            KStmt::return_if(KExpr::bin(BinOp::Ge, KExpr::GlobalId(0), KExpr::var("N"))),
            KStmt::Store {
                mem: MemRef::Param(1),
                idx: KExpr::GlobalId(0),
                value: KExpr::load(MemRef::Param(0), KExpr::GlobalId(0)),
            },
        ],
        work_dim: 1,
    }
}

#[test]
fn uninit_read_is_flagged_with_provenance_on_every_executor() {
    let rt = Runtime::sanitizing();
    // A shadowed buffer keeps the tape's unit-stride accesses per element.
    for (engine, label) in [(Engine::Tree, "tree"), (Engine::Fast, "tape")] {
        let name = format!("san_uninit_{label}");
        let mut dev = device(&rt, engine);
        let prep = dev.compile(&copy_kernel(&name)).unwrap();
        // `create_buffer` contents are not promised — reading them is the bug.
        let src = dev.create_buffer(ScalarKind::F32, 32);
        let out = dev.create_buffer(ScalarKind::F32, 32);
        let stats = dev
            .launch(
                &prep,
                &[Arg::Buf(src), Arg::Buf(out), Arg::Val(Value::I32(32))],
                &[32],
                ExecMode::Fast,
            )
            .unwrap();
        assert_eq!(stats.backend.label(), label);
        let hits: Vec<_> = rt.findings.all().into_iter().filter(|f| f.kernel == name).collect();
        assert_eq!(hits.len(), 1, "{label}: exactly one deduped finding, got {hits:?}");
        assert_eq!(hits[0].kind, FaultKind::UninitRead);
        assert_eq!(hits[0].buffer, "src", "{label}: finding names the read buffer");
        assert_eq!(hits[0].engine, label);
    }
}

#[test]
fn zeroed_allocation_and_upload_are_clean() {
    let rt = Runtime::sanitizing();
    let name = "san_clean_copy";
    let mut dev = device(&rt, Engine::Differential); // diff engine errors on any finding
    let prep = dev.compile(&copy_kernel(name)).unwrap();
    let src = dev.create_buffer_zeroed(ScalarKind::F32, 32);
    let out = dev.create_buffer(ScalarKind::F32, 32); // store-only: fine uninit
    dev.launch(
        &prep,
        &[Arg::Buf(src), Arg::Buf(out), Arg::Val(Value::I32(32))],
        &[32],
        ExecMode::Fast,
    )
    .expect("clean launch passes the differential sanitizer gate");
    // Reading back what the kernel just stored is also clean.
    let up = dev.upload(BufData::from(vec![1.0f32; 32]));
    dev.launch(
        &prep,
        &[Arg::Buf(up), Arg::Buf(out), Arg::Val(Value::I32(32))],
        &[32],
        ExecMode::Fast,
    )
    .expect("uploaded source is initialized");
    assert!(rt.findings.all().is_empty());
}

#[test]
fn differential_gate_turns_finding_into_launch_error() {
    let name = "san_uninit_diffgate";
    let mut dev = device(&Runtime::sanitizing(), Engine::Differential);
    let prep = dev.compile(&copy_kernel(name)).unwrap();
    let src = dev.create_buffer(ScalarKind::F32, 16);
    let out = dev.create_buffer(ScalarKind::F32, 16);
    let err = dev
        .launch(
            &prep,
            &[Arg::Buf(src), Arg::Buf(out), Arg::Val(Value::I32(16))],
            &[16],
            ExecMode::Fast,
        )
        .expect_err("differential launch must fail on a sanitizer finding");
    let msg = format!("{err:?}");
    assert!(msg.contains("uninit-read"), "error carries the finding: {msg}");
    assert!(msg.contains("src"), "error names the buffer: {msg}");
}

/// A launch answers for its own findings: the runtime keeps one finding
/// per site, yet the second faulty launch of the kernel fails like the
/// first, and a clean launch between them passes.
#[test]
fn every_differential_launch_fails_on_its_own_findings() {
    let rt = Runtime::sanitizing();
    let mut dev = device(&rt, Engine::Differential);
    let prep = dev.compile(&copy_kernel("san_uninit_twice")).unwrap();
    let out = dev.create_buffer(ScalarKind::F32, 16);
    let args = |src| [Arg::Buf(src), Arg::Buf(out), Arg::Val(Value::I32(16))];
    let (uninit, clean) =
        (dev.create_buffer(ScalarKind::F32, 16), dev.create_buffer_zeroed(ScalarKind::F32, 16));
    for launch in ["first", "second"] {
        let err = dev.launch(&prep, &args(uninit), &[16], ExecMode::Fast);
        let msg = err.expect_err(launch).to_string();
        assert!(msg.contains("uninit-read in `san_uninit_twice`"), "{launch}: {msg}");
        assert!(msg.contains("buffer `src` element 0"), "{launch}: {msg}");
        dev.launch(&prep, &args(clean), &[16], ExecMode::Fast).expect("a clean launch");
    }
    assert_eq!(rt.findings.all().len(), 1, "the runtime dedupes per site");
}

/// A two-device mini-schedule over a 2-plane-per-slab field: each device
/// owns `owned` planes of `plane` elements with one halo plane on each
/// side. `exchange` controls whether the seam is refreshed before the
/// second step — skipping it is exactly the stale-halo bug.
fn stale_halo_schedule(exchange_each_step: bool, kname: &str) -> Vec<vgpu::Finding> {
    let plane = 4usize;
    let part = SlabPartition::balanced(4, 2);
    let rt = Runtime::sanitizing();
    // A single-leg engine: under the differential one the stale seam would
    // (correctly) fail the launch instead of recording findings, and this
    // helper wants to inspect them afterwards.
    let mut devs = vec![device(&rt, Engine::Fast), device(&rt, Engine::Fast)];
    // increment kernel: bumps the *owned* planes only (indices are shifted
    // past the bottom halo plane), exactly like a volume update — halo
    // planes are read, never written.
    let kern = Kernel {
        name: kname.into(),
        params: vec![
            KernelParam::global_buf("field", ScalarKind::F32),
            KernelParam::scalar("N", ScalarKind::I32),
            KernelParam::scalar("plane", ScalarKind::I32),
        ],
        body: vec![
            KStmt::return_if(KExpr::bin(BinOp::Ge, KExpr::GlobalId(0), KExpr::var("N"))),
            KStmt::Store {
                mem: MemRef::Param(0),
                idx: KExpr::bin(BinOp::Add, KExpr::GlobalId(0), KExpr::var("plane")),
                value: KExpr::bin(
                    BinOp::Add,
                    KExpr::load(
                        MemRef::Param(0),
                        KExpr::bin(BinOp::Add, KExpr::GlobalId(0), KExpr::var("plane")),
                    ),
                    KExpr::real(1.0),
                ),
            },
        ],
        work_dim: 1,
    }
    .resolve_real(ScalarKind::F32);
    // reader kernel: out[i] = field[i] for the *whole* local slab, halo
    // planes included — the seam read that must be fresh.
    let reader = Kernel {
        name: format!("{kname}_reader"),
        params: vec![
            KernelParam::global_buf("field", ScalarKind::F32),
            KernelParam::global_buf("out", ScalarKind::F32),
            KernelParam::scalar("N", ScalarKind::I32),
        ],
        body: vec![
            KStmt::return_if(KExpr::bin(BinOp::Ge, KExpr::GlobalId(0), KExpr::var("N"))),
            KStmt::Store {
                mem: MemRef::Param(1),
                idx: KExpr::GlobalId(0),
                value: KExpr::load(MemRef::Param(0), KExpr::GlobalId(0)),
            },
        ],
        work_dim: 1,
    };
    let fields: Vec<_> = (0..2)
        .map(|d| devs[d].create_buffer_zeroed(ScalarKind::F32, part.local_planes(d) * plane))
        .collect();
    let outs: Vec<_> = (0..2)
        .map(|d| devs[d].create_buffer(ScalarKind::F32, part.local_planes(d) * plane))
        .collect();
    let preps: Vec<_> = (0..2).map(|d| devs[d].compile(&kern).unwrap()).collect();
    let rpreps: Vec<_> = (0..2).map(|d| devs[d].compile(&reader).unwrap()).collect();
    vgpu::halo_exchange(&mut devs, &fields, &part, plane);
    for step in 0..2 {
        if exchange_each_step && step > 0 {
            vgpu::halo_exchange(&mut devs, &fields, &part, plane);
        }
        // All seam reads happen before any device mutates its field — the
        // same read-then-write phasing as a real volume step over `curr`.
        for d in 0..2 {
            let n = (part.local_planes(d) * plane) as i32;
            devs[d]
                .launch(
                    &rpreps[d],
                    &[Arg::Buf(fields[d]), Arg::Buf(outs[d]), Arg::Val(Value::I32(n))],
                    &[part.local_planes(d) * plane],
                    ExecMode::Fast,
                )
                .unwrap();
        }
        for d in 0..2 {
            let owned = (part.owned(d) * plane) as i32;
            devs[d]
                .launch(
                    &preps[d],
                    &[
                        Arg::Buf(fields[d]),
                        Arg::Val(Value::I32(owned)),
                        Arg::Val(Value::I32(plane as i32)),
                    ],
                    &[part.owned(d) * plane],
                    ExecMode::Fast,
                )
                .unwrap();
        }
    }
    rt.findings.all().into_iter().filter(|f| f.kernel == format!("{kname}_reader")).collect()
}

#[test]
fn skipped_halo_exchange_is_flagged_as_stale() {
    let hits = stale_halo_schedule(false, "san_stale");
    assert!(!hits.is_empty(), "second step must read a stale seam");
    assert!(hits.iter().all(|f| f.kind == FaultKind::StaleHaloRead), "{hits:?}");
    assert_eq!(hits[0].buffer, "field", "finding names the seam buffer");
}

#[test]
fn per_step_halo_exchange_is_clean() {
    let hits = stale_halo_schedule(true, "san_fresh");
    assert!(hits.is_empty(), "exchanged-every-step schedule must be clean: {hits:?}");
}

#[test]
fn sanitize_counters_tally_findings() {
    let rt = Runtime::sanitizing();
    let name = "san_counter_probe";
    let mut dev = device(&rt, Engine::Tree);
    let prep = dev.compile(&copy_kernel(name)).unwrap();
    let src = dev.create_buffer(ScalarKind::F32, 8);
    let out = dev.create_buffer(ScalarKind::F32, 8);
    dev.launch(
        &prep,
        &[Arg::Buf(src), Arg::Buf(out), Arg::Val(Value::I32(8))],
        &[8],
        ExecMode::Fast,
    )
    .unwrap();
    // 8 work-items × 1 uninit load each; the counter counts occurrences,
    // the findings dedupe to one row. Nothing reaches the default runtime.
    assert_eq!(rt.registry.counter("vgpu.sanitize.uninit_reads").get(), 8);
    assert_eq!(rt.registry.counter("vgpu.sanitize.shadowed_buffers").get(), 2);
    assert_eq!(rt.findings.all().iter().filter(|f| f.kernel == name).count(), 1);
    assert!(vgpu::runtime().findings.all().is_empty());
}
