//! Edge-case and error-path tests for the virtual device.

use lift::kast::{KExpr, KStmt, Kernel, KernelParam, MemRef};
use lift::prelude::{BinOp, Lit, ScalarKind, Value};
use vgpu::{Arg, BufData, Device, ExecMode};

fn copy_kernel(kind: ScalarKind) -> Kernel {
    Kernel {
        name: "copy".into(),
        params: vec![
            KernelParam::global_buf("src", kind),
            KernelParam::global_buf("dst", kind),
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
fn arg_count_mismatch_is_reported() {
    let mut dev = Device::gtx780();
    let prep = dev.compile(&copy_kernel(ScalarKind::F32)).unwrap();
    let b = dev.create_buffer(ScalarKind::F32, 4);
    let r = dev.launch(&prep, &[Arg::Buf(b)], &[4], ExecMode::Fast);
    assert!(r.is_err());
}

#[test]
fn buffer_for_scalar_param_is_reported() {
    let mut dev = Device::gtx780();
    let prep = dev.compile(&copy_kernel(ScalarKind::F32)).unwrap();
    let b = dev.create_buffer(ScalarKind::F32, 4);
    let r = dev.launch(&prep, &[Arg::Buf(b), Arg::Buf(b), Arg::Buf(b)], &[4], ExecMode::Fast);
    assert!(r.is_err(), "scalar parameter bound to a buffer must fail");
}

#[test]
fn unresolved_real_kernel_rejected_at_compile() {
    let dev = Device::gtx780();
    let k = Kernel {
        name: "generic".into(),
        params: vec![KernelParam::global_buf("x", ScalarKind::Real)],
        body: vec![],
        work_dim: 1,
    };
    assert!(dev.compile(&k).is_err());
}

#[test]
fn zero_sized_ndrange_is_a_noop() {
    let mut dev = Device::gtx780();
    let prep = dev.compile(&copy_kernel(ScalarKind::F32)).unwrap();
    let src = dev.upload(BufData::from(vec![5.0f32; 4]));
    let dst = dev.create_buffer(ScalarKind::F32, 4);
    let stats = dev
        .launch(
            &prep,
            &[Arg::Buf(src), Arg::Buf(dst), Arg::Val(Value::I32(0))],
            &[0],
            ExecMode::Fast,
        )
        .unwrap();
    assert_eq!(stats.counters.stores_global, 0);
    assert_eq!(dev.read(dst), BufData::zeros(ScalarKind::F32, 4));
}

#[test]
fn guard_stops_out_of_range_items() {
    // NDRange rounded up beyond N: guarded items must not touch memory.
    let mut dev = Device::gtx780();
    let prep = dev.compile(&copy_kernel(ScalarKind::F32)).unwrap();
    let src = dev.upload(BufData::from(vec![1.0f32, 2.0, 3.0]));
    let dst = dev.create_buffer(ScalarKind::F32, 3);
    let stats = dev
        .launch(
            &prep,
            &[Arg::Buf(src), Arg::Buf(dst), Arg::Val(Value::I32(3))],
            &[64],
            ExecMode::Fast,
        )
        .unwrap();
    assert_eq!(stats.counters.stores_global, 3);
    assert_eq!(stats.counters.work_items, 64);
}

#[test]
fn scalar_args_cast_to_param_kind() {
    // pass an f64 value to an f32 scalar parameter: C conversion applies
    let k = Kernel {
        name: "fill".into(),
        params: vec![
            KernelParam::global_buf("dst", ScalarKind::F32),
            KernelParam::scalar("v", ScalarKind::F32),
        ],
        body: vec![KStmt::Store {
            mem: MemRef::Param(0),
            idx: KExpr::GlobalId(0),
            value: KExpr::var("v"),
        }],
        work_dim: 1,
    };
    let mut dev = Device::gtx780();
    let prep = dev.compile(&k).unwrap();
    let dst = dev.create_buffer(ScalarKind::F32, 2);
    dev.launch(&prep, &[Arg::Buf(dst), Arg::Val(Value::F64(0.1))], &[2], ExecMode::Fast).unwrap();
    assert_eq!(dev.read(dst), BufData::from(vec![0.1f64 as f32; 2]));
}

#[test]
fn comments_are_noops() {
    let k = Kernel {
        name: "c".into(),
        params: vec![KernelParam::global_buf("dst", ScalarKind::I32)],
        body: vec![
            KStmt::Comment("hello".into()),
            KStmt::Store { mem: MemRef::Param(0), idx: KExpr::GlobalId(0), value: KExpr::int(7) },
        ],
        work_dim: 1,
    };
    let mut dev = Device::gtx780();
    let prep = dev.compile(&k).unwrap();
    let dst = dev.create_buffer(ScalarKind::I32, 1);
    dev.launch(&prep, &[Arg::Buf(dst)], &[1], ExecMode::Fast).unwrap();
    assert_eq!(dev.read(dst), BufData::from(vec![7i32]));
}

#[test]
fn determinism_across_runs() {
    // Identical launches produce identical buffers (parallel execution must
    // not introduce nondeterminism).
    let k = Kernel {
        name: "mix".into(),
        params: vec![
            KernelParam::global_buf("a", ScalarKind::F32),
            KernelParam::global_buf("b", ScalarKind::F32),
        ],
        body: vec![KStmt::Store {
            mem: MemRef::Param(1),
            idx: KExpr::GlobalId(0),
            value: KExpr::load(MemRef::Param(0), KExpr::GlobalId(0)) * KExpr::Lit(Lit::f32(1.5))
                + KExpr::Lit(Lit::f32(0.25)),
        }],
        work_dim: 1,
    };
    let run = || {
        let mut dev = Device::gtx780();
        let prep = dev.compile(&k).unwrap();
        let a = dev.upload(BufData::from((0..1000).map(|i| i as f32 * 0.37).collect::<Vec<_>>()));
        let b = dev.create_buffer(ScalarKind::F32, 1000);
        dev.launch(&prep, &[Arg::Buf(a), Arg::Buf(b)], &[1000], ExecMode::Fast).unwrap();
        dev.read(b)
    };
    assert_eq!(run(), run());
}
