//! Regression: the repro bins run several measurements in one process, and
//! the divergence dedupe set must be rescoped at each sim start — otherwise
//! the first sim's audit records silently swallow every later sim's (the
//! batch executor already resets per job, but `repro_*` bins never went
//! through it).
//!
//! Own test binary: the dedupe set and event stream are process-global.

use lift::kast::{KExpr, KStmt, Kernel, KernelParam, MemRef};
use lift::prelude::{BinOp, ScalarKind};
use room_acoustics::{GridDims, Precision, RoomShape};
use vgpu::telemetry::{self, Event, TraceMode};
use vgpu::{Arg, BufData, Device, Engine, ExecMode};

/// Even lanes store 2, odd lanes store 1 — both arms store, so every warp
/// diverges on every launch.
fn divergent_kernel() -> Kernel {
    let even = KExpr::bin(
        BinOp::Eq,
        KExpr::bin(BinOp::Rem, KExpr::GlobalId(0), KExpr::int(2)),
        KExpr::int(0),
    );
    let store = |v: i32| KStmt::Store {
        mem: MemRef::Param(0),
        idx: KExpr::GlobalId(0),
        value: KExpr::int(v),
    };
    Kernel {
        name: "measure_dedupe_div".into(),
        params: vec![KernelParam::global_buf("out", ScalarKind::I32)],
        body: vec![KStmt::If { cond: even, then_: vec![store(2)], else_: vec![store(1)] }],
        work_dim: 1,
    }
}

fn trigger_divergence() {
    let mut dev = Device::gtx780();
    dev.set_engine(Engine::Fast);
    let prep = dev.compile(&divergent_kernel()).unwrap();
    let out = dev.upload(BufData::from(vec![0i32; 2]));
    dev.launch(&prep, &[Arg::Buf(out)], &[2], ExecMode::Fast).unwrap();
}

#[test]
fn each_measurement_rescopes_the_divergence_dedupe() {
    telemetry::set_mode(TraceMode::Chrome);
    let _ = telemetry::take_events();

    // Sim 1: diverges → one audit record.
    trigger_divergence();
    // Sim 2 via the repro path: measure_* must reset the dedupe set...
    let _ = bench::measure::measure_fimm(
        GridDims::new(8, 8, 8),
        RoomShape::Box,
        Precision::Single,
        bench::measure::Impl::Lift,
    );
    // ...so the *same* kernel records again in sim 3.
    trigger_divergence();

    let records = telemetry::take_events()
        .into_iter()
        .filter(
            |e| matches!(e, Event::WarpDivergence { kernel, .. } if kernel == "measure_dedupe_div"),
        )
        .count();
    telemetry::set_mode(TraceMode::Off);
    assert_eq!(
        records, 2,
        "a measurement between two identical divergences must not let the first swallow the second"
    );
}
