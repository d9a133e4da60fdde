//! Regression: the repro bins run several measurements in one process, and
//! the fallback/divergence dedupe set must be rescoped at each sim start —
//! otherwise the first sim's audit records silently swallow every later
//! sim's (the batch executor already resets per job, but `repro_*` bins
//! never went through it).
//!
//! Own test binary: the dedupe set and event stream are process-global.

use lift::kast::{KExpr, KStmt, Kernel, KernelParam, MemRef};
use lift::prelude::{ScalarKind, Value};
use room_acoustics::{GridDims, Precision, RoomShape};
use vgpu::telemetry::{self, Event, TraceMode};
use vgpu::{Arg, BufData, Device, Engine, ExecMode};

/// out[gid] = x[gid] * a — f64 buffers against the f32-specialized tape
/// force a deterministic tape→tree fallback on every launch.
fn fallback_kernel() -> Kernel {
    Kernel {
        name: "measure_dedupe_fb".into(),
        params: vec![
            KernelParam::global_buf("x", ScalarKind::F32),
            KernelParam::global_buf("out", ScalarKind::F32),
            KernelParam::scalar("a", ScalarKind::F32),
        ],
        body: vec![KStmt::Store {
            mem: MemRef::Param(1),
            idx: KExpr::GlobalId(0),
            value: KExpr::load(MemRef::Param(0), KExpr::GlobalId(0)) * KExpr::var("a"),
        }],
        work_dim: 1,
    }
}

fn trigger_fallback() {
    let mut dev = Device::gtx780();
    dev.set_engine(Engine::Fast);
    let prep = dev.compile(&fallback_kernel()).unwrap();
    let x = dev.upload(BufData::from(vec![1.0f64, 2.0]));
    let out = dev.upload(BufData::from(vec![0.0f64; 2]));
    dev.launch(
        &prep,
        &[Arg::Buf(x), Arg::Buf(out), Arg::Val(Value::F32(2.0))],
        &[2],
        ExecMode::Fast,
    )
    .unwrap();
}

#[test]
fn each_measurement_rescopes_the_fallback_dedupe() {
    telemetry::set_mode(TraceMode::Chrome);
    let _ = telemetry::take_events();

    // Sim 1: hits a fallback → one audit record.
    trigger_fallback();
    // Sim 2 via the repro path: measure_* must reset the dedupe set...
    let _ = bench::measure::measure_fimm(
        GridDims::new(8, 8, 8),
        RoomShape::Box,
        Precision::Single,
        bench::measure::Impl::Lift,
    );
    // ...so the *same* (kernel, reason) pair records again in sim 3.
    trigger_fallback();

    let records = telemetry::take_events()
        .into_iter()
        .filter(
            |e| matches!(e, Event::TapeFallback { kernel, .. } if kernel == "measure_dedupe_fb"),
        )
        .count();
    telemetry::set_mode(TraceMode::Off);
    assert_eq!(
        records, 2,
        "a measurement between two identical fallbacks must not let the first swallow the second"
    );
}
