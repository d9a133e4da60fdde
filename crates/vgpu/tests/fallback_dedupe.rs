//! Fallback and divergence audit records are deduplicated per
//! (kernel, reason) while the matching counters stay truthful per launch.
//!
//! Runs in its own test binary (hence its own process) because the dedupe
//! set is process-global: in-crate unit tests that also trigger fallbacks
//! would race with this one. The tests here serialise on [`TELEMETRY`]
//! because the event stream (`take_events`) is process-global too.

use lift::kast::{KExpr, KStmt, Kernel, KernelParam, MemRef};
use lift::prelude::{BinOp, Lit, ScalarKind, Value};
use std::sync::Mutex;
use vgpu::telemetry::{self, Event, TraceMode};
use vgpu::{Arg, BufData, Device, Engine, ExecMode};

static TELEMETRY: Mutex<()> = Mutex::new(());

/// out[gid] = x[gid] * a — compiled for f32 buffers.
fn saxpy_ish() -> Kernel {
    Kernel {
        name: "dedupe_fb".into(),
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

#[test]
fn repeated_fallback_launches_emit_one_record_but_count_every_launch() {
    let _guard = TELEMETRY.lock().unwrap();
    telemetry::set_mode(TraceMode::Chrome);
    let fallbacks0 = telemetry::registry().counter("vgpu.tape.fallbacks").get();
    let _ = telemetry::take_events();

    let mut dev = Device::gtx780();
    dev.set_engine(Engine::Fast);
    let prep = dev.compile(&saxpy_ish()).unwrap();
    // f64 buffers against a tape specialized for f32 → per-launch fallback
    // to the tree-walker, with the same (kernel, reason) pair every time.
    let x = dev.upload(BufData::from(vec![1.0f64, 2.0, 3.0, 4.0]));
    let out = dev.upload(BufData::from(vec![0.0f64; 4]));
    for _ in 0..3 {
        dev.launch(
            &prep,
            &[Arg::Buf(x), Arg::Buf(out), Arg::Val(Value::F32(2.0))],
            &[4],
            ExecMode::Fast,
        )
        .unwrap();
    }
    assert_eq!(dev.read(out).to_f64_vec(), vec![2.0, 4.0, 6.0, 8.0]);

    // The audit counter stays truthful: one bump per fallen-back launch.
    let fallbacks = telemetry::registry().counter("vgpu.tape.fallbacks").get() - fallbacks0;
    assert_eq!(fallbacks, 3, "counter must record every launch");

    // But the trace stream reports the pair exactly once.
    let events: Vec<_> = telemetry::take_events()
        .into_iter()
        .filter(|e| matches!(e, Event::TapeFallback { kernel, .. } if kernel == "dedupe_fb"))
        .collect();
    assert_eq!(events.len(), 1, "one TapeFallback event per (kernel, reason): {events:?}");
    telemetry::set_mode(TraceMode::Off);
}

/// Dedupe is scoped per job, not per process: a batch executor calls
/// [`vgpu::exec::reset_fallback_dedupe`] at each job start, so two
/// back-to-back simulations that hit the same fallback cause *both* emit a
/// record — the first job cannot swallow the second's — while the counter
/// still counts every launch of both jobs.
#[test]
fn back_to_back_jobs_each_emit_their_own_record() {
    let _guard = TELEMETRY.lock().unwrap();
    telemetry::set_mode(TraceMode::Chrome);
    let fallbacks0 = telemetry::registry().counter("vgpu.tape.fallbacks").get();
    let _ = telemetry::take_events();

    for _job in 0..2 {
        vgpu::exec::reset_fallback_dedupe();
        let mut dev = Device::gtx780();
        dev.set_engine(Engine::Fast);
        let prep = dev.compile(&saxpy_ish()).unwrap();
        let x = dev.upload(BufData::from(vec![1.0f64, 2.0, 3.0, 4.0]));
        let out = dev.upload(BufData::from(vec![0.0f64; 4]));
        // Two fallback launches per job: deduped to one record within the
        // job, but never across jobs.
        for _ in 0..2 {
            dev.launch(
                &prep,
                &[Arg::Buf(x), Arg::Buf(out), Arg::Val(Value::F32(2.0))],
                &[4],
                ExecMode::Fast,
            )
            .unwrap();
        }
    }

    let fallbacks = telemetry::registry().counter("vgpu.tape.fallbacks").get() - fallbacks0;
    assert_eq!(fallbacks, 4, "counter records every launch of both jobs");
    let events: Vec<_> = telemetry::take_events()
        .into_iter()
        .filter(|e| matches!(e, Event::TapeFallback { kernel, .. } if kernel == "dedupe_fb"))
        .collect();
    assert_eq!(events.len(), 2, "one record per job, not one per process: {events:?}");
    telemetry::set_mode(TraceMode::Off);
}

/// Even lanes double, odd lanes copy — both arms store, so the branch is
/// not if-convertible and every mixed warp genuinely diverges.
fn div_kernel() -> Kernel {
    let even = KExpr::bin(
        BinOp::Eq,
        KExpr::bin(BinOp::Rem, KExpr::GlobalId(0), KExpr::int(2)),
        KExpr::int(0),
    );
    let ld = || KExpr::load(MemRef::Param(0), KExpr::GlobalId(0));
    Kernel {
        name: "dedupe_div".into(),
        params: vec![
            KernelParam::global_buf("x", ScalarKind::F32),
            KernelParam::global_buf("out", ScalarKind::F32),
        ],
        body: vec![KStmt::If {
            cond: even,
            then_: vec![KStmt::Store {
                mem: MemRef::Param(1),
                idx: KExpr::GlobalId(0),
                value: ld() * KExpr::Lit(Lit::f32(2.0)),
            }],
            else_: vec![KStmt::Store {
                mem: MemRef::Param(1),
                idx: KExpr::GlobalId(0),
                value: ld(),
            }],
        }],
        work_dim: 1,
    }
}

#[test]
fn repeated_divergence_emits_one_record_but_counts_every_warp() {
    let _guard = TELEMETRY.lock().unwrap();
    telemetry::set_mode(TraceMode::Chrome);
    let divergent0 = telemetry::registry().counter("vgpu.warp.divergent").get();
    let _ = telemetry::take_events();

    let mut dev = Device::gtx780();
    dev.set_engine(Engine::Fast);
    let prep = dev.compile(&div_kernel()).unwrap();
    let x = dev.upload(BufData::from(vec![1.0f32; 64]));
    let out = dev.upload(BufData::from(vec![0.0f32; 64]));
    // 64 items = 2 warps, every one split between even and odd lanes.
    for _ in 0..3 {
        dev.launch(&prep, &[Arg::Buf(x), Arg::Buf(out)], &[64], ExecMode::Fast).unwrap();
    }
    let want: Vec<f64> = (0..64).map(|i| if i % 2 == 0 { 2.0 } else { 1.0 }).collect();
    assert_eq!(dev.read(out).to_f64_vec(), want);

    // The audit counter records every divergent warp of every launch...
    let divergent = telemetry::registry().counter("vgpu.warp.divergent").get() - divergent0;
    assert_eq!(divergent, 6, "2 warps x 3 launches must all count");

    // ...while the trace stream reports the kernel exactly once.
    let events: Vec<_> = telemetry::take_events()
        .into_iter()
        .filter(|e| matches!(e, Event::WarpDivergence { kernel, .. } if kernel == "dedupe_div"))
        .collect();
    assert_eq!(events.len(), 1, "one WarpDivergence event per kernel: {events:?}");
    telemetry::set_mode(TraceMode::Off);
}

/// A grouped (barrier / local-memory) launch runs on the tape, so it is not
/// a fallback: the fallback counter does not move and no fallback record is
/// emitted, while `vgpu.warp.divergent` counts each of its divergent warps
/// once per launch.
#[test]
fn grouped_launches_are_not_a_fallback() {
    let _guard = TELEMETRY.lock().unwrap();
    telemetry::set_mode(TraceMode::Chrome);
    let reg = telemetry::registry();
    let counters = ["vgpu.tape.fallbacks", "vgpu.warp.divergent"];
    let before = counters.map(|c| reg.counter(c).get());
    let _ = telemetry::take_events();

    // tile[lid] = x[gid]; barrier; even lanes double, odd lanes copy.
    let lid = KExpr::LocalId(0);
    let tile = || MemRef::Local("tile".into());
    let mut body = vec![
        KStmt::DeclLocalArray { name: "tile".into(), kind: ScalarKind::F32, len: KExpr::int(32) },
        KStmt::Store {
            mem: tile(),
            idx: lid.clone(),
            value: KExpr::load(MemRef::Param(0), KExpr::GlobalId(0)),
        },
        KStmt::Barrier,
    ];
    body.extend(div_kernel().body);
    let k = Kernel { name: "dedupe_grouped".into(), body, ..div_kernel() };

    let mut dev = Device::gtx780();
    dev.set_engine(Engine::Fast);
    let prep = dev.compile(&k).unwrap();
    let x = dev.upload(BufData::from(vec![1.0f32; 64]));
    let out = dev.upload(BufData::from(vec![0.0f32; 64]));
    for _ in 0..2 {
        dev.launch_wg(&prep, &[Arg::Buf(x), Arg::Buf(out)], &[64], Some(32), ExecMode::Fast)
            .unwrap();
    }
    let want: Vec<f64> = (0..64).map(|i| if i % 2 == 0 { 2.0 } else { 1.0 }).collect();
    assert_eq!(dev.read(out).to_f64_vec(), want);

    let after = counters.map(|c| reg.counter(c).get());
    assert_eq!(after[0] - before[0], 0, "the tape ran: no tape fallback");
    assert_eq!(after[1] - before[1], 4, "2 warps x 2 launches, once per warp");
    let fallbacks: Vec<_> = telemetry::take_events()
        .into_iter()
        .filter(|e| matches!(e, Event::TapeFallback { .. }))
        .collect();
    assert!(fallbacks.is_empty(), "no fallback record: {fallbacks:?}");
    telemetry::set_mode(TraceMode::Off);
}
