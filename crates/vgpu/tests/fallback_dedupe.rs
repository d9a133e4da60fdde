//! Warp-divergence audit records are deduplicated per kernel, and rescoped
//! per job, while `vgpu.warp.divergent` stays truthful per warp.
//!
//! Runs in its own test binary (hence its own process): in-crate unit tests
//! that also diverge would race with this one on the counter. The tests
//! here serialise on [`TELEMETRY`] because the event stream (`take_events`)
//! is process-global too.

use lift::kast::{KExpr, KStmt, Kernel, KernelParam, MemRef};
use lift::prelude::{BinOp, Lit, ScalarKind};
use std::sync::Mutex;
use vgpu::telemetry::{self, Event, TraceMode};
use vgpu::{Arg, BufData, Device, Engine, ExecMode};

static TELEMETRY: Mutex<()> = Mutex::new(());

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
    assert_eq!(div_records(), 1, "one WarpDivergence event per kernel");
    telemetry::set_mode(TraceMode::Off);
}

/// The `WarpDivergence` records of `dedupe_div` recorded since the last
/// `take_events`.
fn div_records() -> usize {
    telemetry::take_events()
        .into_iter()
        .filter(|e| matches!(e, Event::WarpDivergence { kernel, .. } if kernel == "dedupe_div"))
        .count()
}

/// Dedupe is scoped per job, not per process: a batch executor calls
/// [`vgpu::exec::reset_fallback_dedupe`] at each job start, so two
/// back-to-back simulations that diverge in the same kernel *both* emit a
/// record — the first job cannot swallow the second's — while the counter
/// still counts every warp of both jobs.
#[test]
fn back_to_back_jobs_each_emit_their_own_record() {
    let _guard = TELEMETRY.lock().unwrap();
    telemetry::set_mode(TraceMode::Chrome);
    let divergent0 = telemetry::registry().counter("vgpu.warp.divergent").get();
    let _ = telemetry::take_events();

    for _job in 0..2 {
        vgpu::exec::reset_fallback_dedupe();
        let mut dev = Device::gtx780();
        dev.set_engine(Engine::Fast);
        let prep = dev.compile(&div_kernel()).unwrap();
        let x = dev.upload(BufData::from(vec![1.0f32; 64]));
        let out = dev.upload(BufData::from(vec![0.0f32; 64]));
        // Two divergent launches per job: deduped to one record within the
        // job, but never across jobs.
        for _ in 0..2 {
            dev.launch(&prep, &[Arg::Buf(x), Arg::Buf(out)], &[64], ExecMode::Fast).unwrap();
        }
    }

    let divergent = telemetry::registry().counter("vgpu.warp.divergent").get() - divergent0;
    assert_eq!(divergent, 8, "2 warps x 2 launches x 2 jobs all count");
    assert_eq!(div_records(), 2, "one record per job, not one per process");
    telemetry::set_mode(TraceMode::Off);
}

/// A grouped (barrier / local-memory) launch counts each of its divergent
/// warps once per launch, however many of its phases diverged.
#[test]
fn grouped_launches_count_each_divergent_warp_once() {
    let _guard = TELEMETRY.lock().unwrap();
    let divergent = telemetry::registry().counter("vgpu.warp.divergent");
    let before = divergent.get();

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
    assert_eq!(divergent.get() - before, 4, "2 warps x 2 launches, once per warp");
}
