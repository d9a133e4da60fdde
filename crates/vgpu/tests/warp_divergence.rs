//! Warp divergence is a metric of the launch: `vgpu.warp.divergent` counts
//! every divergent warp, and with tracing on each launch's kernel event
//! carries its own `divergent_warps`, which the per-kernel summary sums.
//!
//! Each test launches on a runtime of its own, so the counter and the event
//! stream hold its launches and nothing else.

use lift::kast::{KExpr, KStmt, Kernel, KernelParam, MemRef};
use lift::prelude::{BinOp, Lit, ScalarKind};
use vgpu::telemetry::{sink, Event, TraceMode};
use vgpu::{Arg, BufData, Device, DeviceProfile, Engine, ExecMode, Runtime, Settings};

/// A device on the fast engine of a fresh runtime that traces in `trace`
/// mode.
fn device(trace: TraceMode) -> Device {
    let rt = Runtime::new(Settings { trace, ..vgpu::runtime().settings });
    let mut dev = Device::with_runtime(DeviceProfile::gtx780(), rt);
    dev.set_engine(Engine::Fast);
    dev
}

/// Even lanes double, odd lanes copy — every mixed warp diverges at the
/// branch and runs both arms under complementary masks.
fn div_kernel() -> Kernel {
    let even = KExpr::bin(
        BinOp::Eq,
        KExpr::bin(BinOp::Rem, KExpr::GlobalId(0), KExpr::int(2)),
        KExpr::int(0),
    );
    let ld = || KExpr::load(MemRef::Param(0), KExpr::GlobalId(0));
    Kernel {
        name: "div".into(),
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
fn every_launch_counts_its_divergent_warps_and_carries_them_on_its_event() {
    let mut dev = device(TraceMode::Chrome);
    let prep = dev.compile(&div_kernel()).unwrap();
    let x = dev.upload(BufData::from(vec![1.0f32; 64]));
    let out = dev.upload(BufData::from(vec![0.0f32; 64]));
    // 64 items = 2 warps, every one split between even and odd lanes.
    for _ in 0..3 {
        dev.launch(&prep, &[Arg::Buf(x), Arg::Buf(out)], &[64], ExecMode::Fast).unwrap();
    }
    let want: Vec<f64> = (0..64).map(|i| if i % 2 == 0 { 2.0 } else { 1.0 }).collect();
    assert_eq!(dev.read(out).to_f64_vec(), want);
    let events = dev.runtime().trace.take_events();

    // The counter records every divergent warp of every launch...
    let divergent = dev.runtime().registry.counter("vgpu.warp.divergent").get();
    assert_eq!(divergent, 6, "2 warps x 3 launches must all count");

    // ...each launch's own kernel event says how many were its...
    let per_launch: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            Event::Kernel { account, .. } if account.name == "div" => Some(account.divergent_warps),
            _ => None,
        })
        .collect();
    assert_eq!(per_launch, [2, 2, 2]);

    // ...and the per-kernel summary sums them next to the wall time.
    let summaries = sink::kernel_summaries(&events);
    let div = summaries.iter().find(|k| k.name == "div").expect("summary row");
    assert_eq!((div.launches, div.divergent_warps), (3, 6));
    assert!(div.wall_ms > 0.0, "the summary sums the launches' wall time");
}

/// A grouped (barrier / local-memory) launch counts each of its divergent
/// warps once per launch, however many of its phases diverged.
#[test]
fn grouped_launches_count_each_divergent_warp_once() {
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
    let k = Kernel { name: "div_grouped".into(), body, ..div_kernel() };

    let mut dev = device(TraceMode::Off);
    let divergent = dev.runtime().registry.counter("vgpu.warp.divergent");
    let prep = dev.compile(&k).unwrap();
    let x = dev.upload(BufData::from(vec![1.0f32; 64]));
    let out = dev.upload(BufData::from(vec![0.0f32; 64]));
    for _ in 0..2 {
        dev.launch_wg(&prep, &[Arg::Buf(x), Arg::Buf(out)], &[64], Some(32), ExecMode::Fast)
            .unwrap();
    }
    let want: Vec<f64> = (0..64).map(|i| if i % 2 == 0 { 2.0 } else { 1.0 }).collect();
    assert_eq!(dev.read(out).to_f64_vec(), want);
    assert_eq!(divergent.get(), 4, "2 warps x 2 launches, once per warp");
}
