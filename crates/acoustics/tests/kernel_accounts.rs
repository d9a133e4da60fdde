//! The per-kernel account ([`KernelSummary`]) is keyed by (kernel, engine,
//! precision), and a traced launch records exactly the account of the
//! [`vgpu::LaunchStats`] it returned. Each test traces on a runtime of its
//! own, whose trace holds its launches and nothing else.

use room_acoustics::{
    BoundaryKernel, GridDims, Precision, RoomShape, SimConfig, SimSetup, SingleSim,
};
use std::sync::Arc;
use vgpu::telemetry::sink::{self, KernelSummary};
use vgpu::telemetry::{Event, TraceMode};
use vgpu::{Device, DeviceProfile, ExecMode, Runtime, Settings};

/// A runtime that records events with the default one's other settings.
fn tracing() -> Arc<Runtime> {
    Runtime::new(Settings { trace: TraceMode::Summary, ..vgpu::runtime().settings })
}

/// The hand-written FD-MM box at `precision` on one device of `rt`.
fn fdmm_box(rt: &Arc<Runtime>, precision: Precision) -> SingleSim {
    let setup = SimSetup::new(&SimConfig::fdmm(GridDims::cube(12), RoomShape::Box));
    let dev = Device::with_runtime(DeviceProfile::gtx780(), rt.clone());
    let mut sim = SingleSim::new(setup, precision, BoundaryKernel::FdMm, dev);
    sim.impulse(6, 6, 6, 1.0);
    sim
}

/// A kernel's f32 and f64 launches are two accounts, each with its own
/// precision's transaction bytes and modeled time — not one merged row.
#[test]
fn one_kernel_at_two_precisions_is_two_accounts() {
    let rt = tracing();
    let mut folded: Vec<KernelSummary> = Vec::new();
    for precision in [Precision::Single, Precision::Double] {
        let mut sim = fdmm_box(&rt, precision);
        for _ in 0..3 {
            let (v, b) = sim.step(ExecMode::Model { sample_stride: 1 });
            for (k, stats) in sim.kernels().zip([&v, &b]) {
                sink::fold_launch(&mut folded, k.prepared(), stats);
            }
        }
    }
    let traced = sink::kernel_summaries(&rt.trace.events_snapshot());
    let fdmm: Vec<&KernelSummary> =
        traced.iter().filter(|k| k.name == "fdmm_boundary_hand").collect();
    let precisions: Vec<&str> = fdmm.iter().map(|k| k.precision.as_str()).collect();
    assert_eq!(precisions, ["f32", "f64"]);
    assert!(fdmm.iter().all(|k| k.launches == 3 && k.modeled_ms > 0.0));
    assert!(fdmm[1].transaction_bytes > fdmm[0].transaction_bytes, "f64 moves more bytes");
    assert!(fdmm[1].modeled_ms != fdmm[0].modeled_ms);
    // The trace's accounts are the fold of what the launches returned.
    assert_eq!(folded.len(), 4, "two kernels at two precisions");
    for account in &folded {
        assert!(traced.contains(account), "{:?} not traced as {account:?}", account.key());
    }
}

/// The account each traced launch records is [`KernelSummary::of`] the
/// stats that launch returned, op tally and wall time included.
#[test]
fn a_traced_launch_records_the_account_of_its_stats() {
    let rt = tracing();
    let mut sim = fdmm_box(&rt, Precision::Single);
    let mut want: Vec<KernelSummary> = Vec::new();
    for _ in 0..2 {
        let (v, b) = sim.step(ExecMode::Profile);
        assert!(v.op_profile.is_some() && b.op_profile.is_some(), "profiled launches");
        want.extend(sim.kernels().zip([&v, &b]).map(|(k, s)| KernelSummary::of(k.prepared(), s)));
    }
    let recorded: Vec<KernelSummary> = rt
        .trace
        .events_snapshot()
        .into_iter()
        .filter_map(|e| match e {
            Event::Kernel { account, .. } if account.engine != "tree(oracle)" => Some(account),
            _ => None,
        })
        .collect();
    assert_eq!(recorded, want);
}
