//! Exactly-once transfer accounting for sharded construction (ISSUE 8 S3).
//!
//! The process-wide artifact cache hands every device the *same*
//! `Arc<Prepared>`, and each device re-uploads the replicated coefficient
//! tables. The accounting invariant under audit: per-device
//! `vgpu.xfer.to_gpu.*` totals must neither double-count those replicated
//! uploads nor drop bytes — replicas land under `vgpu.halo.replicate.*`
//! and the `vgpu.xfer.*` totals stay identical to the single-device run.
//!
//! Every simulation is built on a runtime of its own, so a runtime's
//! counters are exactly what its simulation moved.

use room_acoustics::{
    BoundaryKernel, GridDims, KernelSource, Precision, RoomShape, ShardedSim, SimConfig, SimSetup,
};
use std::sync::Arc;
use vgpu::{Device, DeviceProfile, Runtime};

/// The transfer and sharding counters of one runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Accounts {
    /// `vgpu.xfer.to_gpu.{bytes,transfers}`.
    to_gpu: (u64, u64),
    /// `vgpu.halo.{bytes,copies}`.
    halo: (u64, u64),
    /// `vgpu.halo.replicate.{bytes,transfers}`.
    replicate: (u64, u64),
}

fn accounts(rt: &Runtime) -> Accounts {
    let c = |name: &str| rt.registry.counter(name).get();
    let pair =
        |what: &str, n: &str| (c(&format!("vgpu.{what}.bytes")), c(&format!("vgpu.{what}.{n}")));
    Accounts {
        to_gpu: pair("xfer.to_gpu", "transfers"),
        halo: pair("halo", "copies"),
        replicate: pair("halo.replicate", "transfers"),
    }
}

/// `s` built on `n` devices of a fresh runtime with the environment's
/// settings.
fn build(
    s: &SimSetup,
    precision: Precision,
    kind: impl KernelSource,
    n: usize,
) -> (ShardedSim, Arc<Runtime>) {
    let rt = Runtime::new(vgpu::runtime().settings);
    let devices = (0..n).map(|_| Device::with_runtime(DeviceProfile::gtx780(), rt.clone()));
    (ShardedSim::new(s.clone(), precision, kind, devices.collect()), rt)
}

/// Build-time upload accounting, FI-MM: 3 devices vs 1. Grid slabs move
/// through accounted region writes that sum to the whole-grid upload;
/// boundary lists are disjoint slices; β is replicated.
#[test]
fn fimm_replicated_uploads_account_exactly_once() {
    let s = SimSetup::new(&SimConfig::fimm(GridDims::cube(12), RoomShape::Box));
    let kind = BoundaryKernel::FiMm { beta_constant: false };

    let one = accounts(&build(&s, Precision::Double, kind, 1).1);
    // A single-device build replicates nothing and exchanges nothing.
    assert_eq!((one.replicate, one.halo), ((0, 0), (0, 0)));

    let three = accounts(&build(&s, Precision::Double, kind, 3).1);
    // Exactly-once: the sharded build's accounted host→device bytes equal
    // the single-device build's, even though the same Arc'd artifacts and
    // tables serve three devices...
    assert_eq!(three.to_gpu.0, one.to_gpu.0, "sharded to_gpu bytes must match single-device");
    // ...with more (smaller) transfers, never fewer.
    assert!(three.to_gpu.1 > one.to_gpu.1, "per-slab region writes split transfers");
    // The β table re-uploads land under vgpu.halo.replicate.*: one per
    // extra device, byte-exact.
    let beta_bytes = (s.betas.len() * 8) as u64;
    assert_eq!(three.replicate, (2 * beta_bytes, 2), "one replica per extra device");
    assert_eq!(three.halo, (0, 0), "construction does no halo exchange");
}

/// Same audit for FD-MM, which replicates four coefficient tables plus β,
/// and a steady-state step check: stepping moves *only* halo bytes — no
/// host transfers, no replicas.
#[test]
fn fdmm_replication_and_steps_keep_xfer_totals_clean() {
    let s = SimSetup::new(&SimConfig::fdmm(GridDims::cube(12), RoomShape::Dome));
    let one = accounts(&build(&s, Precision::Single, BoundaryKernel::FdMm, 1).1);
    let (mut two, rt) = build(&s, Precision::Single, BoundaryKernel::FdMm, 2);
    let built = accounts(&rt);
    assert_eq!(built.to_gpu.0, one.to_gpu.0, "sharded to_gpu bytes must match single-device");
    let fa = s.fd.as_ref().expect("FD coefficients");
    let table_elems = {
        let fd = room_acoustics::reference::FdArrays::<f64>::from_coeffs(fa);
        fd.bi.len() + fd.d.len() + fd.di.len() + fd.f.len()
    };
    let expect = (table_elems * 4 + s.betas.len() * 4) as u64; // f32 tables
    assert_eq!(built.replicate, (expect, 5), "β + 4 FD tables replicated once");

    // Steps are device-resident: only the seam planes move, all of it
    // accounted under vgpu.halo.*.
    two.impulse(6, 6, 6, 1.0);
    let before = accounts(&rt);
    two.run(4);
    let after = accounts(&rt);
    assert_eq!(after.to_gpu, before.to_gpu, "steps must not touch vgpu.xfer.*");
    let halo = (after.halo.0 - before.halo.0, after.halo.1 - before.halo.1);
    assert_eq!(halo, (4 * two.halo_bytes_per_step(), 4 * 2), "two plane copies per seam per step");
    assert_eq!(after.replicate, before.replicate);
}
