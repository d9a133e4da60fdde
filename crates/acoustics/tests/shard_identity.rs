//! Sharded-vs-unsharded identity at awkward partitions (ISSUE 8 S4).
//!
//! The balanced even splits are covered by the unit tests in
//! `simulation.rs`; this binary pins the hard cases:
//!
//! * slab counts that do **not** divide the grid evenly (uneven owned
//!   heights, partial final warps in the per-slab boundary launches);
//! * cut planes whose boundary-list offsets are *not* 32-aligned — values
//!   must still be bit-identical (transaction totals legitimately differ,
//!   so those runs assert buffers only);
//! * warp-aligned cuts, where summed per-launch counters **and**
//!   transaction bytes must equal the single-device step exactly;
//! * the non-convex L-shape room, whose boundary points have outside
//!   neighbours inside the bounding box;
//! * everything under `Engine::Differential`, so each launch additionally
//!   cross-checks the tree oracle against the tape bit-for-bit;
//! * every case on the hand-written kernel set and on the generated one,
//!   whose slab volume kernel is the same rewrite of another kernel.

use lift_acoustics::LiftBoundary;
use room_acoustics::simulation::sum_step_stats;
use room_acoustics::{
    boundary_cut_planes, BoundaryKernel, GridDims, HandwrittenSim, KernelSource, Precision,
    RoomShape, ShardedSim, SimConfig, SimSetup,
};
use vgpu::{Device, Engine, ExecMode, SlabPartition};

/// The hand-written and the generated kernel set of a scheme.
fn kernel_sets(fdmm: bool) -> [(&'static dyn KernelSource, &'static str); 2] {
    if fdmm {
        [(&BoundaryKernel::FdMm, "hand-written"), (&LiftBoundary::FdMm, "generated")]
    } else {
        [
            (&BoundaryKernel::FiMm { beta_constant: false }, "hand-written"),
            (&LiftBoundary::FiMm, "generated"),
        ]
    }
}

fn diff_devices(n: usize) -> Vec<Device> {
    (0..n)
        .map(|_| {
            let mut d = Device::gtx780();
            d.set_engine(Engine::Differential);
            d
        })
        .collect()
}

fn assert_bits(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(x.to_bits() == y.to_bits(), "{what}: bit mismatch at {i}: {x} vs {y}");
    }
}

/// Runs `steps` in lockstep on a single device and a sharded backend over
/// `part`, on both kernel sets of the scheme, comparing fields bitwise each
/// step; when `exact_counters`, also requires summed work-items, loads,
/// stores, flops and transaction bytes to equal the single-device step's.
fn lockstep(
    setup: SimSetup,
    precision: Precision,
    fdmm: bool,
    part: SlabPartition,
    steps: usize,
    exact_counters: bool,
    what: &str,
) {
    for (kernels, family) in kernel_sets(fdmm) {
        let what = &format!("{what}, {family}");
        let mut single =
            HandwrittenSim::new(setup.clone(), precision, kernels, diff_devices(1).remove(0));
        let devices = diff_devices(part.device_count());
        let mut sharded = ShardedSim::try_with_partition(
            setup.clone(),
            precision,
            kernels,
            devices,
            part.clone(),
        )
        .unwrap();
        let dims = setup.dims();
        let (x, y, z) = (dims.nx / 2, dims.ny / 2, dims.nz / 2);
        single.impulse(x, y, z, 1.0);
        sharded.impulse(x, y, z, 1.0);
        let mode =
            if exact_counters { ExecMode::Model { sample_stride: 1 } } else { ExecMode::Fast };
        for step in 0..steps {
            let (sv, sb) = single.step(mode);
            let shard_stats = sharded.step(mode);
            if exact_counters {
                let (c, txn) = sum_step_stats(&shard_stats);
                let (single_c, single_b) = (&sv.counters, &sb.counters);
                assert_eq!(
                    c.work_items,
                    single_c.work_items + single_b.work_items,
                    "{what}@{step}"
                );
                assert_eq!(
                    c.loads_global,
                    single_c.loads_global + single_b.loads_global,
                    "{what}@{step}: loads"
                );
                assert_eq!(
                    c.stores_global,
                    single_c.stores_global + single_b.stores_global,
                    "{what}@{step}: stores"
                );
                assert_eq!(c.flops, single_c.flops + single_b.flops, "{what}@{step}: flops");
                let single_txn = sv.transaction_bytes.unwrap() + sb.transaction_bytes.unwrap();
                assert_eq!(txn, Some(single_txn), "{what}@{step}: transaction bytes");
            }
            assert_bits(&single.read_curr(), &sharded.read_curr(), what);
        }
    }
}

/// 16³ box, cut at Z=5: owned heights 5 and 11 (nothing divides evenly),
/// and a warp-aligned boundary-list cut — counters and transaction bytes
/// must match the single device exactly, per step.
#[test]
fn uneven_fimm_split_is_bit_and_counter_identical() {
    let s = SimSetup::new(&SimConfig::fimm(GridDims::cube(16), RoomShape::Box));
    let cuts = boundary_cut_planes(16, 16 * 16, &s.room.boundary_indices, 2)
        .expect("16³ box has a 32-aligned cut");
    assert_ne!(cuts[1], 8, "the aligned cut is intentionally not the even split");
    let part = SlabPartition::from_cuts(16, cuts);
    lockstep(s, Precision::Double, false, part, 6, true, "uneven FI-MM box 16³");
}

/// Four devices on a 16×16×40 box: non-divisible slab heights with
/// 32-aligned boundary cuts — still exactly counter-identical.
#[test]
fn four_device_tall_box_is_counter_identical() {
    let s = SimSetup::new(&SimConfig::fimm(GridDims::new(16, 16, 40), RoomShape::Box));
    let cuts = boundary_cut_planes(40, 16 * 16, &s.room.boundary_indices, 4)
        .expect("16×16×40 box has 32-aligned 4-way cuts");
    let part = SlabPartition::from_cuts(40, cuts);
    assert!(part.cuts().windows(2).any(|w| w[1] - w[0] != 10), "cuts {:?}", part.cuts());
    lockstep(s, Precision::Single, false, part, 4, true, "4-device FI-MM box 16×16×40");
}

/// A deliberately non-32-aligned cut (Z=7 on the 16³ box): per-warp
/// coalescing shifts, so transaction totals may differ — but the *values*
/// must not. Partial final warps on both slabs' boundary launches.
#[test]
fn non_aligned_cut_stays_bitwise_identical() {
    let s = SimSetup::new(&SimConfig::fimm(GridDims::cube(16), RoomShape::Box));
    let part = SlabPartition::from_cuts(16, vec![0, 7, 16]);
    lockstep(s, Precision::Double, false, part, 6, false, "non-aligned FI-MM box 16³");
}

/// FD-MM over an uneven 3-way dome split: the per-slab state stride keeps
/// each lane's state-array congruence (mod 32) even though the slab
/// boundary counts end in partial warps.
#[test]
fn fdmm_uneven_three_way_dome_split_bitwise() {
    let s = SimSetup::new(&SimConfig::fdmm(GridDims::new(14, 12, 13), RoomShape::Dome));
    let part = SlabPartition::from_cuts(13, vec![0, 3, 8, 13]);
    lockstep(s, Precision::Single, true, part, 5, false, "uneven FD-MM dome 14×12×13");
}

/// The non-convex L-shape: boundary nodes whose missing neighbours point
/// into the cut-out exercise the nbrs/bnbrs tables differently from
/// Box/Dome. Sharded across 3 devices with an uneven split.
#[test]
fn lshape_sharded_probe_bitwise() {
    let s = SimSetup::new(&SimConfig::fimm(GridDims::new(16, 14, 11), RoomShape::LShape));
    let part = SlabPartition::from_cuts(11, vec![0, 2, 7, 11]);
    lockstep(s, Precision::Double, false, part, 6, false, "L-shape FI-MM 16×14×11");
}
