//! The paper's headline claim (§VII) as a standing test: LIFT-generated
//! kernels do the work of the hand-written ones.
//!
//! On the modeled clock that is a statement about counts, and counts repeat
//! exactly: one `ExecMode::Model { sample_stride: 1 }` step of the same room
//! on both kernel sets. The generated volume kernel loads, computes and
//! diverges exactly as the hand-written one — its stencil sits under
//! `nbrs > 0`, Listing 2's shape — and differs in storing `0` to every
//! exterior cell, which the model bills as one more store instruction per
//! warp; the generated boundary kernel moves no more bytes than the
//! hand-written one. No time is compared, so there is no tolerance on one.

use lift_acoustics::LiftBoundary;
use room_acoustics::{
    BoundaryKernel, GridDims, KernelSource, Precision, RoomShape, SimConfig, SimSetup, Simulation,
};
use vgpu::{Device, ExecMode, LaunchStats};

/// One modeled step from an impulse: the volume and the boundary launch.
fn modeled_step(
    setup: &SimSetup,
    precision: Precision,
    set: &dyn KernelSource,
) -> (LaunchStats, LaunchStats) {
    let mut sim = Simulation::new(setup.clone(), precision, set, vec![Device::gtx780()]);
    let d = setup.dims();
    sim.impulse(d.nx / 2, d.ny / 2, 2, 1.0);
    let (volume, boundary) = sim.step(ExecMode::Model { sample_stride: 1 }).remove(0);
    (volume, boundary.expect("a boundary pass"))
}

fn txn(launch: &LaunchStats) -> u64 {
    launch.transaction_bytes.expect("model mode")
}

#[test]
fn generated_kernels_do_the_work_of_the_hand_written_ones() {
    let dims = GridDims::new(34, 14, 10);
    for shape in [RoomShape::Dome, RoomShape::LShape] {
        for fdmm in [false, true] {
            let (cfg, hand, generated): (_, BoundaryKernel, _) = if fdmm {
                (SimConfig::fdmm(dims, shape), BoundaryKernel::FdMm, LiftBoundary::FdMm)
            } else {
                let hand = BoundaryKernel::FiMm { beta_constant: false };
                (SimConfig::fimm(dims, shape), hand, LiftBoundary::FiMm)
            };
            let setup = SimSetup::new(&cfg);
            for precision in [Precision::Single, Precision::Double] {
                let scheme = if fdmm { "FD-MM" } else { "FI-MM" };
                let what = format!("{shape:?} {scheme} {precision:?}");
                let (hv, hb) = modeled_step(&setup, precision, &hand);
                let (gv, gb) = modeled_step(&setup, precision, &generated);
                let (h, g) = (&hv.counters, &gv.counters);
                assert_eq!(g.loads_global, h.loads_global, "{what}: volume loads");
                assert_eq!(g.flops, h.flops, "{what}: volume flops");
                assert_eq!(gv.divergent_warps, hv.divergent_warps, "{what}: divergent warps");
                assert_eq!(g.stores_global, g.work_items, "{what}: one store per work-item");
                assert!(h.stores_global < h.work_items, "{what}: the room has an exterior");
                // The exterior arm's store: at most one more instruction per
                // warp, each over the 128-byte segments 32 elements span.
                let warps = g.work_items.div_ceil(32);
                let per_store = (32 * precision.kind().byte_size() as u64 / 128 + 1) * 128;
                assert!(txn(&gv) > txn(&hv), "{what}: the exterior store is billed");
                assert!(
                    txn(&gv) - txn(&hv) <= warps * per_store,
                    "{what}: volume launch moves {} bytes, hand-written {}",
                    txn(&gv),
                    txn(&hv)
                );
                assert_eq!(gb.counters.loads_global, hb.counters.loads_global, "{what}: boundary");
                assert_eq!(
                    gb.counters.stores_global, hb.counters.stores_global,
                    "{what}: boundary"
                );
                assert!(txn(&gb) <= txn(&hb), "{what}: boundary {} vs {}", txn(&gb), txn(&hb));
                // Whole step, on the benchmark's kernel set (roombench reads
                // 1.03 at 96×64×48): within 5 % of hand-written.
                if fdmm && precision == Precision::Single {
                    let (gen, hand) = (txn(&gv) + txn(&gb), txn(&hv) + txn(&hb));
                    assert!(gen as f64 <= 1.05 * hand as f64, "{what}: step {gen} vs {hand}");
                }
            }
        }
    }
}
