//! The paper's headline claim (§VII) as a standing test: LIFT-generated
//! kernels do the work of the hand-written ones.
//!
//! On the modeled clock that is a statement about counts, and counts repeat
//! exactly: one `ExecMode::Model { sample_stride: 1 }` step of the same room
//! on both kernel sets. The generated volume kernel loads, computes, stores
//! and diverges exactly as the hand-written one, and moves the same bytes:
//! its stencil sits under `nbrs > 0`, Listing 2's shape, and it stores
//! nothing to an exterior cell, which its launch contract says already
//! holds `0`. The generated boundary kernel moves no more bytes than the
//! hand-written one, and the FD-MM one has Listing 4's shape — two loops,
//! the state copies fused into the `reduceSeq` and `vsNew` a scalar of the
//! update loop — with a tape within 10 % of the hand-written one's; the
//! FI-MM one's tape is no longer than the hand-written one's. No time is
//! compared, so there is no tolerance on one.

use lift::kast::{KStmt, Kernel};
use lift::types::ScalarKind;
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
    // Inside either room: the L-shape's cut-out starts at the centre.
    sim.impulse(d.nx / 2 - 1, d.ny / 2, 2, 1.0);
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
                assert_eq!(g.stores_global, h.stores_global, "{what}: volume stores");
                assert!(h.stores_global < h.work_items, "{what}: the room has an exterior");
                assert_eq!(txn(&gv), txn(&hv), "{what}: volume transaction bytes");
                assert_eq!(gb.counters.loads_global, hb.counters.loads_global, "{what}: boundary");
                assert_eq!(
                    gb.counters.stores_global, hb.counters.stores_global,
                    "{what}: boundary"
                );
                assert!(txn(&gb) <= txn(&hb), "{what}: boundary {} vs {}", txn(&gb), txn(&hb));
                // Whole step: no more bytes than hand-written.
                let (gen, hand) = (txn(&gv) + txn(&gb), txn(&hv) + txn(&hb));
                assert!(gen <= hand, "{what}: step {gen} vs {hand}");
            }
        }
    }
}

/// The number of `for` loops in `block`, nested ones included.
fn loops(block: &[KStmt]) -> usize {
    block
        .iter()
        .map(|s| match s {
            KStmt::For { body, .. } => 1 + loops(body),
            KStmt::If { then_, else_, .. } => loops(then_) + loops(else_),
            _ => 0,
        })
        .sum()
}

/// Listing 4's shape: the generated FD-MM boundary kernel, as the step
/// ships it, has two loops and a tape within 10 % of the hand-written
/// kernel's, in either precision.
#[test]
fn the_generated_fdmm_boundary_kernel_has_listing_4s_shape() {
    let hand = room_acoustics::handwritten::all_kernels()
        .into_iter()
        .find(|k| k.name == "fdmm_boundary_hand")
        .expect("a hand-written FD-MM kernel");
    for real in [ScalarKind::F32, ScalarKind::F64] {
        let prog = LiftBoundary::FdMm.host_program(real).unwrap();
        let k = &prog.kernels.last().expect("a boundary launch").kernel;
        assert_eq!(k.name, "fdmm_boundary_lift");
        assert_eq!(loops(&k.body), 2, "{}", lift::opencl::emit_kernel(k));
        let tape = |k: &Kernel| vgpu::exec::prepare(k).expect("compiles to a tape").tape_len();
        let (gen, hand) = (tape(k), tape(&hand.resolve_real(real)));
        assert!(10 * gen <= 11 * hand, "{real:?}: generated tape {gen} ops vs hand-written {hand}");
    }
}

/// The generated FI-MM boundary kernel's tape is no longer than the
/// hand-written kernel's, in either precision: its one-trip copy loop
/// unrolls away.
#[test]
fn the_generated_fimm_boundary_tape_is_no_longer_than_the_hand_written_one() {
    let hand = room_acoustics::handwritten::all_kernels()
        .into_iter()
        .find(|k| k.name == "fimm_boundary_hand")
        .expect("a hand-written FI-MM kernel");
    for real in [ScalarKind::F32, ScalarKind::F64] {
        let prog = LiftBoundary::FiMm.host_program(real).unwrap();
        let k = &prog.kernels.last().expect("a boundary launch").kernel;
        assert_eq!(k.name, "fimm_boundary_lift");
        let tape = |k: &Kernel| vgpu::exec::prepare(k).expect("compiles to a tape").tape_len();
        let (gen, hand) = (tape(k), tape(&hand.resolve_real(real)));
        assert!(gen <= hand, "{real:?}: generated tape {gen} ops vs hand-written {hand}");
    }
}
