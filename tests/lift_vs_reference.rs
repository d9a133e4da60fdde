//! End-to-end verification: LIFT-generated kernels vs the golden reference
//! and the hand-written baselines.
//!
//! This is the correctness claim behind the paper's Figures 4–6: the code
//! generator must produce kernels that compute the *same simulation* as the
//! hand-tuned codes. We check the generated volume + FI-MM / FD-MM boundary
//! kernels (run on the virtual GPU) against the pure-Rust golden models, at
//! both precisions, on both room shapes.

use lift_acoustics::{LiftBoundary, LiftSim};
use room_acoustics::{
    BoundaryKernel, GridDims, HandwrittenSim, MaterialAssignment, Precision, ReferenceSim,
    RoomShape, SimConfig, SimSetup, Simulation,
};
use vgpu::Device;

fn assert_close(a: &[f64], b: &[f64], tol: f64, what: &str) {
    assert_eq!(a.len(), b.len());
    let mut worst = 0.0f64;
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        let d = (x - y).abs();
        assert!(d <= tol * (1.0 + y.abs()), "{what}: mismatch at {i}: {x} vs {y} (|Δ|={d:.3e})");
        worst = worst.max(d);
    }
}

fn fimm_setup(shape: RoomShape) -> SimSetup {
    SimSetup::new(&SimConfig::fimm(GridDims::new(14, 12, 10), shape))
}

fn fdmm_setup(shape: RoomShape) -> SimSetup {
    SimSetup::new(&SimConfig::fdmm(GridDims::new(14, 12, 10), shape))
}

#[test]
fn lift_fimm_matches_reference_f64_box() {
    let s = fimm_setup(RoomShape::Box);
    let mut dev = Device::gtx780();
    dev.set_race_check(true);
    let mut lift = LiftSim::new(s.clone(), Precision::Double, LiftBoundary::FiMm, dev);
    let mut rf = ReferenceSim::<f64>::new(s);
    lift.impulse(7, 6, 5, 1.0);
    rf.impulse(7, 6, 5, 1.0);
    lift.run(20);
    rf.run(20);
    assert_close(&lift.read_curr(), &rf.curr, 1e-12, "FI-MM box f64");
}

#[test]
fn lift_fimm_matches_reference_f64_dome() {
    let s = fimm_setup(RoomShape::Dome);
    let mut dev = Device::gtx780();
    dev.set_race_check(true);
    let mut lift = LiftSim::new(s.clone(), Precision::Double, LiftBoundary::FiMm, dev);
    let mut rf = ReferenceSim::<f64>::new(s);
    lift.impulse(7, 6, 4, 1.0);
    rf.impulse(7, 6, 4, 1.0);
    lift.run(20);
    rf.run(20);
    assert_close(&lift.read_curr(), &rf.curr, 1e-12, "FI-MM dome f64");
}

#[test]
fn lift_fimm_matches_reference_f32() {
    let s = fimm_setup(RoomShape::Box);
    let mut lift = LiftSim::new(s.clone(), Precision::Single, LiftBoundary::FiMm, Device::gtx780());
    let mut rf = ReferenceSim::<f32>::new(s);
    lift.impulse(7, 6, 5, 1.0);
    rf.impulse(7, 6, 5, 1.0);
    lift.run(15);
    rf.run(15);
    let rf_curr: Vec<f64> = rf.curr.iter().map(|&x| x as f64).collect();
    assert_close(&lift.read_curr(), &rf_curr, 1e-5, "FI-MM box f32");
}

#[test]
fn lift_fdmm_matches_reference_f64_box() {
    let s = fdmm_setup(RoomShape::Box);
    let mut dev = Device::gtx780();
    dev.set_race_check(true);
    let mut lift = LiftSim::new(s.clone(), Precision::Double, LiftBoundary::FdMm, dev);
    let mut rf = ReferenceSim::<f64>::new(s);
    lift.impulse(7, 6, 5, 1.0);
    rf.impulse(7, 6, 5, 1.0);
    lift.run(20);
    rf.run(20);
    assert_close(&lift.read_curr(), &rf.curr, 1e-12, "FD-MM box f64");
}

#[test]
fn lift_fdmm_matches_reference_f64_dome() {
    let s = fdmm_setup(RoomShape::Dome);
    let mut dev = Device::gtx780();
    dev.set_race_check(true);
    let mut lift = LiftSim::new(s.clone(), Precision::Double, LiftBoundary::FdMm, dev);
    let mut rf = ReferenceSim::<f64>::new(s);
    lift.impulse(7, 6, 4, 1.0);
    rf.impulse(7, 6, 4, 1.0);
    lift.run(20);
    rf.run(20);
    assert_close(&lift.read_curr(), &rf.curr, 1e-12, "FD-MM dome f64");
}

#[test]
fn lift_fdmm_matches_reference_f64_lshape() {
    let s = SimSetup::new(&SimConfig::fdmm(GridDims::new(14, 14, 10), RoomShape::LShape));
    let mut dev = Device::gtx780();
    dev.set_race_check(true);
    let mut lift = LiftSim::new(s.clone(), Precision::Double, LiftBoundary::FdMm, dev);
    let mut rf = ReferenceSim::<f64>::new(s);
    lift.impulse(4, 4, 4, 1.0);
    rf.impulse(4, 4, 4, 1.0);
    lift.run(20);
    rf.run(20);
    assert_close(&lift.read_curr(), &rf.curr, 1e-12, "FD-MM L-shape f64");
}

#[test]
fn lift_fdmm_matches_handwritten_across_shapes_and_precisions() {
    for shape in [RoomShape::Box, RoomShape::Dome] {
        for precision in [Precision::Single, Precision::Double] {
            let s = fdmm_setup(shape);
            let mut lift = LiftSim::new(s.clone(), precision, LiftBoundary::FdMm, Device::gtx780());
            let mut hw = HandwrittenSim::new(s, precision, BoundaryKernel::FdMm, Device::gtx780());
            lift.impulse(6, 6, 4, 1.0);
            hw.impulse(6, 6, 4, 1.0);
            lift.run(10);
            hw.run(10);
            let tol = match precision {
                Precision::Single => 1e-5,
                Precision::Double => 1e-13,
            };
            assert_close(
                &lift.read_curr(),
                &hw.read_curr(),
                tol,
                &format!("FD-MM {:?} {:?}", shape, precision),
            );
        }
    }
}

#[test]
fn lift_fi_single_kernel_matches_reference() {
    // Figure 4's benchmark: the naive one-kernel FI simulation, box only.
    let dims = GridDims::new(16, 12, 10);
    let cfg = SimConfig {
        dims,
        shape: RoomShape::Box,
        assignment: MaterialAssignment::Uniform,
        boundary: room_acoustics::BoundaryModel::Fi { beta: 0.25 },
    };
    let s = SimSetup::new(&cfg);
    let mut dev = Device::gtx780();
    dev.set_race_check(true);
    let mut lift = Simulation::new(s.clone(), Precision::Double, LiftBoundary::Fi, vec![dev]);
    let mut rf = ReferenceSim::<f64>::new(s);
    lift.impulse(8, 6, 5, 1.0);
    rf.impulse(8, 6, 5, 1.0);
    lift.run(25);
    rf.run(25);
    assert_close(&lift.read_curr(), &rf.curr, 1e-12, "FI single-kernel f64");
}

#[test]
fn host_program_step_matches_reference_step() {
    // Listing 5: the step a `LiftBoundary::FiMm` simulation runs is the
    // compiled host program — its kernels, resident — and one step of it
    // equals one reference step.
    let s = fimm_setup(RoomShape::Dome);
    let real = Precision::Double.kind();
    let prog = lift_acoustics::hostprog::fimm_step_host_program(real).unwrap();
    let mut sim = LiftSim::new(s.clone(), Precision::Double, LiftBoundary::FiMm, Device::gtx780());
    let launched: Vec<_> = sim.kernels().map(|k| &k.kernel).collect();
    assert_eq!(launched, prog.kernels.iter().map(|k| &k.kernel).collect::<Vec<_>>());
    let mut rf = ReferenceSim::<f64>::new(s);
    sim.impulse(7, 6, 4, 1.0);
    rf.impulse(7, 6, 4, 1.0);
    sim.run(1);
    rf.step();
    assert_close(&sim.read_curr(), &rf.curr, 1e-13, "host program step");
}

// --- L-shape boundary probes -----------------------------------------------
//
// The L-shaped room has concave edges where a boundary node's missing
// neighbours point *into* the cut-out; these configurations exercised the
// `nbrs`/`bnbrs` tables differently from Box/Dome and were the subject of
// two checked-in regression seeds (see `crates/acoustics/tests/
// seed_replay.rs`). Until these probes, only FD-MM ran against the
// reference on the L-shape; FI-MM (generated and hand-written) was a
// coverage hole.

#[test]
fn lift_fimm_matches_reference_f64_lshape() {
    let s = SimSetup::new(&SimConfig::fimm(GridDims::new(14, 14, 10), RoomShape::LShape));
    let mut dev = Device::gtx780();
    dev.set_race_check(true);
    let mut lift = LiftSim::new(s.clone(), Precision::Double, LiftBoundary::FiMm, dev);
    let mut rf = ReferenceSim::<f64>::new(s);
    lift.impulse(4, 4, 4, 1.0);
    rf.impulse(4, 4, 4, 1.0);
    lift.run(20);
    rf.run(20);
    assert_close(&lift.read_curr(), &rf.curr, 1e-12, "FI-MM L-shape f64");
}

#[test]
fn hw_fimm_matches_reference_f64_lshape() {
    let s = SimSetup::new(&SimConfig::fimm(GridDims::new(14, 14, 10), RoomShape::LShape));
    let mut dev = Device::gtx780();
    dev.set_race_check(true);
    let mut hw = HandwrittenSim::new(
        s.clone(),
        Precision::Double,
        BoundaryKernel::FiMm { beta_constant: false },
        dev,
    );
    let mut rf = ReferenceSim::<f64>::new(s);
    hw.impulse(4, 4, 4, 1.0);
    rf.impulse(4, 4, 4, 1.0);
    hw.run(20);
    rf.run(20);
    assert_close(&hw.read_curr(), &rf.curr, 1e-12, "handwritten FI-MM L-shape f64");
}

#[test]
fn hw_fdmm_matches_reference_f64_lshape() {
    let s = SimSetup::new(&SimConfig::fdmm(GridDims::new(14, 14, 10), RoomShape::LShape));
    let mut dev = Device::gtx780();
    dev.set_race_check(true);
    let mut hw = HandwrittenSim::new(s.clone(), Precision::Double, BoundaryKernel::FdMm, dev);
    let mut rf = ReferenceSim::<f64>::new(s);
    hw.impulse(4, 4, 4, 1.0);
    rf.impulse(4, 4, 4, 1.0);
    hw.run(20);
    rf.run(20);
    assert_close(&hw.read_curr(), &rf.curr, 1e-12, "handwritten FD-MM L-shape f64");
}

#[test]
fn generated_opencl_sources_have_expected_structure() {
    let s = fimm_setup(RoomShape::Box);
    let lift = LiftSim::new(s, Precision::Single, LiftBoundary::FiMm, Device::gtx780());
    let mut sources = lift.kernels().map(|k| lift::opencl::emit_kernel(&k.kernel));
    let (vol_src, bnd_src) = (sources.next().unwrap(), sources.next().unwrap());
    assert!(vol_src.contains("__kernel void volume_handling_lift"), "{vol_src}");
    assert!(vol_src.contains("get_global_id(2)"), "{vol_src}");
    assert!(bnd_src.contains("__kernel void fimm_boundary_lift"), "{bnd_src}");
    // In-place: the boundary kernel reads and writes `next` at a gathered
    // offset and has no allocated `out` buffer.
    assert!(!bnd_src.contains("* out"), "{bnd_src}");
}
