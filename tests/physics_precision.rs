//! Precision oracle: a stated bound on how far a single-precision run drifts
//! from its double-precision twin.
//!
//! The same room, impulse and microphone are simulated at f32 and at f64 —
//! the executor's two register widths, run through whole simulations — and
//! the impulse responses must stay within [`DRIFT_BOUND`] of each other for
//! [`STEPS`] steps: hand-written kernels on one device, generated kernels on
//! two. The bound is stated, not fitted: the drifts measured when it was set
//! were 1.0e-6 (FD-MM dome, peak 7.3e-2) and 1.4e-6 (FI-MM box, peak
//! 4.7e-2); they grow with the step count (3.5e-6 / 5.7e-6 at 2 000 steps),
//! which is why the run stops at 400. The single-precision traces of the
//! hand-written and the generated kernels are equal bit for bit.

use lift_acoustics::LiftBoundary;
use room_acoustics::{
    BoundaryKernel, GridDims, KernelSource, Precision, RoomShape, SimConfig, SimSetup, Simulation,
};
use vgpu::Device;

const SOURCE: (usize, usize, usize) = (8, 9, 7);
const MIC: (usize, usize, usize) = (15, 11, 9);
const STEPS: usize = 400;
const DRIFT_BOUND: f64 = 5e-6;

/// The pressure at [`MIC`] after each of [`STEPS`] steps.
fn impulse_response(
    setup: &SimSetup,
    precision: Precision,
    source: impl KernelSource,
    devices: usize,
) -> Vec<f64> {
    let devices = (0..devices).map(|_| Device::gtx780()).collect();
    let mut sim = Simulation::new(setup.clone(), precision, source, devices);
    sim.impulse(SOURCE.0, SOURCE.1, SOURCE.2, 1.0);
    let mut trace = Vec::with_capacity(STEPS);
    for _ in 0..STEPS {
        sim.run(1);
        trace.push(sim.sample(MIC.0, MIC.1, MIC.2));
    }
    trace
}

fn single_precision_stays_near_double(
    config: SimConfig,
    hand: impl KernelSource + Copy,
    generated: impl KernelSource + Copy,
) {
    let setup = SimSetup::new(&config);
    let hand32 = impulse_response(&setup, Precision::Single, hand, 1);
    let gen32 = impulse_response(&setup, Precision::Single, generated, 2);
    for (what, p32, p64) in [
        ("hand-written, 1 device", &hand32, impulse_response(&setup, Precision::Double, hand, 1)),
        ("generated, 2 devices", &gen32, impulse_response(&setup, Precision::Double, generated, 2)),
    ] {
        let peak = p64.iter().fold(0.0f64, |m, p| m.max(p.abs()));
        assert!(peak > 1e-2, "{what}: the response reaches the microphone (peak {peak:e})");
        let drift = p32.iter().zip(&p64).fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
        assert!(drift > 0.0, "{what}: the two precisions are two computations");
        assert!(drift <= DRIFT_BOUND, "{what}: f32 drifts {drift:e} from f64 (peak {peak:e})");
    }
    let differ = hand32.iter().zip(&gen32).position(|(a, b)| a.to_bits() != b.to_bits());
    assert_eq!(differ, None, "hand-written and generated f32 traces part at this step");
}

#[test]
fn fdmm_dome_f32_drift_is_bounded() {
    single_precision_stays_near_double(
        SimConfig::fdmm(GridDims::new(24, 20, 16), RoomShape::Dome),
        BoundaryKernel::FdMm,
        LiftBoundary::FdMm,
    );
}

#[test]
fn fimm_box_f32_drift_is_bounded() {
    single_precision_stays_near_double(
        SimConfig::fimm(GridDims::new(24, 20, 16), RoomShape::Box),
        BoundaryKernel::FiMm { beta_constant: false },
        LiftBoundary::FiMm,
    );
}
