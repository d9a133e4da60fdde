//! Physics oracle: the 7-point scheme's closed-form first arrival.
//!
//! An impulse at the source reaches a point `n = |dx| + |dy| + |dz|` cells
//! away after exactly `n` steps — each step moves the front one cell along
//! one axis — and the first non-zero sample there is the number of shortest
//! lattice paths times `λ²ⁿ`: `n! / (dx!·dy!·dz!) · l2ⁿ`. Every sample before
//! it is exactly zero. No reference simulation is involved, so this holds
//! the kernels to the scheme rather than to each other.

use lift_acoustics::LiftBoundary;
use room_acoustics::{
    BoundaryKernel, GridDims, KernelSource, Precision, RoomShape, SimConfig, SimSetup, Simulation,
};
use vgpu::Device;

/// Far enough from every wall of the 16×14×18 box that no shortest path
/// comes within two cells of one; on two devices (planes 0..9 | 9..18) the
/// front crosses the seam on its way.
const SOURCE: (usize, usize, usize) = (5, 4, 6);
const MIC: (usize, usize, usize) = (8, 6, 11);

fn factorial(n: usize) -> f64 {
    (1..=n).map(|k| k as f64).product()
}

fn first_arrival_is_closed_form(
    source: impl KernelSource + Copy,
    config: fn(GridDims, RoomShape) -> SimConfig,
) {
    let setup = SimSetup::new(&config(GridDims::new(16, 14, 18), RoomShape::Box));
    let (dx, dy, dz) = (MIC.0 - SOURCE.0, MIC.1 - SOURCE.1, MIC.2 - SOURCE.2);
    let n = dx + dy + dz;
    let paths = factorial(n) / (factorial(dx) * factorial(dy) * factorial(dz));
    let want = paths * setup.l2.powi(n as i32);
    for (precision, tol) in [(Precision::Double, 1e-12), (Precision::Single, 1e-5)] {
        for devices in [1, 2] {
            let devices = (0..devices).map(|_| Device::gtx780()).collect();
            let mut sim = Simulation::new(setup.clone(), precision, source, devices);
            let what = format!("{precision:?} on {} device(s)", sim.devices.len());
            sim.impulse(SOURCE.0, SOURCE.1, SOURCE.2, 1.0);
            for step in 1..n {
                sim.run(1);
                assert_eq!(sim.sample(MIC.0, MIC.1, MIC.2), 0.0, "{what}: step {step}");
            }
            sim.run(1);
            let got = sim.sample(MIC.0, MIC.1, MIC.2);
            assert!((got - want).abs() <= tol, "{what}: step {n}: {got} vs {want}");
        }
    }
}

#[test]
fn hand_written_fimm_first_arrival() {
    first_arrival_is_closed_form(BoundaryKernel::FiMm { beta_constant: false }, SimConfig::fimm);
}

#[test]
fn hand_written_fdmm_first_arrival() {
    first_arrival_is_closed_form(BoundaryKernel::FdMm, SimConfig::fdmm);
}

#[test]
fn generated_fimm_first_arrival() {
    first_arrival_is_closed_form(LiftBoundary::FiMm, SimConfig::fimm);
}

#[test]
fn generated_fdmm_first_arrival() {
    first_arrival_is_closed_form(LiftBoundary::FdMm, SimConfig::fdmm);
}
