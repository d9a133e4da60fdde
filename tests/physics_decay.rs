//! Physics oracle: reverberation decay against the statistical theory.
//!
//! A 10×9×8 box (8×7×6 inside cells) with FI-MM walls of one admittance
//! `β` everywhere (`MaterialAssignment::Uniform`) is excited by a smoothed
//! impulse and recorded at four cells. The Schroeder energy-decay curve of
//! the record gives a T20-extrapolated RT60 (`analysis::{schroeder_edc_db,
//! rt60_steps}`), which is checked against Sabine's and Eyring's formulas on
//! the discrete room:
//!
//! ```text
//! RT60 = 24·ln 10 · V / (λ · S · α)           (Sabine, in steps, h = 1)
//! RT60 = 24·ln 10 · V / (λ · S · −ln(1 − α))  (Eyring)
//! ```
//!
//! with `V` the inside cells, `S = Σ_b (6 − K_b)` the wall faces of the
//! boundary cells, `λ` the Courant number and `α = 1 − R²` the
//! normal-incidence absorption of `R = (1 − β)/(1 + β)`.
//!
//! Two features of the scheme would otherwise swamp the decay. A point
//! impulse leaves a static pressure that admittance walls, which act on
//! `∂p/∂t`, never absorb; and it excites the grid's Nyquist modes, which
//! barely propagate to a wall. So the source is a separable `[1 2 1]³`
//! blob and each record is band-passed as `p(n) − p(n − 2)`, which has zeros
//! at DC and at Nyquist.
//!
//! What is checked, on the hand-written kernels (one device) and the
//! generated ones (two devices): RT60 strictly falls as the admittance
//! rises, and lies within a factor 2 of Sabine and 1.25 of Eyring (measured
//! ratios 0.54–0.83 and 0.86–1.01). A swapped material table reverses the
//! order, and the falling check rejects it.

use lift_acoustics::LiftBoundary;
use room_acoustics::analysis::{rt60_steps, schroeder_edc_db};
use room_acoustics::{
    BoundaryKernel, BoundaryModel, GridDims, KernelSource, Material, MaterialAssignment, Precision,
    RoomShape, SimConfig, SimSetup, Simulation,
};
use vgpu::Device;

/// Wall admittances in order of rising absorption.
const TABLE: [f64; 3] = [0.05, 0.1, 0.25];

/// Steps recorded: the slowest decay's T20 is converged by then.
const STEPS: usize = 350;

const MICS: [(usize, usize, usize); 4] = [(6, 5, 4), (2, 6, 5), (7, 2, 2), (4, 4, 6)];

fn setup(beta: f64) -> SimSetup {
    let fimm = SimConfig::fimm(GridDims::new(10, 9, 8), RoomShape::Box);
    SimSetup::new(&SimConfig {
        assignment: MaterialAssignment::Uniform,
        boundary: BoundaryModel::FiMm { materials: vec![Material::fi("walls", beta)] },
        ..fimm
    })
}

/// Sabine's and Eyring's RT60 of `setup`, in steps.
fn statistical(setup: &SimSetup, beta: f64) -> (f64, f64) {
    let nbrs = &setup.room.nbrs;
    let v = nbrs.iter().filter(|&&k| k > 0).count() as f64;
    let s: f64 = setup.room.boundary_indices.iter().map(|&i| 6.0 - nbrs[i as usize] as f64).sum();
    let r = (1.0 - beta) / (1.0 + beta);
    let alpha = 1.0 - r * r;
    let t = 24.0 * 10f64.ln() * v / (setup.l * s);
    (t / alpha, t / -(1.0 - alpha).ln())
}

/// T20-extrapolated RT60 of the box with walls of admittance `beta`, in
/// steps, and its Sabine and Eyring estimates.
fn decay(beta: f64, source: impl KernelSource, devices: usize) -> (f64, f64, f64) {
    let setup = setup(beta);
    let (sabine, eyring) = statistical(&setup, beta);
    let devices = (0..devices).map(|_| Device::gtx780()).collect();
    let mut sim = Simulation::new(setup, Precision::Double, source, devices);
    let taps = [1.0, 2.0, 1.0];
    for (dx, dy, dz) in (0..27).map(|i| (i % 3, i / 3 % 3, i / 9)) {
        sim.impulse(2 + dx, 2 + dy, 2 + dz, taps[dx] * taps[dy] * taps[dz]);
    }
    // the last two samples of each mic, newest first
    let mut last = [(0.0, 0.0); MICS.len()];
    let record: Vec<f64> = (0..STEPS)
        .map(|_| {
            sim.run(1);
            let mut energy = 0.0;
            for (&(x, y, z), (p1, p2)) in MICS.iter().zip(&mut last) {
                let p = sim.sample(x, y, z);
                energy += (p - *p2) * (p - *p2);
                (*p1, *p2) = (p, *p1);
            }
            energy.sqrt()
        })
        .collect();
    let rt60 = rt60_steps(&schroeder_edc_db(&record), 20.0).expect("decays by 25 dB");
    (rt60, sabine, eyring)
}

/// RT60 of each admittance of `table`, checked against the statistical
/// estimates.
fn rt60s(table: &[f64], source: impl KernelSource + Copy, devices: usize) -> Vec<f64> {
    table
        .iter()
        .map(|&beta| {
            let (rt60, sabine, eyring) = decay(beta, source, devices);
            let (rs, re) = (rt60 / sabine, rt60 / eyring);
            assert!((0.5..=2.0).contains(&rs), "β = {beta}: RT60 {rt60} is {rs:.2}× Sabine");
            assert!((0.8..=1.25).contains(&re), "β = {beta}: RT60 {rt60} is {re:.2}× Eyring");
            rt60
        })
        .collect()
}

/// The first pair of neighbouring entries that does not strictly fall.
fn strictly_falling(rt60s: &[f64]) -> Result<(), String> {
    match rt60s.windows(2).position(|w| w[1] >= w[0]) {
        Some(i) => Err(format!("RT60 {} then {}: {rt60s:?}", rt60s[i], rt60s[i + 1])),
        None => Ok(()),
    }
}

#[test]
fn rt60_falls_as_absorption_rises_and_follows_sabine() {
    let hand = rt60s(&TABLE, BoundaryKernel::FiMm { beta_constant: false }, 1);
    strictly_falling(&hand).unwrap();
    let generated = rt60s(&TABLE, LiftBoundary::FiMm, 2);
    strictly_falling(&generated).unwrap();
}

#[test]
fn a_swapped_material_table_reverses_the_order() {
    let mut swapped = TABLE;
    swapped.reverse();
    let rt60s = rt60s(&swapped, LiftBoundary::FiMm, 1);
    assert!(rt60s.windows(2).all(|w| w[1] > w[0]), "{rt60s:?}");
    let err = strictly_falling(&rt60s).expect_err("a swapped table must fail the order check");
    assert!(err.contains("RT60"), "{err}");
}
