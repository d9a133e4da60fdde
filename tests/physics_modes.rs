//! Physics oracle: the normal modes of a rigid box.
//!
//! # The prediction
//!
//! With every `β = 0` the boundary pass leaves the volume pass's value as it
//! is, and the volume pass is `p⁺ = 2p − p⁻ + λ²·Lp`, where `L` is the graph
//! Laplacian of the room's inside cells (`tests/physics_energy.rs` derives
//! it). A box of `n_d = N_d − 2` inside cells per axis is a product of paths,
//! so `L`'s eigenvectors are `Π_d cos(π·l_d·(i_d + ½)/n_d)` with eigenvalues
//! `−μ_l`, `μ_l = Σ_d (2 − 2 cos(π l_d / n_d))`, and mode `l` turns by
//!
//! ```text
//! cos ω_l = 1 − (λ²/2)·μ_l
//! ```
//!
//! radians per step, exactly. The zero mode (`l = 0`, the mean) does not
//! oscillate: it stays put after a released impulse (`p⁻ = p⁰`) and would
//! grow linearly after a kick, so the mean is subtracted from the signal.
//!
//! # What is checked
//!
//! An impulse in one corner cell, a microphone in the opposite one — no mode
//! has a node at either — in f64 on the hand-written and the generated
//! FI-MM kernels, and on two devices. A Goertzel probe under a Hann window
//! scans one bin (`2π/T` for a `T`-step run) either side of each of the
//! first [`MODES`] distinct nonzero `ω_l`; the spectral maximum must lie
//! within [`TOL_BINS`] of a bin of the prediction. The continuum modes,
//! `f = (c/2)·√(Σ_d (l_d/L_d)²)` with `L_d = n_d·h` and `c·T_s = λh` (so
//! `ω = πλ·√(Σ_d (l_d/n_d)²)` per step), agree with the measured peaks within
//! the scheme's dispersion: to leading order `ω_l/ω_cont − 1 =
//! (λ²k² − Σθ⁴/k²)/24` with `θ_d = πl_d/n_d`, `k² = Σθ²`, which is at most
//! `k²/24` in size; the bound stated is twice that. Predictions from a λ 5 %
//! off miss (the negative control).

use lift_acoustics::LiftBoundary;
use room_acoustics::{
    BoundaryKernel, BoundaryModel, GridDims, KernelSource, Material, Precision, RoomShape,
    SimConfig, SimSetup, Simulation,
};
use std::f64::consts::PI;
use vgpu::Device;

/// 8 × 7 × 6 inside cells: the first [`MODES`] modes lie ≥ 0.02 rad/step
/// apart, six bins of a [`STEPS`]-step run.
const DIMS: (usize, usize, usize) = (10, 9, 8);
const SOURCE: (usize, usize, usize) = (1, 1, 1);
const MIC: (usize, usize, usize) = (DIMS.0 - 2, DIMS.1 - 2, DIMS.2 - 2);
const STEPS: usize = 2000;
/// Distinct nonzero modes checked, lowest first.
const MODES: usize = 6;
/// How far the measured peak may lie from the prediction, in bins: the Hann
/// window's main lobe is four bins wide, so a lone mode peaks on its
/// frequency; what shifts it is leakage from modes six or more bins away.
const TOL_BINS: f64 = 0.25;

fn setup() -> SimSetup {
    let rigid = ["floor", "walls", "ceiling"].map(|name| Material::fi(name, 0.0)).to_vec();
    let fimm = SimConfig::fimm(GridDims::new(DIMS.0, DIMS.1, DIMS.2), RoomShape::Box);
    SimSetup::new(&SimConfig { boundary: BoundaryModel::FiMm { materials: rigid }, ..fimm })
}

/// The microphone's pressure for [`STEPS`] steps after a unit impulse at
/// [`SOURCE`], its mean removed.
fn mic_signal(setup: &SimSetup, source: impl KernelSource, devices: usize) -> Vec<f64> {
    let devices = (0..devices).map(|_| Device::gtx780()).collect();
    let mut sim = Simulation::new(setup.clone(), Precision::Double, source, devices);
    sim.impulse(SOURCE.0, SOURCE.1, SOURCE.2, 1.0);
    let signal: Vec<f64> = (0..STEPS)
        .map(|_| {
            sim.run(1);
            sim.sample(MIC.0, MIC.1, MIC.2)
        })
        .collect();
    let mean = signal.iter().sum::<f64>() / STEPS as f64;
    signal.iter().map(|p| p - mean).collect()
}

/// A mode: its numbers `l` and its angular frequency per step.
struct Mode {
    l: [usize; 3],
    omega: f64,
}

/// The first [`MODES`] distinct nonzero modes `cos ω = 1 − (λ²/2)·μ_l`
/// predicts for Courant number `lambda`, lowest first.
fn predicted(lambda: f64) -> Vec<Mode> {
    let n = [DIMS.0 - 2, DIMS.1 - 2, DIMS.2 - 2];
    let mut modes: Vec<Mode> = (0..n[0])
        .flat_map(|a| (0..n[1]).flat_map(move |b| (0..n[2]).map(move |c| [a, b, c])))
        .filter(|l| l.iter().any(|&x| x > 0))
        .map(|l| {
            let mu: f64 = (0..3).map(|d| 2.0 - 2.0 * (PI * l[d] as f64 / n[d] as f64).cos()).sum();
            Mode { l, omega: (1.0 - 0.5 * lambda * lambda * mu).acos() }
        })
        .collect();
    modes.sort_by(|a, b| a.omega.total_cmp(&b.omega));
    modes.dedup_by(|b, a| (a.omega - b.omega).abs() < 1e-9);
    modes.truncate(MODES);
    modes
}

/// `|Σ_t w_t·x_t·e^{−iωt}|²` under a Hann window `w`, by Goertzel's
/// recurrence.
fn power(x: &[f64], omega: f64) -> f64 {
    let (n, c) = (x.len() as f64, 2.0 * omega.cos());
    let (mut s1, mut s2) = (0.0, 0.0);
    for (t, v) in x.iter().enumerate() {
        let w = 0.5 - 0.5 * (2.0 * PI * t as f64 / (n - 1.0)).cos();
        (s1, s2) = (w * v + c * s1 - s2, s1);
    }
    s1 * s1 + s2 * s2 - c * s1 * s2
}

/// Where the spectrum of `x` peaks within one bin of `omega`.
fn peak_near(x: &[f64], omega: f64) -> f64 {
    let bin = 2.0 * PI / x.len() as f64;
    let probes = (-64..=64).map(|j| omega + bin * j as f64 / 64.0);
    probes.map(|w| (power(x, w), w)).max_by(|a, b| a.0.total_cmp(&b.0)).expect("probes").1
}

/// Every mode of `modes` is a spectral maximum of `x` within [`TOL_BINS`];
/// returns the measured peaks.
fn modes_are_peaks(x: &[f64], modes: &[Mode]) -> Result<Vec<f64>, String> {
    let bin = 2.0 * PI / x.len() as f64;
    let peaks: Vec<f64> = modes.iter().map(|m| peak_near(x, m.omega)).collect();
    for (m, peak) in modes.iter().zip(&peaks) {
        let off = (peak - m.omega) / bin;
        if off.abs() > TOL_BINS {
            return Err(format!("mode {:?} at {:.5}: peak {off:+.3} bins off", m.l, m.omega));
        }
    }
    Ok(peaks)
}

#[test]
fn rigid_box_modes_are_the_graph_laplacians() {
    let setup = setup();
    let lambda = setup.l;
    let modes = predicted(lambda);
    let bin = 2.0 * PI / STEPS as f64;
    assert!(modes.len() >= 4 && modes.windows(2).all(|w| w[1].omega - w[0].omega > 6.0 * bin));
    let n = [DIMS.0 - 2, DIMS.1 - 2, DIMS.2 - 2];
    let runs: [(&str, &dyn Fn() -> Vec<f64>); 3] = [
        ("hand-written", &|| mic_signal(&setup, BoundaryKernel::FiMm { beta_constant: false }, 1)),
        ("generated", &|| mic_signal(&setup, LiftBoundary::FiMm, 1)),
        ("generated, 2 devices", &|| mic_signal(&setup, LiftBoundary::FiMm, 2)),
    ];
    for (what, run) in runs {
        let signal = run();
        let peaks = modes_are_peaks(&signal, &modes).unwrap_or_else(|e| panic!("{what}: {e}"));
        for (m, peak) in modes.iter().zip(peaks) {
            let theta = (0..3).map(|d| PI * m.l[d] as f64 / n[d] as f64);
            let k2: f64 = theta.map(|t| t * t).sum();
            let continuum = lambda * k2.sqrt();
            let dispersion = (peak / continuum - 1.0).abs();
            assert!(dispersion <= k2 / 12.0, "{what}: mode {:?}: {dispersion:.4}", m.l);
        }
    }
}

/// Negative control: the same check, with frequencies predicted from a λ
/// 5 % too small or too large, fails.
#[test]
fn five_percent_off_lambda_misses_the_modes() {
    let setup = setup();
    let signal = mic_signal(&setup, BoundaryKernel::FiMm { beta_constant: false }, 1);
    modes_are_peaks(&signal, &predicted(setup.l)).expect("the true λ finds every mode");
    for lambda in [0.95 * setup.l, 1.05 * setup.l] {
        let err = modes_are_peaks(&signal, &predicted(lambda)).expect_err("a wrong λ misses");
        assert!(err.contains("bins off"), "{err}");
    }
}
