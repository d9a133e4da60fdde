//! Physics oracle: first-order image sources in a rigid shoebox.
//!
//! # The prediction
//!
//! With every `β = 0` the step is `p⁺ = 2p − p⁻ + λ²·Lp` with `L` the graph
//! Laplacian of the room's inside cells (`tests/physics_modes.rs`): a wall
//! contributes nothing to the cell beside it. That is exactly what a mirror
//! does halfway between that cell and the halo cell beyond it — the mirrored
//! neighbour equals the cell, so its difference term vanishes — so a rigid
//! wall of the scheme is the plane `x = ½` in front of inside cell `1`, and
//! `x = N_x − 3/2` behind inside cell `N_x − 2` (likewise in y and z). The
//! room's response is then the free lattice's response to the source and its
//! mirror images, each with reflection coefficient `+1`.
//!
//! A released unit displacement at distance `r` reaches the microphone, in
//! the continuum, as `δ'(t − τ)/(4π c³ τ)` with `τ = r/λ` steps (`c = λ` cells
//! per step). Smoothed by a Gaussian `g` of [`SIGMA`] steps it is
//! `g'(t − τ)/(4π c³ τ)`: a positive lobe peaking at `τ − σ`, then a negative
//! one. So each arrival is the smoothed signal's positive maximum nearest
//! `τ − σ`, plus `σ` — the leading lobe, which the scheme's dispersion
//! (trailing short waves, worst along the axes) leaves in place, where the
//! lobes' zero crossing drifts late.
//!
//! # What is checked
//!
//! The direct sound and the six first-order reflections arrive ≥ 8 steps
//! apart ([`SOURCE`] and [`MIC`] were placed so), each within ±1 step of
//! `|x_image − x_mic| / λ` and with a positive leading lobe (a rigid wall
//! does not invert), on the hand-written and the generated FI-MM kernels and
//! on the generated kernels over two devices. Predictions from a λ 5 % off
//! miss (the negative control).

use lift_acoustics::LiftBoundary;
use room_acoustics::{
    BoundaryKernel, BoundaryModel, GridDims, KernelSource, Material, Precision, RoomShape,
    SimConfig, SimSetup, Simulation,
};
use vgpu::Device;

const DIMS: [usize; 3] = [30, 28, 24];
const SOURCE: [usize; 3] = [7, 11, 4];
const MIC: [usize; 3] = [9, 13, 7];
/// Smoothing width, steps.
const SIGMA: f64 = 2.0;

fn setup() -> SimSetup {
    let rigid = ["floor", "walls", "ceiling"].map(|name| Material::fi(name, 0.0)).to_vec();
    let fimm = SimConfig::fimm(GridDims::new(DIMS[0], DIMS[1], DIMS[2]), RoomShape::Box);
    SimSetup::new(&SimConfig { boundary: BoundaryModel::FiMm { materials: rigid }, ..fimm })
}

/// The direct sound and the six first-order images, each with its delay
/// `|x_image − x_mic| / λ` in steps for Courant number `lambda`.
fn images(lambda: f64) -> Vec<(String, f64)> {
    let (s, m) = (SOURCE.map(|v| v as f64), MIC.map(|v| v as f64));
    let delay = |p: [f64; 3]| (0..3).map(|d| (p[d] - m[d]).powi(2)).sum::<f64>().sqrt() / lambda;
    let mut out = vec![("direct".to_string(), delay(s))];
    for d in 0..3 {
        let walls = [0.5, DIMS[d] as f64 - 1.5];
        for (side, wall) in ["low", "high"].into_iter().zip(walls) {
            let mut image = s;
            image[d] = 2.0 * wall - s[d];
            out.push((format!("{side} {} wall", ["x", "y", "z"][d]), delay(image)));
        }
    }
    out
}

/// The microphone's pressure, smoothed by a Gaussian of [`SIGMA`] steps,
/// from the impulse to the last prediction's lobe.
fn smoothed_mic_signal(setup: &SimSetup, source: impl KernelSource, devices: usize) -> Vec<f64> {
    let last = images(setup.l).iter().map(|&(_, t)| t).fold(0.0, f64::max);
    let steps = (last + 4.0 * SIGMA) as usize;
    let devices = (0..devices).map(|_| Device::gtx780()).collect();
    let mut sim = Simulation::new(setup.clone(), Precision::Double, source, devices);
    sim.impulse(SOURCE[0], SOURCE[1], SOURCE[2], 1.0);
    let mut x = vec![sim.sample(MIC[0], MIC[1], MIC[2])];
    for _ in 0..steps {
        sim.run(1);
        x.push(sim.sample(MIC[0], MIC[1], MIC[2]));
    }
    let reach = (4.0 * SIGMA) as isize;
    let g = |k: isize| (-(k * k) as f64 / (2.0 * SIGMA * SIGMA)).exp();
    let at = |t: isize| x.get(usize::try_from(t).ok()?).copied();
    (0..x.len() as isize)
        .map(|t| (-reach..=reach).filter_map(|k| Some(at(t - k)? * g(k))).sum())
        .collect()
}

/// Every predicted arrival is a positive leading lobe of `y` within one
/// step.
fn arrivals_match(y: &[f64], predicted: &[(String, f64)]) -> Result<(), String> {
    // Positive local maxima, parabola-interpolated.
    let peaks: Vec<f64> = (1..y.len() - 1)
        .filter(|&i| y[i] > 0.0 && y[i] > y[i - 1] && y[i] >= y[i + 1])
        .map(|i| i as f64 + 0.5 * (y[i - 1] - y[i + 1]) / (y[i - 1] - 2.0 * y[i] + y[i + 1]))
        .collect();
    for (what, tau) in predicted {
        let arrivals = peaks.iter().map(|p| p + SIGMA);
        let near = arrivals.min_by(|a, b| (a - tau).abs().total_cmp(&(b - tau).abs()));
        if !near.is_some_and(|t| (t - tau).abs() <= 1.0) {
            return Err(format!("{what}: predicted at {tau:.2}, nearest lobe {near:.2?}"));
        }
    }
    Ok(())
}

#[test]
fn first_order_images_arrive_on_time_with_positive_sign() {
    let setup = setup();
    let predicted = images(setup.l);
    let mut delays: Vec<f64> = predicted.iter().map(|&(_, t)| t).collect();
    delays.sort_by(f64::total_cmp);
    assert!(delays.windows(2).all(|w| w[1] - w[0] >= 8.0), "arrivals {delays:?}");
    let runs: [(&str, &dyn Fn() -> Vec<f64>); 3] = [
        ("hand-written", &|| {
            smoothed_mic_signal(&setup, BoundaryKernel::FiMm { beta_constant: false }, 1)
        }),
        ("generated", &|| smoothed_mic_signal(&setup, LiftBoundary::FiMm, 1)),
        ("generated, 2 devices", &|| smoothed_mic_signal(&setup, LiftBoundary::FiMm, 2)),
    ];
    for (what, run) in runs {
        arrivals_match(&run(), &predicted).unwrap_or_else(|e| panic!("{what}: {e}"));
    }
}

/// Negative control: the same check, with delays predicted from a λ 5 % too
/// small or too large, fails.
#[test]
fn five_percent_off_lambda_misses_the_images() {
    let setup = setup();
    let y = smoothed_mic_signal(&setup, BoundaryKernel::FiMm { beta_constant: false }, 1);
    arrivals_match(&y, &images(setup.l)).expect("the true λ finds every image");
    for lambda in [0.95 * setup.l, 1.05 * setup.l] {
        let err = arrivals_match(&y, &images(lambda)).expect_err("a wrong λ misses");
        assert!(err.contains("predicted at"), "{err}");
    }
}
