//! Physics oracle: the FI-MM boundary's discrete energy balance.
//!
//! # The identity
//!
//! At an inside cell `a` with `K_a` inside neighbours (`nbrs[a]`), the volume
//! pass computes `(2 − λ²K_a)·p_a + λ²·Σ_{b∈N(a)} p_b − p⁻_a`, where `N(a)`
//! holds the six face neighbours. Cells outside the room are never written,
//! so they hold 0 and the sum runs over the inside neighbours only; writing
//! `(Lp)_a = Σ_{b inside, b~a} (p_b − p_a)` for the graph Laplacian of the
//! `nbrs` graph, the volume pass is `2p − p⁻ + λ²·Lp`. The boundary pass
//! then sets `p⁺_b = (p_vol + cf_b·p⁻_b) / (1 + cf_b)` with
//! `cf_b = ½λ(6 − K_b)β_{m(b)}`, and `cf = 0` off the boundary. Together:
//!
//! ```text
//! (1 + cf)·p⁺ − 2p + (1 − cf)·p⁻ = λ²·Lp,
//! i.e.  (p⁺ − 2p + p⁻) + cf·(p⁺ − p⁻) = λ²·Lp.
//! ```
//!
//! Multiply by `(p⁺ − p⁻)` and sum over the cells. On the left,
//! `(p⁺ − 2p + p⁻)(p⁺ − p⁻) = (p⁺ − p)² − (p − p⁻)²`. On the right, summing
//! by parts over the graph (each inside edge `(a, b)` appears from both
//! ends), `Σ_a (Lp)_a q_a = −Σ_{edges} (p_a − p_b)(q_a − q_b)`; with
//! `q = p⁺ − p⁻` that is `−Σ_e (p_a − p_b)(p⁺_a − p⁺_b) + Σ_e (p⁻_a − p⁻_b)(p_a − p_b)`.
//! So, with
//!
//! ```text
//! E^{n+½} = ½‖p^{n+1} − p^n‖² + (λ²/2)·Σ_{inside edges} (p^{n+1}_a − p^{n+1}_b)(p^n_a − p^n_b),
//! E^{n+½} − E^{n−½} = −½·Σ_b cf_b·(p^{n+1}_b − p^{n−1}_b)².
//! ```
//!
//! Rigid walls (every `β = 0`) conserve `E` exactly; passive ones (`β ≥ 0`)
//! can only remove it, and exactly the boundary term's worth per step.
//!
//! # What is checked
//!
//! The identity holds to rounding at every step — each step's residual
//! within [`TOL`]`·E₀`, `E₀ = E^{−½}` — in f64, on the hand-written and the
//! generated kernels, on one device and on two. Rigid walls: `E` stays
//! within `TOL·E₀` of `E₀` for 2 000 steps. The default FI-MM materials: `E`
//! never grows by more than `TOL·E₀` and ends below `E₀`. Negating the β
//! table after construction (an active wall) fails the "never grows" check.
//! FD-MM's branch energy is not covered here.

use lift_acoustics::LiftBoundary;
use room_acoustics::{
    BoundaryKernel, BoundaryModel, GridDims, KernelSource, Material, Precision, RoomShape,
    SimConfig, SimSetup, Simulation,
};
use vgpu::Device;

/// Tolerance relative to the initial energy, per step of the identity and
/// for the rigid-wall drift: two orders above the ≈ 6e-15 that f64 rounding
/// of the fields and of the sums leaves on these runs.
const TOL: f64 = 1e-12;

/// The source: a released unit displacement off every wall.
const SOURCE: (usize, usize, usize) = (3, 3, 3);

/// An L-shaped 10×9×8 room — non-convex, so its boundary cells have 3, 4 and
/// 5 inside neighbours — with floor, walls and ceiling of `materials`.
fn setup(materials: Vec<Material>) -> SimSetup {
    let fimm = SimConfig::fimm(GridDims::new(10, 9, 8), RoomShape::LShape);
    SimSetup::new(&SimConfig { boundary: BoundaryModel::FiMm { materials }, ..fimm })
}

fn rigid() -> Vec<Material> {
    ["floor", "walls", "ceiling"].map(|name| Material::fi(name, 0.0)).to_vec()
}

/// The pieces of `E` and of the boundary term, read off the setup alone.
struct Scheme {
    /// Inside edges of the `nbrs` graph, each once.
    edges: Vec<(usize, usize)>,
    l2: f64,
    /// `(cell, cf)` per boundary point.
    boundary: Vec<(usize, f64)>,
}

impl Scheme {
    fn of(setup: &SimSetup) -> Scheme {
        let (d, nbrs) = (setup.dims(), &setup.room.nbrs);
        let inside = |a: usize| nbrs[a] > 0;
        let edges = (0..d.total())
            .filter(|&a| inside(a))
            .flat_map(|a| [1, d.nx, d.nx * d.ny].map(|step| (a, a + step)))
            .filter(|&(_, b)| inside(b))
            .collect();
        let cf = |(&i, &m): (&i32, &i32)| {
            let k = nbrs[i as usize] as f64;
            (i as usize, 0.5 * setup.l * (6.0 - k) * setup.betas[m as usize])
        };
        let boundary = setup.room.boundary_indices.iter().zip(&setup.room.material).map(cf);
        Scheme { edges, l2: setup.l2, boundary: boundary.collect() }
    }

    /// `E^{n+½}` from `p^{n+1}` and `p^n`.
    fn energy(&self, next: &[f64], curr: &[f64]) -> f64 {
        let kinetic: f64 = next.iter().zip(curr).map(|(a, b)| (a - b) * (a - b)).sum();
        let grad = |p: &[f64], (a, b): (usize, usize)| p[a] - p[b];
        let potential: f64 = self.edges.iter().map(|&e| grad(next, e) * grad(curr, e)).sum();
        0.5 * kinetic + 0.5 * self.l2 * potential
    }

    /// `½·Σ_b cf_b·(p^{n+1}_b − p^{n−1}_b)²`.
    fn boundary_term(&self, next: &[f64], prev: &[f64]) -> f64 {
        0.5 * self.boundary.iter().map(|&(i, cf)| cf * (next[i] - prev[i]).powi(2)).sum::<f64>()
    }
}

/// A run's energy ledger: `E₀ = E^{−½}`, then per step `n` the energy
/// `E^{n+½}` and the identity's residual `E^{n+½} − E^{n−½} + boundary term`.
struct Ledger {
    what: String,
    e0: f64,
    energy: Vec<f64>,
    residual: Vec<f64>,
}

impl Ledger {
    /// Steps `setup` `steps` times in f64 on `devices` devices.
    fn run(setup: SimSetup, source: impl KernelSource, devices: usize, steps: usize) -> Ledger {
        let scheme = Scheme::of(&setup);
        let devices = (0..devices).map(|_| Device::gtx780()).collect();
        let mut sim = Simulation::new(setup, Precision::Double, source, devices);
        let what = format!(
            "{} on {} device(s)",
            sim.kernels().last().unwrap().kernel.name,
            sim.devices.len()
        );
        sim.impulse(SOURCE.0, SOURCE.1, SOURCE.2, 1.0);
        // A released displacement: p^{−1} = p^0.
        let (mut prev, mut curr) = (sim.read_curr(), sim.read_curr());
        let e0 = scheme.energy(&curr, &prev);
        let mut ledger = Ledger { what, e0, energy: Vec::new(), residual: Vec::new() };
        for _ in 0..steps {
            sim.run(1);
            let next = sim.read_curr();
            let e = scheme.energy(&next, &curr);
            let before = ledger.energy.last().copied().unwrap_or(e0);
            ledger.residual.push(e - before + scheme.boundary_term(&next, &prev));
            ledger.energy.push(e);
            (prev, curr) = (curr, next);
        }
        ledger
    }

    /// The first step whose residual exceeds `TOL·E₀`.
    fn identity(&self) -> Result<(), String> {
        match self.residual.iter().position(|r| r.abs() > TOL * self.e0) {
            Some(n) => Err(format!("{}: step {n}: residual {:e}", self.what, self.residual[n])),
            None => Ok(()),
        }
    }

    /// The first step at which `E` grew by more than `TOL·E₀`.
    fn non_increasing(&self) -> Result<(), String> {
        let before = std::iter::once(&self.e0).chain(&self.energy);
        match self.energy.iter().zip(before).position(|(e, b)| e - b > TOL * self.e0) {
            Some(n) => Err(format!("{}: step {n}: E grew to {}", self.what, self.energy[n])),
            None => Ok(()),
        }
    }
}

#[test]
fn rigid_walls_conserve_the_energy_for_2000_steps() {
    let ledger =
        Ledger::run(setup(rigid()), BoundaryKernel::FiMm { beta_constant: false }, 1, 2000);
    ledger.identity().unwrap();
    for (n, e) in ledger.energy.iter().enumerate() {
        assert!((e - ledger.e0).abs() <= TOL * ledger.e0, "{}: step {n}: E = {e}", ledger.what);
    }
}

#[test]
fn rigid_walls_conserve_the_energy_on_generated_kernels_and_two_devices() {
    let runs = [
        Ledger::run(setup(rigid()), LiftBoundary::FiMm, 1, 300),
        Ledger::run(setup(rigid()), LiftBoundary::FiMm, 2, 300),
        Ledger::run(setup(rigid()), BoundaryKernel::FiMm { beta_constant: false }, 2, 300),
    ];
    for ledger in runs {
        ledger.identity().unwrap();
        let drift = ledger.energy.iter().map(|e| (e - ledger.e0).abs()).fold(0.0, f64::max);
        assert!(drift <= TOL * ledger.e0, "{}: drift {drift:e}", ledger.what);
    }
}

#[test]
fn passive_walls_remove_exactly_the_boundary_term() {
    let hand = BoundaryKernel::FiMm { beta_constant: false };
    let runs = [
        Ledger::run(setup(Material::default_set()), hand, 1, 400),
        Ledger::run(setup(Material::default_set()), hand, 2, 400),
        Ledger::run(setup(Material::default_set()), LiftBoundary::FiMm, 1, 400),
        Ledger::run(setup(Material::default_set()), LiftBoundary::FiMm, 2, 400),
    ];
    for ledger in runs {
        ledger.identity().unwrap();
        ledger.non_increasing().unwrap();
        let end = *ledger.energy.last().unwrap();
        assert!(end < 0.9 * ledger.e0, "{}: E {} → {end}", ledger.what, ledger.e0);
    }
}

/// Negative control: an active wall (β < 0) feeds energy in, and the
/// "never grows" check catches it.
#[test]
fn negated_betas_fail_the_non_increasing_check() {
    let mut active = setup(Material::default_set());
    active.betas.iter_mut().for_each(|b| *b = -*b);
    let ledger = Ledger::run(active, BoundaryKernel::FiMm { beta_constant: false }, 1, 400);
    let err = ledger.non_increasing().expect_err("an active wall adds energy");
    assert!(err.contains("E grew"), "{err}");
}
