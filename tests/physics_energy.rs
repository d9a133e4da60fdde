//! Physics oracle: the discrete energy balance of the FI-MM and FD-MM
//! boundaries.
//!
//! # The FI-MM identity
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
//! # The FD-MM identity
//!
//! Listing 4 gives each boundary point `b` (`cf1_b = λ(6 − K_b)`,
//! `Δp_b = p⁺_b − p⁻_b`) branches with state `(w, g)`, updated as
//! `w⁺ = BI·(Δp + DI·w − 2F·g)`, `g⁺ = g + (w⁺ + w)/2`, and sets
//! `(1 + cf)·p⁺ = p_vol − cf1·Σ BI·(2D·w − F·g) + cf·p⁻` with
//! `cf = ½·cf1·β_eff`. Write each branch's `BI = 1/(a + b/2 + c/4)`,
//! `DI = a − b/2 − c/4`, `D = a/2`, `F = c/2` back as `a = 2D`, `c = 2F`,
//! `b = 2(1/BI − a − c/4)`, and let `β₀ = β_eff − Σ BI`, `ŵ = (w⁺ + w)/2`,
//! `ĝ = (g⁺ + g)/2 = g + ŵ/2`. Then:
//!
//! * `DI + 1/BI = 2a` makes `ŵ = BI·(Δp/2 + a·w − c·g/2)`, so the pressure
//!   update reads `p⁺ − p_vol + (cf1·β₀/2)·Δp + cf1·Σ ŵ = 0`;
//! * the branch update reads `a·(w⁺ − w) + b·ŵ + c·ĝ = Δp`, so
//!   `ŵ·Δp = ½a·(w⁺² − w²) + ½c·(g⁺² − g²) + b·ŵ²`.
//!
//! Off the boundary `p⁺ − p_vol = 0`, so, as for FI-MM, `E^{n+½} − E^{n−½} =
//! ½·Σ_b (p⁺_b − p_vol,b)·Δp_b`. With
//!
//! ```text
//! H = E + ½·Σ_b cf1_b·Σ_branches ½·(a·w⁺² + c·g⁺²),
//! H^{n+½} − H^{n−½} = −½·Σ_b cf1_b·[(β₀/2)·Δp_b² + Σ_branches b·ŵ²] ≤ 0
//! ```
//!
//! for passive branches (`a, c > 0`, `b ≥ 0`) and `β₀ ≥ 0`. FI-MM is the
//! case without branches, `β₀ = β`. The test rebuilds `(w, g)` from zero out
//! of the read-back pressures with the recurrence above, in f64, and never
//! reads the kernels' branch buffers.
//!
//! # What is checked
//!
//! The identity holds to rounding at every step — each step's residual
//! within [`TOL`]`·H₀`, `H₀ = H^{−½} = E^{−½}` — in f64, on the hand-written
//! and the generated kernels, on one device and on two. Rigid walls: `E`
//! stays within `TOL·E₀` of `E₀` for 2 000 steps. The default FI-MM and
//! FD-MM materials: `H` never grows by more than `TOL·H₀` and ends below
//! `H₀`. Negative controls: negating the β table after construction (an
//! active FI-MM wall), or giving one FD-MM branch negative damping, fails
//! the "never grows" check; a rebuild that drops one branch per material
//! fails the identity.

use lift_acoustics::LiftBoundary;
use room_acoustics::materials::{BranchParams, FdCoeffs};
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

/// The same L-shaped room with FD-MM walls of `materials`, three branches
/// each.
fn fd_setup(materials: Vec<Material>) -> SimSetup {
    let fdmm = SimConfig::fdmm(GridDims::new(10, 9, 8), RoomShape::LShape);
    SimSetup::new(&SimConfig { boundary: BoundaryModel::FdMm { materials, mb: 3 }, ..fdmm })
}

/// One FD-MM branch in the form the identity uses, read back off the
/// kernel's coefficients.
#[derive(Clone, Copy)]
struct Branch {
    bi: f64,
    di: f64,
    f: f64,
    /// Inertia `2D`.
    a: f64,
    /// Damping `2(1/BI − a − c/4)`.
    b: f64,
    /// Stiffness `2F`.
    c: f64,
}

/// A boundary point.
struct Point {
    cell: usize,
    cf1: f64,
    /// `β₀ = β_eff − Σ BI` of its material (FI-MM: `β`).
    beta0: f64,
    material: usize,
}

/// The pieces of `H` and of the boundary term, read off the setup alone.
struct Scheme {
    /// Inside edges of the `nbrs` graph, each once.
    edges: Vec<(usize, usize)>,
    l2: f64,
    boundary: Vec<Point>,
    /// The branches of each material (none for FI-MM).
    branches: Vec<Vec<Branch>>,
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
        let branches: Vec<Vec<Branch>> = match &setup.fd {
            None => vec![Vec::new(); setup.betas.len()],
            Some(fd) => (0..fd.num_materials)
                .map(|m| (0..fd.mb).map(|b| branch(fd, fd.at(m, b))).collect())
                .collect(),
        };
        let point = |(&i, &m): (&i32, &i32)| {
            let (cell, material) = (i as usize, m as usize);
            let sum_bi: f64 = branches[material].iter().map(|br| br.bi).sum();
            let cf1 = setup.l * (6.0 - nbrs[cell] as f64);
            Point { cell, cf1, beta0: setup.betas[material] - sum_bi, material }
        };
        let boundary = setup.room.boundary_indices.iter().zip(&setup.room.material).map(point);
        Scheme { edges, l2: setup.l2, boundary: boundary.collect(), branches }
    }

    /// `E^{n+½}` from `p^{n+1}` and `p^n`.
    fn energy(&self, next: &[f64], curr: &[f64]) -> f64 {
        let kinetic: f64 = next.iter().zip(curr).map(|(a, b)| (a - b) * (a - b)).sum();
        let grad = |p: &[f64], (a, b): (usize, usize)| p[a] - p[b];
        let potential: f64 = self.edges.iter().map(|&e| grad(next, e) * grad(curr, e)).sum();
        0.5 * kinetic + 0.5 * self.l2 * potential
    }

    /// Advances every branch state `(w, g)` (one row per boundary point) to
    /// `p^{n+1}`; returns the branch energy `½·Σ_b cf1·Σ ½(a·w⁺² + c·g⁺²)`
    /// and the boundary term `½·Σ_b cf1·[(β₀/2)·Δp² + Σ b·ŵ²]`.
    fn advance(&self, next: &[f64], prev: &[f64], state: &mut [Vec<(f64, f64)>]) -> (f64, f64) {
        let (mut stored, mut lost) = (0.0, 0.0);
        for (p, row) in self.boundary.iter().zip(state) {
            let dp = next[p.cell] - prev[p.cell];
            let (mut branch_energy, mut branch_loss) = (0.0, 0.0);
            for (br, (w, g)) in self.branches[p.material].iter().zip(row.iter_mut()) {
                let w_next = br.bi * (dp + br.di * *w - 2.0 * br.f * *g);
                let w_mid = 0.5 * (w_next + *w);
                (*w, *g) = (w_next, *g + w_mid);
                branch_energy += 0.5 * (br.a * *w * *w + br.c * *g * *g);
                branch_loss += br.b * w_mid * w_mid;
            }
            stored += 0.5 * p.cf1 * branch_energy;
            lost += 0.5 * p.cf1 * (0.5 * p.beta0 * dp * dp + branch_loss);
        }
        (stored, lost)
    }
}

fn branch(fd: &FdCoeffs, i: usize) -> Branch {
    let (a, c) = (2.0 * fd.d[i], 2.0 * fd.f[i]);
    let b = 2.0 * (1.0 / fd.bi[i] - a - c / 4.0);
    Branch { bi: fd.bi[i], di: fd.di[i], f: fd.f[i], a, b, c }
}

/// A run's energy ledger: `H₀ = H^{−½}`, then per step `n` the energy
/// `H^{n+½}` and the identity's residual `H^{n+½} − H^{n−½} + boundary term`.
struct Ledger {
    what: String,
    e0: f64,
    energy: Vec<f64>,
    residual: Vec<f64>,
}

impl Ledger {
    /// Steps `setup` `steps` times in f64 on `devices` devices.
    fn run(setup: SimSetup, source: impl KernelSource, devices: usize, steps: usize) -> Ledger {
        Ledger::run_as(Scheme::of(&setup), setup, source, devices, steps)
    }

    /// [`Ledger::run`], with the books kept by `scheme`.
    fn run_as(
        scheme: Scheme,
        setup: SimSetup,
        source: impl KernelSource,
        devices: usize,
        steps: usize,
    ) -> Ledger {
        let devices = (0..devices).map(|_| Device::gtx780()).collect();
        let mut sim = Simulation::new(setup, Precision::Double, source, devices);
        let what = format!(
            "{} on {} device(s)",
            sim.kernels().last().unwrap().kernel.name,
            sim.devices.len()
        );
        sim.impulse(SOURCE.0, SOURCE.1, SOURCE.2, 1.0);
        // A released displacement: p^{−1} = p^0, every branch at rest.
        let (mut prev, mut curr) = (sim.read_curr(), sim.read_curr());
        let mut state: Vec<Vec<(f64, f64)>> = scheme
            .boundary
            .iter()
            .map(|p| vec![(0.0, 0.0); scheme.branches[p.material].len()])
            .collect();
        let e0 = scheme.energy(&curr, &prev);
        let mut ledger = Ledger { what, e0, energy: Vec::new(), residual: Vec::new() };
        for _ in 0..steps {
            sim.run(1);
            let next = sim.read_curr();
            let (stored, lost) = scheme.advance(&next, &prev, &mut state);
            let h = scheme.energy(&next, &curr) + stored;
            let before = ledger.energy.last().copied().unwrap_or(e0);
            ledger.residual.push(h - before + lost);
            ledger.energy.push(h);
            (prev, curr) = (curr, next);
        }
        ledger
    }

    /// The first step whose residual exceeds `TOL·H₀`.
    fn identity(&self) -> Result<(), String> {
        match self.residual.iter().position(|r| r.abs() > TOL * self.e0) {
            Some(n) => Err(format!("{}: step {n}: residual {:e}", self.what, self.residual[n])),
            None => Ok(()),
        }
    }

    /// The first step at which `H` grew by more than `TOL·H₀`.
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

#[test]
fn passive_branches_remove_exactly_the_fdmm_boundary_term() {
    let runs = [
        Ledger::run(fd_setup(Material::default_set()), BoundaryKernel::FdMm, 1, 400),
        Ledger::run(fd_setup(Material::default_set()), BoundaryKernel::FdMm, 2, 400),
        Ledger::run(fd_setup(Material::default_set()), LiftBoundary::FdMm, 1, 400),
        Ledger::run(fd_setup(Material::default_set()), LiftBoundary::FdMm, 2, 400),
    ];
    for ledger in runs {
        ledger.identity().unwrap();
        ledger.non_increasing().unwrap();
        let end = *ledger.energy.last().unwrap();
        assert!(end < 0.9 * ledger.e0, "{}: H {} → {end}", ledger.what, ledger.e0);
    }
}

/// Negative control: a branch with negative damping pumps energy in, and
/// the "never grows" check catches it.
#[test]
fn a_negatively_damped_branch_fails_the_non_increasing_check() {
    let mut materials = Material::default_set();
    materials[0].branches[0] = BranchParams { b: -0.2, ..materials[0].branches[0] };
    let mut active = fd_setup(Material::default_set());
    let fd = FdCoeffs::derive(&materials, active.mb);
    active.betas = fd.beta.clone();
    active.fd = Some(fd);
    let ledger = Ledger::run(active, BoundaryKernel::FdMm, 1, 400);
    let err = ledger.non_increasing().expect_err("an active branch adds energy");
    assert!(err.contains("E grew"), "{err}");
}

/// Negative control: books that forget one branch per material do not
/// balance.
#[test]
fn dropping_a_branch_from_the_rebuild_fails_the_identity() {
    let setup = fd_setup(Material::default_set());
    let mut scheme = Scheme::of(&setup);
    for branches in &mut scheme.branches {
        branches.remove(0);
    }
    let ledger = Ledger::run_as(scheme, setup, BoundaryKernel::FdMm, 1, 400);
    let err = ledger.identity().expect_err("a missing branch unbalances the books");
    assert!(err.contains("residual"), "{err}");
}
