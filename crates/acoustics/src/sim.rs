//! The simulation driver: time stepping, sources, receivers and energy
//! accounting.
//!
//! A room acoustics run is a leap-frog iteration over three pressure grids
//! (`prev`, `curr`, `next`), with the boundary model applied after each
//! volume pass and the buffers rotated (§II-C: "for an actual application
//! the two kernels are executed iteratively"). [`ReferenceSim`] drives the
//! golden Rust kernels of [`crate::reference`]; [`crate::Simulation`] drives
//! kernel ASTs on the virtual GPU — the hand-written ones of this crate or
//! the LIFT-generated ones of the `lift-acoustics` crate.

use crate::boundary::{MaterialAssignment, RoomModel};
use crate::geometry::{GridDims, RoomShape};
use crate::materials::{courant, courant_sq, fi_betas, FdCoeffs, Material};
use crate::reference::{self, FdArrays, Real};
use crate::simulation::SimError;
use serde::Serialize;

/// Which boundary physics a run uses.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum BoundaryModel {
    /// Uniform frequency-independent admittance (Listings 1–2).
    Fi {
        /// Specific admittance β.
        beta: f64,
    },
    /// Frequency-independent, multi-material (Listing 3).
    FiMm {
        /// Material set; `material[i]` of the room indexes into it.
        materials: Vec<Material>,
    },
    /// Frequency-dependent, multi-material (Listing 4).
    FdMm {
        /// Material set.
        materials: Vec<Material>,
        /// ODE branches per material (the paper evaluates `MB = 3`).
        mb: usize,
    },
}

/// Complete description of a simulation.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SimConfig {
    /// Grid dimensions (with halo).
    pub dims: GridDims,
    /// Room shape.
    pub shape: RoomShape,
    /// Material assignment strategy.
    pub assignment: MaterialAssignment,
    /// Boundary physics.
    pub boundary: BoundaryModel,
}

impl SimConfig {
    /// An FI-MM run with the default 3-material set.
    pub fn fimm(dims: GridDims, shape: RoomShape) -> SimConfig {
        SimConfig {
            dims,
            shape,
            assignment: MaterialAssignment::FloorWallsCeiling,
            boundary: BoundaryModel::FiMm { materials: Material::default_set() },
        }
    }

    /// An FD-MM run with the default 3-material set and `MB = 3`.
    pub fn fdmm(dims: GridDims, shape: RoomShape) -> SimConfig {
        SimConfig {
            dims,
            shape,
            assignment: MaterialAssignment::FloorWallsCeiling,
            boundary: BoundaryModel::FdMm { materials: Material::default_set(), mb: 3 },
        }
    }
}

/// Precomputed, precision-independent run data shared by all backends.
#[derive(Debug, Clone)]
pub struct SimSetup {
    /// The room (geometry + boundary data structures).
    pub room: RoomModel,
    /// Courant number λ.
    pub l: f64,
    /// λ².
    pub l2: f64,
    /// Per-material β (FI: one entry; FI-MM: `beta0`s; FD-MM: effective β).
    pub betas: Vec<f64>,
    /// FD-MM coefficients, when applicable.
    pub fd: Option<FdCoeffs>,
    /// Branches per material (0 unless FD-MM).
    pub mb: usize,
}

impl SimSetup {
    /// Builds the room and coefficient tables for a configuration, or says
    /// why it describes no passive simulation ([`SimError`]).
    pub fn try_new(cfg: &SimConfig) -> Result<SimSetup, SimError> {
        let GridDims { nx, ny, nz } = cfg.dims;
        if nx.min(ny).min(nz) < 3 {
            return Err(SimError::NoInterior { nx, ny, nz });
        }
        if cfg.assignment == (MaterialAssignment::Striped { num_materials: 0 }) {
            return Err(SimError::NoMaterials);
        }
        let room = RoomModel::build(cfg.dims, cfg.shape, cfg.assignment);
        let defined = |materials: &[Material]| {
            materials.iter().try_for_each(passive)?;
            match (room.num_materials, materials.len()) {
                (assigned, defined) if assigned > defined => {
                    Err(SimError::UndefinedMaterials { assigned, defined })
                }
                _ => Ok(()),
            }
        };
        let (betas, fd, mb) = match &cfg.boundary {
            BoundaryModel::Fi { beta } => {
                passive(&Material::fi("β", *beta))?;
                (vec![*beta], None, 0)
            }
            BoundaryModel::FiMm { materials } => {
                defined(materials)?;
                (fi_betas(materials), None, 0)
            }
            BoundaryModel::FdMm { mb: 0, .. } => return Err(SimError::NoBranches),
            BoundaryModel::FdMm { materials, mb } => {
                defined(materials)?;
                let c = FdCoeffs::derive(materials, *mb);
                (c.beta.clone(), Some(c), *mb)
            }
        };
        Ok(SimSetup { room, l: courant(), l2: courant_sq(), betas, fd, mb })
    }

    /// [`SimSetup::try_new`], panicking with the error's message.
    pub fn new(cfg: &SimConfig) -> SimSetup {
        Self::try_new(cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Grid dimensions.
    pub fn dims(&self) -> &GridDims {
        &self.room.dims
    }

    /// Boundary point count.
    pub fn num_b(&self) -> usize {
        self.room.num_boundary_points()
    }
}

/// `Ok` when `m` can only absorb: `β₀ ≥ 0` and every branch passive.
fn passive(m: &Material) -> Result<(), SimError> {
    let active = |what: String| Err(SimError::NonPassive(format!("material `{}` {what}", m.name)));
    if m.beta0.is_nan() || m.beta0 < 0.0 {
        return active(format!("has admittance β₀ = {}", m.beta0));
    }
    match m.branches.iter().position(|p| !p.is_passive()) {
        Some(i) => active(format!("branch {i}: {:?}", m.branches[i])),
        None => Ok(()),
    }
}

/// Acoustic field energy proxy: `Σ (curr² + prev²) / 2`. Exact discrete
/// energy conservation needs cross terms, but this proxy is stationary (to
/// oscillation) for rigid walls and strictly decaying on average for
/// absorbing walls — which is what the stability/passivity tests assert.
pub fn field_energy<T: Real>(curr: &[T], prev: &[T]) -> f64 {
    let mut e = 0.0;
    for (c, p) in curr.iter().zip(prev) {
        let c = c.f64();
        let p = p.f64();
        e += 0.5 * (c * c + p * p);
    }
    e
}

/// The golden-model simulation backend.
pub struct ReferenceSim<T: Real> {
    setup: SimSetup,
    /// Pressure at t−1.
    pub prev: Vec<T>,
    /// Pressure at t.
    pub curr: Vec<T>,
    /// Workspace for t+1.
    pub next: Vec<T>,
    /// FD state: `g` per branch per boundary point.
    pub g1: Vec<T>,
    /// FD state: branch velocity (new).
    pub v1: Vec<T>,
    /// FD state: branch velocity (old).
    pub v2: Vec<T>,
    betas: Vec<T>,
    fd: Option<FdArrays<T>>,
    steps_done: usize,
}

impl<T: Real> ReferenceSim<T> {
    /// Builds the backend from a prepared setup.
    pub fn new(setup: SimSetup) -> Self {
        let n = setup.dims().total();
        let nb = setup.num_b();
        let state = setup.mb * nb;
        let betas = setup.betas.iter().map(|&b| T::of(b)).collect();
        let fd = setup.fd.as_ref().map(FdArrays::from_coeffs);
        ReferenceSim {
            prev: vec![T::of(0.0); n],
            curr: vec![T::of(0.0); n],
            next: vec![T::of(0.0); n],
            g1: vec![T::of(0.0); state],
            v1: vec![T::of(0.0); state],
            v2: vec![T::of(0.0); state],
            betas,
            fd,
            setup,
            steps_done: 0,
        }
    }

    /// The shared setup.
    pub fn setup(&self) -> &SimSetup {
        &self.setup
    }

    /// Injects a pressure impulse at a grid point (must be inside the
    /// room). The impulse is applied to both `curr` and `prev` — a released
    /// initial *displacement* with zero initial velocity. (Setting only
    /// `curr` would give the field a net DC velocity, whose spatial mean
    /// grows linearly under rigid walls — physical for Neumann boundaries
    /// but useless for energy-decay measurements.)
    pub fn impulse(&mut self, x: usize, y: usize, z: usize, amp: f64) {
        let idx = self.setup.dims().cell(x, y, z);
        assert!(self.setup.room.nbrs[idx] > 0, "source must be inside the room");
        self.curr[idx] = T::of(amp);
        self.prev[idx] = T::of(amp);
    }

    /// Pressure at a grid point.
    pub fn sample(&self, x: usize, y: usize, z: usize) -> f64 {
        self.curr[self.setup.dims().cell(x, y, z)].f64()
    }

    /// Advances one time step (volume pass + boundary pass + rotation).
    pub fn step(&mut self) {
        let dims = *self.setup.dims();
        let room = &self.setup.room;
        let l = T::of(self.setup.l);
        let l2 = T::of(self.setup.l2);
        reference::volume_step(&mut self.next, &self.curr, &self.prev, &room.nbrs, &dims, l2);
        match &self.fd {
            None => {
                reference::fimm_boundary_step(
                    &mut self.next,
                    &self.prev,
                    &room.boundary_indices,
                    &room.nbrs,
                    &room.material,
                    &self.betas,
                    l,
                );
            }
            Some(fd) => {
                reference::fdmm_boundary_step(
                    &mut self.next,
                    &self.prev,
                    &room.boundary_indices,
                    &room.nbrs,
                    &room.material,
                    fd,
                    &mut self.g1,
                    &mut self.v1,
                    &self.v2,
                    l,
                );
                std::mem::swap(&mut self.v1, &mut self.v2);
            }
        }
        // rotate: prev ← curr, curr ← next, next ← old prev (reused).
        std::mem::swap(&mut self.prev, &mut self.curr);
        std::mem::swap(&mut self.curr, &mut self.next);
        self.steps_done += 1;
    }

    /// Runs `n` steps.
    pub fn run(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Steps executed so far.
    pub fn steps_done(&self) -> usize {
        self.steps_done
    }

    /// Current field energy (see [`field_energy`]).
    pub fn energy(&self) -> f64 {
        field_energy(&self.curr, &self.prev)
    }

    /// Records the receiver pressure over `n` steps (an impulse response).
    pub fn impulse_response(&mut self, rx: (usize, usize, usize), n: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            self.step();
            out.push(self.sample(rx.0, rx.1, rx.2));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_fi(beta: f64) -> SimConfig {
        SimConfig {
            dims: GridDims::cube(14),
            shape: RoomShape::Box,
            assignment: MaterialAssignment::Uniform,
            boundary: BoundaryModel::Fi { beta },
        }
    }

    /// The error `cfg` is rejected with; the panicking constructor says the
    /// same.
    fn rejected(cfg: &SimConfig) -> SimError {
        let err = SimSetup::try_new(cfg).expect_err("a configuration with no simulation");
        let panic = std::panic::catch_unwind(|| SimSetup::new(cfg)).expect_err("`new` panics");
        assert_eq!(panic.downcast_ref::<String>(), Some(&err.to_string()));
        err
    }

    #[test]
    fn more_assigned_materials_than_defined_is_an_error() {
        for cfg in [
            SimConfig::fimm(GridDims::cube(8), RoomShape::Box),
            SimConfig::fdmm(GridDims::cube(8), RoomShape::Box),
        ] {
            let cfg =
                SimConfig { assignment: MaterialAssignment::Striped { num_materials: 5 }, ..cfg };
            let err = rejected(&cfg);
            assert_eq!(err, SimError::UndefinedMaterials { assigned: 5, defined: 3 });
            assert_eq!(err.to_string(), "room assigns 5 materials but only 3 defined");
        }
    }

    #[test]
    fn a_striped_assignment_over_no_materials_is_an_error() {
        let cfg = SimConfig {
            assignment: MaterialAssignment::Striped { num_materials: 0 },
            ..SimConfig::fimm(GridDims::cube(8), RoomShape::Box)
        };
        assert_eq!(rejected(&cfg), SimError::NoMaterials);
    }

    /// `GridDims`' fields are public, so `GridDims::new`'s assert does not
    /// guard a configuration: a side under 3 cells is refused here, before
    /// anything indexes the grid's faces.
    #[test]
    fn a_grid_without_an_interior_is_an_error() {
        for (nx, ny, nz) in [(1, 9, 9), (9, 2, 9), (9, 9, 1), (0, 0, 0)] {
            let cfg = SimConfig::fimm(GridDims { nx, ny, nz }, RoomShape::Box);
            assert_eq!(rejected(&cfg), SimError::NoInterior { nx, ny, nz });
        }
        let err = SimError::NoInterior { nx: 1, ny: 9, nz: 9 };
        assert_eq!(err.to_string(), "a 1×9×9 grid has no interior: every side needs 3 cells");
    }

    #[test]
    fn fdmm_without_branches_is_an_error() {
        let boundary = BoundaryModel::FdMm { materials: Material::default_set(), mb: 0 };
        let cfg = SimConfig { boundary, ..SimConfig::fdmm(GridDims::cube(8), RoomShape::Box) };
        assert_eq!(rejected(&cfg), SimError::NoBranches);
    }

    #[test]
    fn an_active_material_is_an_error() {
        // Public fields skip `BranchParams::new`'s assert.
        let mut glass = Material::glass();
        glass.branches[1] = crate::materials::BranchParams { a: -25.0, b: 0.5, c: 0.05 };
        let materials = vec![Material::carpet(), Material::plaster(), glass];
        let cfg = SimConfig {
            boundary: BoundaryModel::FdMm { materials, mb: 3 },
            ..SimConfig::fdmm(GridDims::cube(8), RoomShape::Box)
        };
        let err = rejected(&cfg).to_string();
        assert!(err.starts_with("not passive: material `glass` branch 1"), "{err}");
        let mut cfg = cfg_fi(-0.1);
        assert!(matches!(rejected(&cfg), SimError::NonPassive(e) if e.contains("-0.1")));
        cfg.boundary = BoundaryModel::FiMm { materials: vec![Material::fi("foam", f64::NAN)] };
        cfg.assignment = MaterialAssignment::Uniform;
        assert!(matches!(rejected(&cfg), SimError::NonPassive(e) if e.contains("`foam`")));
    }

    /// `impulse(21, 5, 5, …)` on a 16³ grid would excite interior cell
    /// (5, 6, 5): `impulse` and `sample` refuse a cell off the grid.
    #[test]
    fn a_cell_off_the_grid_is_refused() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let message = |r: std::thread::Result<()>| *r.unwrap_err().downcast::<String>().unwrap();
        let cfg = SimConfig { dims: GridDims::cube(16), ..cfg_fi(0.1) };
        let mut sim = ReferenceSim::<f64>::new(SimSetup::new(&cfg));
        let want = "cell (21, 5, 5) is off the 16×16×16 grid";
        let impulse = catch_unwind(AssertUnwindSafe(|| sim.impulse(21, 5, 5, 1.0)));
        assert_eq!(message(impulse), want);
        assert_eq!(sim.sample(5, 6, 5), 0.0, "the wrapped cell was not excited");
        let sample = catch_unwind(AssertUnwindSafe(|| {
            sim.sample(21, 5, 5);
        }));
        assert_eq!(message(sample), want);
    }

    #[test]
    fn impulse_propagates_at_most_one_cell_per_step() {
        let mut sim = ReferenceSim::<f64>::new(SimSetup::new(&cfg_fi(0.1)));
        sim.impulse(7, 7, 7, 1.0);
        sim.run(3);
        let dims = *sim.setup().dims();
        for z in 1..dims.nz - 1 {
            for y in 1..dims.ny - 1 {
                for x in 1..dims.nx - 1 {
                    let d = (x as i64 - 7).abs() + (y as i64 - 7).abs() + (z as i64 - 7).abs();
                    if d > 3 {
                        assert_eq!(sim.sample(x, y, z), 0.0, "leak at ({x},{y},{z})");
                    }
                }
            }
        }
    }

    #[test]
    fn rigid_walls_preserve_energy_on_average() {
        let mut sim = ReferenceSim::<f64>::new(SimSetup::new(&cfg_fi(0.0)));
        sim.impulse(7, 7, 7, 1.0);
        sim.run(50);
        let e1 = sim.energy();
        sim.run(400);
        let e2 = sim.energy();
        assert!(e2 > 0.3 * e1 && e2 < 3.0 * e1, "energy drifted: {e1} → {e2}");
    }

    #[test]
    fn absorbing_walls_decay_energy() {
        let mut sim = ReferenceSim::<f64>::new(SimSetup::new(&cfg_fi(0.3)));
        sim.impulse(7, 7, 7, 1.0);
        sim.run(50);
        let e1 = sim.energy();
        sim.run(800);
        let e2 = sim.energy();
        assert!(e2 < 0.2 * e1, "absorption too weak: {e1} → {e2}");
    }

    #[test]
    fn fdmm_is_stable_and_passive() {
        let mut sim = ReferenceSim::<f64>::new(SimSetup::new(&SimConfig::fdmm(
            GridDims::cube(14),
            RoomShape::Box,
        )));
        sim.impulse(7, 7, 7, 1.0);
        sim.run(50);
        let e1 = sim.energy();
        sim.run(1000);
        let e2 = sim.energy();
        assert!(e2.is_finite());
        assert!(e2 < e1, "FD boundary must dissipate: {e1} → {e2}");
    }

    #[test]
    fn fdmm_differs_from_fimm() {
        // The resonant branches change the response versus plain FI-MM with
        // the same β₀.
        let dims = GridDims::cube(12);
        let mut fd =
            ReferenceSim::<f64>::new(SimSetup::new(&SimConfig::fdmm(dims, RoomShape::Box)));
        let mut fi =
            ReferenceSim::<f64>::new(SimSetup::new(&SimConfig::fimm(dims, RoomShape::Box)));
        fd.impulse(6, 6, 6, 1.0);
        fi.impulse(6, 6, 6, 1.0);
        let a = fd.impulse_response((3, 3, 3), 60);
        let b = fi.impulse_response((3, 3, 3), 60);
        let diff: f64 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
        assert!(diff > 1e-6, "FD and FI responses should differ, diff = {diff}");
    }

    #[test]
    fn dome_simulation_stays_inside_dome() {
        let dims = GridDims::new(20, 20, 12);
        let cfg = SimConfig::fimm(dims, RoomShape::Dome);
        let mut sim = ReferenceSim::<f64>::new(SimSetup::new(&cfg));
        sim.impulse(10, 10, 4, 1.0);
        sim.run(30);
        // outside-the-dome points must remain exactly zero
        for z in 1..dims.nz - 1 {
            for y in 1..dims.ny - 1 {
                for x in 1..dims.nx - 1 {
                    if !RoomShape::Dome.inside(&dims, x, y, z) {
                        assert_eq!(sim.sample(x, y, z), 0.0, "({x},{y},{z})");
                    }
                }
            }
        }
    }

    #[test]
    fn f32_and_f64_agree_initially() {
        let cfg = cfg_fi(0.2);
        let mut a = ReferenceSim::<f32>::new(SimSetup::new(&cfg));
        let mut b = ReferenceSim::<f64>::new(SimSetup::new(&cfg));
        a.impulse(7, 6, 5, 1.0);
        b.impulse(7, 6, 5, 1.0);
        a.run(10);
        b.run(10);
        let pa = a.sample(5, 5, 5);
        let pb = b.sample(5, 5, 5);
        assert!((pa - pb).abs() < 1e-4, "{pa} vs {pb}");
    }

    #[test]
    fn impulse_response_has_direct_sound_arrival() {
        let mut sim = ReferenceSim::<f64>::new(SimSetup::new(&cfg_fi(0.1)));
        sim.impulse(7, 7, 7, 1.0);
        let ir = sim.impulse_response((10, 7, 7), 40);
        // nothing before the wave can reach 3 cells away…
        assert!(ir[0].abs() < 1e-15 && ir[1].abs() < 1e-15);
        // …and something after.
        assert!(ir.iter().any(|&v| v.abs() > 1e-6));
    }
}
