//! # room-acoustics — FDTD room acoustics with complex boundary conditions
//!
//! The application domain of the reproduced paper: 3-D finite-difference
//! time-domain simulation of sound in rooms, with the three boundary models
//! of §II —
//!
//! * **FI** — uniform frequency-independent absorption (Listings 1–2);
//! * **FI-MM** — multi-material frequency-independent absorption
//!   (Listing 3);
//! * **FD-MM** — frequency-dependent multi-material absorption with
//!   per-boundary-point resonant state (Listing 4).
//!
//! The crate provides the geometry/voxelisation pipeline, the boundary data
//! structures (`nbrs`, `boundaryIndices`, materials), physically-derived
//! FD-MM coefficient tables, golden-model Rust kernels, hand-written
//! baseline kernels in the `lift` kernel AST, the golden-model driver
//! ([`ReferenceSim`]) and the virtual-GPU front end ([`Simulation`]), which
//! runs any kernel set — these hand-written kernels or the LIFT-*generated*
//! ones of the `lift-acoustics` crate.
//!
//! ## Example: a small room with absorbing walls
//!
//! ```
//! use room_acoustics::{GridDims, ReferenceSim, RoomShape, SimConfig, SimSetup};
//!
//! let cfg = SimConfig::fimm(GridDims::cube(12), RoomShape::Box);
//! let mut sim = ReferenceSim::<f64>::new(SimSetup::new(&cfg));
//! sim.impulse(6, 6, 6, 1.0);
//! sim.run(100);
//! let e_early = sim.energy();
//! sim.run(400);
//! assert!(sim.energy() < e_early); // absorbing walls dissipate
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod boundary;
pub mod contracts;
pub mod geometry;
pub mod handwritten;
pub mod materials;
pub mod partition;
pub mod reference;
pub mod sim;
pub mod simulation;

pub use boundary::{MaterialAssignment, RoomModel};
pub use geometry::{GridDims, RoomShape};
pub use materials::{courant, courant_sq, FdCoeffs, Material};
pub use partition::{boundary_cut_planes, boundary_cuts};
pub use sim::{BoundaryModel, ReferenceSim, SimConfig, SimSetup};
pub use simulation::{
    step_input, BoundaryKernel, HandwrittenFi, KernelSource, Precision, SimError, Simulation,
    SingleSim, StepKernel,
};

/// A [`Simulation`] over hand-written kernels on several devices — the name
/// it had when sharding was its own front end.
pub type ShardedSim = Simulation;
/// A [`SingleSim`] over hand-written kernels.
pub type HandwrittenSim = SingleSim;
