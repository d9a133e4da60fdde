//! # lift-acoustics — the paper's Listings 5–8 in the LIFT IR
//!
//! Room-acoustics simulations with complex boundary conditions expressed in
//! the extended LIFT language (crate `lift`), lowered to kernels, and driven
//! on the virtual GPU (crate `vgpu`):
//!
//! * [`programs`] — the LIFT programs: FI volume stencil, the naive
//!   one-kernel FI simulation, FI-MM boundary handling (the
//!   `Concat(Skip, ArrayCons, Skip)` in-place idiom of §IV-B), and FD-MM
//!   boundary handling (tuple-of-`WriteTo` multi-output of §V-D);
//! * [`hostprog`] — each generated kernel set's step as a Listing 5 host
//!   program built from `ToGPU` / `OclKernel` / `WriteTo` / `ToHost`, one
//!   GPU each: what a [`room_acoustics::Simulation`] over [`LiftBoundary`]
//!   runs (several devices are `Simulation`'s business, not the host
//!   program's);
//! * [`runner`] — by-name binding of one generated kernel, kept for
//!   roombench's binding probe.

#![warn(missing_docs)]

pub mod hostprog;
pub mod programs;
pub mod runner;

pub use hostprog::LiftBoundary;
pub use programs::Program;

/// A one-device [`room_acoustics::Simulation`] over generated kernels:
/// `LiftSim::new(setup, precision, LiftBoundary::FdMm, device)`.
pub type LiftSim = room_acoustics::SingleSim;
