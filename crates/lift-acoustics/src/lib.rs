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
//! * [`hostprog`] — the Listing 5 host orchestration built from `ToGPU` /
//!   `OclKernel` / `WriteTo` / `ToHost`: one step on one GPU, launching the
//!   kernels [`LiftBoundary::FiMm`] hands a `Simulation` (several devices
//!   are `Simulation`'s business, not the host program's);
//! * [`runner`] — the generated kernels as a kernel set for
//!   [`room_acoustics::Simulation`] ([`LiftBoundary`] is a
//!   [`room_acoustics::KernelSource`]; [`runner::step_kernel`] lowers and
//!   binds any one program, e.g. the one-kernel FI simulation).

#![warn(missing_docs)]

pub mod hostprog;
pub mod programs;
pub mod runner;

pub use programs::Program;
pub use runner::LiftBoundary;

/// A one-device [`room_acoustics::Simulation`] over generated kernels:
/// `LiftSim::new(setup, precision, LiftBoundary::FdMm, device)`.
pub type LiftSim = room_acoustics::SingleSim;
