//! # batch — the multi-room simulation service
//!
//! Runs many randomized room-acoustics scenarios concurrently on the
//! virtual GPU (DESIGN.md §10):
//!
//! * [`scenario`] — seeded generator of parameterized rooms (box, dome,
//!   L-shape; FI-MM/FD-MM boundaries; single/double precision; randomized
//!   dimensions, materials, source and microphone positions);
//! * [`executor`] — a job-queue API over a pool of worker threads, one
//!   [`vgpu::Device`] per job, with per-job telemetry sidecars.
//!
//! All jobs share the process-wide step programs of their kernel sets
//! (compiled once by [`room_acoustics::Simulation`]) and their compiled artifacts
//! ([`vgpu::artifact`]): rooms with identical kernels (same boundary model
//! and precision) share one prepared kernel — and on it the check tables
//! of every room shape and one static-verifier report — no matter which
//! worker or device runs them.
//!
//! ```no_run
//! use batch::{BatchConfig, BatchExecutor, ScenarioGen};
//!
//! let exec = BatchExecutor::new(BatchConfig::default());
//! let results = exec.run_all(ScenarioGen::new(42).take(8));
//! for r in &results {
//!     let out = r.outcome.as_ref().expect("job succeeds");
//!     println!("{}: energy {:.3e}", r.scenario.label(), out.energy);
//! }
//! ```

pub mod executor;
pub mod scenario;

pub use executor::{BatchConfig, BatchExecutor, JobHandle, JobOutput, JobResult};
pub use scenario::{Scenario, ScenarioGen};
