//! The modeled GPU clock: regenerators for the IPDPS 2021 evaluation
//! (§VI–VII).
//!
//! The `repro_*` binaries in `src/bin/` regenerate every table and figure of
//! the paper; this library provides the shared machinery:
//!
//! * [`measure`] — run one kernel configuration on the virtual GPU in
//!   transaction-counting mode and capture its traffic/flops;
//! * [`Measurement::modeled_ms`] — convert one measurement into a modeled
//!   kernel time on each of the paper's four platforms (Table III profiles);
//! * [`paper`] — the published reference numbers (Tables II, IV, V, VI),
//!   embedded so every report prints *paper vs measured* side by side;
//! * [`report`] — the report shared by the boundary-kernel figures (5, 6);
//! * [`table`] — plain-text table printing and `results/<name>.json` dumps;
//! * [`trace`] — the `VGPU_TRACE` artifact a binary leaves next to its
//!   results.
//!
//! Methodology note (DESIGN.md §3): execution is functional and
//! deterministic; "kernel time" is the roofline model applied to counted
//! 128-byte memory transactions and flops. Absolute milliseconds are
//! first-order estimates — the claims under reproduction are *shapes*:
//! LIFT ≈ hand-written, box ≥ dome, the 336³ dip, double < single, and
//! FD-MM ≪ FI-MM throughput, pinned by `tests/shape_regressions.rs`. Wall
//! time of this process is not measured here: that clock belongs to
//! `roombench` (`benchmark/`), and `benches/telemetry_overhead.rs` is the
//! one wall-clock check kept, a ratio guard on tracing's off cost.

#![warn(missing_docs)]

pub mod measure;
pub mod paper;
pub mod report;
pub mod table;
pub mod trace;

pub use measure::{measure_fdmm, measure_fi_single, measure_fimm, Impl, Measurement};
