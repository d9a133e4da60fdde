//! `roombench`: the repository's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! roombench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! roombench all   [--seed n] [--seconds s] [--rounds r] [--quick]
//! roombench trace [--seed n] [--seconds s] [--quick]
//! roombench agree <a.json> <b.json> [--spec BENCHMARK.json]
//! ```

pub mod adapter;
pub mod batch_small;
mod cli;
pub mod compile_sweep;
pub mod report;
pub mod room;
pub mod run;
pub mod spec;
pub mod stats;
pub mod trace;

pub use cli::cli;
