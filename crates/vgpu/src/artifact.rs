//! Process-wide compiled-artifact cache (DESIGN.md §10).
//!
//! A batched multi-room run compiles the same handful of kernels over and
//! over: every room of a given boundary model and precision lowers to a
//! byte-identical kernel AST. This module deduplicates that work at the
//! process level, across devices and worker threads:
//!
//! * [`compile_cached`] / [`compile_cached_under`] — content-fingerprinted
//!   (`Kernel`, launch contract) → `Arc<Prepared>`. Identical kernels under
//!   the same contract share one [`Prepared`], and with it everything
//!   derived from the kernel: a `Prepared` owns its per-shape check tables
//!   and its tape-verifier report, so there is no second map to line up.
//! * [`verify_cached`] — the static tape verifier
//!   ([`crate::verify_prepared`]), run once per artifact and kept on it.
//!
//! Counters: `vgpu.artifact.hits` / `vgpu.artifact.misses` (compile cache)
//! and `vgpu.verify.hits` / `vgpu.verify.misses` (tape report).
//!
//! The map is append-only for the life of the process: its population is
//! bounded by the number of distinct (kernel, contract) pairs the process
//! compiles, and what each entry can accumulate is bounded by
//! [`crate::exec::CHECK_TABLE_CAP`], so no eviction is needed.

use crate::exec::{self, ExecError, Prepared};
use crate::telemetry;
use crate::verify::{tape_report, TapeReport};
use lift::kast::Kernel;
use lift::verify::Assumptions;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt::Write;
use std::hash::Hasher;
use std::sync::{Arc, Mutex, OnceLock};

fn compiled() -> &'static Mutex<HashMap<u64, Arc<Prepared>>> {
    static M: OnceLock<Mutex<HashMap<u64, Arc<Prepared>>>> = OnceLock::new();
    M.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Feeds formatted text to a hasher piece by piece, so a fingerprint needs
/// no intermediate `String`.
struct HashText(DefaultHasher);

impl Write for HashText {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.write(s.as_bytes());
        Ok(())
    }
}

/// Content fingerprint of a kernel AST under a launch contract. Two kernels
/// that print identically under `{:?}` (same name, params, body, work_dim —
/// which is everything a [`Kernel`] holds) get the same fingerprint exactly
/// when their contracts print identically too; distinct precisions resolve
/// to distinct ASTs and therefore distinct fingerprints.
fn fingerprint(kernel: &Kernel, contract: &Assumptions) -> u64 {
    let mut h = HashText(DefaultHasher::new());
    write!(h, "{kernel:?}{contract:?}").expect("hashing text cannot fail");
    h.0.finish()
}

/// Compiles `kernel` with no launch contract through the process-wide
/// artifact cache ([`compile_cached_under`] an empty contract): its bounds
/// proofs rest on launch-concrete facts only.
pub fn compile_cached(kernel: &Kernel) -> Result<Arc<Prepared>, ExecError> {
    compile_cached_under(kernel, &Assumptions::default())
}

/// Compiles `kernel` under `contract` ([`exec::prepare_under`]) through the
/// process-wide artifact cache: returns the shared [`Prepared`] for the
/// fingerprint of the pair, preparing it on first sight. The contract is
/// part of the key, so one kernel text under two contracts is two
/// artifacts, and a proof is only ever read under the contract it was made
/// for.
///
/// Preparation *errors* are not cached — a failing kernel re-fails on every
/// call, which keeps error paths identical to [`exec::prepare`].
pub fn compile_cached_under(
    kernel: &Kernel,
    contract: &Assumptions,
) -> Result<Arc<Prepared>, ExecError> {
    let fp = fingerprint(kernel, contract);
    let reg = telemetry::registry();
    if let Some(p) = compiled().lock().unwrap().get(&fp) {
        reg.counter("vgpu.artifact.hits").inc();
        return Ok(p.clone());
    }
    // Prepare outside the lock: compilation is the slow part, and a worker
    // compiling one kernel must not serialize workers compiling others.
    // If two workers race on the same kernel, the first insert wins so
    // every caller still agrees on a single artifact; the loser's work is
    // discarded and its miss is counted (two compilations really happened).
    // What is stored is a clone: launches run ~3 % faster from the compact
    // copy than from the incrementally built original (EXPERIMENTS.md,
    // PR 15), and storing it here makes that one copy per process.
    let prep = Arc::new(exec::prepare_under(kernel, contract)?.clone());
    reg.counter("vgpu.artifact.misses").inc();
    Ok(compiled().lock().unwrap().entry(fp).or_insert(prep).clone())
}

/// Runs the static tape verifier once per artifact and keeps the report on
/// it. Always `Some`, like [`crate::verify_prepared`].
pub fn verify_cached(prep: &Prepared) -> Option<Arc<TapeReport>> {
    let report = &prep.derived.tape_report;
    let seen = if report.get().is_some() { "vgpu.verify.hits" } else { "vgpu.verify.misses" };
    telemetry::registry().counter(seen).inc();
    Some(report.get_or_init(|| Arc::new(tape_report(prep))).clone())
}

/// Artifacts in the process-wide cache. For telemetry sidecars and tests.
pub fn cache_size() -> usize {
    compiled().lock().unwrap().len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lift::kast::{KExpr, KStmt, KernelParam, MemRef};
    use lift::prelude::ScalarKind;

    fn copy_kernel(name: &str, kind: ScalarKind) -> Kernel {
        Kernel {
            name: name.into(),
            params: vec![KernelParam::global_buf("x", kind), KernelParam::global_buf("out", kind)],
            body: vec![KStmt::Store {
                mem: MemRef::Param(1),
                idx: KExpr::GlobalId(0),
                value: KExpr::load(MemRef::Param(0), KExpr::GlobalId(0)),
            }],
            work_dim: 1,
        }
    }

    #[test]
    fn identical_kernels_share_one_prepared() {
        let a = compile_cached(&copy_kernel("artifact_share", ScalarKind::F32)).unwrap();
        let b = compile_cached(&copy_kernel("artifact_share", ScalarKind::F32)).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same content must yield the same Arc");
    }

    #[test]
    fn precision_variants_get_distinct_artifacts() {
        let f32 = compile_cached(&copy_kernel("artifact_prec", ScalarKind::F32)).unwrap();
        let f64 = compile_cached(&copy_kernel("artifact_prec", ScalarKind::F64)).unwrap();
        assert!(!Arc::ptr_eq(&f32, &f64), "f32 and f64 variants are distinct artifacts");
    }

    #[test]
    fn verifier_verdicts_are_memoized() {
        let prep = compile_cached(&copy_kernel("artifact_verify", ScalarKind::F32)).unwrap();
        let a = verify_cached(&prep).expect("kernel has a tape");
        let b = verify_cached(&prep).expect("kernel has a tape");
        assert!(Arc::ptr_eq(&a, &b), "second verify must return the cached report");
        assert!(a.is_clean(), "trivial copy kernel verifies clean");
    }
}
