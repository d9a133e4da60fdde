//! Memory allocation planning (§III-A of the paper).
//!
//! In LIFT, the memory allocator walks the IR and assigns an output buffer
//! to every pattern that materialises data. The paper's `WriteTo` primitive
//! *overrides* this: the output view of the wrapped expression is re-routed
//! to existing memory, so no buffer is allocated. This module decides, for a
//! kernel body, whether a fresh output buffer is required, and validates the
//! allocation-related invariants of the new primitives:
//!
//! * a `Concat` whose parts include `Skip`s with *runtime* lengths has no
//!   statically-known layout and therefore **must** be consumed by a
//!   `WriteTo` (Table I / §IV-B);
//! * a map element consisting solely of `WriteTo`s (possibly tupled) is pure
//!   side-effect and allocates nothing.

use crate::ir::{ExprKind, ExprRef};
use crate::typecheck::Typed;
use crate::types::Type;
use std::fmt;

/// Allocation decision for a kernel body.
#[derive(Debug, Clone, PartialEq)]
pub enum OutputPlan {
    /// Allocate a fresh output buffer of the given type; the top-level map
    /// stores elements into it.
    Alloc(Type),
    /// The body routes all writes through `WriteTo`; no output buffer.
    InPlace,
}

/// Error from allocation planning.
#[derive(Debug, Clone)]
pub struct MemError(pub String);

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "memory allocation error: {}", self.0)
    }
}

impl std::error::Error for MemError {}

/// Strips `Let` wrappers (they don't affect what the element produces).
fn strip_lets(e: &ExprRef) -> &ExprRef {
    match &e.kind {
        ExprKind::Let { body, .. } => strip_lets(body),
        _ => e,
    }
}

/// True when a map-element expression is pure side-effect: a `WriteTo`, or a
/// tuple whose components are all side-effecting.
pub fn is_side_effecting(e: &ExprRef) -> bool {
    match &strip_lets(e).kind {
        ExprKind::WriteTo { .. } => true,
        ExprKind::Tuple(parts) => !parts.is_empty() && parts.iter().all(is_side_effecting),
        _ => false,
    }
}

/// True if the expression contains a `Skip` whose length is not a
/// compile-time literal (i.e. the dynamic in-place idiom).
pub fn has_dynamic_skip(e: &ExprRef) -> bool {
    fn is_dynamic_len(l: &ExprRef) -> bool {
        !matches!(l.kind, ExprKind::Literal(_))
    }
    match &e.kind {
        ExprKind::Skip { len, .. } => is_dynamic_len(len),
        ExprKind::Concat(parts) => parts.iter().any(has_dynamic_skip),
        ExprKind::Let { value, body, .. } => has_dynamic_skip(value) || has_dynamic_skip(body),
        _ => false,
    }
}

/// Validates the WriteTo/Concat invariants inside a map element and decides
/// whether the kernel needs an allocated output.
///
/// `element` is the body of the top-level map's lambda; `element_ty` its
/// type; `map_result_ty` the type of the whole map.
pub fn plan_output(
    element: &ExprRef,
    map_result_ty: &Type,
    typed: &Typed,
) -> Result<OutputPlan, MemError> {
    validate(element, typed, false)?;
    if is_side_effecting(element) {
        Ok(OutputPlan::InPlace)
    } else {
        Ok(OutputPlan::Alloc(map_result_ty.clone()))
    }
}

/// Recursive invariant check: `under_writeto` tracks whether the current
/// expression's output has been re-routed.
#[allow(clippy::only_used_in_recursion)]
fn validate(e: &ExprRef, typed: &Typed, under_writeto: bool) -> Result<(), MemError> {
    match &e.kind {
        ExprKind::WriteTo { value, dest } => {
            // Destinations must be memory-denoting; a full check happens at
            // view construction, but catch obvious misuse early.
            if matches!(dest.kind, ExprKind::Literal(_) | ExprKind::Iota { .. }) {
                return Err(MemError("WriteTo destination does not denote memory".into()));
            }
            validate(value, typed, true)
        }
        ExprKind::Concat(parts) => {
            if has_dynamic_skip(e) && !under_writeto {
                return Err(MemError(
                    "Concat containing a runtime-length Skip must be wrapped in WriteTo \
                     (its output cannot be allocated)"
                        .into(),
                ));
            }
            for p in parts {
                validate(p, typed, under_writeto)?;
            }
            Ok(())
        }
        ExprKind::Skip { .. } => {
            if !under_writeto {
                return Err(MemError("Skip outside of a WriteTo-consumed Concat".into()));
            }
            Ok(())
        }
        ExprKind::Let { value, body, .. } => {
            validate(value, typed, false)?;
            validate(body, typed, under_writeto)
        }
        ExprKind::Tuple(parts) => {
            for p in parts {
                validate(p, typed, under_writeto)?;
            }
            Ok(())
        }
        ExprKind::Map { f, input, .. } => {
            validate(input, typed, false)?;
            validate(&f.body, typed, under_writeto)
        }
        ExprKind::ArrayCons { elem, .. } => validate(elem, typed, under_writeto),
        // no other pattern passes a re-routed output down: each child is
        // checked as outside any `WriteTo`
        kind => {
            let mut result = Ok(());
            kind.for_each_child(|c| {
                if result.is_ok() {
                    result = validate(c, typed, false);
                }
            });
            result
        }
    }
}

/// Fresh-name generator for temporaries and private arrays.
#[derive(Debug, Default)]
pub struct NameGen {
    counter: u64,
}

impl NameGen {
    /// New generator starting at 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh name with the given prefix (`v0`, `v1`, … per prefix-free
    /// counter — names never collide because the counter is shared).
    pub fn fresh(&mut self, prefix: &str) -> String {
        let n = self.counter;
        self.counter += 1;
        format!("{prefix}_{n}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::funs;
    use crate::ir::*;
    use crate::scalar::Lit;
    use crate::typecheck::check;
    use crate::types::Type;

    #[test]
    fn side_effect_detection() {
        let next = ParamDef::typed("next", Type::array(Type::real(), "N"));
        let w = write_to(next.to_expr(), next.to_expr());
        assert!(is_side_effecting(&w));
        let t = tuple(vec![
            write_to(next.to_expr(), next.to_expr()),
            write_to(next.to_expr(), next.to_expr()),
        ]);
        assert!(is_side_effecting(&t));
        assert!(!is_side_effecting(&next.to_expr()));
    }

    #[test]
    fn dynamic_skip_needs_writeto() {
        let next = ParamDef::typed("next", Type::array(Type::real(), "N"));
        let i = ParamDef::typed("i", Type::i32());
        let c = concat(vec![
            skip(i.to_expr(), Type::real()),
            array_cons(at(next.to_expr(), i.to_expr()), 1usize),
        ]);
        let typed = check(&c).unwrap();
        assert!(plan_output(&c, typed.of(&c), &typed).is_err());

        let w = write_to(next.to_expr(), c);
        let typed = check(&w).unwrap();
        let plan = plan_output(&w, typed.of(&w), &typed).unwrap();
        assert_eq!(plan, OutputPlan::InPlace);
    }

    #[test]
    fn value_elements_allocate() {
        let a = ParamDef::typed("a", Type::array(Type::real(), "N"));
        let body = call(&funs::add(), vec![a.to_expr().pipe_at(0), lit(Lit::real(1.0))]);
        let typed = check(&body).unwrap();
        let plan = plan_output(&body, typed.of(&body), &typed).unwrap();
        assert!(matches!(plan, OutputPlan::Alloc(_)));
    }

    // Small helper for readability in tests.
    trait PipeAt {
        fn pipe_at(self, i: i32) -> ExprRef;
    }
    impl PipeAt for ExprRef {
        fn pipe_at(self, i: i32) -> ExprRef {
            at(self, lit(Lit::i32(i)))
        }
    }

    #[test]
    fn namegen_unique() {
        let mut g = NameGen::new();
        let a = g.fresh("t");
        let b = g.fresh("t");
        assert_ne!(a, b);
    }
}
