//! A small library of standard scalar user functions.
//!
//! These mirror the `UserFun`s that ship with LIFT (`id`, `add`, `mult`, …)
//! and are used throughout tests and the acoustics programs. Domain-specific
//! functions (e.g. the boundary-handling formulas) live with their programs.

use crate::scalar::{SExpr, UserFun};
use crate::types::ScalarKind;
use std::rc::Rc;

/// `id(x) = x` over reals.
pub fn id_real() -> Rc<UserFun> {
    UserFun::new("id", vec![("x", ScalarKind::Real)], ScalarKind::Real, SExpr::p(0))
}

/// `add(a, b) = a + b` over reals.
pub fn add() -> Rc<UserFun> {
    UserFun::new(
        "add",
        vec![("a", ScalarKind::Real), ("b", ScalarKind::Real)],
        ScalarKind::Real,
        SExpr::p(0) + SExpr::p(1),
    )
}

/// `sub(a, b) = a - b` over reals.
pub fn sub() -> Rc<UserFun> {
    UserFun::new(
        "sub",
        vec![("a", ScalarKind::Real), ("b", ScalarKind::Real)],
        ScalarKind::Real,
        SExpr::p(0) - SExpr::p(1),
    )
}

/// `mult(a, b) = a * b` over reals.
pub fn mult() -> Rc<UserFun> {
    UserFun::new(
        "mult",
        vec![("a", ScalarKind::Real), ("b", ScalarKind::Real)],
        ScalarKind::Real,
        SExpr::p(0) * SExpr::p(1),
    )
}

/// `divide(a, b) = a / b` over reals.
pub fn divide() -> Rc<UserFun> {
    UserFun::new(
        "divide",
        vec![("a", ScalarKind::Real), ("b", ScalarKind::Real)],
        ScalarKind::Real,
        SExpr::p(0) / SExpr::p(1),
    )
}

/// `mad(a, b, c) = a * b + c` over reals.
pub fn mad() -> Rc<UserFun> {
    UserFun::new(
        "mad",
        vec![("a", ScalarKind::Real), ("b", ScalarKind::Real), ("c", ScalarKind::Real)],
        ScalarKind::Real,
        SExpr::p(0) * SExpr::p(1) + SExpr::p(2),
    )
}

/// `madI(a, b, c) = a * b + c` over i32 — the flat-index helper
/// `b*stride + i` used by strided state layouts.
pub fn mad_i32() -> Rc<UserFun> {
    UserFun::new(
        "madI",
        vec![("a", ScalarKind::I32), ("b", ScalarKind::I32), ("c", ScalarKind::I32)],
        ScalarKind::I32,
        SExpr::p(0) * SExpr::p(1) + SExpr::p(2),
    )
}

/// `restlen(n, i) = n - 1 - i` — the length of the trailing `Skip` in the
/// in-place concat idiom (§IV-B).
pub fn restlen() -> Rc<UserFun> {
    UserFun::new(
        "restlen",
        vec![("n", ScalarKind::I32), ("i", ScalarKind::I32)],
        ScalarKind::I32,
        SExpr::p(0) - SExpr::p(1) - SExpr::int(1),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::Value;

    #[test]
    fn library_funs_evaluate() {
        let two = Value::F64(2.0);
        let three = Value::F64(3.0);
        assert_eq!(add().eval(&[two, three], ScalarKind::F64), Value::F64(5.0));
        assert_eq!(sub().eval(&[two, three], ScalarKind::F64), Value::F64(-1.0));
        assert_eq!(mult().eval(&[two, three], ScalarKind::F64), Value::F64(6.0));
        assert_eq!(divide().eval(&[three, two], ScalarKind::F64), Value::F64(1.5));
        assert_eq!(mad().eval(&[two, three, Value::F64(1.0)], ScalarKind::F64), Value::F64(7.0));
    }

    #[test]
    fn integer_helpers() {
        assert_eq!(
            mad_i32().eval(&[Value::I32(2), Value::I32(10), Value::I32(3)], ScalarKind::F32),
            Value::I32(23)
        );
        assert_eq!(
            restlen().eval(&[Value::I32(10), Value::I32(4)], ScalarKind::F32),
            Value::I32(5)
        );
    }
}
