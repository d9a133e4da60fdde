//! Bottom-up type inference for the pattern IR.
//!
//! Kernel inputs carry declared types; lambda parameters are inferred from
//! the array the enclosing `map`/`reduce` traverses. Results live in side
//! tables keyed by [`ExprId`]/[`ParamId`] so the IR itself stays immutable.
//!
//! Every layout pattern descends one array level; n-D forms are nests of
//! them. A malformed layout is a [`TypeError`] naming the pattern, never a
//! panic or a division by zero further down: a `zip` of fewer than two
//! arrays, a `slide` whose size or step is below 1, a negative `pad` or
//! `crop` amount, a `transpose` of an array with fewer than two levels.

use crate::arith::ArithExpr;
use crate::ir::{Expr, ExprId, ExprKind, ExprRef, Lambda, ParamId};
use crate::types::Type;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

/// Hashes a node or parameter id, which is unique already, by one multiply.
#[derive(Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(b as u64));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

/// A map keyed by [`ExprId`] or [`ParamId`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// The result of type checking: a type for every expression and parameter.
#[derive(Debug, Default, Clone)]
pub struct Typed {
    /// Expression types.
    pub expr: IdMap<ExprId, Type>,
    /// Parameter types (declared or inferred).
    pub params: IdMap<ParamId, Type>,
}

impl Typed {
    /// Type of an expression (panics if the expression was not checked —
    /// that would be a bug in a pass, not a user error).
    pub fn of(&self, e: &Expr) -> &Type {
        self.expr.get(&e.id).unwrap_or_else(|| panic!("expression {:?} has no inferred type", e.id))
    }
}

/// A type error with the offending node.
#[derive(Debug, Clone)]
pub struct TypeError {
    /// Offending expression.
    pub id: ExprId,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "type error at node {:?}: {}", self.id, self.msg)
    }
}

impl std::error::Error for TypeError {}

fn err<T>(e: &Expr, msg: impl Into<String>) -> Result<T, TypeError> {
    Err(TypeError { id: e.id, msg: msg.into() })
}

/// Type-checks `root`, given that all its free parameters carry declared
/// types.
pub fn check(root: &ExprRef) -> Result<Typed, TypeError> {
    let mut t = Typed::default();
    infer(root, &mut t)?;
    Ok(t)
}

fn expect_array<'t>(
    e: &Expr,
    t: &'t Type,
    what: &str,
) -> Result<(&'t Rc<Type>, &'t ArithExpr), TypeError> {
    match t {
        Type::Array(elem, n) => Ok((elem, n)),
        other => err(e, format!("{what} expects an array, got {other}")),
    }
}

fn expect_scalar(e: &Expr, t: &Type, what: &str) -> Result<(), TypeError> {
    match t {
        Type::Scalar(_) => Ok(()),
        other => err(e, format!("{what} expects a scalar, got {other}")),
    }
}

fn infer_lambda1(f: &Lambda, arg: Type, t: &mut Typed) -> Result<Type, TypeError> {
    assert_eq!(f.params.len(), 1, "expected unary lambda");
    t.params.insert(f.params[0].id, arg);
    infer(&f.body, t)
}

fn infer(e: &ExprRef, t: &mut Typed) -> Result<Type, TypeError> {
    if let Some(ty) = t.expr.get(&e.id) {
        return Ok(ty.clone());
    }
    let ty = match &e.kind {
        ExprKind::Param(p) => match t.params.get(&p.id) {
            Some(ty) => ty.clone(),
            None => match &p.ty {
                Some(ty) => {
                    t.params.insert(p.id, ty.clone());
                    ty.clone()
                }
                None => {
                    return err(
                        e,
                        format!(
                            "parameter `{}` has no type and is not bound by an enclosing pattern",
                            p.name
                        ),
                    )
                }
            },
        },
        ExprKind::Literal(l) => Type::Scalar(l.kind),
        ExprKind::Call { f, args } => {
            if f.params.len() != args.len() {
                return err(
                    e,
                    format!("`{}` expects {} args, got {}", f.name, f.params.len(), args.len()),
                );
            }
            for a in args {
                let at = infer(a, t)?;
                expect_scalar(e, &at, &format!("argument of `{}`", f.name))?;
            }
            Type::Scalar(f.ret)
        }
        ExprKind::Tuple(parts) => {
            let mut ts = Vec::with_capacity(parts.len());
            for p in parts {
                ts.push(infer(p, t)?);
            }
            Type::Tuple(ts)
        }
        ExprKind::Get { tuple, index } => {
            let tt = infer(tuple, t)?;
            match tt {
                Type::Tuple(parts) if *index < parts.len() => parts[*index].clone(),
                Type::Tuple(parts) => {
                    return err(
                        e,
                        format!("tuple has {} components, index {index} out of range", parts.len()),
                    )
                }
                other => return err(e, format!("get expects a tuple, got {other}")),
            }
        }
        ExprKind::At { array, index } => {
            let at = infer(array, t)?;
            let it = infer(index, t)?;
            expect_scalar(e, &it, "array index")?;
            let (elem, _) = expect_array(e, &at, "at")?;
            Type::clone(elem)
        }
        ExprKind::Slice { array, start, stride: _, len } => {
            let at = infer(array, t)?;
            let st = infer(start, t)?;
            expect_scalar(e, &st, "slice start")?;
            let (elem, _) = expect_array(e, &at, "slice")?;
            Type::Array(elem.clone(), len.clone())
        }
        ExprKind::Iota { n } => Type::array(Type::i32(), n.clone()),
        ExprKind::SizeVal(_) => Type::i32(),
        ExprKind::Let { param, value, body } => {
            let vt = infer(value, t)?;
            t.params.insert(param.id, vt);
            infer(body, t)?
        }
        ExprKind::Map { f, input, .. } => {
            let it = infer(input, t)?;
            let (elem, n) = expect_array(e, &it, "map")?;
            let out = infer_lambda1(f, Type::clone(elem), t)?;
            Type::Array(Rc::new(out), n.clone())
        }
        ExprKind::Zip(parts) => {
            if parts.len() < 2 {
                return err(e, format!("zip needs at least two arrays, got {}", parts.len()));
            }
            let mut elems = Vec::with_capacity(parts.len());
            let mut len: Option<ArithExpr> = None;
            for p in parts {
                let pt = infer(p, t)?;
                let (elem, n) = expect_array(e, &pt, "zip")?;
                let first = len.get_or_insert_with(|| n.clone());
                if first != n {
                    return err(e, format!("zip length mismatch: {first} vs {n}"));
                }
                elems.push(Type::clone(elem));
            }
            Type::Array(Rc::new(Type::Tuple(elems)), len.expect("zip has two arrays"))
        }
        ExprKind::Slide { size, step, input } => {
            if *size < 1 || *step < 1 {
                return err(
                    e,
                    format!("slide needs size ≥ 1 and step ≥ 1, got size {size}, step {step}"),
                );
            }
            let it = infer(input, t)?;
            let (elem, n) = expect_array(e, &it, "slide")?;
            let windows = ArithExpr::div(n.clone() - ArithExpr::cst(*size), ArithExpr::cst(*step))
                + ArithExpr::one();
            Type::array(Type::Array(elem.clone(), ArithExpr::cst(*size)), windows)
        }
        ExprKind::Pad { left, right, kind, input } => {
            if *left < 0 || *right < 0 {
                return err(e, format!("pad amounts must be ≥ 0, got {left} and {right}"));
            }
            let it = infer(input, t)?;
            let (elem, n) = expect_array(e, &it, "pad")?;
            if matches!(kind, crate::ir::PadKind::Constant(_)) {
                let mut cell: &Type = elem;
                while let Type::Array(inner, _) = cell {
                    cell = inner;
                }
                expect_scalar(e, cell, "constant pad element")?;
            }
            Type::Array(elem.clone(), n.clone() + ArithExpr::cst(*left + *right))
        }
        ExprKind::Crop { margin, input } => {
            if *margin < 0 {
                return err(e, format!("crop margin must be ≥ 0, got {margin}"));
            }
            let it = infer(input, t)?;
            let (elem, n) = expect_array(e, &it, "crop")?;
            Type::Array(elem.clone(), n.clone() - ArithExpr::cst(2 * *margin))
        }
        ExprKind::Transpose(input) => {
            let it = infer(input, t)?;
            let Some((Type::Array(elem, m), n)) = it.elem().zip(it.len()) else {
                return err(e, format!("transpose expects an array of arrays, got {it}"));
            };
            Type::array(Type::Array(elem.clone(), n.clone()), m.clone())
        }
        ExprKind::Split { chunk, input } => {
            let it = infer(input, t)?;
            let (elem, n) = expect_array(e, &it, "split")?;
            Type::Array(
                Rc::new(Type::Array(elem.clone(), chunk.clone())),
                ArithExpr::div(n.clone(), chunk.clone()),
            )
        }
        ExprKind::Join { input } => {
            let it = infer(input, t)?;
            let (outer_elem, n) = expect_array(e, &it, "join")?;
            let (elem, m) = expect_array(e, outer_elem, "join inner")?;
            Type::Array(elem.clone(), m.clone() * n.clone())
        }
        ExprKind::ReduceSeq { f, init, input } => {
            let acc_t = infer(init, t)?;
            let it = infer(input, t)?;
            let (elem, _) = expect_array(e, &it, "reduceSeq")?;
            assert_eq!(f.params.len(), 2, "reduce lambda must be binary");
            t.params.insert(f.params[0].id, acc_t.clone());
            t.params.insert(f.params[1].id, Type::clone(elem));
            let out = infer(&f.body, t)?;
            if out != acc_t {
                return err(e, format!("reduce combinator returns {out}, accumulator is {acc_t}"));
            }
            acc_t
        }
        ExprKind::ToPrivate(inner) | ExprKind::ToLocal(inner) => infer(inner, t)?,
        ExprKind::Concat(parts) => {
            if parts.is_empty() {
                return err(e, "concat of zero arrays");
            }
            let mut elem: Option<Rc<Type>> = None;
            let mut total = ArithExpr::zero();
            for p in parts {
                let pt = infer(p, t)?;
                let (pe, n) = expect_array(e, &pt, "concat")?;
                if let Some(prev) = &elem {
                    if prev != pe {
                        return err(e, format!("concat element type mismatch: {prev} vs {pe}"));
                    }
                } else {
                    elem = Some(pe.clone());
                }
                total = total + n.clone();
            }
            Type::Array(elem.unwrap(), total)
        }
        ExprKind::Skip { len, elem } => {
            let lt = infer(len, t)?;
            expect_scalar(e, &lt, "skip length")?;
            // The type-level length of a Skip is an opaque fresh symbol; the
            // actual offset is the runtime `len` value (§IV-B of the paper:
            // Skip generates no code, it only shifts subsequent writes).
            Type::Array(Rc::new(elem.clone()), ArithExpr::var(format!("skip{}", e.id.0)))
        }
        ExprKind::ArrayCons { elem, n } => {
            let et = infer(elem, t)?;
            Type::Array(Rc::new(et), n.clone())
        }
        ExprKind::WriteTo { dest, value } => {
            let dt = infer(dest, t)?;
            let vt = infer(value, t)?;
            // The destination and value must agree on scalar kind; lengths
            // may differ symbolically (Skip lengths are opaque).
            match (dt.scalar_kind(), vt.scalar_kind()) {
                (Some(a), Some(b)) if a == b => {}
                (Some(a), Some(b)) => {
                    return err(e, format!("writeTo kind mismatch: destination {a:?}, value {b:?}"))
                }
                _ => {}
            }
            vt
        }
    };
    t.expr.insert(e.id, ty.clone());
    Ok(ty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::*;
    use crate::scalar::{Lit, SExpr, UserFun};
    use crate::types::{ScalarKind, Type};

    fn add2() -> std::rc::Rc<UserFun> {
        UserFun::new(
            "add2",
            vec![("x", ScalarKind::Real)],
            ScalarKind::Real,
            SExpr::p(0) + SExpr::real(2.0),
        )
    }

    #[test]
    fn map_over_array() {
        let p = ParamDef::typed("a", Type::array(Type::real(), "N"));
        let e = map_glb(p.to_expr(), "x", |x| call(&add2(), vec![x]));
        let t = check(&e).unwrap();
        assert_eq!(*t.of(&e), Type::array(Type::real(), "N"));
    }

    #[test]
    fn zip_mismatched_lengths_rejected() {
        let a = ParamDef::typed("a", Type::array(Type::f32(), "N"));
        let b = ParamDef::typed("b", Type::array(Type::f32(), "M"));
        let e = zip(vec![a.to_expr(), b.to_expr()]);
        assert!(check(&e).is_err());
    }

    #[test]
    fn zip_makes_tuples() {
        let a = ParamDef::typed("a", Type::array(Type::f32(), "N"));
        let b = ParamDef::typed("b", Type::array(Type::i32(), "N"));
        let e = zip(vec![a.to_expr(), b.to_expr()]);
        let t = check(&e).unwrap();
        assert_eq!(*t.of(&e), Type::array(Type::tuple(vec![Type::f32(), Type::i32()]), "N"));
    }

    #[test]
    fn slide_window_count() {
        let a = ParamDef::typed("a", Type::array(Type::f32(), 10usize));
        let e = slide(3, 1, a.to_expr());
        let t = check(&e).unwrap();
        let Type::Array(elem, n) = t.of(&e).clone() else { panic!() };
        assert_eq!(n.as_cst(), Some(8));
        assert_eq!(*elem, Type::array(Type::f32(), 3usize));
    }

    #[test]
    fn pad_grows() {
        let a = ParamDef::typed("a", Type::array(Type::f32(), "N"));
        let e = pad(1, 1, PadKind::Constant(Lit::f32(0.0)), a.to_expr());
        let t = check(&e).unwrap();
        assert_eq!(
            t.of(&e).len().unwrap(),
            &(crate::arith::ArithExpr::var("N") + crate::arith::ArithExpr::cst(2))
        );
    }

    #[test]
    fn slide3_of_pad3_restores_dims() {
        let a = ParamDef::typed("a", Type::array3(Type::real(), "Nx", "Ny", "Nz"));
        let e = slide3(3, 1, pad3(1, PadKind::Constant(Lit::real(0.0)), a.to_expr()));
        let t = check(&e).unwrap();
        let (_, nx, _, nz) = match t.of(&e) {
            Type::Array(l2, nz) => match &**l2 {
                Type::Array(l1, ny) => match &**l1 {
                    Type::Array(w, nx) => (w, nx.clone(), ny.clone(), nz.clone()),
                    _ => panic!(),
                },
                _ => panic!(),
            },
            _ => panic!(),
        };
        assert_eq!(nx, crate::arith::ArithExpr::var("Nx"));
        assert_eq!(nz, crate::arith::ArithExpr::var("Nz"));
    }

    #[test]
    fn transpose_swaps_the_outer_levels() {
        let a = ParamDef::typed("a", Type::array2(Type::real(), 4usize, 7usize));
        let e = transpose(a.to_expr());
        assert_eq!(*check(&e).unwrap().of(&e), Type::array2(Type::real(), 7usize, 4usize));
        let flat = ParamDef::typed("v", Type::array(Type::real(), 4usize));
        let err = check(&transpose(flat.to_expr())).unwrap_err();
        assert!(err.msg.contains("transpose expects an array of arrays"), "{err}");
    }

    #[test]
    fn crop3_shrinks() {
        let a = ParamDef::typed("a", Type::array3(Type::real(), 10usize, 10usize, 10usize));
        let e = crop3(1, a.to_expr());
        let t = check(&e).unwrap();
        let Type::Array(_, nz) = t.of(&e) else { panic!() };
        assert_eq!(nz.as_cst(), Some(8));
    }

    #[test]
    fn reduce_type_checks() {
        let a = ParamDef::typed("a", Type::array(Type::real(), "N"));
        let addf = UserFun::new(
            "add",
            vec![("a", ScalarKind::Real), ("b", ScalarKind::Real)],
            ScalarKind::Real,
            SExpr::p(0) + SExpr::p(1),
        );
        let e = reduce_seq(lit(Lit::real(0.0)), a.to_expr(), |acc, x| call(&addf, vec![acc, x]));
        let t = check(&e).unwrap();
        assert_eq!(*t.of(&e), Type::real());
    }

    #[test]
    fn concat_sums_lengths() {
        let a = ParamDef::typed("a", Type::array(Type::f32(), 3usize));
        let b = ParamDef::typed("b", Type::array(Type::f32(), 4usize));
        let e = concat(vec![a.to_expr(), b.to_expr()]);
        let t = check(&e).unwrap();
        assert_eq!(t.of(&e).len().unwrap().as_cst(), Some(7));
    }

    #[test]
    fn concat_rejects_mixed_elems() {
        let a = ParamDef::typed("a", Type::array(Type::f32(), 3usize));
        let b = ParamDef::typed("b", Type::array(Type::i32(), 4usize));
        assert!(check(&concat(vec![a.to_expr(), b.to_expr()])).is_err());
    }

    #[test]
    fn skip_has_opaque_length() {
        let n = ParamDef::typed("n", Type::i32());
        let e = skip(n.to_expr(), Type::f32());
        let t = check(&e).unwrap();
        let len = t.of(&e).len().unwrap().clone();
        assert!(!len.free_vars().is_empty());
    }

    #[test]
    fn in_place_concat_idiom_checks() {
        // Map(idx => WriteTo(next, Concat(Skip(idx), ArrayCons(f(next[idx]),1), Skip(N-1-idx)))) << indices
        let indices = ParamDef::typed("indices", Type::array(Type::i32(), "numB"));
        let next = ParamDef::typed("next", Type::array(Type::real(), "N"));
        let sub1 = UserFun::new(
            "restlen",
            vec![("n", ScalarKind::I32), ("i", ScalarKind::I32)],
            ScalarKind::I32,
            SExpr::p(0) - SExpr::p(1) - SExpr::int(1),
        );
        let nlit = ParamDef::typed("Ncount", Type::i32());
        let e = map_glb(indices.to_expr(), "idx", |idx| {
            let upd = call(&add2(), vec![at(next.to_expr(), idx.clone())]);
            write_to(
                next.to_expr(),
                concat(vec![
                    skip(idx.clone(), Type::real()),
                    array_cons(upd, 1usize),
                    skip(call(&sub1, vec![nlit.to_expr(), idx]), Type::real()),
                ]),
            )
        });
        let t = check(&e).unwrap();
        let Type::Array(row, n) = t.of(&e) else { panic!() };
        assert_eq!(**row, Type::array(Type::real(), t_row_len(row)));
        assert_eq!(n, &crate::arith::ArithExpr::var("numB"));
    }

    fn t_row_len(row: &Type) -> crate::arith::ArithExpr {
        row.len().unwrap().clone()
    }

    #[test]
    fn unbound_param_errors() {
        let p = ParamDef::untyped("x");
        assert!(check(&p.to_expr()).is_err());
    }

    #[test]
    fn iota_is_int_array() {
        let e = iota("MB");
        let t = check(&e).unwrap();
        assert_eq!(*t.of(&e), Type::array(Type::i32(), "MB"));
    }

    #[test]
    fn slice_length_is_given() {
        let g = ParamDef::typed("g1", Type::array(Type::real(), "S"));
        let i = ParamDef::typed("i", Type::i32());
        let e = slice(g.to_expr(), i.to_expr(), "numB", "MB");
        let t = check(&e).unwrap();
        assert_eq!(*t.of(&e), Type::array(Type::real(), "MB"));
    }
}
