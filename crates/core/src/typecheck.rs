//! Bottom-up type inference for the pattern IR.
//!
//! Kernel inputs carry declared types; lambda parameters are inferred from
//! the array the enclosing `map`/`reduce` traverses. Results live in side
//! tables keyed by [`ExprId`]/[`ParamId`] so the IR itself stays immutable.
//!
//! `map`, `zip`, `slide` and `pad` of rank `r` peel `r` array levels off
//! their input ([`array_dims`]) and nest their result as deep. A malformed
//! layout is a [`TypeError`] naming the pattern, never a panic or a
//! division by zero further down: a `zip` of fewer than two arrays, a
//! `slide` whose size or step is below 1, a negative `pad` amount, a rank
//! outside 1–3.

use crate::arith::ArithExpr;
use crate::ir::{Expr, ExprId, ExprKind, ExprRef, Lambda, ParamId};
use crate::types::Type;
use std::collections::HashMap;
use std::fmt;

/// The result of type checking: a type for every expression and parameter.
#[derive(Debug, Default, Clone)]
pub struct Typed {
    /// Expression types.
    pub expr: HashMap<ExprId, Type>,
    /// Parameter types (declared or inferred).
    pub params: HashMap<ParamId, Type>,
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
) -> Result<(&'t Type, &'t ArithExpr), TypeError> {
    match t {
        Type::Array(elem, n) => Ok((elem, n)),
        other => err(e, format!("{what} expects an array, got {other}")),
    }
}

/// Peels `rank` array levels off `t`: the element type and the lengths,
/// innermost first (`[nx, ny, nz]`); `None` when `t` has fewer levels.
pub(crate) fn array_dims(t: &Type, rank: u8) -> Option<(&Type, Vec<ArithExpr>)> {
    let mut lens = Vec::with_capacity(rank as usize);
    let mut elem = t;
    for _ in 0..rank {
        let Type::Array(inner, n) = elem else { return None };
        lens.insert(0, n.clone());
        elem = inner;
    }
    Some((elem, lens))
}

/// [`array_dims`], or a type error naming the pattern `what`.
fn expect_rank<'t>(
    e: &Expr,
    t: &'t Type,
    rank: u8,
    what: &str,
) -> Result<(&'t Type, Vec<ArithExpr>), TypeError> {
    match array_dims(t, rank) {
        Some(dims) if (1..=3).contains(&rank) => Ok(dims),
        Some(_) => err(e, format!("{what} has rank {rank}; patterns have rank 1, 2 or 3")),
        None => err(e, format!("{what} expects a rank-{rank} array, got {t}")),
    }
}

/// `elem` nested in arrays of the lengths `lens`, innermost first.
fn nest(elem: Type, lens: impl IntoIterator<Item = ArithExpr>) -> Type {
    lens.into_iter().fold(elem, |t, n| Type::Array(Box::new(t), n))
}

/// The DSL name of a pattern at `rank`: `zip`, `zip2`, `zip3`.
fn ranked(pattern: &str, rank: u8) -> String {
    if rank == 1 {
        pattern.to_string()
    } else {
        format!("{pattern}{rank}")
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
            elem.clone()
        }
        ExprKind::Slice { array, start, stride: _, len } => {
            let at = infer(array, t)?;
            let st = infer(start, t)?;
            expect_scalar(e, &st, "slice start")?;
            let (elem, _) = expect_array(e, &at, "slice")?;
            Type::Array(Box::new(elem.clone()), len.clone())
        }
        ExprKind::Iota { n } => Type::array(Type::i32(), n.clone()),
        ExprKind::SizeVal(_) => Type::i32(),
        ExprKind::Let { param, value, body } => {
            let vt = infer(value, t)?;
            t.params.insert(param.id, vt);
            infer(body, t)?
        }
        ExprKind::Map { rank, f, input, .. } => {
            let it = infer(input, t)?;
            let (elem, lens) = expect_rank(e, &it, *rank, &ranked("map", *rank))?;
            let out = infer_lambda1(f, elem.clone(), t)?;
            nest(out, lens)
        }
        ExprKind::Zip { rank, parts } => {
            let what = ranked("zip", *rank);
            if parts.len() < 2 {
                return err(e, format!("{what} needs at least two arrays, got {}", parts.len()));
            }
            let mut elems = Vec::with_capacity(parts.len());
            let mut shape: Option<Vec<ArithExpr>> = None;
            for p in parts {
                let pt = infer(p, t)?;
                let (elem, lens) = expect_rank(e, &pt, *rank, &what)?;
                let first = shape.get_or_insert_with(|| lens.clone());
                if let Some((a, b)) = first.iter().zip(&lens).find(|(a, b)| a != b) {
                    return err(e, format!("{what} length mismatch: {a} vs {b}"));
                }
                elems.push(elem.clone());
            }
            nest(Type::Tuple(elems), shape.expect("zip has two arrays"))
        }
        ExprKind::Slide { rank, size, step, input } => {
            let what = ranked("slide", *rank);
            if *size < 1 || *step < 1 {
                return err(
                    e,
                    format!("{what} needs size ≥ 1 and step ≥ 1, got size {size}, step {step}"),
                );
            }
            let it = infer(input, t)?;
            let (elem, lens) = expect_rank(e, &it, *rank, &what)?;
            let windows = lens.into_iter().map(|n| {
                ArithExpr::div(n - ArithExpr::cst(*size), ArithExpr::cst(*step)) + ArithExpr::one()
            });
            let window = nest(elem.clone(), (0..*rank).map(|_| ArithExpr::cst(*size)));
            nest(window, windows)
        }
        ExprKind::Pad { rank, left, right, kind, input } => {
            let what = ranked("pad", *rank);
            if *left < 0 || *right < 0 {
                return err(e, format!("{what} amounts must be ≥ 0, got {left} and {right}"));
            }
            let it = infer(input, t)?;
            let (elem, lens) = expect_rank(e, &it, *rank, &what)?;
            if matches!(kind, crate::ir::PadKind::Constant(_)) {
                expect_scalar(e, elem, &format!("constant {what} element"))?;
            }
            nest(elem.clone(), lens.into_iter().map(|n| n + ArithExpr::cst(*left + *right)))
        }
        ExprKind::Crop3 { margin, input } => {
            let it = infer(input, t)?;
            let (elem, lens) = expect_rank(e, &it, 3, "crop3")?;
            nest(elem.clone(), lens.into_iter().map(|n| n - ArithExpr::cst(2 * *margin)))
        }
        ExprKind::Split { chunk, input } => {
            let it = infer(input, t)?;
            let (elem, n) = expect_array(e, &it, "split")?;
            Type::Array(
                Box::new(Type::Array(Box::new(elem.clone()), chunk.clone())),
                ArithExpr::div(n.clone(), chunk.clone()),
            )
        }
        ExprKind::Join { input } => {
            let it = infer(input, t)?;
            let (outer_elem, n) = expect_array(e, &it, "join")?;
            let (elem, m) = expect_array(e, outer_elem, "join inner")?;
            Type::Array(Box::new(elem.clone()), m.clone() * n.clone())
        }
        ExprKind::ReduceSeq { f, init, input } => {
            let acc_t = infer(init, t)?;
            let it = infer(input, t)?;
            let (elem, _) = expect_array(e, &it, "reduceSeq")?;
            assert_eq!(f.params.len(), 2, "reduce lambda must be binary");
            t.params.insert(f.params[0].id, acc_t.clone());
            t.params.insert(f.params[1].id, elem.clone());
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
            let mut elem: Option<Type> = None;
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
            Type::Array(Box::new(elem.unwrap()), total)
        }
        ExprKind::Skip { len, elem } => {
            let lt = infer(len, t)?;
            expect_scalar(e, &lt, "skip length")?;
            // The type-level length of a Skip is an opaque fresh symbol; the
            // actual offset is the runtime `len` value (§IV-B of the paper:
            // Skip generates no code, it only shifts subsequent writes).
            Type::Array(Box::new(elem.clone()), ArithExpr::var(format!("skip{}", e.id.0)))
        }
        ExprKind::ArrayCons { elem, n } => {
            let et = infer(elem, t)?;
            Type::Array(Box::new(et), n.clone())
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
