//! The view system: compiler-intermediate data structures capturing memory
//! access patterns (§III-A of the paper).
//!
//! A [`View`] describes *where* the data denoted by an IR expression lives
//! and how indices map onto it. Data-layout patterns (`zip`, `slide`, `pad`,
//! `split`, `join`, `crop`, the new `Concat`/`Skip` offsets, …) never
//! generate code: they only build views. When lowering reaches a scalar
//! read or write, the view chain is *collapsed* into a single indexed
//! load/store expression — e.g. the paper's
//! `TupleAccessView(0, ArrayAccessView(i, ZipView(MemView(A), MemView(B))))`
//! collapses to `A[i]`.
//!
//! Views here are consumed functionally: [`View::access`] peels one array
//! level, [`View::tuple_get`] projects a component, and [`View::as_scalar`] /
//! [`View::store`] produce the final kernel-AST load or store.

use crate::arith::ArithExpr;
use crate::ir::PadKind;
use crate::kast::{KExpr, KStmt, MemRef};
use crate::scalar::{BinOp, Intrinsic, Lit};
use crate::types::{ScalarKind, Type};
use std::fmt;

/// Error produced while collapsing a view.
#[derive(Debug, Clone)]
pub struct ViewError(pub String);

impl fmt::Display for ViewError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "view error: {}", self.0)
    }
}

impl std::error::Error for ViewError {}

/// A view of data. See the module docs.
#[derive(Clone, Debug)]
pub enum View {
    /// A value (scalar or nested array) in addressable memory, `offset`
    /// scalar elements from the start of `mem`. Layout is row-major with the
    /// innermost dimension contiguous (the paper's `z*Nx*Ny + y*Nx + x`).
    Mem {
        /// Backing memory.
        mem: MemRef,
        /// Type of the viewed value (drives strides).
        ty: Type,
        /// Linear offset in elements.
        offset: KExpr,
    },
    /// A constant broadcast over any shape (the out-of-range value of a
    /// constant `pad`).
    ConstLit(Lit),
    /// A computed scalar (e.g. an `iota` element or a `let`-bound scalar
    /// variable).
    Expr(KExpr, ScalarKind),
    /// A tuple of views (from `zip` after full access, or a `Tuple` node).
    Tuple(Vec<View>),
    /// Zip: the next `levels` accesses distribute to every part; the
    /// element is then a tuple.
    ZipV {
        /// Zipped arrays.
        parts: Vec<View>,
        /// Array levels remaining before the element tuple.
        levels: u8,
    },
    /// Sliding windows over `dims` dimensions: the first `dims` accesses
    /// select the window, the next `dims` select within the window.
    SlideV {
        /// Underlying array view.
        base: Box<View>,
        /// Window step.
        step: i64,
        /// Dimensionality (1 or 3).
        dims: u8,
        /// Collected window origins (scaled by `step`).
        ws: Vec<KExpr>,
        /// Collected in-window offsets.
        ds: Vec<KExpr>,
    },
    /// Padding over `dims` dimensions: collects `dims` indices, then guards.
    PadV {
        /// Underlying array view.
        base: Box<View>,
        /// Pad width before index 0 (per dimension).
        left: i64,
        /// Pad width after the end (per dimension).
        right: i64,
        /// Dimensionality (1 or 3).
        dims: u8,
        /// Unpadded length of each dimension, outermost first.
        lens: Vec<ArithExpr>,
        /// Out-of-range behaviour.
        kind: PadKind,
        /// Collected indices.
        idxs: Vec<KExpr>,
    },
    /// Interior view: the next `remaining` accesses are shifted by `margin`.
    CropV {
        /// Underlying array view.
        base: Box<View>,
        /// Shift per level.
        margin: i64,
        /// Levels still to shift.
        remaining: u8,
    },
    /// Affine index remap over one level: element `i` reads
    /// `base[start + i*stride]`. Implements `Slice`, `Split` chunks and
    /// `Concat` offsets.
    Gather {
        /// Underlying array view.
        base: Box<View>,
        /// Start offset.
        start: KExpr,
        /// Stride between elements.
        stride: KExpr,
    },
    /// Flattened nesting: element `i` reads `base[i / inner][i % inner]`.
    JoinV {
        /// Underlying `[[T; inner]; _]` view.
        base: Box<View>,
        /// Inner length.
        inner: ArithExpr,
    },
    /// Chunked nesting: element `i` is the view of chunk `i`.
    SplitV {
        /// Underlying flat view.
        base: Box<View>,
        /// Chunk length.
        chunk: ArithExpr,
    },
    /// A conditional view: when `cond` holds, reads see `fallback`,
    /// otherwise `inside`. Collapses to a C ternary.
    Guard {
        /// Out-of-range condition.
        cond: KExpr,
        /// View used when `cond` holds.
        fallback: Box<View>,
        /// View used otherwise.
        inside: Box<View>,
    },
    /// The `iota` array: element `i` is the value `i` itself.
    IotaV,
    /// An array whose every element is the same computed scalar (the view of
    /// `ArrayCons` in input position).
    Broadcast(KExpr, ScalarKind),
}

impl View {
    /// A memory view at offset 0.
    pub fn mem(mem: MemRef, ty: Type) -> View {
        View::Mem { mem, ty, offset: KExpr::int(0) }
    }

    /// Peels one array level at index `i`.
    pub fn access(self, i: KExpr) -> Result<View, ViewError> {
        match self {
            View::Mem { mem, ty, offset } => match ty {
                Type::Array(elem, _) => {
                    let stride = KExpr::from_arith(&elem.scalar_count());
                    let offset = offset + i * stride;
                    Ok(View::Mem { mem, ty: *elem, offset })
                }
                other => {
                    Err(ViewError(format!("cannot index non-array memory view of type {other}")))
                }
            },
            View::ConstLit(l) => Ok(View::ConstLit(l)),
            View::Expr(_, _) => Err(ViewError("cannot index a scalar expression view".into())),
            View::Tuple(_) => Err(ViewError("cannot index a tuple view; project first".into())),
            View::ZipV { parts, levels } => {
                let accessed: Result<Vec<View>, ViewError> =
                    parts.into_iter().map(|p| p.access(i.clone())).collect();
                let accessed = accessed?;
                if levels <= 1 {
                    Ok(View::Tuple(accessed))
                } else {
                    Ok(View::ZipV { parts: accessed, levels: levels - 1 })
                }
            }
            View::SlideV { base, step, dims, mut ws, mut ds } => {
                if (ws.len() as u8) < dims {
                    ws.push(i * KExpr::int(step as i32));
                    Ok(View::SlideV { base, step, dims, ws, ds })
                } else {
                    ds.push(i);
                    if (ds.len() as u8) == dims {
                        // Fully selected: apply combined indices to the base.
                        let mut v = *base;
                        for k in 0..dims as usize {
                            v = v.access(ws[k].clone() + ds[k].clone())?;
                        }
                        Ok(v)
                    } else {
                        Ok(View::SlideV { base, step, dims, ws, ds })
                    }
                }
            }
            View::PadV { base, left, right, dims, lens, kind, mut idxs } => {
                idxs.push(i);
                if (idxs.len() as u8) < dims {
                    return Ok(View::PadV { base, left, right, dims, lens, kind, idxs });
                }
                let l = KExpr::int(left as i32);
                match kind {
                    PadKind::Clamp => {
                        let mut v = *base;
                        for (k, idx) in idxs.iter().enumerate() {
                            let n = KExpr::from_arith(&lens[k]);
                            let shifted = idx.clone() - l.clone();
                            let clamped = KExpr::Call(
                                Intrinsic::Min,
                                vec![
                                    KExpr::Call(Intrinsic::Max, vec![shifted, KExpr::int(0)]),
                                    n - KExpr::int(1),
                                ],
                            );
                            v = v.access(clamped)?;
                        }
                        Ok(v)
                    }
                    PadKind::Constant(c) => {
                        // cond: any index outside [left, left + n_k)
                        let mut cond: Option<KExpr> = None;
                        let mut v = *base;
                        for (k, idx) in idxs.iter().enumerate() {
                            let n = KExpr::from_arith(&lens[k]);
                            let below = KExpr::bin(BinOp::Lt, idx.clone(), l.clone());
                            let above = KExpr::bin(BinOp::Ge, idx.clone(), l.clone() + n);
                            let outside = KExpr::bin(BinOp::Or, below, above);
                            cond = Some(match cond {
                                None => outside,
                                Some(c0) => KExpr::bin(BinOp::Or, c0, outside),
                            });
                            v = v.access(idx.clone() - l.clone())?;
                        }
                        Ok(View::Guard {
                            cond: cond.expect("pad has at least one dim"),
                            fallback: Box::new(View::ConstLit(c)),
                            inside: Box::new(v),
                        })
                    }
                }
            }
            View::CropV { base, margin, remaining } => {
                let shifted = i + KExpr::int(margin as i32);
                let b2 = base.access(shifted)?;
                if remaining <= 1 {
                    Ok(b2)
                } else {
                    Ok(View::CropV { base: Box::new(b2), margin, remaining: remaining - 1 })
                }
            }
            View::Gather { base, start, stride } => base.access(start + i * stride),
            View::JoinV { base, inner } => {
                let m = KExpr::from_arith(&inner);
                let outer = i.clone() / m.clone();
                let inner_i = KExpr::bin(BinOp::Rem, i, m);
                base.access(outer)?.access(inner_i)
            }
            View::SplitV { base, chunk } => {
                let start = i * KExpr::from_arith(&chunk);
                Ok(View::Gather { base, start, stride: KExpr::int(1) })
            }
            View::Guard { cond, fallback, inside } => Ok(View::Guard {
                cond,
                fallback: Box::new(fallback.access(i.clone())?),
                inside: Box::new(inside.access(i)?),
            }),
            View::IotaV => Ok(View::Expr(i, ScalarKind::I32)),
            View::Broadcast(e, k) => Ok(View::Expr(e, k)),
        }
    }

    /// Projects tuple component `k`.
    pub fn tuple_get(self, k: usize) -> Result<View, ViewError> {
        match self {
            View::Tuple(mut parts) => {
                if k < parts.len() {
                    Ok(parts.swap_remove(k))
                } else {
                    Err(ViewError(format!("tuple view has {} parts, wanted {k}", parts.len())))
                }
            }
            View::Guard { cond, fallback, inside } => Ok(View::Guard {
                cond,
                fallback: Box::new(fallback.tuple_get(k)?),
                inside: Box::new(inside.tuple_get(k)?),
            }),
            other => Err(ViewError(format!("tuple projection on non-tuple view {other:?}"))),
        }
    }

    /// Collapses a scalar view into a kernel expression (a load, literal,
    /// computed scalar, or guarded select thereof).
    pub fn as_scalar(&self) -> Result<KExpr, ViewError> {
        match self {
            View::Mem { mem, ty, offset } => match ty {
                Type::Scalar(_) => Ok(KExpr::load(mem.clone(), offset.clone())),
                other => Err(ViewError(format!("scalar read of non-scalar view of type {other}"))),
            },
            View::ConstLit(l) => Ok(KExpr::Lit(*l)),
            View::Expr(e, _) => Ok(e.clone()),
            View::Guard { cond, fallback, inside } => {
                Ok(KExpr::select(cond.clone(), fallback.as_scalar()?, inside.as_scalar()?))
            }
            other => Err(ViewError(format!("cannot read {other:?} as a scalar"))),
        }
    }

    /// Emits a store of `value` through this (scalar, memory-backed) view.
    pub fn store(&self, value: KExpr) -> Result<KStmt, ViewError> {
        match self {
            View::Mem { mem, ty, offset } => match ty {
                Type::Scalar(_) => {
                    Ok(KStmt::Store { mem: mem.clone(), idx: offset.clone(), value })
                }
                other => Err(ViewError(format!("store through non-scalar view of type {other}"))),
            },
            other => Err(ViewError(format!("cannot store through view {other:?}"))),
        }
    }

    /// The element count of the outermost array level, if this view is an
    /// array in memory (used to size loops over materialised views).
    pub fn array_len(&self) -> Option<ArithExpr> {
        match self {
            View::Mem { ty: Type::Array(_, n), .. } => Some(n.clone()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kast::{Kernel, KernelParam, MemRef};
    use crate::simplify::simplify_kernel;

    fn mem1d(name_idx: usize, n: i64) -> View {
        View::mem(MemRef::Param(name_idx), Type::array(Type::f32(), n))
    }

    /// The collapsed scalar read as lowering leaves it: views emit plain
    /// arithmetic and the simplifier folds it (`i`, `b` are `int`s).
    fn collapsed(v: &View) -> KExpr {
        let buf = |n: &str| KernelParam::global_buf(n, ScalarKind::F32);
        let int = |n: &str| KernelParam::scalar(n, ScalarKind::I32);
        let k = Kernel {
            name: "t".into(),
            params: vec![buf("p0"), buf("p1"), int("i"), int("b")],
            body: vec![KStmt::DeclScalar {
                name: "x".into(),
                kind: ScalarKind::F32,
                init: Some(v.as_scalar().unwrap()),
            }],
            work_dim: 1,
        };
        match simplify_kernel(&k, &Default::default()).body.pop() {
            Some(KStmt::DeclScalar { init: Some(e), .. }) => e,
            other => panic!("unexpected {other:?}"),
        }
    }

    fn gid() -> KExpr {
        KExpr::GlobalId(0)
    }

    #[test]
    fn mem_access_is_linear() {
        let v = mem1d(0, 16).access(KExpr::int(3)).unwrap();
        assert_eq!(collapsed(&v), KExpr::load(MemRef::Param(0), KExpr::int(3)));
    }

    #[test]
    fn nested_mem_access_strides() {
        // [[f32; 4]; 3] : element (z=2, x=1) is offset 2*4 + 1 = 9
        let t = Type::array(Type::array(Type::f32(), 4i64), 3i64);
        let v = View::mem(MemRef::Param(0), t)
            .access(KExpr::int(2))
            .unwrap()
            .access(KExpr::int(1))
            .unwrap();
        assert_eq!(collapsed(&v), KExpr::load(MemRef::Param(0), KExpr::int(9)));
    }

    #[test]
    fn zip_distributes_then_tuples() {
        let a = mem1d(0, 8);
        let b = mem1d(1, 8);
        let z = View::ZipV { parts: vec![a, b], levels: 1 };
        let elem = z.access(gid()).unwrap();
        let first = collapsed(&elem.clone().tuple_get(0).unwrap());
        let second = collapsed(&elem.tuple_get(1).unwrap());
        assert_eq!(first, KExpr::load(MemRef::Param(0), gid()));
        assert_eq!(second, KExpr::load(MemRef::Param(1), gid()));
    }

    #[test]
    fn slide_window_reads_shifted() {
        // slide(3,1) over [f32;10]: window w, delta d reads base[w + d]
        let base = mem1d(0, 10);
        let s = View::SlideV { base: Box::new(base), step: 1, dims: 1, ws: vec![], ds: vec![] };
        let w = s.access(KExpr::int(4)).unwrap();
        let v = w.access(KExpr::int(2)).unwrap();
        assert_eq!(collapsed(&v), KExpr::load(MemRef::Param(0), KExpr::int(6)));
    }

    #[test]
    fn pad_constant_guards() {
        let base = mem1d(0, 10);
        let p = View::PadV {
            base: Box::new(base),
            left: 1,
            right: 1,
            dims: 1,
            lens: vec![ArithExpr::cst(10)],
            kind: PadKind::Constant(Lit::f32(0.0)),
            idxs: vec![],
        };
        let v = p.access(KExpr::var("i")).unwrap();
        match v.as_scalar().unwrap() {
            KExpr::Select(_, f, _) => assert_eq!(*f, KExpr::Lit(Lit::f32(0.0))),
            other => panic!("expected select, got {other:?}"),
        }
    }

    #[test]
    fn pad_clamp_clamps() {
        let base = mem1d(0, 10);
        let p = View::PadV {
            base: Box::new(base),
            left: 2,
            right: 2,
            dims: 1,
            lens: vec![ArithExpr::cst(10)],
            kind: PadKind::Clamp,
            idxs: vec![],
        };
        let v = p.access(KExpr::var("i")).unwrap();
        // index i → min(max(i-2, 0), 9)
        match collapsed(&v) {
            KExpr::Load { idx, .. } => match *idx {
                KExpr::Call(Intrinsic::Min, _) => {}
                other => panic!("expected clamped index, got {other:?}"),
            },
            other => panic!("expected load, got {other:?}"),
        }
    }

    #[test]
    fn crop_shifts_every_level() {
        let t = Type::array(Type::array(Type::f32(), 10i64), 10i64);
        let base = View::mem(MemRef::Param(0), t);
        let c = View::CropV { base: Box::new(base), margin: 1, remaining: 2 };
        let v = c.access(KExpr::int(0)).unwrap().access(KExpr::int(0)).unwrap();
        // (0+1)*10 + (0+1) = 11
        assert_eq!(collapsed(&v), KExpr::load(MemRef::Param(0), KExpr::int(11)));
    }

    #[test]
    fn gather_applies_affine_map() {
        let base = mem1d(0, 100);
        let g =
            View::Gather { base: Box::new(base), start: KExpr::var("i"), stride: KExpr::int(25) };
        let v = g.access(KExpr::int(2)).unwrap();
        // i + 2*25 = i + 50
        match collapsed(&v) {
            KExpr::Load { idx, .. } => match *idx {
                KExpr::Bin(BinOp::Add, _, b) => assert_eq!(*b, KExpr::int(50)),
                other => panic!("unexpected index {other:?}"),
            },
            other => panic!("expected load, got {other:?}"),
        }
    }

    #[test]
    fn join_divmods() {
        let t = Type::array(Type::array(Type::f32(), 4i64), 3i64);
        let base = View::mem(MemRef::Param(0), t);
        let j = View::JoinV { base: Box::new(base), inner: ArithExpr::cst(4) };
        let v = j.access(KExpr::int(6)).unwrap();
        // 6/4=1, 6%4=2 → offset 1*4+2 = 6
        assert_eq!(collapsed(&v), KExpr::load(MemRef::Param(0), KExpr::int(6)));
    }

    #[test]
    fn split_chunks() {
        let base = mem1d(0, 12);
        let s = View::SplitV { base: Box::new(base), chunk: ArithExpr::cst(4) };
        let v = s.access(KExpr::int(2)).unwrap().access(KExpr::int(1)).unwrap();
        assert_eq!(collapsed(&v), KExpr::load(MemRef::Param(0), KExpr::int(9)));
    }

    #[test]
    fn iota_yields_its_index() {
        let v = View::IotaV.access(KExpr::var("b")).unwrap();
        assert_eq!(v.as_scalar().unwrap(), KExpr::var("b"));
    }

    #[test]
    fn store_through_mem_view() {
        let v = mem1d(0, 8).access(KExpr::var("idx")).unwrap();
        let s = v.store(KExpr::real(1.0)).unwrap();
        match s {
            KStmt::Store { mem: MemRef::Param(0), .. } => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn store_through_const_fails() {
        let v = View::ConstLit(Lit::f32(0.0));
        assert!(v.store(KExpr::real(1.0)).is_err());
    }

    #[test]
    fn slide3_reads_3d_neighbourhood() {
        // grid [[[f32;5];5];5], slide3(3,1): window (1,1,1), delta (0,1,2)
        // reads grid[1+0][1+1][1+2] = offset 1*25 + 2*5 + 3 = 38
        let t = Type::array3(Type::f32(), 5i64, 5i64, 5i64);
        let base = View::mem(MemRef::Param(0), t);
        let s = View::SlideV { base: Box::new(base), step: 1, dims: 3, ws: vec![], ds: vec![] };
        let v = s
            .access(KExpr::int(1))
            .unwrap()
            .access(KExpr::int(1))
            .unwrap()
            .access(KExpr::int(1))
            .unwrap()
            .access(KExpr::int(0))
            .unwrap()
            .access(KExpr::int(1))
            .unwrap()
            .access(KExpr::int(2))
            .unwrap();
        assert_eq!(collapsed(&v), KExpr::load(MemRef::Param(0), KExpr::int(38)));
    }
}
