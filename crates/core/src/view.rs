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
//! [`View::store`] produce the final kernel-AST load or store. Each layout
//! view handles one array level; an n-D layout is a nest of them, joined by
//! [`View::MapV`] (a `map` whose body only rearranges data) and
//! [`View::TransposeV`].

use crate::arith::ArithExpr;
use crate::ir::{PadKind, ParamId};
use crate::kast::{KExpr, KStmt, MemRef};
use crate::scalar::{BinOp, Intrinsic, Lit};
use crate::types::{ScalarKind, Type};
use std::fmt;
use std::rc::Rc;

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
    /// Zip: an access distributes to every part; the element is a tuple.
    ZipV(Vec<View>),
    /// Sliding windows: the first access selects the window, the second
    /// the element within it.
    SlideV {
        /// Underlying array view.
        base: Rc<View>,
        /// Window step.
        step: i64,
        /// The selected window's origin (scaled by `step`).
        window: Option<KExpr>,
    },
    /// Padding: an access reads `base` shifted by `left`, guarded (constant)
    /// or clamped to `[0, len)`.
    PadV {
        /// Underlying array view.
        base: Rc<View>,
        /// Pad width before index 0.
        left: i64,
        /// Unpadded length.
        len: ArithExpr,
        /// Out-of-range behaviour.
        kind: PadKind,
    },
    /// The two outer levels swapped: the first access is held until the
    /// second, then both are applied to `base` in the other order.
    TransposeV {
        /// Underlying view of at least two levels.
        base: Rc<View>,
        /// The held first index.
        first: Option<KExpr>,
    },
    /// A `map` whose body only rearranges data: element `i` is `body` with
    /// the placeholder of `param` filled by `base`'s element `i`.
    MapV {
        /// The mapped array.
        base: Rc<View>,
        /// The lambda parameter `body` stands for.
        param: ParamId,
        /// The body's view, built once around [`View::Hole`]`(param)`.
        body: Rc<View>,
    },
    /// The placeholder of a [`View::MapV`] body's parameter.
    Hole(ParamId),
    /// A tuple projection of a placeholder, applied when it is filled.
    TupleGet {
        /// The projected view.
        base: Rc<View>,
        /// Component index.
        index: usize,
    },
    /// Affine index remap over one level: element `i` reads
    /// `base[start + i*stride]`. Implements `Slice`, `Split` chunks and
    /// `Concat` offsets.
    Gather {
        /// Underlying array view.
        base: Rc<View>,
        /// Start offset.
        start: KExpr,
        /// Stride between elements.
        stride: KExpr,
    },
    /// Flattened nesting: element `i` reads `base[i / inner][i % inner]`.
    JoinV {
        /// Underlying `[[T; inner]; _]` view.
        base: Rc<View>,
        /// Inner length.
        inner: ArithExpr,
    },
    /// Chunked nesting: element `i` is the view of chunk `i`.
    SplitV {
        /// Underlying flat view.
        base: Rc<View>,
        /// Chunk length.
        chunk: ArithExpr,
    },
    /// A conditional view: when `cond` holds, reads see `fallback`,
    /// otherwise `inside`. Collapses to a C ternary.
    Guard {
        /// Out-of-range condition.
        cond: KExpr,
        /// View used when `cond` holds.
        fallback: Rc<View>,
        /// View used otherwise.
        inside: Rc<View>,
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
                    Ok(View::Mem { mem, ty: Rc::unwrap_or_clone(elem), offset })
                }
                other => {
                    Err(ViewError(format!("cannot index non-array memory view of type {other}")))
                }
            },
            View::ConstLit(l) => Ok(View::ConstLit(l)),
            View::Expr(_, _) => Err(ViewError("cannot index a scalar expression view".into())),
            View::Tuple(_) => Err(ViewError("cannot index a tuple view; project first".into())),
            View::ZipV(parts) => Ok(View::Tuple(
                parts.into_iter().map(|p| p.access(i.clone())).collect::<Result<_, _>>()?,
            )),
            View::SlideV { base, step, window: None } => {
                Ok(View::SlideV { base, step, window: Some(i * KExpr::int(step as i32)) })
            }
            View::SlideV { base, window: Some(w), .. } => own(base).access(w + i),
            View::PadV { base, left, len, kind } => {
                let l = KExpr::int(left as i32);
                let n = KExpr::from_arith(&len);
                match kind {
                    PadKind::Clamp => {
                        let shifted = i - l;
                        let low = KExpr::Call(Intrinsic::Max, vec![shifted, KExpr::int(0)]);
                        own(base).access(KExpr::Call(Intrinsic::Min, vec![low, n - KExpr::int(1)]))
                    }
                    PadKind::Constant(c) => {
                        let below = KExpr::bin(BinOp::Lt, i.clone(), l.clone());
                        let above = KExpr::bin(BinOp::Ge, i.clone(), l.clone() + n);
                        let outside = KExpr::bin(BinOp::Or, below, above);
                        Ok(match own(base).access(i - l)? {
                            // an outer level's guard of the same constant: one
                            // `||` chain, outermost level first
                            View::Guard { cond, fallback, inside } if matches!(*fallback, View::ConstLit(k) if k == c) =>
                            {
                                let cond = KExpr::bin(BinOp::Or, cond, outside);
                                View::Guard { cond, fallback, inside }
                            }
                            inside => View::Guard {
                                cond: outside,
                                fallback: Rc::new(View::ConstLit(c)),
                                inside: Rc::new(inside),
                            },
                        })
                    }
                }
            }
            View::TransposeV { base, first: None } => Ok(View::TransposeV { base, first: Some(i) }),
            View::TransposeV { base, first: Some(j) } => own(base).access(i)?.access(j),
            View::MapV { base, param, body } => own(body).fill(param, &own(base).access(i)?),
            View::Hole(_) | View::TupleGet { .. } => {
                Err(ViewError("cannot index a map body's placeholder".into()))
            }
            View::Gather { base, start, stride } => own(base).access(start + i * stride),
            View::JoinV { base, inner } => {
                let m = KExpr::from_arith(&inner);
                let outer = i.clone() / m.clone();
                let inner_i = KExpr::bin(BinOp::Rem, i, m);
                own(base).access(outer)?.access(inner_i)
            }
            View::SplitV { base, chunk } => {
                let start = i * KExpr::from_arith(&chunk);
                Ok(View::Gather { base, start, stride: KExpr::int(1) })
            }
            View::Guard { cond, fallback, inside } => Ok(View::Guard {
                cond,
                fallback: Rc::new(own(fallback).access(i.clone())?),
                inside: Rc::new(own(inside).access(i)?),
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
                fallback: Rc::new(own(fallback).tuple_get(k)?),
                inside: Rc::new(own(inside).tuple_get(k)?),
            }),
            View::Hole(_) | View::TupleGet { .. } => {
                Ok(View::TupleGet { base: Rc::new(self), index: k })
            }
            other => Err(ViewError(format!("tuple projection on non-tuple view {other:?}"))),
        }
    }

    /// This view with the placeholder of `param` replaced by `v` and the
    /// projections held on it applied.
    fn fill(self, param: ParamId, v: &View) -> Result<View, ViewError> {
        let go = |b: Rc<View>| own(b).fill(param, v).map(Rc::new);
        let all = |parts: Vec<View>| -> Result<Vec<View>, ViewError> {
            parts.into_iter().map(|p| p.fill(param, v)).collect()
        };
        Ok(match self {
            View::Hole(p) if p == param => v.clone(),
            View::TupleGet { base, index } => return own(base).fill(param, v)?.tuple_get(index),
            View::Tuple(parts) => View::Tuple(all(parts)?),
            View::ZipV(parts) => View::ZipV(all(parts)?),
            View::SlideV { base, step, window } => View::SlideV { base: go(base)?, step, window },
            View::PadV { base, left, len, kind } => View::PadV { base: go(base)?, left, len, kind },
            View::TransposeV { base, first } => View::TransposeV { base: go(base)?, first },
            View::MapV { base, param: p, body } => {
                View::MapV { base: go(base)?, param: p, body: go(body)? }
            }
            View::Gather { base, start, stride } => View::Gather { base: go(base)?, start, stride },
            View::JoinV { base, inner } => View::JoinV { base: go(base)?, inner },
            View::SplitV { base, chunk } => View::SplitV { base: go(base)?, chunk },
            View::Guard { cond, fallback, inside } => {
                View::Guard { cond, fallback: go(fallback)?, inside: go(inside)? }
            }
            leaf => leaf,
        })
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

/// The view `v` holds, cloned only where it is shared.
fn own(v: Rc<View>) -> View {
    Rc::unwrap_or_clone(v)
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
        let z = View::ZipV(vec![a, b]);
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
        let s = View::SlideV { base: Rc::new(base), step: 1, window: None };
        let w = s.access(KExpr::int(4)).unwrap();
        let v = w.access(KExpr::int(2)).unwrap();
        assert_eq!(collapsed(&v), KExpr::load(MemRef::Param(0), KExpr::int(6)));
    }

    #[test]
    fn pad_constant_guards() {
        let base = mem1d(0, 10);
        let p = View::PadV {
            base: Rc::new(base),
            left: 1,
            len: ArithExpr::cst(10),
            kind: PadKind::Constant(Lit::f32(0.0)),
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
            base: Rc::new(base),
            left: 2,
            len: ArithExpr::cst(10),
            kind: PadKind::Clamp,
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
    fn transpose_swaps_the_two_accesses() {
        // [[f32; 4]; 3] transposed: element (1, 2) reads base[2][1] = 2*4 + 1
        let t = Type::array(Type::array(Type::f32(), 4i64), 3i64);
        let v = View::TransposeV { base: Rc::new(View::mem(MemRef::Param(0), t)), first: None };
        let v = v.access(KExpr::int(1)).unwrap().access(KExpr::int(2)).unwrap();
        assert_eq!(collapsed(&v), KExpr::load(MemRef::Param(0), KExpr::int(9)));
    }

    #[test]
    fn nested_constant_pads_share_one_guard() {
        // map pad ∘ pad over [[f32; 4]; 3]: one select over `outer || inner`
        let t = Type::array(Type::array(Type::f32(), 4i64), 3i64);
        let zero = PadKind::Constant(Lit::f32(0.0));
        let pad = |base, n| View::PadV {
            base: Rc::new(base),
            left: 1,
            len: ArithExpr::cst(n),
            kind: zero,
        };
        let param = ParamId(u64::MAX);
        let rows = View::MapV {
            base: Rc::new(pad(View::mem(MemRef::Param(0), t), 3)),
            param,
            body: Rc::new(pad(View::Hole(param), 4)),
        };
        let v = rows.access(KExpr::var("i")).unwrap().access(KExpr::var("b")).unwrap();
        let KExpr::Select(cond, _, load) = v.as_scalar().unwrap() else { panic!() };
        assert!(matches!(*cond, KExpr::Bin(BinOp::Or, _, _)));
        assert!(matches!(*load, KExpr::Load { .. }), "{load:?}");
    }

    #[test]
    fn gather_applies_affine_map() {
        let base = mem1d(0, 100);
        let g =
            View::Gather { base: Rc::new(base), start: KExpr::var("i"), stride: KExpr::int(25) };
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
        let j = View::JoinV { base: Rc::new(base), inner: ArithExpr::cst(4) };
        let v = j.access(KExpr::int(6)).unwrap();
        // 6/4=1, 6%4=2 → offset 1*4+2 = 6
        assert_eq!(collapsed(&v), KExpr::load(MemRef::Param(0), KExpr::int(6)));
    }

    #[test]
    fn split_chunks() {
        let base = mem1d(0, 12);
        let s = View::SplitV { base: Rc::new(base), chunk: ArithExpr::cst(4) };
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
    fn map_view_fills_its_placeholder_per_access() {
        // map (t → (get t 1, get t 0)) (zip a b): element i's part 0 is b[i]
        let param = ParamId(u64::MAX);
        let body = View::Tuple(vec![
            View::Hole(param).tuple_get(1).unwrap(),
            View::Hole(param).tuple_get(0).unwrap(),
        ]);
        let swapped = View::MapV {
            base: Rc::new(View::ZipV(vec![mem1d(0, 8), mem1d(1, 8)])),
            param,
            body: Rc::new(body),
        };
        let first = swapped.access(gid()).unwrap().tuple_get(0).unwrap();
        assert_eq!(collapsed(&first), KExpr::load(MemRef::Param(1), gid()));
    }
}
