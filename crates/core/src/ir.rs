//! The LIFT pattern IR with the paper's extensions.
//!
//! Programs are trees of data-parallel patterns (`map`, `zip`, `slide`,
//! `pad`, `reduceSeq`, …) over typed arrays, with scalar computation
//! delegated to [`UserFun`]s. On top of the classic LIFT patterns this IR
//! carries the primitives added by the paper (§IV, Table I):
//!
//! * [`ExprKind::WriteTo`] — redirect an expression's output to existing
//!   memory (in-place updates);
//! * [`ExprKind::Concat`] / [`ExprKind::Skip`] / [`ExprKind::ArrayCons`] —
//!   the in-place scatter idiom `Concat(Skip(idx), f(x), Skip(rest))`;
//! * host-side orchestration (`ToGPU`, `ToHost`, `OclKernel`) lives in
//!   [`crate::host`].
//!
//! `map`, `zip`, `slide`, `pad` and `crop` descend one array level, as in
//! LIFT; their 2-D and 3-D builders (`map3_glb`, `zip2`, `slide3`, `pad3`,
//! `crop3`, …) build LIFT's compositions of them with [`transpose`]
//! (`map2 f = map (map f)`, `pad2 = map pad ∘ pad`,
//! `slide2 = map transpose ∘ slide ∘ map slide`), which lowering turns
//! back into one n-D view and NDRange. Walks over a node's
//! children go through [`ExprKind::map_children`] and
//! [`ExprKind::for_each_child`], so a pass spells out only the variants it
//! treats specially.
//!
//! Each node carries a unique [`ExprId`]; analysis passes (type checking,
//! views, memory) attach results in side tables keyed by id, mirroring how
//! LIFT decorates its IR.

use crate::arith::ArithExpr;
use crate::scalar::{Lit, UserFun};
use crate::types::Type;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

/// Unique id of an expression node.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ExprId(pub u64);

/// Unique id of a parameter binder.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ParamId(pub u64);

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn fresh() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// A parameter binder: a kernel input (with a declared type) or a lambda
/// parameter (type inferred by [`crate::typecheck`]).
#[derive(Debug)]
pub struct ParamDef {
    /// Unique id.
    pub id: ParamId,
    /// Display name (also used in generated code where possible).
    pub name: String,
    /// Declared type; `None` for inferred lambda parameters.
    pub ty: Option<Type>,
}

impl ParamDef {
    /// A typed (kernel input) parameter.
    pub fn typed(name: impl Into<String>, ty: Type) -> Rc<ParamDef> {
        Rc::new(ParamDef { id: ParamId(fresh()), name: name.into(), ty: Some(ty) })
    }

    /// An untyped (lambda) parameter.
    pub fn untyped(name: impl Into<String>) -> Rc<ParamDef> {
        Rc::new(ParamDef { id: ParamId(fresh()), name: name.into(), ty: None })
    }

    /// An expression referencing this parameter.
    pub fn to_expr(self: &Rc<ParamDef>) -> ExprRef {
        Expr::new(ExprKind::Param(self.clone()))
    }
}

/// A unary or binary (or n-ary) lambda used by `map` / `reduce`.
#[derive(Clone, Debug)]
pub struct Lambda {
    /// Bound parameters.
    pub params: Vec<Rc<ParamDef>>,
    /// Body.
    pub body: ExprRef,
}

impl Lambda {
    /// One-parameter lambda built from a Rust closure.
    pub fn unary(name: &str, f: impl FnOnce(ExprRef) -> ExprRef) -> Lambda {
        let p = ParamDef::untyped(name);
        let body = f(p.to_expr());
        Lambda { params: vec![p], body }
    }

    /// Two-parameter lambda.
    pub fn binary(a: &str, b: &str, f: impl FnOnce(ExprRef, ExprRef) -> ExprRef) -> Lambda {
        let pa = ParamDef::untyped(a);
        let pb = ParamDef::untyped(b);
        let body = f(pa.to_expr(), pb.to_expr());
        Lambda { params: vec![pa, pb], body }
    }
}

/// How a `map` executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MapKind {
    /// Parallel over the global NDRange (one work-item per element).
    Glb,
    /// Sequential loop inside one work-item.
    Seq,
    /// Parallel over workgroups (one group per element; the element is
    /// usually a `split` chunk or a `slide` tile).
    Wrg,
    /// Parallel over the work-items of one group (one local item per
    /// element). Must appear inside a `Wrg` map.
    Lcl,
}

/// Out-of-range behaviour of `pad`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PadKind {
    /// Reads outside the array yield this constant.
    Constant(Lit),
    /// Reads outside clamp to the nearest edge element.
    Clamp,
}

/// Reference-counted expression node.
pub type ExprRef = Rc<Expr>;

/// An IR expression.
#[derive(Debug)]
pub struct Expr {
    /// Unique node id (side tables key on this).
    pub id: ExprId,
    /// Node payload.
    pub kind: ExprKind,
}

impl Expr {
    /// Allocates a node with a fresh id.
    pub fn new(kind: ExprKind) -> ExprRef {
        Rc::new(Expr { id: ExprId(fresh()), kind })
    }
}

/// Expression payloads.
#[derive(Clone, Debug)]
pub enum ExprKind {
    /// Reference to a bound parameter.
    Param(Rc<ParamDef>),
    /// Scalar literal.
    Literal(Lit),
    /// Application of a scalar user function to scalar arguments.
    Call {
        /// The function.
        f: Rc<UserFun>,
        /// Scalar arguments.
        args: Vec<ExprRef>,
    },
    /// Tuple construction.
    Tuple(Vec<ExprRef>),
    /// Tuple projection.
    Get {
        /// A tuple-typed expression.
        tuple: ExprRef,
        /// Component index.
        index: usize,
    },
    /// Dynamic gather: `array[index]` with a runtime scalar index. This is
    /// the paper's `ArrayAccess` (Listing 7, lines 8–10).
    At {
        /// Array to read.
        array: ExprRef,
        /// i32 index expression.
        index: ExprRef,
    },
    /// Strided window: elements `array[start + k*stride]` for `k in 0..len`.
    /// Used by FD-MM for the per-branch boundary state laid out as
    /// `state[b*numBoundaryPoints + i]`.
    Slice {
        /// Array to window.
        array: ExprRef,
        /// Runtime scalar start index.
        start: ExprRef,
        /// Static stride.
        stride: ArithExpr,
        /// Static length.
        len: ArithExpr,
    },
    /// The array `[0, 1, …, n-1] : [int; n]`.
    Iota {
        /// Length.
        n: ArithExpr,
    },
    /// A symbolic size as a runtime i32 value (e.g. the grid point count `N`
    /// needed to compute a trailing `Skip` length `N - 1 - idx`).
    SizeVal(ArithExpr),
    /// `let param = value in body`.
    Let {
        /// Binder.
        param: Rc<ParamDef>,
        /// Bound value (scalar, or an array forced with [`ExprKind::ToPrivate`]).
        value: ExprRef,
        /// Body.
        body: ExprRef,
    },
    /// Map over the elements of an array.
    Map {
        /// Parallel or sequential.
        kind: MapKind,
        /// Element function.
        f: Lambda,
        /// Input array.
        input: ExprRef,
    },
    /// Element-wise zip of equal-length arrays, at least two.
    Zip(Vec<ExprRef>),
    /// Sliding windows of `size` every `step`.
    Slide {
        /// Window size.
        size: i64,
        /// Step between windows.
        step: i64,
        /// Input array.
        input: ExprRef,
    },
    /// Enlarges an array by `left`/`right` virtual elements.
    Pad {
        /// Elements added before index 0.
        left: i64,
        /// Elements added after the end.
        right: i64,
        /// What out-of-range reads yield.
        kind: PadKind,
        /// Input array.
        input: ExprRef,
    },
    /// Drops `margin` elements from each end of an array (the dual of a
    /// [`ExprKind::Pad`] by `margin`; selects the interior of a grid with halo).
    Crop {
        /// Elements dropped at each end.
        margin: i64,
        /// Input array.
        input: ExprRef,
    },
    /// Swaps the two outer levels of an array, `[[T; m]; n]` → `[[T; n]; m]`.
    Transpose(ExprRef),
    /// Splits a 1-D array into chunks of `chunk`.
    Split {
        /// Chunk length.
        chunk: ArithExpr,
        /// Input array.
        input: ExprRef,
    },
    /// Flattens one level of nesting.
    Join {
        /// Input `[[T; m]; n]`.
        input: ExprRef,
    },
    /// Sequential reduction.
    ReduceSeq {
        /// Binary combinator `(acc, x) -> acc`.
        f: Lambda,
        /// Initial accumulator.
        init: ExprRef,
        /// Input array.
        input: ExprRef,
    },
    /// Materialises an array value into private (register) memory so it can
    /// be read repeatedly (LIFT's `toPrivate`).
    ToPrivate(ExprRef),
    /// Materialises an array into workgroup-shared local memory, loaded
    /// cooperatively by the group's work-items and followed by a barrier
    /// (LIFT's `toLocal`). Only valid inside a `Wrg` map.
    ToLocal(ExprRef),
    /// Concatenation of arrays (new primitive, Table I).
    Concat(Vec<ExprRef>),
    /// A length-`len` array that generates **no code**; it only offsets
    /// subsequent writes inside a [`ExprKind::Concat`] (new primitive,
    /// Table I). `len` is a runtime scalar.
    Skip {
        /// Runtime length (i32).
        len: ExprRef,
        /// Element type of the virtual array.
        elem: Type,
    },
    /// `n` copies of a single element (new primitive, Table I).
    ArrayCons {
        /// The element.
        elem: ExprRef,
        /// Repetition count.
        n: ArithExpr,
    },
    /// Redirects where `value` is written (new primitive, Table I): `dest`
    /// must denote existing memory (a parameter, `At(param, i)`, a `Slice`,
    /// or a `Crop`). No output buffer is allocated for `value`.
    WriteTo {
        /// Destination memory view.
        dest: ExprRef,
        /// The value to compute and store there.
        value: ExprRef,
    },
}

impl ExprKind {
    /// Calls `f` on every child slot — operands and lambda bodies, in field
    /// order. The one place that knows where each variant keeps its
    /// children: every tree walk goes through [`ExprKind::map_children`] or
    /// [`ExprKind::for_each_child`].
    fn children_mut(&mut self, mut f: impl FnMut(&mut ExprRef)) {
        use ExprKind::*;
        match self {
            Param(_) | Literal(_) | Iota { .. } | SizeVal(_) => {}
            Call { args: xs, .. } | Tuple(xs) | Zip(xs) | Concat(xs) => xs.iter_mut().for_each(f),
            Get { tuple: x, .. }
            | Slide { input: x, .. }
            | Pad { input: x, .. }
            | Crop { input: x, .. }
            | Transpose(x)
            | Split { input: x, .. }
            | Join { input: x }
            | ToPrivate(x)
            | ToLocal(x)
            | Skip { len: x, .. }
            | ArrayCons { elem: x, .. } => f(x),
            At { array: a, index: b }
            | Slice { array: a, start: b, .. }
            | Let { value: a, body: b, .. }
            | Map { f: Lambda { body: a, .. }, input: b, .. }
            | WriteTo { dest: a, value: b } => {
                f(a);
                f(b);
            }
            ReduceSeq { f: lambda, init, input } => {
                f(&mut lambda.body);
                f(init);
                f(input);
            }
        }
    }

    /// A copy of this node with every child `c` replaced by `go(c)`.
    pub fn map_children(&self, mut go: impl FnMut(&ExprRef) -> ExprRef) -> ExprKind {
        let mut kind = self.clone();
        kind.children_mut(|c| *c = go(c));
        kind
    }

    /// Calls `f` on every child, in the order [`ExprKind::map_children`]
    /// visits them. It walks a copy, so that one listing serves both walks;
    /// the copy shares every subtree (`Rc`).
    pub fn for_each_child(&self, mut f: impl FnMut(&ExprRef)) {
        self.clone().children_mut(|c| f(c));
    }
}

// ---------------------------------------------------------------------------
// Builder functions
// ---------------------------------------------------------------------------

/// Scalar literal expression.
pub fn lit(l: Lit) -> ExprRef {
    Expr::new(ExprKind::Literal(l))
}

/// Apply a user function to scalar arguments.
pub fn call(f: &Rc<UserFun>, args: Vec<ExprRef>) -> ExprRef {
    Expr::new(ExprKind::Call { f: f.clone(), args })
}

/// Tuple constructor.
pub fn tuple(parts: Vec<ExprRef>) -> ExprRef {
    Expr::new(ExprKind::Tuple(parts))
}

/// Tuple projection.
pub fn get(t: ExprRef, index: usize) -> ExprRef {
    Expr::new(ExprKind::Get { tuple: t, index })
}

/// Dynamic array access `array[index]`.
pub fn at(array: ExprRef, index: ExprRef) -> ExprRef {
    Expr::new(ExprKind::At { array, index })
}

/// Strided window into `array`.
pub fn slice(
    array: ExprRef,
    start: ExprRef,
    stride: impl Into<ArithExpr>,
    len: impl Into<ArithExpr>,
) -> ExprRef {
    Expr::new(ExprKind::Slice { array, start, stride: stride.into(), len: len.into() })
}

/// Index array `[0..n)`.
pub fn iota(n: impl Into<ArithExpr>) -> ExprRef {
    Expr::new(ExprKind::Iota { n: n.into() })
}

/// A symbolic size as a runtime i32 scalar.
pub fn size_val(n: impl Into<ArithExpr>) -> ExprRef {
    Expr::new(ExprKind::SizeVal(n.into()))
}

/// `let`-binding.
pub fn let_in(name: &str, value: ExprRef, body: impl FnOnce(ExprRef) -> ExprRef) -> ExprRef {
    let p = ParamDef::untyped(name);
    let b = body(p.to_expr());
    Expr::new(ExprKind::Let { param: p, value, body: b })
}

/// Map of kind `kind` applying `f`.
pub fn map(kind: MapKind, input: ExprRef, f: Lambda) -> ExprRef {
    Expr::new(ExprKind::Map { kind, f, input })
}

/// Parallel map over a 1-D array.
pub fn map_glb(input: ExprRef, name: &str, f: impl FnOnce(ExprRef) -> ExprRef) -> ExprRef {
    map(MapKind::Glb, input, Lambda::unary(name, f))
}

/// Sequential map over a 1-D array.
pub fn map_seq(input: ExprRef, name: &str, f: impl FnOnce(ExprRef) -> ExprRef) -> ExprRef {
    map(MapKind::Seq, input, Lambda::unary(name, f))
}

/// Parallel map over the elements of a 2-D array: `map_glb (map_glb f)`.
pub fn map2_glb(input: ExprRef, name: &str, f: impl FnOnce(ExprRef) -> ExprRef) -> ExprRef {
    map_glb(input, "row", |row| map_glb(row, name, f))
}

/// Parallel map over the elements of a 3-D array.
pub fn map3_glb(input: ExprRef, name: &str, f: impl FnOnce(ExprRef) -> ExprRef) -> ExprRef {
    map_glb(input, "plane", |plane| map2_glb(plane, name, f))
}

/// Zip of 1-D arrays.
pub fn zip(parts: Vec<ExprRef>) -> ExprRef {
    Expr::new(ExprKind::Zip(parts))
}

/// `map inner ∘ zip`: the zip of `parts` with each element's components
/// zipped again by `inner`.
fn zip_rows(parts: Vec<ExprRef>, inner: fn(Vec<ExprRef>) -> ExprRef) -> ExprRef {
    let n = parts.len();
    map_seq(zip(parts), "t", |t| inner((0..n).map(|k| get(t.clone(), k)).collect()))
}

/// Zip of 2-D arrays: `map zip ∘ zip`.
pub fn zip2(parts: Vec<ExprRef>) -> ExprRef {
    zip_rows(parts, zip)
}

/// Zip of 3-D arrays: `map zip2 ∘ zip`.
pub fn zip3(parts: Vec<ExprRef>) -> ExprRef {
    zip_rows(parts, zip2)
}

/// 1-D sliding windows.
pub fn slide(size: i64, step: i64, input: ExprRef) -> ExprRef {
    Expr::new(ExprKind::Slide { size, step, input })
}

/// 2-D sliding windows, windows outside and neighbourhoods inside:
/// `map transpose ∘ slide ∘ map slide`.
pub fn slide2(size: i64, step: i64, input: ExprRef) -> ExprRef {
    let rows = map_seq(input, "row", |row| slide(size, step, row));
    map_seq(slide(size, step, rows), "w", transpose)
}

/// 3-D sliding windows: `map (map transpose ∘ transpose) ∘ slide ∘ map slide2`.
pub fn slide3(size: i64, step: i64, input: ExprRef) -> ExprRef {
    let planes = map_seq(input, "plane", |plane| slide2(size, step, plane));
    map_seq(slide(size, step, planes), "w", |w| map_seq(transpose(w), "t", transpose))
}

/// 1-D pad.
pub fn pad(left: i64, right: i64, kind: PadKind, input: ExprRef) -> ExprRef {
    Expr::new(ExprKind::Pad { left, right, kind, input })
}

/// 2-D pad by `amount` on every side: `map pad ∘ pad`.
pub fn pad2(amount: i64, kind: PadKind, input: ExprRef) -> ExprRef {
    let rows = pad(amount, amount, kind, input);
    map_seq(rows, "row", |row| pad(amount, amount, kind, row))
}

/// 3-D pad by `amount` on every side: `map pad2 ∘ pad`.
pub fn pad3(amount: i64, kind: PadKind, input: ExprRef) -> ExprRef {
    map_seq(pad(amount, amount, kind, input), "plane", |plane| pad2(amount, kind, plane))
}

/// 1-D crop by `margin` at each end.
pub fn crop(margin: i64, input: ExprRef) -> ExprRef {
    Expr::new(ExprKind::Crop { margin, input })
}

/// 3-D crop (interior view): `map (map crop ∘ crop) ∘ crop`.
pub fn crop3(margin: i64, input: ExprRef) -> ExprRef {
    map_seq(crop(margin, input), "plane", |p| {
        map_seq(crop(margin, p), "row", |row| crop(margin, row))
    })
}

/// Swaps the two outer levels of an array.
pub fn transpose(input: ExprRef) -> ExprRef {
    Expr::new(ExprKind::Transpose(input))
}

/// Split into chunks.
pub fn split(chunk: impl Into<ArithExpr>, input: ExprRef) -> ExprRef {
    Expr::new(ExprKind::Split { chunk: chunk.into(), input })
}

/// Flatten one nesting level.
pub fn join(input: ExprRef) -> ExprRef {
    Expr::new(ExprKind::Join { input })
}

/// Sequential reduction.
pub fn reduce_seq(
    init: ExprRef,
    input: ExprRef,
    f: impl FnOnce(ExprRef, ExprRef) -> ExprRef,
) -> ExprRef {
    Expr::new(ExprKind::ReduceSeq { f: Lambda::binary("acc", "x", f), init, input })
}

/// Materialise into private memory.
pub fn to_private(input: ExprRef) -> ExprRef {
    Expr::new(ExprKind::ToPrivate(input))
}

/// Materialise into workgroup-local memory (cooperative load + barrier).
pub fn to_local(input: ExprRef) -> ExprRef {
    Expr::new(ExprKind::ToLocal(input))
}

/// Concatenate arrays (new primitive).
pub fn concat(parts: Vec<ExprRef>) -> ExprRef {
    Expr::new(ExprKind::Concat(parts))
}

/// Virtual skip array (new primitive).
pub fn skip(len: ExprRef, elem: Type) -> ExprRef {
    Expr::new(ExprKind::Skip { len, elem })
}

/// Repeated-element array (new primitive).
pub fn array_cons(elem: ExprRef, n: impl Into<ArithExpr>) -> ExprRef {
    Expr::new(ExprKind::ArrayCons { elem, n: n.into() })
}

/// In-place write redirection (new primitive).
pub fn write_to(dest: ExprRef, value: ExprRef) -> ExprRef {
    Expr::new(ExprKind::WriteTo { dest, value })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Type;

    #[test]
    fn fresh_ids_are_unique() {
        let a = lit(Lit::i32(0));
        let b = lit(Lit::i32(0));
        assert_ne!(a.id, b.id);
    }

    #[test]
    fn lambda_unary_binds_its_param() {
        let l = Lambda::unary("x", |x| x);
        match &l.body.kind {
            ExprKind::Param(p) => assert_eq!(p.id, l.params[0].id),
            other => panic!("unexpected body {other:?}"),
        }
    }

    #[test]
    fn typed_param_roundtrip() {
        let p = ParamDef::typed("grid", Type::array(Type::real(), "N"));
        let e = p.to_expr();
        match &e.kind {
            ExprKind::Param(q) => {
                assert_eq!(q.name, "grid");
                assert!(q.ty.is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn zip_builder_of_one_array_fails_typecheck() {
        let p = ParamDef::typed("a", Type::array(Type::f32(), "N"));
        let e = crate::typecheck::check(&zip(vec![p.to_expr()])).unwrap_err();
        assert!(e.msg.contains("zip needs at least two arrays"), "{e}");
    }

    #[test]
    fn children_are_visited_and_rebuilt_in_field_order() {
        let a = ParamDef::typed("a", Type::array(Type::f32(), 8usize));
        let i = lit(Lit::i32(2));
        let e = at(a.to_expr(), i.clone());
        let mut seen = Vec::new();
        e.kind.for_each_child(|c| seen.push(c.id));
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[1], i.id);
        let rebuilt =
            e.kind.map_children(|c| if c.id == i.id { lit(Lit::i32(3)) } else { c.clone() });
        let ExprKind::At { array, index } = rebuilt else { panic!() };
        assert_eq!(array.id, seen[0]);
        assert!(matches!(index.kind, ExprKind::Literal(l) if l == Lit::i32(3)));
    }

    #[test]
    fn builders_construct_expected_kinds() {
        let p = ParamDef::typed("a", Type::array(Type::f32(), 8usize));
        let e = map_glb(p.to_expr(), "x", |x| x);
        assert!(matches!(e.kind, ExprKind::Map { kind: MapKind::Glb, .. }));
        let s = slide(3, 1, p.to_expr());
        assert!(matches!(s.kind, ExprKind::Slide { size: 3, step: 1, .. }));
        // pad3 = map (map pad ∘ pad) ∘ pad
        let q = ParamDef::typed("g", Type::array3(Type::f32(), 4usize, 4usize, 4usize));
        let p3 = pad3(1, PadKind::Clamp, q.to_expr());
        let ExprKind::Map { f, input, .. } = &p3.kind else { panic!() };
        assert!(matches!(input.kind, ExprKind::Pad { left: 1, right: 1, .. }));
        let ExprKind::Map { input, .. } = &f.body.kind else { panic!() };
        assert!(matches!(input.kind, ExprKind::Pad { .. }));
        // slide2 = map transpose ∘ slide ∘ map slide
        let s2 = slide2(3, 1, q.to_expr());
        let ExprKind::Map { f, input, .. } = &s2.kind else { panic!() };
        assert!(matches!(f.body.kind, ExprKind::Transpose(_)));
        let ExprKind::Slide { input, .. } = &input.kind else { panic!() };
        assert!(matches!(input.kind, ExprKind::Map { .. }));
    }
}
