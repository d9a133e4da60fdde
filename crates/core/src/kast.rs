//! The low-level kernel AST ("k-ast").
//!
//! This is the target of [`crate::lower`]: a C-like representation of one
//! OpenCL kernel — loops, guards, indexed loads/stores, local declarations.
//! It plays the role OpenCL C source plays in real LIFT, but as a structured
//! AST so that it can be both pretty-printed as OpenCL C ([`crate::opencl`])
//! and *executed* by the `vgpu` virtual device. Hand-written baseline kernels
//! (the paper's tuned OpenCL comparators) are authored directly in this AST,
//! which makes generated-vs-hand-written comparisons apples-to-apples.
//!
//! Kernels may be precision-generic: scalar kinds may be
//! [`ScalarKind::Real`], resolved against a concrete precision when the
//! kernel is printed or executed.

use crate::arith::ArithExpr;
use crate::scalar::{BinOp, Intrinsic, Lit, UnOp};
use crate::types::ScalarKind;
use std::fmt;

/// Where a kernel parameter's memory lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemSpace {
    /// `__global` device memory.
    Global,
    /// `__constant` memory — cached/broadcast; the performance model treats
    /// loads from here as register-cost (used by the hand-tuned FI-MM kernel
    /// that hard-codes its β table, per §VII-B1 of the paper).
    Constant,
    /// Private (register) memory.
    Private,
}

/// One kernel parameter.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelParam {
    /// Name in the generated source.
    pub name: String,
    /// Element kind (buffers) or value kind (scalars). May be `Real`.
    pub kind: ScalarKind,
    /// True for pointer (buffer) parameters, false for scalars such as grid
    /// dimensions or precomputed coefficients.
    pub is_buffer: bool,
    /// Address space of buffer parameters; ignored for scalars.
    pub space: MemSpace,
}

impl KernelParam {
    /// A `__global` buffer parameter.
    pub fn global_buf(name: impl Into<String>, kind: ScalarKind) -> Self {
        KernelParam { name: name.into(), kind, is_buffer: true, space: MemSpace::Global }
    }

    /// A `__constant` buffer parameter.
    pub fn constant_buf(name: impl Into<String>, kind: ScalarKind) -> Self {
        KernelParam { name: name.into(), kind, is_buffer: true, space: MemSpace::Constant }
    }

    /// A scalar (by-value) parameter.
    pub fn scalar(name: impl Into<String>, kind: ScalarKind) -> Self {
        KernelParam { name: name.into(), kind, is_buffer: false, space: MemSpace::Private }
    }
}

/// A reference to memory readable/writable from kernel code.
#[derive(Clone, Debug, PartialEq)]
pub enum MemRef {
    /// The i-th kernel parameter (must be a buffer).
    Param(usize),
    /// A private array declared with [`KStmt::DeclPrivArray`].
    Priv(String),
    /// A workgroup-shared array declared with [`KStmt::DeclLocalArray`].
    Local(String),
}

/// Kernel expressions.
#[derive(Clone, Debug, PartialEq)]
pub enum KExpr {
    /// Literal (possibly precision-generic).
    Lit(Lit),
    /// A scalar variable: a kernel scalar parameter, a declared local, or a
    /// loop variable.
    Var(String),
    /// `get_global_id(dim)`.
    GlobalId(u8),
    /// `get_global_size(dim)`.
    GlobalSize(u8),
    /// `get_local_id(dim)`.
    LocalId(u8),
    /// `get_local_size(dim)`.
    LocalSize(u8),
    /// `get_group_id(dim)`.
    GroupId(u8),
    /// Indexed load.
    Load {
        /// Source memory.
        mem: MemRef,
        /// Element index.
        idx: Box<KExpr>,
    },
    /// Binary operation.
    Bin(BinOp, Box<KExpr>, Box<KExpr>),
    /// Unary operation.
    Un(UnOp, Box<KExpr>),
    /// `cond ? a : b`.
    Select(Box<KExpr>, Box<KExpr>, Box<KExpr>),
    /// Math intrinsic call.
    Call(Intrinsic, Vec<KExpr>),
    /// C cast.
    Cast(ScalarKind, Box<KExpr>),
}

/// [`KExpr::builtin_atom`] names by builtin and NDRange dimension.
const BUILTIN_ATOMS: [[&str; 3]; 5] = [
    ["%gid0", "%gid1", "%gid2"],
    ["%gsz0", "%gsz1", "%gsz2"],
    ["%lid0", "%lid1", "%lid2"],
    ["%lsz0", "%lsz1", "%lsz2"],
    ["%grp0", "%grp1", "%grp2"],
];

impl KExpr {
    /// i32 literal.
    pub fn int(v: i32) -> KExpr {
        KExpr::Lit(Lit::i32(v))
    }

    /// Precision-generic float literal.
    pub fn real(v: f64) -> KExpr {
        KExpr::Lit(Lit::real(v))
    }

    /// Variable reference.
    pub fn var(name: impl Into<String>) -> KExpr {
        KExpr::Var(name.into())
    }

    /// Indexed load.
    pub fn load(mem: MemRef, idx: KExpr) -> KExpr {
        KExpr::Load { mem, idx: Box::new(idx) }
    }

    /// Binary op helper.
    pub fn bin(op: BinOp, a: KExpr, b: KExpr) -> KExpr {
        KExpr::Bin(op, Box::new(a), Box::new(b))
    }

    /// Ternary select helper.
    pub fn select(c: KExpr, t: KExpr, f: KExpr) -> KExpr {
        KExpr::Select(Box::new(c), Box::new(t), Box::new(f))
    }

    /// Cast helper.
    pub fn cast(kind: ScalarKind, e: KExpr) -> KExpr {
        KExpr::Cast(kind, Box::new(e))
    }

    /// The variable a work-item builtin becomes inside an [`ArithExpr`]
    /// (`%gid0`, `%lid0`, …). `%` cannot start a kernel identifier, so the
    /// atoms never collide with parameters or locals; the static verifier
    /// uses the same `%gid` spelling.
    pub(crate) fn builtin_atom(&self) -> Option<&'static str> {
        let (kind, d) = match self {
            KExpr::GlobalId(d) => (0, d),
            KExpr::GlobalSize(d) => (1, d),
            KExpr::LocalId(d) => (2, d),
            KExpr::LocalSize(d) => (3, d),
            KExpr::GroupId(d) => (4, d),
            _ => return None,
        };
        BUILTIN_ATOMS[kind].get(*d as usize).copied()
    }

    /// Inverse of [`KExpr::builtin_atom`].
    fn from_builtin_atom(name: &str) -> Option<KExpr> {
        let make =
            [KExpr::GlobalId, KExpr::GlobalSize, KExpr::LocalId, KExpr::LocalSize, KExpr::GroupId];
        BUILTIN_ATOMS
            .iter()
            .zip(make)
            .find_map(|(names, make)| names.iter().position(|n| *n == name).map(|d| make(d as u8)))
    }

    /// Converts a symbolic size/index expression into kernel code in one
    /// canonical shape, so equal expressions print (and compare) equal.
    /// Variables become [`KExpr::Var`]s, which must be bound as scalar
    /// kernel parameters or loop variables; `%` atoms become the work-item
    /// builtins they stand for.
    ///
    /// Sums put work-item-dependent terms first (widest product first), then
    /// size terms, then the constant, and subtract negative terms; products
    /// put size factors first. Index expressions of one stencil therefore
    /// share their linear base `(Nx·Ny)·z + Nx·y + x` and the plane stride
    /// `Nx·Ny` as common left sub-trees.
    pub fn from_arith(a: &ArithExpr) -> KExpr {
        use ArithExpr as A;
        fn has_atom(e: &A) -> bool {
            match e {
                A::Cst(_) => false,
                A::Var(n) => n.starts_with('%'),
                A::Sum(xs) | A::Prod(xs) => xs.iter().any(has_atom),
                A::Div(x, y) | A::Mod(x, y) | A::Min(x, y) | A::Max(x, y) => {
                    has_atom(x) || has_atom(y)
                }
            }
        }
        // (is negative, magnitude) of a sum term.
        fn split_sign(t: &A) -> (bool, A) {
            if t.coeff() < 0 {
                (true, A::zero() - t.clone())
            } else {
                (false, t.clone())
            }
        }
        match a {
            A::Cst(v) => KExpr::int(*v as i32),
            A::Var(n) => KExpr::from_builtin_atom(n).unwrap_or_else(|| KExpr::var(&**n)),
            A::Sum(ts) => {
                let mut terms: Vec<(bool, A)> = ts.iter().map(split_sign).collect();
                terms.sort_by_cached_key(|(neg, t)| {
                    let class = if t.as_cst().is_some() { 2 } else { !has_atom(t) as u8 };
                    let width = if let A::Prod(fs) = t { fs.len() } else { 1 };
                    (*neg, class, std::cmp::Reverse(width), t.clone())
                });
                let mut it = terms.iter();
                let (neg, first) = it.next().expect("non-empty sum");
                let first = KExpr::from_arith(first);
                let first = if *neg { -first } else { first };
                it.fold(first, |acc, (neg, t)| {
                    KExpr::bin(
                        if *neg { BinOp::Sub } else { BinOp::Add },
                        acc,
                        KExpr::from_arith(t),
                    )
                })
            }
            A::Prod(_) => {
                let (neg, mag) = split_sign(a);
                let prod = match &mag {
                    A::Prod(fs) => {
                        let mut fs = fs.to_vec();
                        fs.sort_by_cached_key(|f| (f.as_cst().is_some(), has_atom(f), f.clone()));
                        fs.iter()
                            .map(KExpr::from_arith)
                            .reduce(|acc, f| KExpr::bin(BinOp::Mul, acc, f))
                            .expect("non-empty product")
                    }
                    other => KExpr::from_arith(other),
                };
                if neg {
                    -prod
                } else {
                    prod
                }
            }
            A::Div(x, y) => KExpr::bin(BinOp::Div, KExpr::from_arith(x), KExpr::from_arith(y)),
            A::Mod(x, y) => KExpr::bin(BinOp::Rem, KExpr::from_arith(x), KExpr::from_arith(y)),
            A::Min(x, y) => {
                KExpr::Call(Intrinsic::Min, vec![KExpr::from_arith(x), KExpr::from_arith(y)])
            }
            A::Max(x, y) => {
                KExpr::Call(Intrinsic::Max, vec![KExpr::from_arith(x), KExpr::from_arith(y)])
            }
        }
    }

    /// Rebuilds the expression bottom-up: `f` sees every node after its
    /// children were rebuilt, left to right.
    pub fn rewrite(&self, f: &mut dyn FnMut(KExpr) -> KExpr) -> KExpr {
        let node = match self {
            KExpr::Lit(_)
            | KExpr::Var(_)
            | KExpr::GlobalId(_)
            | KExpr::GlobalSize(_)
            | KExpr::LocalId(_)
            | KExpr::LocalSize(_)
            | KExpr::GroupId(_) => self.clone(),
            KExpr::Load { mem, idx } => KExpr::load(mem.clone(), idx.rewrite(f)),
            KExpr::Bin(op, a, b) => KExpr::bin(*op, a.rewrite(f), b.rewrite(f)),
            KExpr::Un(op, a) => KExpr::Un(*op, Box::new(a.rewrite(f))),
            KExpr::Select(c, t, e) => KExpr::select(c.rewrite(f), t.rewrite(f), e.rewrite(f)),
            KExpr::Call(i, args) => KExpr::Call(*i, args.iter().map(|a| a.rewrite(f)).collect()),
            KExpr::Cast(k, a) => KExpr::cast(*k, a.rewrite(f)),
        };
        f(node)
    }

    /// Calls `f` on this node and every sub-expression, parents first.
    pub fn visit<'a>(&'a self, f: &mut dyn FnMut(&'a KExpr)) {
        f(self);
        match self {
            KExpr::Lit(_)
            | KExpr::Var(_)
            | KExpr::GlobalId(_)
            | KExpr::GlobalSize(_)
            | KExpr::LocalId(_)
            | KExpr::LocalSize(_)
            | KExpr::GroupId(_) => {}
            KExpr::Load { idx: a, .. } | KExpr::Un(_, a) | KExpr::Cast(_, a) => a.visit(f),
            KExpr::Bin(_, a, b) => {
                a.visit(f);
                b.visit(f);
            }
            KExpr::Select(c, t, e) => {
                c.visit(f);
                t.visit(f);
                e.visit(f);
            }
            KExpr::Call(_, args) => args.iter().for_each(|a| a.visit(f)),
        }
    }
}

// Operator sugar for building hand-written kernels compactly.
impl std::ops::Add for KExpr {
    type Output = KExpr;
    fn add(self, rhs: KExpr) -> KExpr {
        KExpr::bin(BinOp::Add, self, rhs)
    }
}
impl std::ops::Sub for KExpr {
    type Output = KExpr;
    fn sub(self, rhs: KExpr) -> KExpr {
        KExpr::bin(BinOp::Sub, self, rhs)
    }
}
impl std::ops::Mul for KExpr {
    type Output = KExpr;
    fn mul(self, rhs: KExpr) -> KExpr {
        KExpr::bin(BinOp::Mul, self, rhs)
    }
}
impl std::ops::Div for KExpr {
    type Output = KExpr;
    fn div(self, rhs: KExpr) -> KExpr {
        KExpr::bin(BinOp::Div, self, rhs)
    }
}
impl std::ops::Neg for KExpr {
    type Output = KExpr;
    fn neg(self) -> KExpr {
        KExpr::Un(UnOp::Neg, Box::new(self))
    }
}

/// Kernel statements.
#[derive(Clone, Debug, PartialEq)]
pub enum KStmt {
    /// `kind name = init;`
    DeclScalar {
        /// Variable name.
        name: String,
        /// Kind (may be `Real`).
        kind: ScalarKind,
        /// Optional initialiser.
        init: Option<KExpr>,
    },
    /// `kind name[len];` in private memory.
    DeclPrivArray {
        /// Array name.
        name: String,
        /// Element kind.
        kind: ScalarKind,
        /// Length (must evaluate to a launch-time constant).
        len: KExpr,
    },
    /// `__local kind name[len];` — one allocation shared by the workgroup.
    DeclLocalArray {
        /// Array name.
        name: String,
        /// Element kind.
        kind: ScalarKind,
        /// Length (launch-time constant per group).
        len: KExpr,
    },
    /// `barrier(CLK_LOCAL_MEM_FENCE);` — all work-items of the group reach
    /// this point before any proceeds. Only valid at the top statement
    /// level of a kernel (the interpreter executes groups in barrier-split
    /// phases).
    Barrier,
    /// `name = value;` for a declared scalar.
    Assign {
        /// Target variable.
        name: String,
        /// New value.
        value: KExpr,
    },
    /// `mem[idx] = value;`
    Store {
        /// Destination memory.
        mem: MemRef,
        /// Element index.
        idx: KExpr,
        /// Stored value.
        value: KExpr,
    },
    /// `for (int var = begin; var < end; var += step) { body }`
    For {
        /// Loop variable (i32).
        var: String,
        /// Inclusive start.
        begin: KExpr,
        /// Exclusive end.
        end: KExpr,
        /// Increment.
        step: KExpr,
        /// Body.
        body: Vec<KStmt>,
    },
    /// `if (cond) { then_ } else { else_ }`
    If {
        /// Condition.
        cond: KExpr,
        /// Then branch.
        then_: Vec<KStmt>,
        /// Else branch (may be empty).
        else_: Vec<KStmt>,
    },
    /// Early exit from this work-item.
    Return,
    /// Source comment (also shown by the emitter; no-op at run time).
    Comment(String),
}

impl KStmt {
    /// Guard idiom: `if (cond) return;`
    pub fn return_if(cond: KExpr) -> KStmt {
        KStmt::If { cond, then_: vec![KStmt::Return], else_: vec![] }
    }

    /// True for the guard idiom `if (cond) return;`.
    pub fn is_return_guard(&self) -> bool {
        matches!(self, KStmt::If { then_, else_, .. }
            if else_.is_empty() && matches!(then_.as_slice(), [KStmt::Return]))
    }

    /// Rebuilds the statement, nested blocks included, with `f` applied to
    /// every expression it holds (in evaluation order).
    pub fn map_exprs<'a>(&'a self, f: &mut dyn FnMut(&'a KExpr) -> KExpr) -> KStmt {
        let block = |b: &'a [KStmt], f: &mut dyn FnMut(&'a KExpr) -> KExpr| -> Vec<KStmt> {
            b.iter().map(|s| s.map_exprs(f)).collect()
        };
        match self {
            KStmt::DeclScalar { name, kind, init } => {
                KStmt::DeclScalar { name: name.clone(), kind: *kind, init: init.as_ref().map(f) }
            }
            KStmt::DeclPrivArray { name, kind, len } => {
                KStmt::DeclPrivArray { name: name.clone(), kind: *kind, len: f(len) }
            }
            KStmt::DeclLocalArray { name, kind, len } => {
                KStmt::DeclLocalArray { name: name.clone(), kind: *kind, len: f(len) }
            }
            KStmt::Assign { name, value } => KStmt::Assign { name: name.clone(), value: f(value) },
            KStmt::Store { mem, idx, value } => {
                let idx = f(idx);
                KStmt::Store { mem: mem.clone(), idx, value: f(value) }
            }
            KStmt::For { var, begin, end, step, body } => {
                let (begin, end, step) = (f(begin), f(end), f(step));
                KStmt::For { var: var.clone(), begin, end, step, body: block(body, f) }
            }
            KStmt::If { cond, then_, else_ } => {
                let cond = f(cond);
                let then_ = block(then_, f);
                KStmt::If { cond, then_, else_: block(else_, f) }
            }
            KStmt::Barrier | KStmt::Return | KStmt::Comment(_) => self.clone(),
        }
    }

    /// Calls `f` on every expression the statement holds, nested blocks
    /// included (in evaluation order).
    pub fn for_each_expr<'a>(&'a self, f: &mut dyn FnMut(&'a KExpr)) {
        match self {
            KStmt::DeclScalar { init, .. } => init.iter().for_each(f),
            KStmt::DeclPrivArray { len, .. } | KStmt::DeclLocalArray { len, .. } => f(len),
            KStmt::Assign { value, .. } => f(value),
            KStmt::Store { idx, value, .. } => {
                f(idx);
                f(value);
            }
            KStmt::For { begin, end, step, body, .. } => {
                f(begin);
                f(end);
                f(step);
                body.iter().for_each(|s| s.for_each_expr(f));
            }
            KStmt::If { cond, then_, else_ } => {
                f(cond);
                then_.iter().chain(else_).for_each(|s| s.for_each_expr(f));
            }
            KStmt::Barrier | KStmt::Return | KStmt::Comment(_) => {}
        }
    }
}

/// A complete kernel.
#[derive(Clone, Debug, PartialEq)]
pub struct Kernel {
    /// Kernel (function) name.
    pub name: String,
    /// Parameters, in call order.
    pub params: Vec<KernelParam>,
    /// Body statements.
    pub body: Vec<KStmt>,
    /// NDRange dimensionality (1–3).
    pub work_dim: u8,
}

impl Kernel {
    /// Index of the parameter with the given name.
    pub fn param_index(&self, name: &str) -> Option<usize> {
        self.params.iter().position(|p| p.name == name)
    }

    /// Returns a copy with all `Real` scalar kinds resolved to `real`.
    pub fn resolve_real(&self, real: ScalarKind) -> Kernel {
        fn resolve_decls(body: &mut [KStmt], real: ScalarKind) {
            for s in body {
                match s {
                    KStmt::DeclScalar { kind, .. }
                    | KStmt::DeclPrivArray { kind, .. }
                    | KStmt::DeclLocalArray { kind, .. } => *kind = kind.resolve_real(real),
                    KStmt::For { body, .. } => resolve_decls(body, real),
                    KStmt::If { then_, else_, .. } => {
                        resolve_decls(then_, real);
                        resolve_decls(else_, real);
                    }
                    _ => {}
                }
            }
        }
        let mut rx = |e: &KExpr| {
            e.rewrite(&mut |n| match n {
                KExpr::Lit(l) => {
                    KExpr::Lit(Lit { value: l.value, kind: l.kind.resolve_real(real) })
                }
                KExpr::Cast(k, a) => KExpr::Cast(k.resolve_real(real), a),
                other => other,
            })
        };
        let mut body: Vec<KStmt> = self.body.iter().map(|s| s.map_exprs(&mut rx)).collect();
        resolve_decls(&mut body, real);
        Kernel {
            name: self.name.clone(),
            params: self
                .params
                .iter()
                .map(|p| KernelParam { kind: p.kind.resolve_real(real), ..p.clone() })
                .collect(),
            body,
            work_dim: self.work_dim,
        }
    }

    /// Returns a copy in which every `get_global_id(dim)` is replaced by
    /// `get_global_id(dim) + offset`, renamed with `suffix` appended.
    ///
    /// This is the slab-placement rewrite for domain sharding: a kernel
    /// written against global grid coordinates is re-targeted to a
    /// sub-grid whose work-items start `offset` planes into the local
    /// allocation (e.g. one halo plane below the first owned plane). The
    /// substitution is uniform — guards comparing `get_global_id(dim)`
    /// against a size scalar shift with it, so callers must bind that
    /// scalar to the *local* extent (owned planes + halo).
    ///
    /// `offset` must not be negative: generated kernels are simplified
    /// under `get_global_id(dim) ≥ 0` (see [`crate::simplify`]), which the
    /// shifted id `get_global_id(dim) + offset` keeps satisfying only then.
    pub fn shift_gid(&self, dim: u8, offset: i32, suffix: &str) -> Kernel {
        assert!(offset >= 0, "shift_gid: a negative offset would break the id ≥ 0 fact");
        let mut sx = |e: &KExpr| {
            e.rewrite(&mut |n| match n {
                KExpr::GlobalId(d) if d == dim => KExpr::GlobalId(dim) + KExpr::int(offset),
                other => other,
            })
        };
        Kernel {
            name: format!("{}{suffix}", self.name),
            params: self.params.clone(),
            body: self.body.iter().map(|s| s.map_exprs(&mut sx)).collect(),
            work_dim: self.work_dim,
        }
    }
}

impl fmt::Display for Kernel {
    /// Debug display: name, arity and work dimension. Full source comes from
    /// [`crate::opencl::emit_kernel`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "kernel {}({} params, {}D)", self.name, self.params.len(), self.work_dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith::ArithExpr;

    #[test]
    fn from_arith_builds_equivalent_tree() {
        let a = (ArithExpr::var("z") * ArithExpr::var("Nx")) + ArithExpr::var("x");
        let k = KExpr::from_arith(&a);
        match k {
            KExpr::Bin(BinOp::Add, _, _) => {}
            other => panic!("expected add at root, got {other:?}"),
        }
    }

    #[test]
    fn resolve_real_rewrites_decls_and_lits() {
        let k = Kernel {
            name: "t".into(),
            params: vec![KernelParam::global_buf("a", ScalarKind::Real)],
            body: vec![KStmt::DeclScalar {
                name: "x".into(),
                kind: ScalarKind::Real,
                init: Some(KExpr::real(1.0)),
            }],
            work_dim: 1,
        };
        let r = k.resolve_real(ScalarKind::F64);
        assert_eq!(r.params[0].kind, ScalarKind::F64);
        match &r.body[0] {
            KStmt::DeclScalar { kind, init: Some(KExpr::Lit(l)), .. } => {
                assert_eq!(*kind, ScalarKind::F64);
                assert_eq!(l.kind, ScalarKind::F64);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn param_index_finds_by_name() {
        let k = Kernel {
            name: "t".into(),
            params: vec![
                KernelParam::global_buf("a", ScalarKind::F32),
                KernelParam::scalar("n", ScalarKind::I32),
            ],
            body: vec![],
            work_dim: 1,
        };
        assert_eq!(k.param_index("n"), Some(1));
        assert_eq!(k.param_index("zz"), None);
    }

    #[test]
    fn shift_gid_rewrites_only_target_dim() {
        let k = Kernel {
            name: "t".into(),
            params: vec![KernelParam::global_buf("a", ScalarKind::F32)],
            body: vec![KStmt::Store {
                mem: MemRef::Param(0),
                idx: KExpr::GlobalId(2) * KExpr::int(4) + KExpr::GlobalId(0),
                value: KExpr::real(0.0),
            }],
            work_dim: 3,
        };
        let s = k.shift_gid(2, 1, "_slab");
        assert_eq!(s.name, "t_slab");
        let KStmt::Store { idx, .. } = &s.body[0] else { panic!() };
        // gid2 occurrences become (gid2 + 1); gid0 is untouched.
        let shifted = KExpr::bin(BinOp::Add, KExpr::GlobalId(2), KExpr::int(1)) * KExpr::int(4)
            + KExpr::GlobalId(0);
        assert_eq!(*idx, shifted);
    }

    #[test]
    fn return_if_shape() {
        let s = KStmt::return_if(KExpr::int(1));
        match s {
            KStmt::If { then_, else_, .. } => {
                assert_eq!(then_, vec![KStmt::Return]);
                assert!(else_.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
