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

/// The children of a [`KExpr`], for [`KExpr::children`] and
/// [`KExpr::children_mut`]: `$f` is called on each, left to right.
macro_rules! expr_children {
    ($e:expr, $f:ident) => {
        match $e {
            KExpr::Lit(_)
            | KExpr::Var(_)
            | KExpr::GlobalId(_)
            | KExpr::GlobalSize(_)
            | KExpr::LocalId(_)
            | KExpr::LocalSize(_)
            | KExpr::GroupId(_) => {}
            KExpr::Load { idx: a, .. } | KExpr::Un(_, a) | KExpr::Cast(_, a) => $f(a),
            KExpr::Bin(_, a, b) => {
                $f(a);
                $f(b);
            }
            KExpr::Select(c, t, e) => {
                $f(c);
                $f(t);
                $f(e);
            }
            KExpr::Call(_, args) => {
                for a in args {
                    $f(a)
                }
            }
        }
    };
}

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

    /// Calls `f` on each child of this node, left to right. With
    /// [`KExpr::children_mut`], the one listing of the expression shape:
    /// every generic walk goes through it.
    pub fn children<'a>(&'a self, mut f: impl FnMut(&'a KExpr)) {
        expr_children!(self, f)
    }

    /// [`KExpr::children`] of a node that may be changed in place.
    pub fn children_mut(&mut self, mut f: impl FnMut(&mut KExpr)) {
        expr_children!(self, f)
    }

    /// Rebuilds the expression bottom-up: `f` sees every node after its
    /// children were rebuilt, left to right.
    pub fn rewrite(&self, f: &mut dyn FnMut(KExpr) -> KExpr) -> KExpr {
        fn go(e: &mut KExpr, f: &mut dyn FnMut(KExpr) -> KExpr) {
            e.children_mut(|c| go(c, f));
            *e = f(std::mem::replace(e, KExpr::GlobalId(0)));
        }
        let mut out = self.clone();
        go(&mut out, f);
        out
    }

    /// Calls `f` on this node and every sub-expression, parents first.
    pub fn visit<'a>(&'a self, f: &mut dyn FnMut(&'a KExpr)) {
        f(self);
        self.children(|c| c.visit(f));
    }

    /// [`KExpr::visit`] in place: `f` may replace a node, and the walk goes
    /// on into the children of what `f` left there.
    pub fn visit_mut(&mut self, f: &mut dyn FnMut(&mut KExpr)) {
        f(self);
        self.children_mut(|c| c.visit_mut(f));
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

/// A child of a [`KStmt`]: an expression it evaluates or a block it runs.
pub enum Child<E, B> {
    /// An expression.
    Expr(E),
    /// A nested block.
    Block(B),
}

/// The children of a [`KStmt`], for [`KStmt::children`] and
/// [`KStmt::children_mut`]: `$f` is called on each, expressions first, in
/// evaluation order.
macro_rules! stmt_children {
    ($s:expr, $f:ident) => {
        match $s {
            KStmt::DeclScalar { init, .. } => {
                if let Some(e) = init {
                    $f(Child::Expr(e));
                }
            }
            KStmt::DeclPrivArray { len: e, .. }
            | KStmt::DeclLocalArray { len: e, .. }
            | KStmt::Assign { value: e, .. } => $f(Child::Expr(e)),
            KStmt::Store { idx, value, .. } => {
                $f(Child::Expr(idx));
                $f(Child::Expr(value));
            }
            KStmt::For { begin, end, step, body, .. } => {
                $f(Child::Expr(begin));
                $f(Child::Expr(end));
                $f(Child::Expr(step));
                $f(Child::Block(body));
            }
            KStmt::If { cond, then_, else_ } => {
                $f(Child::Expr(cond));
                $f(Child::Block(then_));
                $f(Child::Block(else_));
            }
            KStmt::Barrier | KStmt::Return | KStmt::Comment(_) => {}
        }
    };
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

    /// Calls `f` on each child of this statement in evaluation order: the
    /// expressions it evaluates, then the blocks it runs. With
    /// [`KStmt::children_mut`], the one listing of the statement shape:
    /// every generic walk goes through it.
    pub fn children<'a>(&'a self, mut f: impl FnMut(Child<&'a KExpr, &'a Vec<KStmt>>)) {
        stmt_children!(self, f)
    }

    /// [`KStmt::children`] of a statement that may be changed in place.
    pub fn children_mut(&mut self, mut f: impl FnMut(Child<&mut KExpr, &mut Vec<KStmt>>)) {
        stmt_children!(self, f)
    }

    /// Calls `f` on this statement and every statement nested in it,
    /// parents first, in source order.
    pub fn for_each_stmt<'a>(&'a self, f: &mut dyn FnMut(&'a KStmt)) {
        f(self);
        self.children(|c| {
            if let Child::Block(b) = c {
                b.iter().for_each(|s| s.for_each_stmt(f));
            }
        });
    }

    /// [`KStmt::for_each_stmt`] in place: `f` may change a statement, and
    /// the walk goes on into the blocks of what `f` left there.
    pub fn for_each_stmt_mut(&mut self, f: &mut dyn FnMut(&mut KStmt)) {
        f(self);
        self.children_mut(|c| {
            if let Child::Block(b) = c {
                b.iter_mut().for_each(|s| s.for_each_stmt_mut(f));
            }
        });
    }

    /// Calls `f` on every expression the statement holds, nested blocks
    /// included (in evaluation order).
    pub fn for_each_expr<'a>(&'a self, f: &mut dyn FnMut(&'a KExpr)) {
        self.children(|c| match c {
            Child::Expr(e) => f(e),
            Child::Block(b) => b.iter().for_each(|s| s.for_each_expr(f)),
        });
    }

    /// [`KStmt::for_each_expr`] in place.
    pub fn for_each_expr_mut(&mut self, f: &mut dyn FnMut(&mut KExpr)) {
        self.children_mut(|c| match c {
            Child::Expr(e) => f(e),
            Child::Block(b) => b.iter_mut().for_each(|s| s.for_each_expr_mut(f)),
        });
    }

    /// Rebuilds the statement, nested blocks included, with `f` applied to
    /// every expression it holds (in evaluation order). It clones the
    /// statement and then overwrites each expression, so a pass that
    /// rebuilds every statement of a kernel (`simplify`'s decide walk)
    /// builds them itself.
    pub fn map_exprs<'a>(&'a self, f: &mut dyn FnMut(&'a KExpr) -> KExpr) -> KStmt {
        let mut old = Vec::new();
        self.for_each_expr(&mut |e| old.push(e));
        let mut old = old.into_iter();
        let mut out = self.clone();
        out.for_each_expr_mut(&mut |e| *e = f(old.next().expect("a clone has the same shape")));
        out
    }
}

/// What a run of statements touches, nested blocks included: the one
/// answer to "what does this block read and write" that simplification,
/// the static verifier and the host-init audit share. Short vectors: a
/// kernel names a handful of each. Assigned scalars and buffer parameters
/// are listed once; declarations and private-array accesses once per site.
#[derive(Default)]
pub(crate) struct Effects<'e> {
    /// The statements, for the rarer question of which scalars they read.
    pub stmts: &'e [KStmt],
    /// Scalars assigned.
    pub assigns: Vec<&'e str>,
    /// Names declared: scalars, arrays and loop variables.
    pub decls: Vec<&'e str>,
    /// Buffer parameters loaded from.
    pub loads: Vec<usize>,
    /// Buffer parameters stored to.
    pub stores: Vec<usize>,
    /// Private-array loads: the array and the index, one entry per site.
    pub priv_loads: Vec<(&'e str, &'e KExpr)>,
    /// Private-array stores: the array and the index, one entry per site.
    pub priv_stores: Vec<(&'e str, &'e KExpr)>,
    /// A barrier, a return or local memory: nothing moves across it.
    pub fixed: bool,
}

impl<'e> Effects<'e> {
    /// What `stmts` touch.
    pub fn of(stmts: &'e [KStmt]) -> Self {
        let mut fx = Effects { stmts, ..Effects::default() };
        for s in stmts {
            s.for_each_stmt(&mut |s| fx.stmt(s));
        }
        fx
    }

    /// Adds what evaluating `e` touches.
    pub fn expr(&mut self, e: &'e KExpr) {
        e.visit(&mut |n| match n {
            KExpr::Load { mem: MemRef::Param(p), .. } if !self.loads.contains(p) => {
                self.loads.push(*p)
            }
            KExpr::Load { mem: MemRef::Priv(a), idx } => self.priv_loads.push((a, idx)),
            KExpr::Load { mem: MemRef::Local(_), .. } => self.fixed = true,
            _ => {}
        });
    }

    /// Adds what `s` touches itself, its nested blocks left out.
    fn stmt(&mut self, s: &'e KStmt) {
        s.children(|c| {
            if let Child::Expr(e) = c {
                self.expr(e);
            }
        });
        match s {
            KStmt::Assign { name, .. } if !self.assigns.contains(&name.as_str()) => {
                self.assigns.push(name)
            }
            KStmt::DeclScalar { name, .. }
            | KStmt::DeclPrivArray { name, .. }
            | KStmt::For { var: name, .. } => self.decls.push(name),
            KStmt::Store { mem: MemRef::Param(p), .. } if !self.stores.contains(p) => {
                self.stores.push(*p)
            }
            KStmt::Store { mem: MemRef::Priv(a), idx, .. } => self.priv_stores.push((a, idx)),
            KStmt::DeclLocalArray { name, .. } => {
                self.decls.push(name);
                self.fixed = true;
            }
            KStmt::Store { mem: MemRef::Local(_), .. } | KStmt::Barrier | KStmt::Return => {
                self.fixed = true
            }
            _ => {}
        }
    }

    /// Whether the statements read any of `names`.
    pub fn reads_any(&self, names: &[&str]) -> bool {
        let mut found = false;
        for s in self.stmts {
            s.for_each_expr(&mut |e| {
                e.visit(&mut |n| found |= matches!(n, KExpr::Var(v) if names.contains(&v.as_str())))
            });
        }
        found
    }

    /// Whether the statements store to private array `a`.
    pub fn stores_array(&self, a: &str) -> bool {
        self.priv_stores.iter().any(|(b, _)| *b == a)
    }

    /// Whether the statements load from or store to private array `a`.
    pub fn touches_array(&self, a: &str) -> bool {
        self.stores_array(a) || self.priv_loads.iter().any(|(b, _)| *b == a)
    }

    /// Whether the statements load from or store to buffer parameter `p`.
    pub fn touches_buffer(&self, p: usize) -> bool {
        self.loads.contains(&p) || self.stores.contains(&p)
    }

    /// True when running `self` and then `other` may give a different
    /// result than interleaving them — `other` before the rest of `self`
    /// — as far as scalars and buffers go: one writes what the other reads
    /// or writes, or, unless distinct buffer parameters are distinct
    /// allocations, either stores to a buffer while the other touches one.
    pub fn conflicts(&self, other: &Effects, distinct_buffers: bool) -> bool {
        let any_buffer = |fx: &Effects| !fx.loads.is_empty() || !fx.stores.is_empty();
        !self.assigns.is_empty() && other.reads_any(&self.assigns)
            || self.assigns.iter().any(|x| other.assigns.contains(x))
            || !other.assigns.is_empty() && self.reads_any(&other.assigns)
            || self.stores.iter().any(|&p| other.touches_buffer(p))
            || other.stores.iter().any(|&p| self.touches_buffer(p))
            || !distinct_buffers
                && (!self.stores.is_empty() && any_buffer(other)
                    || !other.stores.is_empty() && any_buffer(self))
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
        let mut body = self.body.clone();
        for s in &mut body {
            s.for_each_stmt_mut(&mut |s| match s {
                KStmt::DeclScalar { kind, .. }
                | KStmt::DeclPrivArray { kind, .. }
                | KStmt::DeclLocalArray { kind, .. } => *kind = kind.resolve_real(real),
                _ => {}
            });
            s.for_each_expr_mut(&mut |e| {
                e.visit_mut(&mut |n| match n {
                    KExpr::Lit(l) => l.kind = l.kind.resolve_real(real),
                    KExpr::Cast(k, _) => *k = k.resolve_real(real),
                    _ => {}
                })
            });
        }
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

    /// `var(i)` for the loop variable the walk tests rename.
    fn i() -> KExpr {
        KExpr::var("i")
    }

    /// A body with every kind of statement and expression: a `For` nested
    /// in an `If`, loads in loop bounds and in both arms.
    fn nested_body() -> Vec<KStmt> {
        let buf = |p: usize, idx: KExpr| KExpr::load(MemRef::Param(p), idx);
        vec![
            KStmt::DeclScalar { name: "n".into(), kind: ScalarKind::I32, init: Some(buf(2, i())) },
            KStmt::DeclPrivArray { name: "t".into(), kind: ScalarKind::F32, len: i() + i() },
            KStmt::If {
                cond: KExpr::bin(BinOp::Lt, i(), KExpr::var("n")),
                then_: vec![
                    KStmt::For {
                        var: "k".into(),
                        begin: KExpr::int(0),
                        end: buf(3, -i()),
                        step: KExpr::cast(ScalarKind::I32, i()),
                        body: vec![
                            KStmt::Store {
                                mem: MemRef::Priv("t".into()),
                                idx: KExpr::var("k"),
                                value: KExpr::Call(Intrinsic::Min, vec![i(), buf(1, i())]),
                            },
                            KStmt::Assign {
                                name: "n".into(),
                                value: KExpr::load(MemRef::Priv("t".into()), i()),
                            },
                        ],
                    },
                    KStmt::Comment("then".into()),
                ],
                else_: vec![KStmt::Store {
                    mem: MemRef::Param(0),
                    idx: i(),
                    value: KExpr::select(i(), i(), KExpr::real(0.0)),
                }],
            },
            KStmt::Return,
        ]
    }

    #[test]
    fn statement_walk_visits_each_statement_once_parents_first() {
        fn tag(s: &KStmt) -> &'static str {
            match s {
                KStmt::DeclScalar { .. } => "decl",
                KStmt::DeclPrivArray { .. } => "priv",
                KStmt::DeclLocalArray { .. } => "local",
                KStmt::Barrier => "barrier",
                KStmt::Assign { .. } => "assign",
                KStmt::Store { .. } => "store",
                KStmt::For { .. } => "for",
                KStmt::If { .. } => "if",
                KStmt::Return => "return",
                KStmt::Comment(_) => "comment",
            }
        }
        let want = ["decl", "priv", "if", "for", "store", "assign", "comment", "store", "return"];
        let mut body = nested_body();
        let mut seen = Vec::new();
        body.iter().for_each(|s| s.for_each_stmt(&mut |s| seen.push(tag(s))));
        assert_eq!(seen, want);
        let mut seen_mut = Vec::new();
        body.iter_mut().for_each(|s| s.for_each_stmt_mut(&mut |s| seen_mut.push(tag(s))));
        assert_eq!(seen_mut, want);
    }

    #[test]
    fn mutable_expression_walk_renames_like_map_exprs_and_rewrite() {
        let body = nested_body();
        let mut nodes = Vec::new();
        for s in &body {
            s.for_each_expr(&mut |e| e.visit(&mut |n| nodes.push(n.clone())));
        }
        let mut renamed = body.clone();
        let mut nodes_mut = Vec::new();
        for s in &mut renamed {
            s.for_each_expr_mut(&mut |e| {
                e.visit_mut(&mut |n| {
                    nodes_mut.push(n.clone());
                    if *n == i() {
                        *n = KExpr::var("j");
                    }
                })
            });
        }
        assert_eq!(nodes_mut, nodes, "both walks reach the same nodes in the same order");
        let mapped: Vec<KStmt> = body
            .iter()
            .map(|s| {
                s.map_exprs(&mut |e| e.rewrite(&mut |n| if n == i() { KExpr::var("j") } else { n }))
            })
            .collect();
        assert_eq!(renamed, mapped);
        assert_ne!(renamed, body);
    }

    #[test]
    fn effects_see_loop_bounds_nested_arms_and_fixed_statements() {
        let body = nested_body();
        let fx = Effects::of(&body[..3]);
        // Parameter 3 is loaded in a loop bound only, 1 inside the loop
        // in the then-arm; 0 is stored in the else-arm.
        assert_eq!(fx.loads, [2, 3, 1]);
        assert_eq!(fx.stores, [0]);
        assert_eq!(fx.assigns, ["n"]);
        assert_eq!(fx.decls, ["n", "t", "k"]);
        assert_eq!(fx.priv_stores, [("t", &KExpr::var("k"))]);
        assert_eq!(fx.priv_loads, [("t", &i())]);
        assert!(fx.touches_array("t") && fx.touches_buffer(3) && !fx.touches_buffer(4));
        assert!(fx.reads_any(&["n"]) && !fx.reads_any(&["j"]));
        assert!(!fx.fixed);

        let local = MemRef::Local("l".into());
        let decl_local =
            KStmt::DeclLocalArray { name: "l".into(), kind: ScalarKind::F32, len: KExpr::int(4) };
        let store_local = KStmt::Store { mem: local.clone(), idx: i(), value: KExpr::real(0.0) };
        let load_local = KStmt::Assign { name: "n".into(), value: KExpr::load(local, i()) };
        for s in [KStmt::Barrier, KStmt::Return, decl_local, store_local, load_local] {
            let nested = [KStmt::If { cond: i(), then_: vec![], else_: vec![s.clone()] }];
            assert!(Effects::of(&nested).fixed, "{s:?} holds everything in place");
        }
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
