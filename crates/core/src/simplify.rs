//! Range-aware index and guard simplification — the last step of lowering.
//!
//! Views collapse into index arithmetic and pad guards mechanically, so a
//! freshly lowered stencil reads `curr[((gid2+1)-1)*(Nx*Ny) + …]` behind
//! `(gid2+1) < 1 || (gid2+1) >= 1+Nz || …`. LIFT proper makes views
//! zero-cost by simplifying that arithmetic with range information
//! (Steuwer et al., *Patterns and Rewrite Rules for Systematic Code
//! Generation*); this pass does the same over the kernel AST, on the path
//! facts of the symbolic evaluator the static verifier walks with:
//!
//! 1. every integer sub-expression is canonicalised through [`ArithExpr`]
//!    and printed back in one shape ([`KExpr::from_arith`]);
//! 2. integer comparisons are decided against range facts; decided
//!    operands fold out of `||`/`&&` chains and a select whose condition
//!    is decided becomes the live arm;
//! 3. integer sub-expressions over work-item ids and size parameters that
//!    occur more than once are hoisted into `int` declarations after the
//!    NDRange guards;
//! 4. declarations only one arm of a branch reads are sunk into that arm,
//!    a store of a select becoming an `if` for them (`sink`): the loads
//!    of `out[i] = nbrs[i] > 0 ? stencil : 0` run where `nbrs[i] > 0`;
//! 5. an arm the launch contract ties to the grid interior is decided
//!    again with the ids narrowed to it (`arms`): the pad guards fold;
//! 6. in the same walk, the exterior arm goes when it only stores `+0` to
//!    an output the contract says holds `+0` there
//!    ([`BufferFacts::exterior_zero`](crate::verify::BufferFacts));
//! 7. adjacent loops over one range fuse when neither can see the other's
//!    writes, and a private array then read only at the index its loop just
//!    wrote becomes a scalar (`fuse`): `fdmm_boundary_lift` gets Listing
//!    4's two loops;
//! 8. a declaration of one load, read once, later in its block with only
//!    declarations between, is inlined at its use (`forward`): the load
//!    runs where its value is consumed, Listing 2's form.
//!
//! # Facts
//!
//! The evaluator starts from the contract without what fails for some id
//! in `[0, N)`, its global size and defines: `get_global_id(d) ≥ 0` and the
//! size bounds. A guard narrows work-item ids only — an early return for
//! the rest of its block, the interior facts only in the arm they guard. A
//! guard reads a never-assigned `int` as its value and any other as
//! unknown; a comparison is decided on its canonical form (rewrite 1), in
//! which every name stands for itself.
//! Two more contract facts license rewrites: an output's exterior-zero
//! fact, only in the arm the interior fact leaves out, and distinct buffer
//! parameters ([`Assumptions::distinct_buffers`]), which loop fusion needs
//! to interleave a store with another buffer's accesses. Index arithmetic
//! is exact-integer, the assumption [`crate::verify`] documents.
//!
//! So every fact about `get_global_id(d)` holds for all ids in `[0, N)`,
//! and a simplified kernel stays correct under the uniform substitution
//! `gid(d) → gid(d) + o`, `o ≥ 0` ([`Kernel::shift_gid`]): past the
//! shifted guard the shifted id lies in that same interval. An arm fact is
//! about the cell a work-item indexes — a positive mask entry marks a cell
//! off the halo — so after the shift it holds of the cell `gid + o`, as the
//! contract restated with `gid_offsets = o` says.
//!
//! The exterior-zero fact is about the same cell, so it shifts alike.
//! Sinking, fusion and forwarding consult no fact about ids — only which
//! names and buffers a statement reads and writes — so they commute with
//! that substitution.
//!
//! # What never changes
//!
//! Loads are neither added nor duplicated; rewrites 1–3 keep every access
//! and its order, so before sinking the access sites are the input's.
//! Sinking runs a load on a subset of the work-items (those that read its
//! value), keeps the order of the loads of an arm, and turns a split store
//! into two sites, one per arm — each work-item still stores once, at an
//! index evaluated once. The exterior arm's store goes only where it would
//! store the value already there. Fusion interleaves two loops' accesses
//! only where no iteration can see the other loop's writes; forwarding runs
//! a load later, past other loads only. Floating-point expressions are
//! neither reassociated nor re-evaluated. Hoisted names come from a counter.

use crate::arith::{expand, ArithExpr};
use crate::eval::{is_gid_atom, Eval};
use crate::kast::{Child, Effects, KExpr, KStmt, Kernel, MemRef};
use crate::scalar::{BinOp, Intrinsic, Lit, UnOp};
use crate::types::ScalarKind;
use crate::verify::Assumptions;
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::{BTreeSet, HashMap};
use std::hash::{Hash, Hasher};

/// Simplifies `kernel` under the launch `contract` it ships with: its size
/// bounds, inside the arms they guard its interior facts, and its
/// exterior-zero and distinct-buffers facts. See the module docs.
pub fn simplify_kernel(kernel: &Kernel, contract: &Assumptions) -> Kernel {
    // Facts for every id in `[0, N)` only: no global size, no defines.
    let contract =
        &Assumptions { global_size: Vec::new(), defines: Vec::new(), ..contract.clone() };
    let int_params: BTreeSet<String> = kernel
        .params
        .iter()
        .filter(|p| !p.is_buffer && p.kind == ScalarKind::I32)
        .map(|p| p.name.clone())
        .collect();
    let mut cx = Cx::new(kernel, contract, &int_params);
    let mut body = cx.block(&kernel.body);
    hoist(kernel, &int_params, &mut body);
    let sunk = sink(body, &cx.assigned);
    // Sinking moved the loads into the arms: one walk over those.
    let body = if contract.interior_dims.is_empty() { sunk } else { cx.arms(&sunk) };
    let body = fuse(body, contract.distinct_buffers);
    Kernel {
        name: kernel.name.clone(),
        params: kernel.params.clone(),
        body: forward_loads(kernel, body),
        work_dim: kernel.work_dim,
    }
}

fn bool_lit(v: bool) -> KExpr {
    KExpr::Lit(Lit { value: v as i32 as f64, kind: ScalarKind::Bool })
}

fn as_bool(e: &KExpr) -> Option<bool> {
    match e {
        KExpr::Lit(l) if l.kind == ScalarKind::Bool => Some(l.value != 0.0),
        _ => None,
    }
}

fn is_cmp(op: BinOp) -> bool {
    op.is_predicate() && !matches!(op, BinOp::And | BinOp::Or)
}

/// True when `e` evaluates to a boolean whatever its operands are, so it
/// can stand in for the `||`/`&&` it was an operand of.
fn is_pred(e: &KExpr) -> bool {
    match e {
        KExpr::Bin(op, ..) => op.is_predicate(),
        KExpr::Un(UnOp::Not, _) => true,
        _ => as_bool(e).is_some(),
    }
}

fn has_load(e: &KExpr) -> bool {
    let mut found = false;
    e.visit(&mut |n| found |= matches!(n, KExpr::Load { .. }));
    found
}

/// Placeholder variable of the `k`-th opaque operand of an integer
/// expression (see [`Cx::arith`]).
fn opaque_atom(k: usize) -> String {
    format!("%op{k}")
}

/// Substitutes the opaque operands back into a rendered expression.
/// `None` when rendering dropped, duplicated or reordered one of them —
/// they may hold loads, whose sequence must not change.
fn restore(rendered: KExpr, opaque: &[KExpr]) -> Option<KExpr> {
    if opaque.is_empty() {
        return Some(rendered);
    }
    let mut seen = Vec::with_capacity(opaque.len());
    let out = rendered.rewrite(&mut |n| match &n {
        KExpr::Var(v) => match v.strip_prefix("%op").and_then(|k| k.parse::<usize>().ok()) {
            Some(k) => {
                seen.push(k);
                opaque[k].clone()
            }
            None => n,
        },
        _ => n,
    });
    seen.iter().copied().eq(0..opaque.len()).then_some(out)
}

struct Cx<'k> {
    kernel: &'k Kernel,
    contract: &'k Assumptions,
    /// The path facts: the contract's, and each early-return guard's for
    /// the rest of its block. A guard reads never-assigned `int`s as their
    /// values, other `int`s as unknown, and narrows ids only.
    ev: Eval<'k>,
    /// `int` scalars in scope: parameters, declarations, loop variables
    /// (lowered names are unique, so scopes never need popping).
    ints: BTreeSet<String>,
    /// Private/local arrays of `int` elements.
    int_arrays: BTreeSet<String>,
    /// Integer comparisons already simplified under the current facts (a
    /// pad guard repeats the same few for every load).
    compared: Vec<(&'k KExpr, KExpr)>,
    /// Names the kernel assigns to.
    assigned: Vec<&'k str>,
}

impl<'k> Cx<'k> {
    /// A walk of `kernel` under the facts that hold at its first line:
    /// `get_global_id(d) ≥ 0` and the contract's size bounds.
    fn new(kernel: &'k Kernel, contract: &'k Assumptions, ints: &BTreeSet<String>) -> Self {
        let ev = Eval::new(kernel, contract, is_gid_atom);
        let (int_arrays, compared) = Default::default();
        let assigned = Effects::of(&kernel.body).assigns;
        let ints = ints.clone();
        Cx { kernel, contract, ev, ints, int_arrays, compared, assigned }
    }

    /// Declares `int name = init`: bound to the value of `init` when nothing
    /// assigns `name`, else unknown.
    fn declare(&mut self, name: &str, init: &'k Option<KExpr>) {
        self.ints.insert(name.to_string());
        match init {
            Some(e) if !self.assigned.contains(&name) => self.ev.define(name, e),
            _ => self.ev.bind(name, None),
        }
    }

    /// Records `!cond` for the rest of the current block: `cond` guarded
    /// an early return.
    fn assume_returned(&mut self, cond: &KExpr) {
        self.ev.assume(cond, false);
        self.compared.clear();
    }

    fn is_int(&self, e: &KExpr) -> bool {
        match e {
            KExpr::Lit(l) => l.kind == ScalarKind::I32,
            KExpr::Var(n) => self.ints.contains(n),
            KExpr::GlobalId(_)
            | KExpr::GlobalSize(_)
            | KExpr::LocalId(_)
            | KExpr::LocalSize(_)
            | KExpr::GroupId(_) => true,
            KExpr::Load { mem, .. } => match mem {
                MemRef::Param(i) => self.kernel.params[*i].kind == ScalarKind::I32,
                MemRef::Priv(n) | MemRef::Local(n) => self.int_arrays.contains(n),
            },
            KExpr::Bin(BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem, a, b) => {
                self.is_int(a) && self.is_int(b)
            }
            KExpr::Bin(..) | KExpr::Un(UnOp::Not, _) => false,
            KExpr::Un(UnOp::Neg, a) => self.is_int(a),
            KExpr::Select(_, t, f) => self.is_int(t) && self.is_int(f),
            KExpr::Call(Intrinsic::Min | Intrinsic::Max, args) => {
                args.iter().all(|a| self.is_int(a))
            }
            KExpr::Call(..) => false,
            KExpr::Cast(k, _) => *k == ScalarKind::I32,
        }
    }

    /// The symbolic value of the integer expression `e`. Operands that
    /// are not integer arithmetic (loads, selects, casts from float,
    /// divisions whose divisor is not provably positive) are simplified
    /// on their own, pushed onto `opaque` and stand in as placeholder
    /// variables.
    fn arith(&mut self, e: &'k KExpr, opaque: &mut Vec<KExpr>) -> ArithExpr {
        if let Some(atom) = e.builtin_atom() {
            return ArithExpr::var(atom);
        }
        match e {
            KExpr::Lit(l) => ArithExpr::Cst(l.value as i64),
            KExpr::Var(n) => ArithExpr::var(n.as_str()),
            KExpr::Bin(BinOp::Add, a, b) => self.arith(a, opaque) + self.arith(b, opaque),
            KExpr::Bin(BinOp::Sub, a, b) => self.arith(a, opaque) - self.arith(b, opaque),
            KExpr::Bin(BinOp::Mul, a, b) => self.arith(a, opaque) * self.arith(b, opaque),
            KExpr::Bin(op @ (BinOp::Div | BinOp::Rem), a, b) => {
                let mark = opaque.len();
                let (x, y) = (self.arith(a, opaque), self.arith(b, opaque));
                // The folds of `ArithExpr::div`/`rem` (`x / x`, `x % x`)
                // need a non-zero divisor.
                if self.ev.path.renv.prove_pos(&y) {
                    return if *op == BinOp::Div { x / y } else { x % y };
                }
                opaque.truncate(mark);
                self.opaque(e, opaque)
            }
            KExpr::Un(UnOp::Neg, a) => ArithExpr::zero() - self.arith(a, opaque),
            KExpr::Call(Intrinsic::Min, args) => {
                ArithExpr::min(self.arith(&args[0], opaque), self.arith(&args[1], opaque))
            }
            KExpr::Call(Intrinsic::Max, args) => {
                ArithExpr::max(self.arith(&args[0], opaque), self.arith(&args[1], opaque))
            }
            KExpr::Cast(_, a) if self.is_int(a) => self.arith(a, opaque),
            _ => self.opaque(e, opaque),
        }
    }

    fn opaque(&mut self, e: &'k KExpr, opaque: &mut Vec<KExpr>) -> ArithExpr {
        let simplified = self.descend(e);
        opaque.push(simplified);
        ArithExpr::var(opaque_atom(opaque.len() - 1))
    }

    fn expr(&mut self, e: &'k KExpr) -> KExpr {
        let arithmetic =
            matches!(e, KExpr::Bin(..) | KExpr::Un(..) | KExpr::Call(..) | KExpr::Cast(..));
        if !arithmetic || !self.is_int(e) {
            return self.descend(e);
        }
        let mut opaque = Vec::new();
        let a = self.arith(e, &mut opaque);
        restore(KExpr::from_arith(&expand(&a)), &opaque).unwrap_or_else(|| self.descend(e))
    }

    /// Simplifies the operands of `e` and folds decided conditions; `e`
    /// itself is not integer arithmetic.
    fn descend(&mut self, e: &'k KExpr) -> KExpr {
        match e {
            KExpr::Lit(_)
            | KExpr::Var(_)
            | KExpr::GlobalId(_)
            | KExpr::GlobalSize(_)
            | KExpr::LocalId(_)
            | KExpr::LocalSize(_)
            | KExpr::GroupId(_) => e.clone(),
            KExpr::Load { mem, idx } => KExpr::load(mem.clone(), self.expr(idx)),
            KExpr::Bin(op, a, b) if is_cmp(*op) && self.is_int(a) && self.is_int(b) => {
                if let Some((_, done)) = self.compared.iter().find(|(seen, _)| *seen == e) {
                    return done.clone();
                }
                let done = self.compare(*op, a, b);
                self.compared.push((e, done.clone()));
                done
            }
            KExpr::Bin(op @ (BinOp::And | BinOp::Or), a, b) => {
                let (x, y) = (self.expr(a), self.expr(b));
                // The operand that decides the chain on its own…
                let absorbing = *op == BinOp::Or;
                match (as_bool(&x), as_bool(&y)) {
                    // …drops the other one, unless that would drop a load.
                    (Some(v), _) if v == absorbing && !has_load(&y) => x,
                    (_, Some(v)) if v == absorbing && !has_load(&x) => y,
                    // The neutral literal drops out when a predicate remains.
                    (Some(v), _) if v != absorbing && is_pred(&y) => y,
                    (_, Some(v)) if v != absorbing && is_pred(&x) => x,
                    _ => KExpr::bin(*op, x, y),
                }
            }
            KExpr::Bin(op, a, b) => KExpr::bin(*op, self.expr(a), self.expr(b)),
            KExpr::Un(UnOp::Not, a) => {
                let x = self.expr(a);
                as_bool(&x).map_or_else(|| KExpr::Un(UnOp::Not, Box::new(x)), |v| bool_lit(!v))
            }
            KExpr::Un(op, a) => KExpr::Un(*op, Box::new(self.expr(a))),
            KExpr::Select(c, t, f) => {
                let (c, t, f) = (self.expr(c), self.expr(t), self.expr(f));
                match as_bool(&c) {
                    Some(true) if !has_load(&f) => t,
                    Some(false) if !has_load(&t) => f,
                    _ => KExpr::select(c, t, f),
                }
            }
            KExpr::Call(i, args) => KExpr::Call(*i, args.iter().map(|a| self.expr(a)).collect()),
            KExpr::Cast(k, a) => KExpr::cast(*k, self.expr(a)),
        }
    }

    /// `a op b` over integers: a literal when the facts decide it, else the
    /// normal form with the positive terms of `a − b` on the left and the
    /// negative ones on the right (`(gid0+2) >= (1+Nx)` → `gid0+1 >= Nx`).
    fn compare(&mut self, op: BinOp, a: &'k KExpr, b: &'k KExpr) -> KExpr {
        let mut opaque = Vec::new();
        let d = expand(&(self.arith(a, &mut opaque) - self.arith(b, &mut opaque)));
        if opaque.is_empty() {
            if let Some(v) = self.ev.decide(op, &d) {
                return bool_lit(v);
            }
        }
        let terms = match &d {
            ArithExpr::Sum(ts) => ts.to_vec(),
            other => vec![other.clone()],
        };
        let (neg, pos): (Vec<_>, Vec<_>) = terms.into_iter().partition(|t| t.coeff() < 0);
        let rhs = ArithExpr::zero() - ArithExpr::add(neg);
        let out = KExpr::bin(op, KExpr::from_arith(&ArithExpr::add(pos)), KExpr::from_arith(&rhs));
        restore(out, &opaque).unwrap_or_else(|| KExpr::bin(op, self.expr(a), self.expr(b)))
    }

    fn block(&mut self, stmts: &'k [KStmt]) -> Vec<KStmt> {
        // Early-return facts hold to the end of the block they are in; the
        // bindings, of unique names, to the end of the walk.
        let outer = self.ev.path.renv.clone();
        let out = stmts.iter().map(|s| self.stmt(s)).collect();
        self.ev.path.renv = outer;
        self.compared.clear();
        out
    }

    /// Each statement is rebuilt here rather than through
    /// [`KStmt::map_exprs`], which clones a statement before it overwrites
    /// the expressions: that clone costs lowering a tenth of its time.
    fn stmt(&mut self, s: &'k KStmt) -> KStmt {
        // Lowered names are unique, so a declaration may enter the scope
        // before its own initialiser is simplified.
        match s {
            KStmt::DeclScalar { name, kind, init } => {
                if *kind == ScalarKind::I32 {
                    self.declare(name, init);
                }
                let init = init.as_ref().map(|e| self.expr(e));
                KStmt::DeclScalar { name: name.clone(), kind: *kind, init }
            }
            KStmt::DeclPrivArray { name, kind, len }
            | KStmt::DeclLocalArray { name, kind, len } => {
                if *kind == ScalarKind::I32 {
                    self.int_arrays.insert(name.clone());
                }
                let (name, kind, len) = (name.clone(), *kind, self.expr(len));
                match s {
                    KStmt::DeclPrivArray { .. } => KStmt::DeclPrivArray { name, kind, len },
                    _ => KStmt::DeclLocalArray { name, kind, len },
                }
            }
            KStmt::Assign { name, value } => {
                KStmt::Assign { name: name.clone(), value: self.expr(value) }
            }
            KStmt::Store { mem, idx, value } => {
                let idx = self.expr(idx);
                KStmt::Store { mem: mem.clone(), idx, value: self.expr(value) }
            }
            KStmt::For { var, begin, end, step, body } => {
                let (begin, end, step) = (self.expr(begin), self.expr(end), self.expr(step));
                self.declare(var, &None);
                KStmt::For { var: var.clone(), begin, end, step, body: self.block(body) }
            }
            KStmt::If { cond, then_, else_ } => {
                let out = KStmt::If {
                    cond: self.expr(cond),
                    then_: self.block(then_),
                    else_: self.block(else_),
                };
                if out.is_return_guard() {
                    self.assume_returned(cond);
                }
                out
            }
            KStmt::Barrier | KStmt::Return | KStmt::Comment(_) => s.clone(),
        }
    }
}

// ---- interior arms ----

impl<'k> Cx<'k> {
    /// One walk over the sunk body: the arm of each `if` that ties the
    /// work-item to the grid interior ([`Eval::reads_mask`],
    /// [`Eval::guards`]) is decided again with the ids narrowed, and an
    /// exterior arm that only stores a zero the output already holds goes
    /// ([`Cx::redundant_exterior_store`]); the rest stays as it is.
    fn arms(&mut self, stmts: &'k [KStmt]) -> Vec<KStmt> {
        let outer = self.ev.path.renv.clone();
        let mut out = Vec::with_capacity(stmts.len());
        for s in stmts {
            let KStmt::If { cond, then_, else_ } = s else {
                if let KStmt::DeclScalar { name, kind: ScalarKind::I32, init } = s {
                    self.declare(name, init); // hoisted names too
                }
                out.push(s.clone());
                continue;
            };
            let mask = self.ev.reads_mask(cond);
            let then_ = if mask.is_some() || self.ev.guards(cond) {
                let outside = self.ev.path.renv.clone();
                self.ev.interior_refine();
                self.compared.clear();
                let arm = self.block(then_);
                self.ev.path.renv = outside;
                arm
            } else {
                self.arms(then_)
            };
            let else_ = match mask {
                Some(cell) if self.redundant_exterior_store(&cell, else_) => Vec::new(),
                _ => self.arms(else_),
            };
            out.push(KStmt::If { cond: cond.clone(), then_, else_ });
            if s.is_return_guard() {
                self.assume_returned(cond);
            }
        }
        self.ev.path.renv = outer;
        out
    }

    /// True when `else_`, the arm an interior-mask read at `cell` leaves to
    /// cells whose mask entry is not positive, is one store of `+0` to such a
    /// cell — the work-item's own, at `cell` — of an output the contract says
    /// already holds `+0` there
    /// ([`BufferFacts::exterior_zero`](crate::verify::BufferFacts)).
    fn redundant_exterior_store(&mut self, cell: &ArithExpr, else_: &[KStmt]) -> bool {
        let [KStmt::Store { mem: MemRef::Param(p), idx, value: KExpr::Lit(zero) }] = else_ else {
            return false;
        };
        let facts = self.contract.buffers.get(&self.kernel.params[*p].name);
        facts.is_some_and(|f| f.exterior_zero)
            && zero.value == 0.0
            && zero.value.is_sign_positive()
            && self.ev.is(idx, cell)
    }
}

// ---- hoisting ----

/// What [`scan`] learned about one hoistable sub-expression.
struct Candidate<'e> {
    expr: &'e KExpr,
    count: usize,
    /// Node count; larger candidates are hoisted first.
    size: usize,
    /// Discovery order, the deterministic tie-break.
    order: usize,
}

fn hash_of(x: impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    x.hash(&mut h);
    h.finish()
}

/// Walks `e` bottom-up and counts every hoistable operation in it: `+`,
/// `-`, `*` over literals, work-item builtins and `uniform` scalars only
/// (nothing that can trap or that is declared later). Returns the
/// structural hash and node count of `e` when `e` itself is hoistable.
fn scan<'e>(
    e: &'e KExpr,
    uniform: &BTreeSet<String>,
    found: &mut HashMap<u64, Candidate<'e>>,
) -> Option<(u64, usize)> {
    match e {
        KExpr::Lit(l) if l.kind == ScalarKind::I32 => Some((hash_of((0u8, l.value as i64)), 1)),
        KExpr::Var(n) if uniform.contains(n) => Some((hash_of((1u8, n)), 1)),
        KExpr::Lit(_) | KExpr::Var(_) => None,
        KExpr::Bin(op, a, b) => {
            let (ha, hb) = (scan(a, uniform, found), scan(b, uniform, found));
            if !matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul) {
                return None;
            }
            let ((ha, sa), (hb, sb)) = (ha?, hb?);
            let (hash, size) = (hash_of((2u8, op, ha, hb)), sa + sb + 1);
            let order = found.len();
            match found.entry(hash) {
                Entry::Occupied(mut c) if c.get().expr == e => c.get_mut().count += 1,
                // A hash collision: leave the newcomer uncounted.
                Entry::Occupied(_) => {}
                Entry::Vacant(v) => {
                    v.insert(Candidate { expr: e, count: 1, size, order });
                }
            }
            Some((hash, size))
        }
        KExpr::Load { idx: a, .. } | KExpr::Un(_, a) | KExpr::Cast(_, a) => {
            scan(a, uniform, found);
            None
        }
        KExpr::Select(c, t, f) => {
            for x in [c, t, f] {
                scan(x, uniform, found);
            }
            None
        }
        KExpr::Call(_, args) => {
            for x in args {
                scan(x, uniform, found);
            }
            None
        }
        _ => Some((hash_of((3u8, e.builtin_atom())), 1)),
    }
}

/// Hoists repeated integer sub-expressions over work-item ids and scalar
/// parameters into `int` declarations after the leading NDRange guards,
/// largest first, so a stencil's loads share one linear base index.
fn hoist(kernel: &Kernel, uniform: &BTreeSet<String>, body: &mut Vec<KStmt>) {
    let at = body.iter().take_while(|s| s.is_return_guard()).count();
    // Discovery order; a later declaration may occur inside an earlier
    // one, never the other way round, so they are emitted reversed.
    let mut decls: Vec<KStmt> = Vec::new();
    let mut next = 0;
    // Hoisting replaces expressions only: the body declares the same names
    // throughout.
    let declared: Vec<String> = Effects::of(body).decls.into_iter().map(str::to_string).collect();
    loop {
        let mut found = HashMap::new();
        for s in body[at..].iter().chain(&decls) {
            s.for_each_expr(&mut |e| {
                scan(e, uniform, &mut found);
            });
        }
        let best = found
            .values()
            .filter(|c| c.count >= 2)
            .max_by_key(|c| (c.size, std::cmp::Reverse(c.order)))
            .map(|c| c.expr.clone());
        let Some(best) = best else { break };
        // `ix_<counter>`, skipping names the kernel already uses.
        let name = loop {
            let n = format!("ix_{next}");
            next += 1;
            if kernel.params.iter().all(|p| p.name != n) && !declared.contains(&n) {
                break n;
            }
        };
        for s in body[at..].iter_mut().chain(&mut decls) {
            s.for_each_expr_mut(&mut |e| {
                e.visit_mut(&mut |n| {
                    if *n == best {
                        *n = KExpr::var(name.as_str());
                    }
                })
            });
        }
        decls.push(KStmt::DeclScalar { name, kind: ScalarKind::I32, init: Some(best) });
    }
    body.splice(at..at, decls.into_iter().rev());
}

// ---- sinking ----

/// Adds every variable `e` reads to `out`.
fn reads<'e>(e: &'e KExpr, out: &mut BTreeSet<&'e str>) {
    e.visit(&mut |n| {
        if let KExpr::Var(v) = n {
            out.insert(v);
        }
    });
}

/// Where each statement of the run — the unbroken tail of declarations
/// and comments of `before`, the statements ahead of `branch` in its block
/// — goes: `Some(0)` into the then-arm, `Some(1)` into the else-arm, `None`
/// nowhere. `branch` is an `if` or a store of a select (its arms are the
/// select's); `rest` is what follows it in the block. A declaration moves
/// when every read of its name is in one arm or in a declaration moving
/// into that arm, and nothing assigns to it. Empty for any other statement.
fn destinations<'e>(
    before: &'e [KStmt],
    branch: &'e KStmt,
    rest: &'e [KStmt],
    assigned: &[&str],
) -> Vec<Option<usize>> {
    // Names read by the condition, the store index or a later statement.
    let mut outside = BTreeSet::new();
    let mut arms = [BTreeSet::new(), BTreeSet::new()];
    match branch {
        KStmt::Store { idx, value: KExpr::Select(c, t, f), .. } => {
            reads(idx, &mut outside);
            reads(c, &mut outside);
            reads(t, &mut arms[0]);
            reads(f, &mut arms[1]);
        }
        KStmt::If { cond, then_, else_ } => {
            reads(cond, &mut outside);
            for (arm, into) in [then_, else_].into_iter().zip(&mut arms) {
                arm.iter().for_each(|s| s.for_each_expr(&mut |e| reads(e, into)));
            }
        }
        _ => return Vec::new(),
    }
    let decl = |s: &&KStmt| matches!(s, KStmt::DeclScalar { .. } | KStmt::Comment(_));
    let run = &before[before.len() - before.iter().rev().take_while(decl).count()..];
    if run.is_empty() {
        return Vec::new();
    }
    rest.iter().for_each(|s| s.for_each_expr(&mut |e| reads(e, &mut outside)));
    // Last declaration first: only later ones can read an earlier one.
    let mut dest = vec![None; run.len()];
    for (to, s) in dest.iter_mut().zip(run).rev() {
        let KStmt::DeclScalar { name, init, .. } = s else { continue };
        let name = name.as_str();
        let read = [arms[0].contains(name), arms[1].contains(name)];
        let fixed = read[0] == read[1] || outside.contains(name) || assigned.contains(&name);
        let readers = if fixed {
            &mut outside
        } else {
            *to = Some(read[1] as usize);
            &mut arms[read[1] as usize]
        };
        init.iter().for_each(|e| reads(e, readers));
    }
    dest
}

/// Moves declarations that only one arm of a branch reads into that arm, so
/// their loads run for the work-items that take it: `int n = nbrs[i]; float
/// c = curr[i]; out[i] = n > 0 ? f(c) : 0` becomes `int n = nbrs[i]; if (n >
/// 0) { float c = curr[i]; out[i] = f(c); } else { out[i] = 0; }`. A store of
/// a select is split into an `if` only when a declaration moves into it; the
/// arms are sunk in turn, which reaches nested selects. Only the unbroken
/// run of declarations before the branch is considered, so a load crosses
/// other loads, never a store, loop, branch or barrier; moved and remaining
/// declarations each keep their order.
fn sink(block: Vec<KStmt>, assigned: &[&str]) -> Vec<KStmt> {
    let mut out: Vec<KStmt> = Vec::with_capacity(block.len());
    let mut rest = block.into_iter();
    while let Some(s) = rest.next() {
        let dest = destinations(&out, &s, rest.as_slice(), assigned);
        let mut arms = [Vec::new(), Vec::new()];
        if dest.iter().any(Option::is_some) {
            for (d, to) in out.split_off(out.len() - dest.len()).into_iter().zip(dest) {
                to.map_or(&mut out, |arm| &mut arms[arm]).push(d);
            }
        }
        let [mut then_, mut else_] = arms;
        out.push(match s {
            KStmt::Store { mem, idx, value: KExpr::Select(c, t, f) }
                if !(then_.is_empty() && else_.is_empty()) =>
            {
                then_.push(KStmt::Store { mem: mem.clone(), idx: idx.clone(), value: *t });
                else_.push(KStmt::Store { mem, idx, value: *f });
                KStmt::If { cond: *c, then_: sink(then_, assigned), else_: sink(else_, assigned) }
            }
            KStmt::If { cond, then_: t, else_: f } => {
                then_.extend(t);
                else_.extend(f);
                KStmt::If { cond, then_: sink(then_, assigned), else_: sink(else_, assigned) }
            }
            KStmt::For { var, begin, end, step, body } => {
                KStmt::For { var, begin, end, step, body: sink(body, assigned) }
            }
            other => other,
        });
    }
    out
}

// ---- loop fusion and scalar replacement ----

/// True when `s` can move from just after a loop with effects `first` to
/// just before it: a declaration or a buffer store that neither reads nor
/// writes what the loop writes, and whose buffer accesses the loop's stores
/// leave alone.
fn hoistable(s: &KStmt, first: &Effects, distinct_buffers: bool) -> bool {
    if !matches!(
        s,
        KStmt::DeclScalar { .. }
            | KStmt::DeclPrivArray { .. }
            | KStmt::Comment(_)
            | KStmt::Store { mem: MemRef::Param(_), .. }
    ) {
        return false;
    }
    let fx = Effects::of(std::slice::from_ref(s));
    !fx.fixed
        && fx.priv_loads.iter().all(|(a, _)| !first.stores_array(a))
        && !first.conflicts(&fx, distinct_buffers)
}

/// True when running `second`'s body after `first`'s (effects `one`), one
/// iteration pair at a time, computes what running the loops one after the
/// other does: same `begin`, `end` and `step`, over names neither loop
/// assigns and without loads; no barrier, return or local memory; `second`
/// reads a private array `first` writes only at its own index, where
/// `first` wrote it; otherwise neither writes what the other reads or
/// writes.
fn fusable(first: &KStmt, one: &Effects, second: &KStmt, distinct_buffers: bool) -> bool {
    let (
        KStmt::For { var, begin, end, step, .. },
        KStmt::For { var: var2, begin: b2, end: e2, step: s2, body: body2 },
    ) = (first, second)
    else {
        return false;
    };
    let two = Effects::of(body2);
    let mut bounds = BTreeSet::new();
    [begin, end, step].into_iter().for_each(|e| reads(e, &mut bounds));
    let varies = |fx: &Effects| {
        fx.assigns.iter().any(|n| bounds.contains(n) || *n == var.as_str() || *n == var2.as_str())
    };
    if (begin, end, step) != (b2, e2, s2)
        || [begin, end, step].into_iter().any(has_load)
        || varies(one)
        || varies(&two)
        || one.fixed
        || two.fixed
    {
        return false;
    }
    let at = |v: &str, idx: &KExpr| matches!(idx, KExpr::Var(i) if i == v);
    let own_index = two.priv_loads.iter().all(|(a, idx)| !one.stores_array(a) || at(var2, idx))
        && one
            .priv_stores
            .iter()
            .all(|(a, idx)| at(var, idx) || !two.priv_loads.iter().any(|(b, _)| b == a));
    let untouched =
        one.priv_loads.iter().chain(&one.priv_stores).all(|(a, _)| !two.stores_array(a));
    own_index && untouched && !one.conflicts(&two, distinct_buffers)
}

/// Fuses adjacent loops of every block ([`fusable`]), moving the statements
/// between them ahead of the first ([`hoistable`]), then turns each private
/// array only its loop reads, at the index it was just written at, into a
/// scalar ([`scalar_replaced`]).
fn fuse(mut b: Vec<KStmt>, distinct_buffers: bool) -> Vec<KStmt> {
    for s in &mut b {
        s.children_mut(|c| {
            if let Child::Block(block) = c {
                *block = fuse(std::mem::take(block), distinct_buffers);
            }
        });
    }
    let mut i = 0;
    while i < b.len() {
        while let KStmt::For { body, .. } = &b[i] {
            let Some(j) = (i + 1..b.len()).find(|&j| matches!(b[j], KStmt::For { .. })) else {
                break;
            };
            let one = Effects::of(body);
            let between = b[i + 1..j].iter().all(|s| hoistable(s, &one, distinct_buffers));
            if !between || !fusable(&b[i], &one, &b[j], distinct_buffers) {
                break;
            }
            let KStmt::For { var: var2, body: mut body2, .. } = b.remove(j) else { unreachable!() };
            let KStmt::For { var, body, .. } = &mut b[i] else { unreachable!() };
            for s in &mut body2 {
                s.for_each_expr_mut(&mut |e| {
                    e.visit_mut(&mut |n| match n {
                        KExpr::Var(v) if *v == var2 => v.clone_from(var),
                        _ => {}
                    })
                });
            }
            body.append(&mut body2);
            // The statements between go ahead of the fused loop.
            b[i..j].rotate_left(1);
            i = j - 1;
        }
        i += 1;
    }
    scalar_replaced(b)
}

/// Replaces each private array of `block` that only one loop of the block
/// touches — one top-level store at the loop's index, every load after it
/// at that index — by a scalar of the array's name declared by that store.
fn scalar_replaced(mut block: Vec<KStmt>) -> Vec<KStmt> {
    let mut gone = Vec::new();
    for d in 0..block.len() {
        let KStmt::DeclPrivArray { name: array, kind, .. } = &block[d] else { continue };
        let (array, kind) = (array.clone(), *kind);
        let mut users = block
            .iter()
            .enumerate()
            .filter(|(_, s)| Effects::of(std::slice::from_ref(s)).touches_array(&array));
        let (Some((l, _)), None) = (users.next(), users.next()) else { continue };
        let KStmt::For { var, begin, end, step, body } = &block[l] else { continue };
        let in_bounds = [begin, end, step].into_iter().any(|e| {
            let mut fx = Effects::default();
            fx.expr(e);
            fx.priv_loads.iter().any(|(a, _)| *a == array)
        });
        let at = |idx: &KExpr| matches!(idx, KExpr::Var(i) if i == var);
        let mut store = None;
        let mut ok = !in_bounds;
        for (k, s) in body.iter().enumerate() {
            let fx = Effects::of(std::slice::from_ref(s));
            let stores = fx.priv_stores.iter().filter(|(a, _)| *a == array).count();
            let mut loads = fx.priv_loads.iter().filter(|(a, _)| *a == array).peekable();
            match (s, store) {
                (KStmt::Store { mem: MemRef::Priv(a), idx, .. }, None) if *a == array => {
                    ok &= at(idx) && loads.peek().is_none();
                    store = Some(k);
                }
                _ => {
                    ok &= stores == 0
                        && (store.is_some() || loads.peek().is_none())
                        && loads.all(|(_, idx)| at(idx));
                }
            }
        }
        let Some(k) = store.filter(|_| ok) else { continue };
        let KStmt::For { body, .. } = &mut block[l] else { unreachable!() };
        let KStmt::Store { value, .. } = std::mem::replace(&mut body[k], KStmt::Return) else {
            unreachable!()
        };
        body[k] = KStmt::DeclScalar { name: array.clone(), kind, init: Some(value) };
        // Every load of the array left is at the loop index.
        for s in &mut body[k + 1..] {
            s.for_each_expr_mut(&mut |e| {
                e.visit_mut(&mut |n| {
                    if matches!(n, KExpr::Load { mem: MemRef::Priv(a), .. } if *a == array) {
                        *n = KExpr::var(array.as_str());
                    }
                })
            });
        }
        gone.push(d);
    }
    for d in gone.into_iter().rev() {
        block.remove(d);
    }
    block
}

// ---- load forwarding ----

/// Replaces the variables `take` hands an expression for, in place, at the
/// places every evaluation of `e` reaches: not in the arms of a select or
/// the right operand of `&&`/`||`, where a moved load would run
/// conditionally.
fn inline(e: &mut KExpr, take: &mut dyn FnMut(&str) -> Option<KExpr>) {
    match e {
        KExpr::Var(v) => {
            if let Some(init) = take(v) {
                *e = init;
            }
        }
        KExpr::Bin(BinOp::And | BinOp::Or, a, _)
        | KExpr::Select(a, ..)
        | KExpr::Load { idx: a, .. }
        | KExpr::Un(_, a)
        | KExpr::Cast(_, a) => inline(a, take),
        KExpr::Bin(_, a, b) => {
            inline(a, take);
            inline(b, take);
        }
        KExpr::Call(_, args) => args.iter_mut().for_each(|a| inline(a, take)),
        _ => {}
    }
}

/// What [`forward`] needs of the kernel: the never-assigned declarations
/// of one load (over an index without loads) or of a variable that are read
/// exactly once, sorted; the element kinds of private and local arrays and
/// of buffer parameters.
struct Forwarding {
    once: Vec<String>,
    arrays: Vec<(String, ScalarKind)>,
    buffers: Vec<Option<ScalarKind>>,
}

/// A declaration's initialiser [`forward`] may move: one load over an index
/// without loads, or a variable.
fn movable(init: &KExpr) -> bool {
    match init {
        KExpr::Var(_) => true,
        KExpr::Load { idx, .. } => !has_load(idx),
        _ => false,
    }
}

impl Forwarding {
    fn new(kernel: &Kernel, body: &[KStmt]) -> Forwarding {
        let (mut cands, mut arrays) = (Vec::new(), Vec::new());
        for s in body {
            s.for_each_stmt(&mut |s| match s {
                KStmt::DeclScalar { name, init: Some(init), .. } if movable(init) => {
                    cands.push((name.clone(), 0));
                }
                KStmt::DeclPrivArray { name, kind, .. }
                | KStmt::DeclLocalArray { name, kind, .. } => {
                    arrays.push((name.clone(), *kind));
                }
                _ => {}
            });
        }
        cands.sort_unstable();
        let mut count = |v: &str, by: usize| {
            if let Ok(i) = cands.binary_search_by(|(n, _)| n.as_str().cmp(v)) {
                cands[i].1 += by;
            }
        };
        for s in body {
            s.for_each_expr(&mut |e| {
                e.visit(&mut |n| {
                    if let KExpr::Var(v) = n {
                        count(v, 1);
                    }
                })
            });
        }
        Effects::of(body).assigns.iter().for_each(|v| count(v, 2));
        let once = cands.into_iter().filter(|&(_, c)| c == 1).map(|(n, _)| n).collect();
        let buffers = kernel.params.iter().map(|p| p.is_buffer.then_some(p.kind)).collect();
        Forwarding { once, arrays, buffers }
    }

    /// Whether `name`, declared of `kind` by `init`, is forwarded: read
    /// once, never assigned, and `init` of the same kind — a load's element
    /// kind, or the kind of a variable declared earlier in `block`.
    fn takes(&self, name: &str, kind: ScalarKind, init: &KExpr, block: &[Option<KStmt>]) -> bool {
        let of = match init {
            KExpr::Var(v) => block.iter().rev().flatten().find_map(|s| match s {
                KStmt::DeclScalar { name, kind, .. } if name == v => Some(*kind),
                _ => None,
            }),
            KExpr::Load { mem: MemRef::Param(p), .. } => self.buffers.get(*p).copied().flatten(),
            KExpr::Load { mem: MemRef::Priv(a) | MemRef::Local(a), .. } => {
                self.arrays.iter().find(|(n, _)| n == a).map(|&(_, k)| k)
            }
            _ => None,
        };
        of == Some(kind) && self.once.binary_search_by(|n| n.as_str().cmp(name)).is_ok()
    }
}

/// Inlines each declaration initialised by one load (or a variable), read
/// exactly once, later in its block, at the use — when only declarations
/// and comments stand between them (no store, assignment, loop, branch or
/// barrier) and the use runs unconditionally in its statement. The load
/// then runs where its value is consumed, Listing 2's form, and the tape
/// fuses it with its consumer.
fn forward(block: Vec<KStmt>, fw: &Forwarding) -> Vec<KStmt> {
    let mut out: Vec<Option<KStmt>> = Vec::with_capacity(block.len());
    // Forwardable declarations since the last statement that stops
    // forwarding: their places in `out`.
    let mut pending: Vec<usize> = Vec::new();
    for mut s in block {
        let mut take = |v: &str| {
            let named =
                |at: &usize| matches!(&out[*at], Some(KStmt::DeclScalar { name, .. }) if name == v);
            let k = pending.iter().position(named)?;
            match out[pending.remove(k)].take() {
                Some(KStmt::DeclScalar { init, .. }) => init,
                _ => unreachable!("a pending slot holds its declaration"),
            }
        };
        match &mut s {
            KStmt::DeclScalar { name, kind, init } => {
                if let Some(e) = init.as_mut() {
                    inline(e, &mut take);
                }
                if init.as_ref().is_some_and(|e| movable(e) && fw.takes(name, *kind, e, &out)) {
                    pending.push(out.len());
                }
            }
            KStmt::DeclPrivArray { .. } | KStmt::Comment(_) => {}
            KStmt::Store { idx, value, .. } => {
                inline(idx, &mut take);
                inline(value, &mut take);
                pending.clear();
            }
            KStmt::Assign { value, .. } => {
                inline(value, &mut take);
                pending.clear();
            }
            KStmt::If { cond, then_, else_ } => {
                inline(cond, &mut take);
                pending.clear();
                *then_ = forward(std::mem::take(then_), fw);
                *else_ = forward(std::mem::take(else_), fw);
            }
            KStmt::For { body, .. } => {
                pending.clear();
                *body = forward(std::mem::take(body), fw);
            }
            _ => pending.clear(),
        }
        out.push(Some(s));
    }
    out.into_iter().flatten().collect()
}

/// [`forward`] over a kernel body.
fn forward_loads(kernel: &Kernel, body: Vec<KStmt>) -> Vec<KStmt> {
    let fw = Forwarding::new(kernel, &body);
    forward(body, &fw)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g() -> KExpr {
        KExpr::GlobalId(0)
    }
    fn var(n: &str) -> KExpr {
        KExpr::var(n)
    }
    /// `p[gid]` of buffer parameter `p`.
    fn at(p: usize) -> KExpr {
        KExpr::load(MemRef::Param(p), g())
    }
    fn decl(name: &str, init: KExpr) -> KStmt {
        KStmt::DeclScalar { name: name.into(), kind: ScalarKind::F32, init: Some(init) }
    }
    /// `out[idx] = value`, `out` being parameter 3.
    fn store(idx: KExpr, value: KExpr) -> KStmt {
        KStmt::Store { mem: MemRef::Param(3), idx, value }
    }
    fn positive(e: KExpr) -> KExpr {
        KExpr::bin(BinOp::Gt, e, KExpr::int(0))
    }
    fn branch(cond: KExpr, then_: Vec<KStmt>, else_: Vec<KStmt>) -> KStmt {
        KStmt::If { cond, then_, else_ }
    }
    fn sunk(body: Vec<KStmt>) -> Vec<KStmt> {
        sink(body.clone(), &Effects::of(&body).assigns)
    }

    #[test]
    fn declarations_one_arm_reads_sink_into_it_through_each_other() {
        let body = vec![
            decl("n", at(0)),
            decl("a", at(1)),
            decl("b", var("a") + KExpr::real(1.0)),
            decl("z", at(2)),
            store(g(), KExpr::select(positive(var("n")), var("b"), var("z") * var("z"))),
        ];
        let want = vec![
            decl("n", at(0)),
            branch(
                positive(var("n")),
                vec![
                    decl("a", at(1)),
                    decl("b", var("a") + KExpr::real(1.0)),
                    store(g(), var("b")),
                ],
                vec![decl("z", at(2)), store(g(), var("z") * var("z"))],
            ),
        ];
        assert_eq!(sunk(body), want);
    }

    #[test]
    fn nested_selects_sink_arm_by_arm() {
        let inner =
            KExpr::select(KExpr::bin(BinOp::Lt, var("n"), KExpr::int(6)), var("a"), var("b"));
        let body = vec![
            decl("n", at(0)),
            decl("a", at(1)),
            decl("b", at(2)),
            store(g(), KExpr::select(positive(var("n")), inner, KExpr::real(0.0))),
        ];
        let want = vec![
            decl("n", at(0)),
            branch(
                positive(var("n")),
                vec![branch(
                    KExpr::bin(BinOp::Lt, var("n"), KExpr::int(6)),
                    vec![decl("a", at(1)), store(g(), var("a"))],
                    vec![decl("b", at(2)), store(g(), var("b"))],
                )],
                vec![store(g(), KExpr::real(0.0))],
            ),
        ];
        assert_eq!(sunk(body), want);
    }

    /// Read in both arms, in the condition, in the store index, or again
    /// after the store: the declaration stays, and with nothing to move the
    /// store is not split.
    #[test]
    fn a_declaration_read_outside_one_arm_stays_put() {
        let a = || var("a");
        let zero = || KExpr::real(0.0);
        let cases = [
            vec![store(g(), KExpr::select(positive(at(0)), a(), a() * a()))],
            vec![store(g(), KExpr::select(positive(a()), a(), zero()))],
            vec![store(
                KExpr::cast(ScalarKind::I32, a()),
                KExpr::select(positive(at(0)), a(), zero()),
            )],
            vec![store(g(), KExpr::select(positive(at(0)), a(), zero())), decl("later", a())],
            vec![branch(positive(at(0)), vec![store(g(), a())], vec![]), store(g(), a())],
        ];
        for tail in cases {
            let body: Vec<KStmt> = std::iter::once(decl("a", at(1))).chain(tail).collect();
            assert_eq!(sunk(body.clone()), body);
        }
    }

    /// Only the unbroken run of declarations before the branch moves: a
    /// load never crosses a store, an assignment, a loop or a barrier.
    #[test]
    fn nothing_sinks_across_a_store_assignment_loop_or_barrier() {
        let between = [
            store(g() + KExpr::int(1), KExpr::real(1.0)),
            KStmt::Assign { name: "acc".into(), value: KExpr::real(1.0) },
            KStmt::For {
                var: "k".into(),
                begin: KExpr::int(0),
                end: KExpr::int(2),
                step: KExpr::int(1),
                body: vec![],
            },
            KStmt::Barrier,
            KStmt::DeclPrivArray { name: "p".into(), kind: ScalarKind::F32, len: KExpr::int(2) },
        ];
        for s in between {
            let body = vec![
                decl("a", at(1)),
                s,
                store(g(), KExpr::select(positive(at(0)), var("a"), KExpr::real(0.0))),
            ];
            assert_eq!(sunk(body.clone()), body);
        }
        // A comment is not code: the run continues through it.
        let note = || KStmt::Comment("note".into());
        let select = KExpr::select(positive(at(0)), var("a"), KExpr::real(0.0));
        let want = vec![
            note(),
            branch(
                positive(at(0)),
                vec![decl("a", at(1)), store(g(), var("a"))],
                vec![store(g(), KExpr::real(0.0))],
            ),
        ];
        assert_eq!(sunk(vec![decl("a", at(1)), note(), store(g(), select)]), want);
    }

    #[test]
    fn declarations_sink_into_an_existing_branch_unless_assigned() {
        let update = || KStmt::Assign { name: "acc".into(), value: var("acc") + var("a") };
        let body = vec![
            decl("acc", at(1)),
            decl("a", at(2)),
            branch(positive(at(0)), vec![update(), store(g(), var("acc"))], vec![]),
        ];
        let want = vec![
            decl("acc", at(1)),
            branch(
                positive(at(0)),
                vec![decl("a", at(2)), update(), store(g(), var("acc"))],
                vec![],
            ),
        ];
        assert_eq!(sunk(body), want);
    }

    #[test]
    fn moved_and_remaining_declarations_keep_their_order() {
        let body = vec![
            decl("a", at(1)),
            decl("p", at(0)),
            decl("b", at(2)),
            decl("q", at(0) + var("p")),
            decl("c", var("b") - var("a")),
            store(g(), KExpr::select(positive(var("q")), var("c"), KExpr::real(0.0))),
        ];
        let want = vec![
            decl("p", at(0)),
            decl("q", at(0) + var("p")),
            branch(
                positive(var("q")),
                vec![
                    decl("a", at(1)),
                    decl("b", at(2)),
                    decl("c", var("b") - var("a")),
                    store(g(), var("c")),
                ],
                vec![store(g(), KExpr::real(0.0))],
            ),
        ];
        assert_eq!(sunk(body), want);
    }

    /// Loop bodies are blocks like any other.
    #[test]
    fn a_loop_body_is_sunk_on_its_own() {
        let looped = |body| KStmt::For {
            var: "k".into(),
            begin: KExpr::int(0),
            end: KExpr::int(4),
            step: KExpr::int(1),
            body,
        };
        let select = KExpr::select(positive(at(0)), var("a"), KExpr::real(0.0));
        let body = vec![looped(vec![decl("a", at(1)), store(var("k"), select)])];
        let want = vec![looped(vec![branch(
            positive(at(0)),
            vec![decl("a", at(1)), store(var("k"), var("a"))],
            vec![store(var("k"), KExpr::real(0.0))],
        )])];
        assert_eq!(sunk(body), want);
    }
    // ---- load forwarding ----

    /// `nbrs, a, b, out`: an `int` mask and three `float` buffers.
    fn four_buffers(body: Vec<KStmt>) -> Kernel {
        use crate::kast::KernelParam;
        let params = [("nbrs", ScalarKind::I32), ("a", ScalarKind::F32), ("b", ScalarKind::F32)]
            .into_iter()
            .chain([("out", ScalarKind::F32)])
            .map(|(n, k)| KernelParam::global_buf(n, k))
            .chain([KernelParam::scalar("N", ScalarKind::I32)])
            .collect();
        Kernel { name: "k".into(), params, body, work_dim: 1 }
    }
    fn forwarded(body: Vec<KStmt>) -> Vec<KStmt> {
        forward_loads(&four_buffers(body.clone()), body)
    }

    #[test]
    fn a_load_read_once_is_forwarded_to_its_use_across_declarations() {
        let body = vec![
            decl("x", at(1)),
            decl("y", at(2)),
            decl("s", var("y") * var("y")),
            decl("c", var("s")),
            store(g(), var("x") - var("c")),
        ];
        // `y` is read twice and stays; `x` and the copy `c` go into the store.
        let want =
            vec![decl("y", at(2)), decl("s", var("y") * var("y")), store(g(), at(1) - var("s"))];
        assert_eq!(forwarded(body), want);
    }

    /// A store, an assignment, a loop, a branch or a barrier between the
    /// load and its use keeps the load where it is; so does a second read,
    /// a read only some evaluations reach, a read in a loop body, and a
    /// declaration of another kind than the load.
    #[test]
    fn forwarding_stops_at_a_store_assignment_loop_or_barrier() {
        let between = [
            store(g() + KExpr::int(1), KExpr::real(1.0)),
            KStmt::Assign { name: "acc".into(), value: KExpr::real(1.0) },
            KStmt::For {
                var: "k".into(),
                begin: KExpr::int(0),
                end: KExpr::int(2),
                step: KExpr::int(1),
                body: vec![],
            },
            branch(positive(at(0)), vec![], vec![]),
            KStmt::Barrier,
        ];
        for s in between {
            let body = vec![decl("acc", at(2)), decl("x", at(1)), s, store(g(), var("x"))];
            assert_eq!(forwarded(body.clone()), body);
        }
        let kept = [
            vec![decl("x", at(1)), store(g(), var("x") * var("x"))],
            vec![decl("x", at(1)), store(g(), KExpr::select(positive(at(0)), var("x"), var("x")))],
            vec![
                decl("x", at(1)),
                store(g(), KExpr::select(positive(at(0)), var("x"), KExpr::real(0.0))),
            ],
            vec![
                decl("x", at(1)),
                KStmt::For {
                    var: "k".into(),
                    begin: KExpr::int(0),
                    end: KExpr::int(2),
                    step: KExpr::int(1),
                    body: vec![store(var("k"), var("x"))],
                },
            ],
            vec![
                KStmt::DeclScalar { name: "x".into(), kind: ScalarKind::F64, init: Some(at(1)) },
                store(g(), var("x")),
            ],
        ];
        for body in kept {
            assert_eq!(forwarded(body.clone()), body);
        }
        // A comment is not code, and a branch's condition runs before it.
        let note = KStmt::Comment("note".into());
        let body = vec![
            decl("x", at(1)),
            note.clone(),
            KStmt::DeclScalar { name: "n".into(), kind: ScalarKind::I32, init: Some(at(0)) },
            branch(positive(var("n")), vec![store(g(), var("x"))], vec![]),
        ];
        let want = vec![
            decl("x", at(1)),
            note,
            branch(positive(at(0)), vec![store(g(), var("x"))], vec![]),
        ];
        assert_eq!(forwarded(body), want);
    }

    // ---- loop fusion and scalar replacement ----

    fn looped(k: &str, end: KExpr, body: Vec<KStmt>) -> KStmt {
        KStmt::For { var: k.into(), begin: KExpr::int(0), end, step: KExpr::int(1), body }
    }
    fn mb() -> KExpr {
        var("MB")
    }
    fn priv_array(name: &str) -> KStmt {
        KStmt::DeclPrivArray { name: name.into(), kind: ScalarKind::F32, len: mb() }
    }
    fn priv_at(name: &str, idx: KExpr) -> KExpr {
        KExpr::load(MemRef::Priv(name.into()), idx)
    }
    fn priv_store(name: &str, idx: KExpr, value: KExpr) -> KStmt {
        KStmt::Store { mem: MemRef::Priv(name.into()), idx, value }
    }
    /// `buffer[k]` of buffer parameter `p`.
    fn at_k(p: usize, k: &str) -> KExpr {
        KExpr::load(MemRef::Param(p), var(k))
    }
    fn add_to_acc(value: KExpr) -> KStmt {
        KStmt::Assign { name: "acc".into(), value: var("acc") + value }
    }

    /// A copy loop into a private array, a declaration, a reduction over the
    /// copy: the declaration moves ahead, the loops fuse, and the array —
    /// read only at the index it was just written at — becomes a scalar.
    #[test]
    fn a_copy_loop_fuses_into_its_reduction_and_the_copy_becomes_a_scalar() {
        let body = vec![
            priv_array("p"),
            looped("k", mb(), vec![priv_store("p", var("k"), at_k(1, "k"))]),
            decl("acc", KExpr::real(0.0)),
            looped("r", mb(), vec![add_to_acc(priv_at("p", var("r")) * at_k(2, "r"))]),
        ];
        let want = vec![
            decl("acc", KExpr::real(0.0)),
            looped("k", mb(), vec![decl("p", at_k(1, "k")), add_to_acc(var("p") * at_k(2, "k"))]),
        ];
        assert_eq!(fuse(body, false), want);
    }

    /// Read again after the fused loop, the array stays an array.
    #[test]
    fn scalar_replacement_is_refused_for_an_array_read_after_its_loop() {
        let body = vec![
            priv_array("p"),
            looped("k", mb(), vec![priv_store("p", var("k"), at_k(1, "k"))]),
            looped("r", mb(), vec![add_to_acc(priv_at("p", var("r")))]),
            store(g(), priv_at("p", KExpr::int(0))),
        ];
        let want = vec![
            priv_array("p"),
            looped(
                "k",
                mb(),
                vec![priv_store("p", var("k"), at_k(1, "k")), add_to_acc(priv_at("p", var("k")))],
            ),
            store(g(), priv_at("p", KExpr::int(0))),
        ];
        assert_eq!(fuse(body, false), want);
    }

    /// No fusion for a read at another index, a loop-carried scalar, other
    /// bounds, or a store to one buffer crossing accesses to another without
    /// the distinct-buffers fact.
    #[test]
    fn fusion_is_refused_when_it_could_change_what_a_loop_sees() {
        let copy = || looped("k", mb(), vec![priv_store("p", var("k"), at_k(1, "k"))]);
        let mirrored = mb() - KExpr::int(1) - var("r");
        let refused = [
            vec![
                priv_array("p"),
                copy(),
                looped("r", mb(), vec![add_to_acc(priv_at("p", mirrored))]),
            ],
            vec![
                decl("acc", KExpr::real(0.0)),
                looped("k", mb(), vec![add_to_acc(at_k(1, "k"))]),
                looped(
                    "r",
                    mb(),
                    vec![KStmt::Store { mem: MemRef::Param(3), idx: var("r"), value: var("acc") }],
                ),
            ],
            vec![
                priv_array("p"),
                copy(),
                looped("r", mb() - KExpr::int(1), vec![add_to_acc(priv_at("p", var("r")))]),
            ],
            vec![
                looped(
                    "k",
                    mb(),
                    vec![KStmt::Store {
                        mem: MemRef::Param(3),
                        idx: var("k"),
                        value: at_k(1, "k"),
                    }],
                ),
                looped("r", mb(), vec![add_to_acc(at_k(2, "r"))]),
            ],
        ];
        for body in refused {
            assert_eq!(fuse(body.clone(), false), body);
        }
        // The same stores and loads fuse once buffers are distinct.
        let stores = vec![
            decl("acc", KExpr::real(0.0)),
            looped(
                "k",
                mb(),
                vec![KStmt::Store { mem: MemRef::Param(3), idx: var("k"), value: at_k(1, "k") }],
            ),
            looped("r", mb(), vec![add_to_acc(at_k(2, "r"))]),
        ];
        assert_eq!(fuse(stores.clone(), false), stores);
        let fused = fuse(stores, true);
        assert!(
            matches!(fused.as_slice(), [_, KStmt::For { body, .. }] if body.len() == 2),
            "{fused:?}"
        );
    }

    // ---- exterior-store elision ----

    /// The contract of [`interior_store`]: `nbrs` an interior mask over
    /// `[N]`, `out` exterior-zero or not.
    fn interior_contract(exterior_zero: bool) -> Assumptions {
        use crate::verify::BufferFacts;
        let n = || ArithExpr::var("N");
        let mut contract = Assumptions {
            global_size: vec![None],
            size_bounds: vec![("N".into(), 1)],
            interior_dims: vec![n()],
            ..Default::default()
        };
        let mut nbrs = BufferFacts::sized(n());
        nbrs.interior_mask = true;
        let mut out = BufferFacts::sized(n());
        out.exterior_zero = exterior_zero;
        contract.buffers.insert("nbrs".into(), nbrs);
        contract.buffers.insert("a".into(), BufferFacts::sized(n()));
        contract.buffers.insert("out".into(), out);
        contract
    }

    /// `if (gid ≥ N) return; int n = nbrs[gid]; float v = a[gid]; out[idx] =
    /// n > 0 ? inside : outside` simplified under [`interior_contract`]:
    /// `inside` reads `v`, so sinking splits the store.
    fn interior_store(inside: KExpr, outside: KExpr, idx: KExpr, zero: bool) -> Vec<KStmt> {
        let kernel = four_buffers(vec![
            KStmt::return_if(KExpr::bin(BinOp::Ge, g(), var("N"))),
            KStmt::DeclScalar { name: "n".into(), kind: ScalarKind::I32, init: Some(at(0)) },
            decl("v", at(1)),
            store(idx, KExpr::select(positive(var("n")), inside, outside)),
        ]);
        simplify_kernel(&kernel, &interior_contract(zero)).body
    }

    fn arms_of(body: &[KStmt]) -> (&[KStmt], &[KStmt]) {
        match body.last() {
            Some(KStmt::If { then_, else_, .. }) => (then_, else_),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn the_exterior_arm_goes_only_when_it_stores_the_zero_the_output_holds() {
        let arms = |body: Vec<KStmt>| {
            let (then_, else_) = arms_of(&body);
            (then_.len(), else_.len())
        };
        let (v, zero) = (|| var("v"), || KExpr::real(0.0));
        assert_eq!(arms(interior_store(v(), zero(), g(), true)), (1, 0));
        assert_eq!(arms(interior_store(v(), zero(), g(), false)), (1, 1), "no fact");
        assert_eq!(arms(interior_store(v(), KExpr::real(1.0), g(), true)), (1, 1), "not zero");
        assert_eq!(arms(interior_store(v(), KExpr::real(-0.0), g(), true)), (1, 1), "−0");
        let other = KExpr::int(0);
        assert_eq!(arms(interior_store(v(), zero(), other, true)), (1, 1), "another cell");
    }

    /// The interior mask read narrows the ids in its then-arm only: there
    /// `gid < 1` is decided, in the else-arm it stays.
    #[test]
    fn an_interior_mask_read_narrows_the_then_arm_only() {
        let edge = || KExpr::bin(BinOp::Lt, g(), KExpr::int(1));
        let inside = KExpr::select(edge(), KExpr::real(1.0), var("v"));
        let outside = KExpr::select(edge(), KExpr::real(2.0), KExpr::real(0.0));
        let body = interior_store(inside, outside, g(), false);
        let compares = |arm: &[KStmt]| {
            let mut found = false;
            arm.iter().for_each(|s| {
                s.for_each_stmt(&mut |s| {
                    s.for_each_expr(&mut |e| e.visit(&mut |n| found |= *n == edge()))
                })
            });
            found
        };
        let (then_, else_) = arms_of(&body);
        assert_eq!((compares(then_), compares(else_)), (false, true), "{body:?}");
    }

    /// What simplification may know of ids holds for every id in `[0, N)`:
    /// a launch's global size does not decide its own return guard, and a
    /// return guard over an assigned `int` decides no later comparison.
    #[test]
    fn return_guards_stay_and_tell_only_of_ids() {
        let beyond = || KExpr::bin(BinOp::Ge, g(), var("N"));
        let contract = Assumptions {
            global_size: vec![Some(ArithExpr::var("N"))],
            size_bounds: vec![("N".into(), 1)],
            ..Default::default()
        };
        let simplified = |body| simplify_kernel(&four_buffers(body), &contract).body;
        let guarded = simplified(vec![KStmt::return_if(beyond()), store(g(), KExpr::real(0.0))]);
        assert_eq!(guarded[0], KStmt::return_if(beyond()));
        let x = KStmt::DeclScalar { name: "x".into(), kind: ScalarKind::I32, init: Some(g()) };
        let later = || store(g(), KExpr::select(beyond(), KExpr::real(1.0), KExpr::real(2.0)));
        let body = vec![
            x,
            KStmt::Assign { name: "x".into(), value: g() },
            KStmt::return_if(KExpr::bin(BinOp::Ge, var("x"), var("N"))),
            later(),
        ];
        assert_eq!(simplified(body).last(), Some(&later()));
    }
}
