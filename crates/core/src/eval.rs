//! The symbolic evaluator the static passes walk a kernel with.
//!
//! [`Eval`] follows one control-flow path with symbolic values: the one
//! translation of a [`KExpr`] into an [`ArithExpr`] ([`Eval::value`]), and
//! the path's interval facts in a [`RangeEnv`] seeded from an
//! [`Assumptions`], narrowed by guards ([`Eval::assume`], interior facts
//! included), decided on ([`Eval::decide`]) and scoped through `if`,
//! `select` and `for` ([`Eval::branch`], [`Eval::join`],
//! [`Eval::for_loop`]). [`crate::verify`] and [`crate::simplify`] differ only
//! in the facts they seed, the atoms a guard may narrow and what they bind
//! scalars to — never in a mode of the evaluator.
//!
//! Atoms are the symbols that vary per work-item or loop iteration, marked
//! by a leading `%` no kernel identifier has: `%gid0..2`, a fresh `%loop:`
//! per loop, and `%ld:buf[idx]` per fact-carrying buffer and index, so
//! repeated loads unify.

use crate::arith::{ArithExpr, RangeEnv, SymRange};
use crate::kast::{Effects, KExpr, KStmt, Kernel, MemRef};
use crate::scalar::{BinOp, Intrinsic, Lit, UnOp};
use crate::types::ScalarKind;
use crate::verify::Assumptions;
use std::collections::BTreeMap;

pub(crate) fn gid_atom(d: u8) -> String {
    KExpr::GlobalId(d).builtin_atom().expect("NDRange dimension").to_string()
}

pub(crate) fn is_atom(name: &str) -> bool {
    name.starts_with('%')
}

pub(crate) fn is_gid_atom(name: &str) -> bool {
    name.starts_with("%gid")
}

pub(crate) fn is_load_atom(name: &str) -> bool {
    name.starts_with("%ld:")
}

fn lit_int(l: &Lit) -> Option<i64> {
    match l.kind {
        ScalarKind::I32 | ScalarKind::Bool => Some(l.value as i64),
        _ => None,
    }
}

/// Metadata for one opaque load atom.
#[derive(Clone, Debug)]
pub(crate) struct AtomInfo {
    /// The symbolic index the atom was loaded at.
    pub(crate) arg: ArithExpr,
    /// Contents of the source buffer are pairwise distinct.
    pub(crate) distinct: bool,
    /// The source buffer's parameter name.
    pub(crate) buffer: String,
}

/// Load atoms by name.
pub(crate) type Atoms = BTreeMap<String, AtomInfo>;

/// What a walk does at each load [`Eval::value`] passes, in evaluation
/// order — the interpreter's access-site order.
pub(crate) trait OnLoad {
    fn load(&mut self, ev: &Eval, mem: &MemRef, idx: &Option<ArithExpr>);
}

/// Evaluation that records nothing.
impl OnLoad for () {
    fn load(&mut self, _: &Eval, _: &MemRef, _: &Option<ArithExpr>) {}
}

/// What a scalar is bound to on a path.
#[derive(Clone, PartialEq)]
enum Bound<'k> {
    /// Its value, `None` when unknown.
    Value(Option<ArithExpr>),
    /// The initialiser of a declaration nothing assigns, valued where the
    /// scalar is read.
    Init(&'k KExpr),
}

/// The facts of one control-flow path.
#[derive(Clone)]
pub(crate) struct Path<'k> {
    pub(crate) renv: RangeEnv,
    /// What each scalar in scope is bound to.
    scalars: BTreeMap<String, Bound<'k>>,
    /// The path has returned.
    pub(crate) dead: bool,
}

/// The symbolic evaluator: the path being walked, and what every path of
/// the kernel shares.
pub(crate) struct Eval<'k> {
    pub(crate) kernel: &'k Kernel,
    pub(crate) asm: &'k Assumptions,
    /// The atoms a guard may narrow ([`RangeEnv::assume`]'s `refinable`).
    refinable: fn(&str) -> bool,
    /// Every load atom met so far, by name.
    pub(crate) atoms: Atoms,
    loops: u32,
    pub(crate) path: Path<'k>,
}

impl<'k> Eval<'k> {
    /// A walk of `kernel` from its first line under `asm`: its size bounds
    /// and defines, `get_global_id(d) ∈ [0, global_size(d) − 1]` (no upper
    /// bound where the size is unknown), and the `int` parameters bound to
    /// themselves.
    pub(crate) fn new(
        kernel: &'k Kernel,
        asm: &'k Assumptions,
        refinable: fn(&str) -> bool,
    ) -> Self {
        let mut renv = RangeEnv::new();
        for (name, lo) in &asm.size_bounds {
            renv.set_range(name.clone(), SymRange::at_least(ArithExpr::Cst(*lo)));
        }
        for (name, value) in &asm.defines {
            renv.define(name.clone(), value.clone());
        }
        for d in 0..kernel.work_dim {
            let hi =
                asm.global_size.get(d as usize).cloned().flatten().map(|g| g - ArithExpr::one());
            renv.set_range(gid_atom(d), SymRange { lo: Some(ArithExpr::Cst(0)), hi });
        }
        let scalars = kernel.params.iter().filter(|p| !p.is_buffer).map(|p| {
            let value = (p.kind == ScalarKind::I32).then(|| ArithExpr::var(p.name.as_str()));
            (p.name.clone(), Bound::Value(value))
        });
        let path = Path { renv, scalars: scalars.collect(), dead: false };
        Eval { kernel, asm, refinable, atoms: BTreeMap::new(), loops: 0, path }
    }

    /// Binds the scalar `name` to `value` (`None`: unknown) on this path.
    pub(crate) fn bind(&mut self, name: &str, value: Option<ArithExpr>) {
        self.path.scalars.insert(name.to_string(), Bound::Value(value));
    }

    /// Binds `name`, which nothing assigns, to the value of its initialiser
    /// `init`, taken where `name` is read.
    pub(crate) fn define(&mut self, name: &str, init: &'k KExpr) {
        self.path.scalars.insert(name.to_string(), Bound::Init(init));
    }

    /// The exact integer value of `e` on this path, `None` when it is not
    /// integer arithmetic over known values. `on` sees every load.
    pub(crate) fn value(&mut self, e: &KExpr, on: &mut dyn OnLoad) -> Option<ArithExpr> {
        match e {
            KExpr::Lit(l) => lit_int(l).map(ArithExpr::Cst),
            KExpr::Var(n) => match self.path.scalars.get(n)? {
                Bound::Value(v) => v.clone(),
                Bound::Init(init) => self.value(init, &mut ()),
            },
            KExpr::GlobalId(d) => Some(ArithExpr::var(gid_atom(*d))),
            KExpr::GlobalSize(d) => self.asm.global_size.get(*d as usize).cloned().flatten(),
            KExpr::LocalId(_) | KExpr::LocalSize(_) | KExpr::GroupId(_) => None,
            KExpr::Load { mem, idx } => {
                let idx = self.value(idx, on);
                on.load(self, mem, &idx);
                self.load_atom(mem, idx)
            }
            KExpr::Bin(op, a, b) => {
                let (x, y) = (self.value(a, on), self.value(b, on));
                let (x, y) = (x?, y?);
                match op {
                    BinOp::Add => Some(x + y),
                    BinOp::Sub => Some(x - y),
                    BinOp::Mul => Some(x * y),
                    BinOp::Div => Some(ArithExpr::div(x, y)),
                    BinOp::Rem => Some(ArithExpr::rem(x, y)),
                    _ => None,
                }
            }
            KExpr::Un(op, a) => {
                let x = self.value(a, on);
                x.filter(|_| *op == UnOp::Neg).map(|x| ArithExpr::Cst(0) - x)
            }
            KExpr::Select(c, t, f) => {
                // Sites are numbered across all three operands, so both
                // arms are evaluated, each under the facts its path implies
                // (pad-clamp loads sit in the false arm of a halo check).
                self.value(c, on);
                let entry = self.path.clone();
                let other = self.branch(c);
                let x = self.value(t, on);
                self.path = other;
                let y = self.value(f, on);
                self.path = entry;
                x.filter(|x| y.as_ref() == Some(x))
            }
            KExpr::Call(i, args) => {
                let values: Vec<_> = args.iter().map(|a| self.value(a, on)).collect();
                let [Some(x), Some(y)] = values.as_slice() else { return None };
                let (x, y) = (x.clone(), y.clone());
                match i {
                    Intrinsic::Min => Some(ArithExpr::min(x, y)),
                    Intrinsic::Max => Some(ArithExpr::max(x, y)),
                    _ => None,
                }
            }
            KExpr::Cast(kind, a) => {
                let x = self.value(a, on);
                x.filter(|_| *kind == ScalarKind::I32)
            }
        }
    }

    /// The opaque atom of a load from a buffer with content facts, or
    /// `None` when the value is untracked. The atom's value range is seeded
    /// into this path: content facts hold on every path.
    fn load_atom(&mut self, mem: &MemRef, idx: Option<ArithExpr>) -> Option<ArithExpr> {
        let MemRef::Param(i) = mem else { return None };
        let p = self.kernel.params.get(*i)?;
        let facts = self.asm.buffers.get(&p.name)?;
        if facts.value_range.is_none() && !facts.distinct && !facts.interior_mask {
            return None;
        }
        let idx = idx?;
        let name = format!("%ld:{}[{}]", p.name, idx);
        if !self.atoms.contains_key(&name) {
            let info = AtomInfo { arg: idx, distinct: facts.distinct, buffer: p.name.clone() };
            self.atoms.insert(name.clone(), info);
        }
        let unknown = self.path.renv.var_range(&name) == SymRange::full();
        if let Some(r) = facts.value_range.as_ref().filter(|_| unknown) {
            self.path.renv.set_range(name.clone(), r.clone());
        }
        Some(ArithExpr::var(name.as_str()))
    }

    /// Narrows this path by what `cond == truth` implies: through `!`, a
    /// true `&&` and a false `||`, each comparison becomes an interval
    /// update of the atoms the client lets refine that occur in it with
    /// coefficient ±1. A true interior trigger — `x > 0` for a declared
    /// interior guard `x` ([`Eval::guards`]) or an `x` that reads the interior
    /// mask at the work-item's own cell ([`Eval::reads_mask`]) — narrows
    /// every work-item id to the grid interior. Conservative: other facts
    /// are dropped.
    pub(crate) fn assume(&mut self, cond: &KExpr, truth: bool) {
        match cond {
            KExpr::Un(UnOp::Not, a) => self.assume(a, !truth),
            KExpr::Bin(BinOp::And, a, b) if truth => {
                self.assume(a, true);
                self.assume(b, true);
            }
            KExpr::Bin(BinOp::Or, a, b) if !truth => {
                self.assume(a, false);
                self.assume(b, false);
            }
            KExpr::Bin(op @ (BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq), a, b) => {
                if truth && (self.guards(cond) || self.reads_mask(cond).is_some()) {
                    self.interior_refine();
                }
                if let (Some(x), Some(y)) = (self.value(a, &mut ()), self.value(b, &mut ())) {
                    self.path.renv.assume(*op, truth, &x, &y, &self.refinable);
                }
            }
            _ => {}
        }
    }

    /// Decides `a op b` on this path from `d`, the expanded `a − b`:
    /// `Some(truth)` when the path's facts prove or refute it. Guards are
    /// mostly false (that is why they can go), so refutation is tried first.
    pub(crate) fn decide(&self, op: BinOp, d: &ArithExpr) -> Option<bool> {
        let env = &self.path.renv;
        // `d ≥ 0`, `d ≤ 0`, `d ≥ 1`, `d ≤ −1`, each proven on demand.
        let ge = || env.prove_nonneg(d);
        let le = || env.prove_nonneg(&(ArithExpr::zero() - d.clone()));
        let gt = || env.prove_nonneg(&(d.clone() - ArithExpr::one()));
        let lt = || env.prove_nonneg(&(ArithExpr::zero() - d.clone() - ArithExpr::one()));
        let (zero, nonzero) = (|| *d == ArithExpr::zero(), || gt() || lt());
        let (no, yes): (&dyn Fn() -> bool, &dyn Fn() -> bool) = match op {
            BinOp::Lt => (&ge, &lt),
            BinOp::Le => (&gt, &le),
            BinOp::Gt => (&le, &gt),
            BinOp::Ge => (&lt, &ge),
            BinOp::Eq => (&nonzero, &zero),
            BinOp::Ne => (&zero, &nonzero),
            _ => return None,
        };
        Some(false).filter(|_| no()).or_else(|| yes().then_some(true))
    }

    /// Splits this path at `cond`: it goes on where `cond` holds, and the
    /// path returned is where it does not.
    pub(crate) fn branch(&mut self, cond: &KExpr) -> Path<'k> {
        let mut other = self.path.clone();
        self.assume(cond, true);
        std::mem::swap(&mut self.path, &mut other);
        self.assume(cond, false);
        std::mem::swap(&mut self.path, &mut other);
        other
    }

    /// Joins `then`, where a branch's then-arm ends, with this path, where
    /// its else-arm ends: a path that returned drops out; otherwise a
    /// scalar keeps a value both agree on and each atom the convex union of
    /// its two ranges.
    pub(crate) fn join(&mut self, then: Path<'k>) {
        if then.dead {
            return;
        }
        let other = std::mem::replace(&mut self.path, then);
        if other.dead {
            return;
        }
        let joined = &mut self.path;
        for (name, value) in joined.scalars.iter_mut() {
            if other.scalars.get(name) != Some(value) {
                *value = Bound::Value(None);
            }
        }
        for name in other.scalars.keys() {
            joined.scalars.entry(name.clone()).or_insert(Bound::Value(None));
        }
        let mut vars = joined.renv.bounded_vars();
        let more: Vec<_> =
            other.renv.bounded_vars().into_iter().filter(|v| !vars.contains(v)).collect();
        vars.extend(more);
        // Every union on the then-arm's facts, before any range changes.
        let env = &joined.renv;
        let unions: Vec<_> = vars
            .into_iter()
            .map(|v| (env.union_of(&env.var_range(&v), &other.renv.var_range(&v)), v))
            .collect();
        for (u, v) in unions {
            joined.renv.set_range(v, u);
        }
    }

    /// Walks a `for var = begin .. end` loop whose `body` `run` walks once:
    /// the scalars the body assigns are unknown in it and after it, and
    /// `var` is `begin` in a loop of one trip, else a fresh atom in
    /// `[begin, end − 1]` (every value a step ≥ 1 takes).
    pub(crate) fn for_loop(
        &mut self,
        var: &str,
        begin: Option<ArithExpr>,
        end: Option<ArithExpr>,
        body: &[KStmt],
        run: impl FnOnce(&mut Self),
    ) {
        let assigned = Effects::of(body).assigns;
        self.forget(&assigned);
        let one_trip = |(b, e): (&ArithExpr, &ArithExpr)| {
            self.path.renv.prove_eq(&(e.clone() - b.clone()), &ArithExpr::one())
        };
        let value = if begin.as_ref().zip(end.as_ref()).is_some_and(one_trip) {
            begin
        } else {
            self.loops += 1;
            let atom = format!("%loop:{var}:{}", self.loops);
            let range = SymRange { lo: begin, hi: end.map(|e| e - ArithExpr::one()) };
            self.path.renv.set_range(atom.clone(), range);
            Some(ArithExpr::var(atom.as_str()))
        };
        self.bind(var, value);
        run(self);
        self.path.scalars.remove(var);
        self.forget(&assigned);
    }

    fn forget(&mut self, names: &[&str]) {
        for name in names {
            if let Some(value) = self.path.scalars.get_mut(*name) {
                *value = Bound::Value(None);
            }
        }
    }

    // ---- the contract's interior facts ----

    /// True when `cond` is `x > 0` for a declared interior guard `x`.
    pub(crate) fn guards(&self, cond: &KExpr) -> bool {
        matches!(self.positive(cond), Some(KExpr::Var(n)) if self.asm.interior_guards.contains(n))
    }

    /// The index `x` was loaded at when `cond` is `x > 0` and the value of
    /// `x` is a load from an interior mask at the work-item's own cell.
    pub(crate) fn reads_mask(&mut self, cond: &KExpr) -> Option<ArithExpr> {
        let ArithExpr::Var(atom) = self.value(self.positive(cond)?, &mut ())? else { return None };
        let info = self.atoms.get(&*atom)?;
        let mask = self.asm.buffers.get(&info.buffer).is_some_and(|f| f.interior_mask);
        (mask && self.path.renv.prove_eq(&info.arg, &self.own_lin())).then(|| info.arg.clone())
    }

    /// True when the value of `e` is provably `v` on this path.
    pub(crate) fn is(&mut self, e: &KExpr, v: &ArithExpr) -> bool {
        self.value(e, &mut ()).is_some_and(|x| self.path.renv.prove_eq(&x, v))
    }

    /// `x` when `cond` is `x > 0` under a contract with interior facts.
    fn positive<'e>(&self, cond: &'e KExpr) -> Option<&'e KExpr> {
        let KExpr::Bin(BinOp::Gt, x, zero) = cond else { return None };
        let zero = matches!(&**zero, KExpr::Lit(l) if lit_int(l) == Some(0));
        (zero && !self.asm.interior_dims.is_empty()).then_some(&**x)
    }

    /// The canonical row-major linearization the interior mask is indexed
    /// with: `(gid0+o0) + (gid1+o1)·d0 + (gid2+o2)·d0·d1`, where `o_d` is the
    /// gid offset of a slab-placed kernel.
    fn own_lin(&self) -> ArithExpr {
        let mut stride = ArithExpr::one();
        let mut terms = Vec::new();
        for (d, ext) in self.asm.interior_dims.iter().enumerate() {
            let gid = ArithExpr::var(gid_atom(d as u8)) + ArithExpr::Cst(self.asm.gid_offset(d));
            terms.push(gid * stride.clone());
            stride = stride * ext.clone();
        }
        ArithExpr::add(terms)
    }

    /// Narrows every work-item id so the offset id lies in the grid
    /// interior: `gid_d + o_d ∈ [1, dim − 2]`.
    pub(crate) fn interior_refine(&mut self) {
        let renv = &mut self.path.renv;
        for (d, ext) in self.asm.interior_dims.iter().enumerate() {
            let atom = gid_atom(d as u8);
            let off = self.asm.gid_offset(d);
            let tight =
                SymRange::new(ArithExpr::Cst(1 - off), ext.clone() - ArithExpr::Cst(2 + off));
            let refined = renv.intersect(&renv.var_range(&atom), &tight);
            renv.set_range(atom, refined);
        }
    }
}
