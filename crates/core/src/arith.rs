//! Symbolic integer arithmetic for array sizes and index expressions.
//!
//! LIFT tracks the length of every array and the index of every access as a
//! symbolic expression over named variables (grid dimensions, loop counters,
//! work-item ids). Views (see [`crate::view`]) collapse chains of data-layout
//! patterns into a single [`ArithExpr`] per memory access; the code generator
//! then prints that expression into the kernel, and the `vgpu` interpreter
//! evaluates it per work-item.
//!
//! The representation is a small normalising term algebra: n-ary sums and
//! products are flattened, constants folded, and identities removed by the
//! smart constructors. This is deliberately *not* a full computer-algebra
//! system — it only needs to keep index expressions compact and to prove the
//! simple equalities the allocator relies on (e.g. `N * 1 == N`).

use crate::scalar::BinOp;
use std::collections::BTreeMap;
use std::fmt;
// `Arc`, not `Rc`: expressions travel inside `verify::Assumptions` values
// held by process-wide launch-contract registries, so the shared nodes must
// be `Send + Sync`. They are immutable either way; only clone cost differs.
use std::sync::Arc as Rc;

/// A symbolic integer expression.
///
/// Construct via the smart constructors ([`ArithExpr::add`], [`ArithExpr::mul`],
/// …) or the `std::ops` impls, which normalise as they build. `Cst`, `Var`
/// and the composite nodes are immutable and cheaply clonable (shared
/// pointers inside composite nodes).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ArithExpr {
    /// Integer constant.
    Cst(i64),
    /// Named symbolic variable (e.g. a grid dimension `Nx` or a loop index).
    Var(Rc<str>),
    /// Flattened n-ary sum. Invariant: ≥ 2 operands, at most one constant
    /// (kept last), no nested `Sum`.
    Sum(Rc<Vec<ArithExpr>>),
    /// Flattened n-ary product. Same invariants as `Sum`.
    Prod(Rc<Vec<ArithExpr>>),
    /// Truncating integer division `a / b` (C semantics, non-negative use).
    Div(Rc<ArithExpr>, Rc<ArithExpr>),
    /// Remainder `a % b`.
    Mod(Rc<ArithExpr>, Rc<ArithExpr>),
    /// Minimum of two expressions.
    Min(Rc<ArithExpr>, Rc<ArithExpr>),
    /// Maximum of two expressions.
    Max(Rc<ArithExpr>, Rc<ArithExpr>),
}

impl ArithExpr {
    /// Constant zero.
    pub fn zero() -> Self {
        ArithExpr::Cst(0)
    }

    /// Constant one.
    pub fn one() -> Self {
        ArithExpr::Cst(1)
    }

    /// A named variable.
    pub fn var(name: impl Into<String>) -> Self {
        ArithExpr::Var(Rc::from(name.into().as_str()))
    }

    /// Integer constant.
    pub fn cst(v: i64) -> Self {
        ArithExpr::Cst(v)
    }

    /// Returns the constant value if this expression is a constant.
    pub fn as_cst(&self) -> Option<i64> {
        match self {
            ArithExpr::Cst(v) => Some(*v),
            _ => None,
        }
    }

    /// Normalising sum of `terms`.
    pub fn add(terms: Vec<ArithExpr>) -> Self {
        let mut flat = Vec::with_capacity(terms.len());
        let mut k = 0i64;
        for t in terms {
            match t {
                ArithExpr::Cst(c) => k += c,
                ArithExpr::Sum(ts) => {
                    for t in ts.iter() {
                        match t {
                            ArithExpr::Cst(c) => k += c,
                            other => flat.push(other.clone()),
                        }
                    }
                }
                other => flat.push(other),
            }
        }
        Self::collect_like_terms(&mut flat);
        if k != 0 {
            flat.push(ArithExpr::Cst(k));
        }
        match flat.len() {
            0 => ArithExpr::Cst(0),
            1 => flat.pop().unwrap(),
            _ => ArithExpr::Sum(Rc::new(flat)),
        }
    }

    /// Collects `x + x` into `2*x` (and generally sums coefficients of
    /// syntactically identical non-constant terms).
    fn collect_like_terms(flat: &mut Vec<ArithExpr>) {
        // Split each term into (coefficient, core) where `core` is the term
        // with any leading constant factor removed.
        fn split(t: &ArithExpr) -> (i64, ArithExpr) {
            if let ArithExpr::Prod(fs) = t {
                if let Some(ArithExpr::Cst(c)) = fs.last() {
                    let rest: Vec<_> = fs[..fs.len() - 1].to_vec();
                    let core = match rest.len() {
                        0 => ArithExpr::Cst(1),
                        1 => rest.into_iter().next().unwrap(),
                        _ => ArithExpr::Prod(Rc::new(rest)),
                    };
                    return (*c, core);
                }
            }
            (1, t.clone())
        }
        let mut groups: Vec<(ArithExpr, i64)> = Vec::new();
        for t in flat.drain(..) {
            let (c, core) = split(&t);
            if let Some(g) = groups.iter_mut().find(|(k, _)| *k == core) {
                g.1 += c;
            } else {
                groups.push((core, c));
            }
        }
        for (core, c) in groups {
            if c == 0 {
                continue;
            }
            if c == 1 {
                flat.push(core);
            } else {
                flat.push(ArithExpr::mul(vec![core, ArithExpr::Cst(c)]));
            }
        }
    }

    /// Normalising product of `factors`.
    pub fn mul(factors: Vec<ArithExpr>) -> Self {
        let mut flat = Vec::with_capacity(factors.len());
        let mut k = 1i64;
        for f in factors {
            match f {
                ArithExpr::Cst(c) => k *= c,
                ArithExpr::Prod(fs) => {
                    for f in fs.iter() {
                        match f {
                            ArithExpr::Cst(c) => k *= c,
                            other => flat.push(other.clone()),
                        }
                    }
                }
                other => flat.push(other),
            }
        }
        if k == 0 {
            return ArithExpr::Cst(0);
        }
        // Distribute a constant factor over a single sum: `(a + b) * k`
        // becomes `a*k + b*k`. This keeps subtraction cancellation exact
        // (`x - x = 0` for sum-valued `x`), which the allocator and the view
        // offset algebra rely on.
        if flat.len() == 1 && k != 1 {
            if let ArithExpr::Sum(ts) = &flat[0] {
                return ArithExpr::add(
                    ts.iter().map(|t| ArithExpr::mul(vec![t.clone(), ArithExpr::Cst(k)])).collect(),
                );
            }
        }
        if k != 1 {
            flat.push(ArithExpr::Cst(k));
        }
        match flat.len() {
            0 => ArithExpr::Cst(1),
            1 => flat.pop().unwrap(),
            _ => ArithExpr::Prod(Rc::new(flat)),
        }
    }

    /// Truncating division, folding constants and `x / 1`.
    /// (A static constructor, not a candidate for `std::ops::Div`.)
    #[allow(clippy::should_implement_trait)]
    pub fn div(a: ArithExpr, b: ArithExpr) -> Self {
        match (&a, &b) {
            (ArithExpr::Cst(x), ArithExpr::Cst(y)) if *y != 0 => ArithExpr::Cst(x / y),
            (_, ArithExpr::Cst(1)) => a,
            (x, y) if x == y => ArithExpr::Cst(1),
            _ => ArithExpr::Div(Rc::new(a), Rc::new(b)),
        }
    }

    /// Remainder, folding constants, `x % 1` and `0 % x`.
    /// (A static constructor, not a candidate for `std::ops::Rem`.)
    #[allow(clippy::should_implement_trait)]
    pub fn rem(a: ArithExpr, b: ArithExpr) -> Self {
        match (&a, &b) {
            (ArithExpr::Cst(x), ArithExpr::Cst(y)) if *y != 0 => ArithExpr::Cst(x % y),
            (_, ArithExpr::Cst(1)) => ArithExpr::Cst(0),
            (ArithExpr::Cst(0), _) => ArithExpr::Cst(0),
            (x, y) if x == y => ArithExpr::Cst(0),
            _ => ArithExpr::Mod(Rc::new(a), Rc::new(b)),
        }
    }

    /// Minimum, folding constants and `min(x, x)`.
    pub fn min(a: ArithExpr, b: ArithExpr) -> Self {
        match (&a, &b) {
            (ArithExpr::Cst(x), ArithExpr::Cst(y)) => ArithExpr::Cst((*x).min(*y)),
            (x, y) if x == y => a,
            _ => ArithExpr::Min(Rc::new(a), Rc::new(b)),
        }
    }

    /// Maximum, folding constants and `max(x, x)`.
    pub fn max(a: ArithExpr, b: ArithExpr) -> Self {
        match (&a, &b) {
            (ArithExpr::Cst(x), ArithExpr::Cst(y)) => ArithExpr::Cst((*x).max(*y)),
            (x, y) if x == y => a,
            _ => ArithExpr::Max(Rc::new(a), Rc::new(b)),
        }
    }

    /// Substitutes `name := value` throughout, re-normalising.
    pub fn subst(&self, name: &str, value: &ArithExpr) -> ArithExpr {
        match self {
            ArithExpr::Cst(_) => self.clone(),
            ArithExpr::Var(n) => {
                if &**n == name {
                    value.clone()
                } else {
                    self.clone()
                }
            }
            ArithExpr::Sum(ts) => ArithExpr::add(ts.iter().map(|t| t.subst(name, value)).collect()),
            ArithExpr::Prod(fs) => {
                ArithExpr::mul(fs.iter().map(|f| f.subst(name, value)).collect())
            }
            ArithExpr::Div(a, b) => ArithExpr::div(a.subst(name, value), b.subst(name, value)),
            ArithExpr::Mod(a, b) => ArithExpr::rem(a.subst(name, value), b.subst(name, value)),
            ArithExpr::Min(a, b) => ArithExpr::min(a.subst(name, value), b.subst(name, value)),
            ArithExpr::Max(a, b) => ArithExpr::max(a.subst(name, value), b.subst(name, value)),
        }
    }

    /// Applies all bindings in `env` (a parallel substitution done
    /// sequentially; fine because bindings never reference each other here).
    pub fn subst_all(&self, env: &BTreeMap<String, ArithExpr>) -> ArithExpr {
        let mut e = self.clone();
        for (k, v) in env {
            e = e.subst(k, v);
        }
        e
    }

    /// Evaluates under `env`; errors on an unbound variable or division by
    /// zero.
    pub fn eval(&self, env: &dyn Fn(&str) -> Option<i64>) -> Result<i64, ArithError> {
        match self {
            ArithExpr::Cst(v) => Ok(*v),
            ArithExpr::Var(n) => env(n).ok_or_else(|| ArithError::Unbound(n.to_string())),
            ArithExpr::Sum(ts) => {
                let mut acc = 0i64;
                for t in ts.iter() {
                    acc += t.eval(env)?;
                }
                Ok(acc)
            }
            ArithExpr::Prod(fs) => {
                let mut acc = 1i64;
                for f in fs.iter() {
                    acc *= f.eval(env)?;
                }
                Ok(acc)
            }
            ArithExpr::Div(a, b) => {
                let d = b.eval(env)?;
                if d == 0 {
                    return Err(ArithError::DivByZero);
                }
                Ok(a.eval(env)? / d)
            }
            ArithExpr::Mod(a, b) => {
                let d = b.eval(env)?;
                if d == 0 {
                    return Err(ArithError::DivByZero);
                }
                Ok(a.eval(env)? % d)
            }
            ArithExpr::Min(a, b) => Ok(a.eval(env)?.min(b.eval(env)?)),
            ArithExpr::Max(a, b) => Ok(a.eval(env)?.max(b.eval(env)?)),
        }
    }

    /// Evaluates with a map environment.
    pub fn eval_map(&self, env: &BTreeMap<String, i64>) -> Result<i64, ArithError> {
        self.eval(&|n| env.get(n).copied())
    }

    /// Collects free variable names into `out` (deduplicated, sorted).
    pub fn free_vars(&self) -> Vec<String> {
        fn go(e: &ArithExpr, out: &mut Vec<String>) {
            match e {
                ArithExpr::Cst(_) => {}
                ArithExpr::Var(n) => {
                    if !out.iter().any(|x| x == &**n) {
                        out.push(n.to_string());
                    }
                }
                ArithExpr::Sum(ts) | ArithExpr::Prod(ts) => {
                    for t in ts.iter() {
                        go(t, out);
                    }
                }
                ArithExpr::Div(a, b)
                | ArithExpr::Mod(a, b)
                | ArithExpr::Min(a, b)
                | ArithExpr::Max(a, b) => {
                    go(a, out);
                    go(b, out);
                }
            }
        }
        let mut out = Vec::new();
        go(self, &mut out);
        out.sort();
        out
    }

    /// The constant coefficient of a sum term: the constant itself, the
    /// trailing constant factor of a product, else 1.
    pub fn coeff(&self) -> i64 {
        match self {
            ArithExpr::Cst(c) => *c,
            ArithExpr::Prod(fs) => match fs.last() {
                Some(ArithExpr::Cst(c)) => *c,
                _ => 1,
            },
            _ => 1,
        }
    }

    /// True if the variable `name` occurs in the expression.
    pub fn mentions(&self, name: &str) -> bool {
        match self {
            ArithExpr::Cst(_) => false,
            ArithExpr::Var(n) => &**n == name,
            ArithExpr::Sum(ts) | ArithExpr::Prod(ts) => ts.iter().any(|t| t.mentions(name)),
            ArithExpr::Div(a, b)
            | ArithExpr::Mod(a, b)
            | ArithExpr::Min(a, b)
            | ArithExpr::Max(a, b) => a.mentions(name) || b.mentions(name),
        }
    }

    /// True if the expression contains no variables.
    pub fn is_const(&self) -> bool {
        match self {
            ArithExpr::Cst(_) => true,
            ArithExpr::Var(_) => false,
            ArithExpr::Sum(ts) | ArithExpr::Prod(ts) => ts.iter().all(|t| t.is_const()),
            ArithExpr::Div(a, b)
            | ArithExpr::Mod(a, b)
            | ArithExpr::Min(a, b)
            | ArithExpr::Max(a, b) => a.is_const() && b.is_const(),
        }
    }
}

// ---- range reasoning ----
//
// The static kernel verifier (`crate::verify`) needs to answer questions of
// the form "is this index expression provably within `[0, len)` for every
// work-item?". The machinery below is a small sound-but-incomplete interval
// calculus over `ArithExpr`:
//
// * [`SymRange`] — an inclusive interval whose endpoints are themselves
//   symbolic expressions (`gid0 ∈ [1, Nx-2]`).
// * [`RangeEnv`] — per-variable interval facts plus equality defines
//   (`S := MB·numB`), with a proof oracle `prove_nonneg` built on the
//   normalising term algebra: to show `e ≥ 0` under `v ≥ lo_v`, shift every
//   bounded variable by its lower bound (`v := v + lo_v`) and check that the
//   normal form is a sum of products of (now non-negative) variables with
//   non-negative coefficients. This proves e.g. `Nx·Ny·Nz − 1 ≥ 0` from
//   `Nx,Ny,Nz ≥ 1` without any numeric enumeration.
// * [`RangeEnv::range_of`] — bottom-up interval evaluation with the rules
//   the bounds checker relies on: monotonicity of affine maps with
//   provably non-negative coefficients, `(x mod n) ∈ [0, n-1]` for
//   `x ≥ 0, n ≥ 1`, division by positive divisors, and `min`/`max`
//   propagation.
//
// Everything here treats expressions as exact integers; the verifier
// documents the (paper-scale) assumption that kernel index arithmetic does
// not overflow `i32`.

/// An inclusive symbolic interval `[lo, hi]`; `None` means unbounded on
/// that side.
#[derive(Clone, PartialEq, Eq)]
pub struct SymRange {
    /// Inclusive lower bound (`None` = −∞).
    pub lo: Option<ArithExpr>,
    /// Inclusive upper bound (`None` = +∞).
    pub hi: Option<ArithExpr>,
}

impl SymRange {
    /// The unbounded interval.
    pub fn full() -> Self {
        SymRange { lo: None, hi: None }
    }

    /// An interval with both endpoints.
    pub fn new(lo: ArithExpr, hi: ArithExpr) -> Self {
        SymRange { lo: Some(lo), hi: Some(hi) }
    }

    /// The single-point interval `[e, e]`.
    pub fn point(e: ArithExpr) -> Self {
        SymRange { lo: Some(e.clone()), hi: Some(e) }
    }

    /// A constant interval `[a, b]`.
    pub fn cst(a: i64, b: i64) -> Self {
        SymRange::new(ArithExpr::Cst(a), ArithExpr::Cst(b))
    }

    /// `[lo, +∞)`.
    pub fn at_least(lo: ArithExpr) -> Self {
        SymRange { lo: Some(lo), hi: None }
    }

    /// The endpoint both bounds share, if this is a syntactic point
    /// interval.
    pub fn as_point(&self) -> Option<&ArithExpr> {
        match (&self.lo, &self.hi) {
            (Some(a), Some(b)) if a == b => Some(a),
            _ => None,
        }
    }
}

impl fmt::Display for SymRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.lo {
            Some(l) => write!(f, "[{l}, ")?,
            None => write!(f, "(-inf, ")?,
        }
        match &self.hi {
            Some(h) => write!(f, "{h}]"),
            None => write!(f, "+inf)"),
        }
    }
}

impl fmt::Debug for SymRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// Recursion fuel for the proof oracle; the structural `min`/`max` cases
/// branch, and index expressions are tiny, so a small bound suffices.
const PROVE_DEPTH: u32 = 16;

/// Interval facts and equality defines for symbolic variables, with a
/// sound-but-incomplete proof oracle over them.
#[derive(Clone, Default)]
pub struct RangeEnv {
    ranges: BTreeMap<String, SymRange>,
    defines: BTreeMap<String, ArithExpr>,
}

impl RangeEnv {
    /// An empty environment (every variable unbounded).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an interval fact for `name` (replacing any previous fact).
    pub fn set_range(&mut self, name: impl Into<String>, r: SymRange) {
        self.ranges.insert(name.into(), r);
    }

    /// The recorded interval for `name` (unbounded when unknown).
    pub fn var_range(&self, name: &str) -> SymRange {
        self.ranges.get(name).cloned().unwrap_or_else(SymRange::full)
    }

    /// Names of all variables with a recorded interval fact.
    pub fn bounded_vars(&self) -> Vec<String> {
        self.ranges.keys().cloned().collect()
    }

    /// Records the equality `name == value`, substituted into every
    /// expression before proving (e.g. `S := MB·numB` relates a flat state
    /// buffer's length to its stride factors).
    pub fn define(&mut self, name: impl Into<String>, value: ArithExpr) {
        self.defines.insert(name.into(), value);
    }

    /// Applies the equality defines to `e`.
    pub fn resolve(&self, e: &ArithExpr) -> ArithExpr {
        if self.defines.is_empty() {
            e.clone()
        } else {
            e.subst_all(&self.defines)
        }
    }

    /// Tries to prove `e ≥ 0` under the recorded facts. `false` means
    /// "could not prove", never "false".
    pub fn prove_nonneg(&self, e: &ArithExpr) -> bool {
        self.nonneg(&self.resolve(e), PROVE_DEPTH)
    }

    /// Tries to prove `e ≥ 1`.
    pub fn prove_pos(&self, e: &ArithExpr) -> bool {
        self.prove_nonneg(&(e.clone() - ArithExpr::one()))
    }

    /// Tries to prove `a ≤ b`, descending structurally through `min`/`max`
    /// endpoints.
    pub fn prove_le(&self, a: &ArithExpr, b: &ArithExpr) -> bool {
        self.le(&self.resolve(a), &self.resolve(b), PROVE_DEPTH)
    }

    /// Tries to prove `a < b` (integers: `a + 1 ≤ b`).
    pub fn prove_lt(&self, a: &ArithExpr, b: &ArithExpr) -> bool {
        self.prove_le(&(a.clone() + ArithExpr::one()), b)
    }

    /// Tries to prove `a == b` (by cancellation in the normal form, or by
    /// `≤` both ways).
    pub fn prove_eq(&self, a: &ArithExpr, b: &ArithExpr) -> bool {
        let d = self.resolve(a) - self.resolve(b);
        let zero = ArithExpr::Cst(0);
        d == zero || expand(&d) == zero || (self.prove_le(a, b) && self.prove_le(b, a))
    }

    fn le(&self, a: &ArithExpr, b: &ArithExpr, fuel: u32) -> bool {
        if fuel == 0 {
            return false;
        }
        if self.nonneg(&(b.clone() - a.clone()), fuel) {
            return true;
        }
        // min(x, y) ≤ b if either arm is; max needs both (and dually on
        // the right-hand side).
        match a {
            ArithExpr::Min(x, y) if self.le(x, b, fuel - 1) || self.le(y, b, fuel - 1) => {
                return true;
            }
            ArithExpr::Max(x, y) if self.le(x, b, fuel - 1) && self.le(y, b, fuel - 1) => {
                return true;
            }
            // For x ≥ 0, y ≥ 1: both `x / y` and `x mod y` are ≤ x, and
            // `x mod y` is ≤ y − 1.
            ArithExpr::Div(x, y)
                if self.nonneg(x, fuel - 1)
                    && self.nonneg(&((**y).clone() - ArithExpr::one()), fuel - 1)
                    && self.le(x, b, fuel - 1) =>
            {
                return true;
            }
            ArithExpr::Mod(x, y)
                if self.nonneg(x, fuel - 1)
                    && self.nonneg(&((**y).clone() - ArithExpr::one()), fuel - 1)
                    && (self.le(x, b, fuel - 1)
                        || self.le(&((**y).clone() - ArithExpr::one()), b, fuel - 1)) =>
            {
                return true;
            }
            _ => {}
        }
        match b {
            ArithExpr::Min(x, y) => self.le(a, x, fuel - 1) && self.le(a, y, fuel - 1),
            ArithExpr::Max(x, y) => self.le(a, x, fuel - 1) || self.le(a, y, fuel - 1),
            _ => false,
        }
    }

    fn nonneg(&self, e: &ArithExpr, fuel: u32) -> bool {
        if fuel == 0 {
            return false;
        }
        match e {
            ArithExpr::Cst(c) => return *c >= 0,
            ArithExpr::Min(a, b) => return self.nonneg(a, fuel - 1) && self.nonneg(b, fuel - 1),
            ArithExpr::Max(a, b) => return self.nonneg(a, fuel - 1) || self.nonneg(b, fuel - 1),
            // C semantics: for `a ≥ 0` and `b ≥ 1` both quotient and
            // remainder are non-negative.
            ArithExpr::Div(a, b) | ArithExpr::Mod(a, b) => {
                return self.nonneg(a, fuel - 1)
                    && self.nonneg(&((**b).clone() - ArithExpr::one()), fuel - 1)
            }
            _ => {}
        }
        // Rewrite each bounded variable so that the symbol left behind is
        // itself non-negative: a variable occurring with a negative
        // coefficient is replaced through its upper bound (`v := hi − v`,
        // the slack `hi − v_orig ≥ 0`), otherwise through its lower bound
        // (`v := v + lo`). Products are expanded over sums first so like
        // terms cancel (`(Nz−1)·Nx·Ny + (Ny−1)·Nx + (Nx−1)` collapses
        // against `Nx·Ny·Nz − 1`). After the rewrites, a sum of products of
        // justified-non-negative symbols with non-negative coefficients is
        // manifestly non-negative.
        let mut shifted = expand(e);
        let mut applied: Vec<String> = Vec::new();
        while let Some((v, use_hi)) = self.pick_subst(&shifted, &applied) {
            let r = &self.ranges[&v];
            let repl = if use_hi {
                r.hi.clone().expect("picked with hi") - ArithExpr::var(v.as_str())
            } else {
                ArithExpr::var(v.as_str()) + r.lo.clone().expect("picked with lo")
            };
            shifted = expand(&shifted.subst(&v, &repl));
            applied.push(v);
        }
        let justified = |n: &str| -> bool {
            applied.iter().any(|a| a == n)
                || matches!(
                    self.ranges.get(n).and_then(|r| r.lo.as_ref()),
                    Some(ArithExpr::Cst(c)) if *c >= 0
                )
        };
        fn term_ok(t: &ArithExpr, justified: &dyn Fn(&str) -> bool) -> bool {
            match t {
                ArithExpr::Cst(c) => *c >= 0,
                ArithExpr::Var(n) => justified(n),
                ArithExpr::Prod(fs) => fs.iter().all(|f| term_ok(f, justified)),
                ArithExpr::Sum(ts) => ts.iter().all(|f| term_ok(f, justified)),
                ArithExpr::Min(a, b) => term_ok(a, justified) && term_ok(b, justified),
                ArithExpr::Max(a, b) => term_ok(a, justified) || term_ok(b, justified),
                _ => false,
            }
        }
        match &shifted {
            ArithExpr::Sum(ts) => ts.iter().all(|t| term_ok(t, &justified)),
            other => term_ok(other, &justified),
        }
    }

    /// Chooses the next variable to rewrite in the non-negativity check:
    /// `(name, true)` for an upper-bound substitution, `(name, false)` for
    /// a lower-bound shift. `None` when no further rewrite applies.
    fn pick_subst(&self, e: &ArithExpr, applied: &[String]) -> Option<(String, bool)> {
        let terms: Vec<&ArithExpr> = match e {
            ArithExpr::Sum(ts) => ts.iter().collect(),
            other => vec![other],
        };
        for v in e.free_vars() {
            if applied.contains(&v) {
                continue;
            }
            let Some(r) = self.ranges.get(&v) else { continue };
            let neg = terms.iter().any(|t| t.coeff() < 0 && t.mentions(&v));
            if neg {
                if let Some(hi) = &r.hi {
                    if !hi.mentions(&v) {
                        return Some((v, true));
                    }
                }
            }
            if let Some(lo) = &r.lo {
                if lo != &ArithExpr::Cst(0) && !lo.mentions(&v) {
                    return Some((v, false));
                }
            }
        }
        None
    }

    /// The smaller of `a` and `b` when provable, else a symbolic
    /// [`ArithExpr::min`].
    pub fn min_of(&self, a: &ArithExpr, b: &ArithExpr) -> ArithExpr {
        if self.prove_le(a, b) {
            a.clone()
        } else if self.prove_le(b, a) {
            b.clone()
        } else {
            ArithExpr::min(a.clone(), b.clone())
        }
    }

    /// The larger of `a` and `b` when provable, else a symbolic
    /// [`ArithExpr::max`].
    pub fn max_of(&self, a: &ArithExpr, b: &ArithExpr) -> ArithExpr {
        if self.prove_le(a, b) {
            b.clone()
        } else if self.prove_le(b, a) {
            a.clone()
        } else {
            ArithExpr::max(a.clone(), b.clone())
        }
    }

    /// Intersection of two intervals (the conjunction of both facts).
    pub fn intersect(&self, a: &SymRange, b: &SymRange) -> SymRange {
        let lo = match (&a.lo, &b.lo) {
            (Some(x), Some(y)) => Some(self.max_of(x, y)),
            (Some(x), None) | (None, Some(x)) => Some(x.clone()),
            (None, None) => None,
        };
        let hi = match (&a.hi, &b.hi) {
            (Some(x), Some(y)) => Some(self.min_of(x, y)),
            (Some(x), None) | (None, Some(x)) => Some(x.clone()),
            (None, None) => None,
        };
        SymRange { lo, hi }
    }

    /// Convex union of two intervals (the join of two control-flow paths).
    pub fn union_of(&self, a: &SymRange, b: &SymRange) -> SymRange {
        let lo = match (&a.lo, &b.lo) {
            (Some(x), Some(y)) => Some(self.min_of(x, y)),
            _ => None,
        };
        let hi = match (&a.hi, &b.hi) {
            (Some(x), Some(y)) => Some(self.max_of(x, y)),
            _ => None,
        };
        SymRange { lo, hi }
    }

    /// Records what `a op b` (under `truth`) implies: an interval update
    /// for every variable accepted by `refinable` that occurs affinely with
    /// coefficient ±1 in `a − b`. Conservative: facts that can't be turned
    /// into single-variable interval updates are dropped.
    pub fn assume(
        &mut self,
        op: BinOp,
        truth: bool,
        a: &ArithExpr,
        b: &ArithExpr,
        refinable: &dyn Fn(&str) -> bool,
    ) {
        // Normalize to constraints over d = a − b.
        let d = expand(&(a.clone() - b.clone()));
        // `le`: an offset o with d + o ≤ 0; `ge`: an offset o with d − o ≥ 0.
        let (le, ge): (Option<i64>, Option<i64>) = match (op, truth) {
            (BinOp::Lt, true) => (Some(1), None),    // a ≤ b − 1
            (BinOp::Lt, false) => (None, Some(0)),   // a ≥ b
            (BinOp::Le, true) => (Some(0), None),    // a ≤ b
            (BinOp::Le, false) => (None, Some(1)),   // a ≥ b + 1
            (BinOp::Gt, true) => (None, Some(1)),    // a ≥ b + 1
            (BinOp::Gt, false) => (Some(0), None),   // a ≤ b
            (BinOp::Ge, true) => (None, Some(0)),    // a ≥ b
            (BinOp::Ge, false) => (Some(1), None),   // a ≤ b − 1
            (BinOp::Eq, true) => (Some(0), Some(0)), // a == b
            _ => (None, None),
        };
        for v in d.free_vars() {
            if !refinable(&v) {
                continue;
            }
            // The net coefficient must be the constant ±1 (affine, unit
            // stride); the residue after zeroing the variable must not
            // mention it.
            let c = expand(&(d.subst(&v, &ArithExpr::one()) - d.subst(&v, &ArithExpr::zero())));
            let rest = d.subst(&v, &ArithExpr::zero());
            let c = match c {
                ArithExpr::Cst(c) if c == 1 || c == -1 => c,
                _ => continue,
            };
            if rest.mentions(&v) {
                continue;
            }
            let mut r = self.var_range(&v);
            // The constraint is c·v + rest + o ≤ 0 and/or c·v + rest − o ≥ 0.
            if let Some(off) = le {
                let bound = ArithExpr::Cst(-off) - rest.clone();
                r = if c == 1 {
                    self.intersect(&r, &SymRange { lo: None, hi: Some(bound) })
                } else {
                    self.intersect(&r, &SymRange { lo: Some(ArithExpr::Cst(0) - bound), hi: None })
                };
            }
            if let Some(off) = ge {
                let bound = ArithExpr::Cst(off) - rest.clone();
                r = if c == 1 {
                    self.intersect(&r, &SymRange { lo: Some(bound), hi: None })
                } else {
                    self.intersect(&r, &SymRange { lo: None, hi: Some(ArithExpr::Cst(0) - bound) })
                };
            }
            self.set_range(v, r);
        }
    }

    fn mul_range(&self, a: &SymRange, b: &SymRange) -> SymRange {
        // A constant factor scales the interval directly (sign decides the
        // orientation).
        if let Some(ArithExpr::Cst(c)) = b.as_point() {
            let c = *c;
            let scale = |e: &ArithExpr| e.clone() * ArithExpr::Cst(c);
            return if c >= 0 {
                SymRange { lo: a.lo.as_ref().map(scale), hi: a.hi.as_ref().map(scale) }
            } else {
                SymRange { lo: a.hi.as_ref().map(scale), hi: a.lo.as_ref().map(scale) }
            };
        }
        if let Some(ArithExpr::Cst(_)) = a.as_point() {
            return self.mul_range(b, a);
        }
        // Both factors provably non-negative: the product is monotone in
        // each, so the endpoints multiply.
        let nonneg = |r: &SymRange| r.lo.as_ref().is_some_and(|lo| self.prove_nonneg(lo));
        if nonneg(a) && nonneg(b) {
            let lo = Some(a.lo.clone().unwrap() * b.lo.clone().unwrap());
            let hi = match (&a.hi, &b.hi) {
                (Some(x), Some(y)) => Some(x.clone() * y.clone()),
                _ => None,
            };
            return SymRange { lo, hi };
        }
        SymRange::full()
    }

    /// Bottom-up interval evaluation of `e` under the recorded facts.
    pub fn range_of(&self, e: &ArithExpr) -> SymRange {
        self.range_rec(&self.resolve(e))
    }

    fn range_rec(&self, e: &ArithExpr) -> SymRange {
        match e {
            ArithExpr::Cst(_) => SymRange::point(e.clone()),
            // A variable with a two-sided recorded range is *eliminated*
            // (replaced by its bounds — how work-item ids disappear from
            // index intervals); any other variable is kept exact as the
            // point `[v, v]`. One-sided facts (`Nx ≥ 1`) still feed the
            // proof oracle without widening interval evaluation.
            ArithExpr::Var(n) => match self.ranges.get(&**n) {
                Some(r) if r.lo.is_some() && r.hi.is_some() => r.clone(),
                _ => SymRange::point(e.clone()),
            },
            ArithExpr::Sum(ts) => {
                let mut lo = Some(ArithExpr::Cst(0));
                let mut hi = Some(ArithExpr::Cst(0));
                for t in ts.iter() {
                    let r = self.range_rec(t);
                    lo = match (lo, r.lo) {
                        (Some(a), Some(b)) => Some(a + b),
                        _ => None,
                    };
                    hi = match (hi, r.hi) {
                        (Some(a), Some(b)) => Some(a + b),
                        _ => None,
                    };
                }
                SymRange { lo, hi }
            }
            ArithExpr::Prod(fs) => {
                let mut acc = SymRange::point(ArithExpr::Cst(1));
                for f in fs.iter() {
                    acc = self.mul_range(&acc, &self.range_rec(f));
                }
                acc
            }
            ArithExpr::Div(a, b) => {
                let (ra, rb) = (self.range_rec(a), self.range_rec(b));
                let a_nonneg = ra.lo.as_ref().is_some_and(|lo| self.prove_nonneg(lo));
                let b_pos = rb.lo.as_ref().is_some_and(|lo| self.prove_pos(lo));
                if a_nonneg && b_pos {
                    // Monotone up in the dividend, down in the divisor.
                    let lo = match &rb.hi {
                        Some(bh) => ArithExpr::div(ra.lo.clone().unwrap(), bh.clone()),
                        None => ArithExpr::Cst(0),
                    };
                    let hi = ra.hi.map(|ah| ArithExpr::div(ah, rb.lo.clone().unwrap()));
                    SymRange { lo: Some(lo), hi }
                } else {
                    SymRange::full()
                }
            }
            ArithExpr::Mod(a, b) => {
                let (ra, rb) = (self.range_rec(a), self.range_rec(b));
                let a_nonneg = ra.lo.as_ref().is_some_and(|lo| self.prove_nonneg(lo));
                let b_pos = rb.lo.as_ref().is_some_and(|lo| self.prove_pos(lo));
                if a_nonneg && b_pos {
                    // `(x mod n) ∈ [0, n-1]`, and never above `x` itself.
                    let hi = match (&rb.hi, &ra.hi) {
                        (Some(bh), Some(ah)) => {
                            Some(self.min_of(&(bh.clone() - ArithExpr::one()), ah))
                        }
                        (Some(bh), None) => Some(bh.clone() - ArithExpr::one()),
                        (None, Some(ah)) => Some(ah.clone()),
                        (None, None) => None,
                    };
                    SymRange { lo: Some(ArithExpr::Cst(0)), hi }
                } else {
                    SymRange::full()
                }
            }
            ArithExpr::Min(a, b) => {
                let (ra, rb) = (self.range_rec(a), self.range_rec(b));
                let lo = match (&ra.lo, &rb.lo) {
                    (Some(x), Some(y)) => Some(self.min_of(x, y)),
                    _ => None,
                };
                let hi = match (&ra.hi, &rb.hi) {
                    (Some(x), Some(y)) => Some(self.min_of(x, y)),
                    (Some(x), None) | (None, Some(x)) => Some(x.clone()),
                    (None, None) => None,
                };
                SymRange { lo, hi }
            }
            ArithExpr::Max(a, b) => {
                let (ra, rb) = (self.range_rec(a), self.range_rec(b));
                let lo = match (&ra.lo, &rb.lo) {
                    (Some(x), Some(y)) => Some(self.max_of(x, y)),
                    (Some(x), None) | (None, Some(x)) => Some(x.clone()),
                    (None, None) => None,
                };
                let hi = match (&ra.hi, &rb.hi) {
                    (Some(x), Some(y)) => Some(self.max_of(x, y)),
                    _ => None,
                };
                SymRange { lo, hi }
            }
        }
    }
}

/// The order [`expand`] gives the factors of a product: symbols before the
/// constant, by printed form (variables print as their names, so the
/// common case compares without formatting).
fn factor_order(a: &ArithExpr, b: &ArithExpr) -> std::cmp::Ordering {
    a.is_const().cmp(&b.is_const()).then_with(|| match (a, b) {
        (ArithExpr::Var(x), ArithExpr::Var(y)) => x.cmp(y),
        _ => a.to_string().cmp(&b.to_string()),
    })
}

/// True for what [`expand`] leaves unchanged: a constant, a variable, or a
/// product of variables (and a trailing constant) already in
/// [`factor_order`].
fn is_expanded_term(t: &ArithExpr) -> bool {
    match t {
        ArithExpr::Cst(_) | ArithExpr::Var(_) => true,
        ArithExpr::Prod(fs) => {
            fs.iter().all(|f| matches!(f, ArithExpr::Cst(_) | ArithExpr::Var(_)))
                && fs.windows(2).all(|w| factor_order(&w[0], &w[1]).is_le())
        }
        _ => false,
    }
}

/// Fully distributes products over sums (recursively), so that the
/// normalising `add` can cancel like terms across polynomial identities.
/// `Div`/`Mod`/`Min`/`Max` stay opaque (their operands are expanded).
pub fn expand(e: &ArithExpr) -> ArithExpr {
    match e {
        ArithExpr::Cst(_) | ArithExpr::Var(_) => e.clone(),
        // Already a polynomial in normal form (the usual input: indices are
        // re-expanded at every proof step).
        ArithExpr::Sum(ts) if ts.iter().all(is_expanded_term) => e.clone(),
        ArithExpr::Prod(_) if is_expanded_term(e) => e.clone(),
        ArithExpr::Sum(ts) => ArithExpr::add(ts.iter().map(expand).collect()),
        ArithExpr::Prod(fs) => {
            // Cross-multiply the terms of every (expanded) factor.
            let mut acc: Vec<ArithExpr> = vec![ArithExpr::Cst(1)];
            for f in fs.iter() {
                let ef = expand(f);
                let terms: Vec<ArithExpr> = match ef {
                    ArithExpr::Sum(ts) => ts.to_vec(),
                    other => vec![other],
                };
                let mut next = Vec::with_capacity(acc.len() * terms.len());
                for a in &acc {
                    for t in &terms {
                        next.push(ArithExpr::mul(vec![a.clone(), t.clone()]));
                    }
                }
                acc = next;
            }
            // Canonically order each product's factors so `add` can merge
            // like terms regardless of how the products were built
            // (`Nz·Nx·Ny` must cancel against `Nx·Ny·Nz`).
            let acc = acc
                .into_iter()
                .map(|t| {
                    if let ArithExpr::Prod(fs) = &t {
                        let mut fs = fs.to_vec();
                        fs.sort_by(factor_order);
                        ArithExpr::Prod(Rc::new(fs))
                    } else {
                        t
                    }
                })
                .collect();
            ArithExpr::add(acc)
        }
        ArithExpr::Div(a, b) => ArithExpr::div(expand(a), expand(b)),
        ArithExpr::Mod(a, b) => ArithExpr::rem(expand(a), expand(b)),
        ArithExpr::Min(a, b) => ArithExpr::min(expand(a), expand(b)),
        ArithExpr::Max(a, b) => ArithExpr::max(expand(a), expand(b)),
    }
}

/// Errors from [`ArithExpr::eval`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArithError {
    /// A variable had no binding in the evaluation environment.
    Unbound(String),
    /// Division or remainder by zero.
    DivByZero,
}

impl fmt::Display for ArithError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArithError::Unbound(n) => write!(f, "unbound arithmetic variable `{n}`"),
            ArithError::DivByZero => write!(f, "division by zero in size/index expression"),
        }
    }
}

impl std::error::Error for ArithError {}

impl fmt::Debug for ArithExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for ArithExpr {
    /// Prints as a C expression (parenthesised conservatively).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArithExpr::Cst(v) => write!(f, "{v}"),
            ArithExpr::Var(n) => write!(f, "{n}"),
            ArithExpr::Sum(ts) => {
                write!(f, "(")?;
                for (i, t) in ts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " + ")?;
                    }
                    write!(f, "{t}")?;
                }
                write!(f, ")")
            }
            ArithExpr::Prod(fs) => {
                write!(f, "(")?;
                for (i, x) in fs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " * ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, ")")
            }
            ArithExpr::Div(a, b) => write!(f, "({a} / {b})"),
            ArithExpr::Mod(a, b) => write!(f, "({a} % {b})"),
            ArithExpr::Min(a, b) => write!(f, "min({a}, {b})"),
            ArithExpr::Max(a, b) => write!(f, "max({a}, {b})"),
        }
    }
}

impl From<i64> for ArithExpr {
    fn from(v: i64) -> Self {
        ArithExpr::Cst(v)
    }
}

impl From<usize> for ArithExpr {
    fn from(v: usize) -> Self {
        ArithExpr::Cst(v as i64)
    }
}

impl From<&str> for ArithExpr {
    fn from(v: &str) -> Self {
        ArithExpr::var(v)
    }
}

impl std::ops::Add for ArithExpr {
    type Output = ArithExpr;
    fn add(self, rhs: ArithExpr) -> ArithExpr {
        ArithExpr::add(vec![self, rhs])
    }
}

impl std::ops::Sub for ArithExpr {
    type Output = ArithExpr;
    fn sub(self, rhs: ArithExpr) -> ArithExpr {
        ArithExpr::add(vec![self, ArithExpr::mul(vec![rhs, ArithExpr::Cst(-1)])])
    }
}

impl std::ops::Mul for ArithExpr {
    type Output = ArithExpr;
    fn mul(self, rhs: ArithExpr) -> ArithExpr {
        ArithExpr::mul(vec![self, rhs])
    }
}

impl std::ops::Div for ArithExpr {
    type Output = ArithExpr;
    fn div(self, rhs: ArithExpr) -> ArithExpr {
        ArithExpr::div(self, rhs)
    }
}

impl std::ops::Rem for ArithExpr {
    type Output = ArithExpr;
    fn rem(self, rhs: ArithExpr) -> ArithExpr {
        ArithExpr::rem(self, rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: &str) -> ArithExpr {
        ArithExpr::var(n)
    }

    fn c(x: i64) -> ArithExpr {
        ArithExpr::cst(x)
    }

    #[test]
    fn constants_fold_in_sums() {
        let e = c(1) + c(2) + v("N") + c(3);
        assert_eq!(e, v("N") + c(6));
    }

    #[test]
    fn constants_fold_in_products() {
        let e = c(2) * v("N") * c(3);
        match &e {
            ArithExpr::Prod(fs) => {
                assert_eq!(fs.len(), 2);
                assert!(fs.contains(&c(6)));
            }
            other => panic!("expected product, got {other}"),
        }
    }

    #[test]
    fn zero_annihilates_product() {
        assert_eq!(v("N") * c(0), c(0));
    }

    #[test]
    fn one_is_product_identity() {
        assert_eq!(v("N") * c(1), v("N"));
    }

    #[test]
    fn zero_is_sum_identity() {
        assert_eq!(v("N") + c(0), v("N"));
    }

    #[test]
    fn like_terms_collect() {
        let e = v("x") + v("x");
        assert_eq!(e, v("x") * c(2));
    }

    #[test]
    fn subtraction_cancels() {
        let e = v("x") + v("y") - v("x");
        assert_eq!(e, v("y"));
    }

    #[test]
    fn nested_sums_flatten() {
        let e = (v("a") + v("b")) + (v("c") + c(1));
        match &e {
            ArithExpr::Sum(ts) => assert_eq!(ts.len(), 4),
            other => panic!("expected sum, got {other}"),
        }
    }

    #[test]
    fn div_identities() {
        assert_eq!(ArithExpr::div(v("N"), c(1)), v("N"));
        assert_eq!(ArithExpr::div(v("N"), v("N")), c(1));
        assert_eq!(ArithExpr::div(c(7), c(2)), c(3));
    }

    #[test]
    fn mod_identities() {
        assert_eq!(ArithExpr::rem(v("N"), c(1)), c(0));
        assert_eq!(ArithExpr::rem(v("N"), v("N")), c(0));
        assert_eq!(ArithExpr::rem(c(7), c(2)), c(1));
    }

    #[test]
    fn eval_basic() {
        let e = (v("x") + c(2)) * v("y");
        let mut env = BTreeMap::new();
        env.insert("x".to_string(), 3);
        env.insert("y".to_string(), 5);
        assert_eq!(e.eval_map(&env), Ok(25));
    }

    #[test]
    fn eval_unbound_errors() {
        let e = v("zz");
        assert_eq!(e.eval_map(&BTreeMap::new()), Err(ArithError::Unbound("zz".into())));
    }

    #[test]
    fn eval_div_by_zero_errors() {
        let e = ArithExpr::Div(Rc::new(c(1)), Rc::new(c(0)));
        assert_eq!(e.eval_map(&BTreeMap::new()), Err(ArithError::DivByZero));
    }

    #[test]
    fn subst_renormalises() {
        let e = v("x") * v("y");
        assert_eq!(e.subst("x", &c(0)), c(0));
        assert_eq!(e.subst("y", &c(1)), v("x"));
    }

    #[test]
    fn subst_all_applies_every_binding() {
        let e = v("x") + v("y");
        let mut env = BTreeMap::new();
        env.insert("x".into(), c(1));
        env.insert("y".into(), c(2));
        assert_eq!(e.subst_all(&env), c(3));
    }

    #[test]
    fn free_vars_sorted_dedup() {
        let e = v("b") + v("a") * v("b");
        assert_eq!(e.free_vars(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn min_max_fold() {
        assert_eq!(ArithExpr::min(c(2), c(5)), c(2));
        assert_eq!(ArithExpr::max(c(2), c(5)), c(5));
        assert_eq!(ArithExpr::min(v("n"), v("n")), v("n"));
    }

    #[test]
    fn display_is_c_like() {
        let e = (v("z") * v("Nx") * v("Ny")) + v("x");
        let s = format!("{e}");
        assert!(s.contains("Nx"), "{s}");
        assert!(s.contains('+'), "{s}");
    }

    // ---- range reasoning ----

    fn grid_env() -> RangeEnv {
        let mut env = RangeEnv::new();
        for d in ["Nx", "Ny", "Nz"] {
            env.set_range(d, SymRange::at_least(c(1)));
        }
        env.set_range("gid0", SymRange::new(c(0), v("Nx") - c(1)));
        env.set_range("gid1", SymRange::new(c(0), v("Ny") - c(1)));
        env.set_range("gid2", SymRange::new(c(0), v("Nz") - c(1)));
        env
    }

    #[test]
    fn prove_nonneg_shifts_lower_bounds() {
        let env = grid_env();
        // Nx·Ny·Nz − 1 ≥ 0 given Nx,Ny,Nz ≥ 1.
        assert!(env.prove_nonneg(&(v("Nx") * v("Ny") * v("Nz") - c(1))));
        // Nx − 2 is not provable from Nx ≥ 1.
        assert!(!env.prove_nonneg(&(v("Nx") - c(2))));
        // gid0 ≥ 0 directly.
        assert!(env.prove_nonneg(&v("gid0")));
    }

    #[test]
    fn prove_le_handles_min_max() {
        let env = grid_env();
        let n1 = v("Nx") - c(1);
        assert!(env.prove_le(&ArithExpr::min(v("gid0"), c(3)), &c(3)));
        assert!(env.prove_le(&ArithExpr::max(v("gid0"), c(0)), &n1));
        assert!(env.prove_le(&v("gid0"), &ArithExpr::max(n1.clone(), c(7))));
        assert!(!env.prove_le(&ArithExpr::max(v("gid0"), v("Nx")), &n1));
    }

    #[test]
    fn range_of_linearized_index_is_in_bounds() {
        let env = grid_env();
        // The canonical row-major linearization of a 3-d grid index.
        let idx = v("gid2") * v("Nx") * v("Ny") + v("gid1") * v("Nx") + v("gid0");
        let r = env.range_of(&idx);
        assert_eq!(r.lo, Some(c(0)));
        // Telescoping upper bound: Nx·Ny·Nz − 1.
        let hi = r.hi.expect("bounded");
        assert!(env.prove_le(&hi, &(v("Nx") * v("Ny") * v("Nz") - c(1))), "hi = {hi}");
    }

    #[test]
    fn range_of_mod_rule() {
        let env = grid_env();
        let r = env.range_of(&(v("gid0") % v("Nx")));
        assert_eq!(r.lo, Some(c(0)));
        let hi = r.hi.expect("bounded");
        assert!(env.prove_le(&hi, &(v("Nx") - c(1))), "hi = {hi}");
        // Remainder by an unbounded-but-positive divisor is still capped by
        // the dividend.
        let mut env2 = RangeEnv::new();
        env2.set_range("x", SymRange::new(c(0), c(9)));
        env2.set_range("n", SymRange::at_least(c(1)));
        let r2 = env2.range_of(&(v("x") % v("n")));
        assert_eq!(r2.lo, Some(c(0)));
        // The cap stays symbolic (min(n-1, 9)) but is provably ≤ 9.
        assert!(env2.prove_le(r2.hi.as_ref().expect("bounded"), &c(9)));
    }

    #[test]
    fn range_of_div_rule() {
        let mut env = RangeEnv::new();
        env.set_range("x", SymRange::new(c(0), v("N") - c(1)));
        env.set_range("N", SymRange::at_least(c(1)));
        let r = env.range_of(&ArithExpr::div(v("x"), c(4)));
        assert_eq!(r.lo, Some(c(0)));
        let hi = r.hi.expect("bounded");
        assert!(env.prove_le(&hi, &(v("N") - c(1))), "hi = {hi}");
    }

    #[test]
    fn range_of_negative_coefficient_flips_bounds() {
        let env = grid_env();
        // Nx − 1 − gid0 ∈ [0, Nx − 1] (mirror index).
        let r = env.range_of(&(v("Nx") - c(1) - v("gid0")));
        assert!(env.prove_nonneg(r.lo.as_ref().expect("bounded")));
        assert!(env.prove_le(r.hi.as_ref().expect("bounded"), &(v("Nx") - c(1))));
    }

    #[test]
    fn defines_relate_aliased_sizes() {
        let mut env = RangeEnv::new();
        env.set_range("MB", SymRange::at_least(c(1)));
        env.set_range("numB", SymRange::at_least(c(1)));
        env.define("S", v("MB") * v("numB"));
        // S − numB ≥ 0 only via the define.
        assert!(env.prove_nonneg(&(v("S") - v("numB"))));
    }

    #[test]
    fn intersect_and_union() {
        let env = grid_env();
        let a = SymRange::cst(0, 10);
        let b = SymRange::new(c(2), v("Nx"));
        let i = env.intersect(&a, &b);
        assert_eq!(i.lo, Some(c(2)));
        let u = env.union_of(&a, &b);
        assert_eq!(u.lo, Some(c(0)));
    }

    #[test]
    fn min_max_resolution() {
        let env = grid_env();
        assert_eq!(env.min_of(&v("gid0"), &(v("Nx") + c(5))), v("gid0"));
        assert_eq!(env.max_of(&v("gid0"), &c(0)), v("gid0"));
        // Incomparable operands stay symbolic.
        let m = env.min_of(&v("gid0"), &v("gid1"));
        assert_eq!(m, ArithExpr::min(v("gid0"), v("gid1")));
    }
}
