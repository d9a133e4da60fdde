//! Static verification of lowered kernels.
//!
//! Two analyses run over the [`crate::kast`] form of a kernel — the same
//! form the `vgpu` device executes and the OpenCL emitter prints, so a
//! verdict here covers both backends:
//!
//! * a **symbolic bounds checker** that derives an interval for every
//!   load/store index (over work-item ids, loop variables and opaque
//!   gather values) and classifies each access site as
//!   [`Verdict::Proven`] or [`Verdict::Potential`] against the buffer's
//!   symbolic length;
//! * a **static write-race detector** that proves the store index maps of
//!   a kernel pairwise disjoint across work-items (injectivity of affine
//!   gid maps via a mixed-radix argument, distinctness of gather indices,
//!   symbolic range disjointness between different maps), or flags the
//!   overlap — including a [`RaceVerdict::Definite`] verdict with a
//!   witness element when every work-item provably writes the same cell.
//!
//! Both passes mirror the access-site numbering of the `vgpu` interpreter
//! (`prepare` assigns a load's site after its index sub-expression, a
//! store's site after index and value), so static provenance lines up
//! with dynamic race reports site-for-site.
//!
//! # Soundness caveats
//!
//! "Proven" is relative to the facts in [`Assumptions`]: buffer lengths
//! and launch sizes must match how the kernel is actually launched, and
//! content facts ([`BufferFacts::value_range`], [`BufferFacts::distinct`],
//! [`BufferFacts::interior_mask`], [`Assumptions::interior_guards`]) are
//! assumed data invariants — the differential harness cross-checks them
//! against the shadow sanitizer's dynamic write-race check. Index arithmetic is treated as
//! exact integers (no `i32` wrap-around), and `for` steps are taken to be
//! ≥ 1, matching the interpreter's clamp. A
//! [`RaceVerdict::Definite`] verdict assumes the launch spans at least
//! two work-items.

use crate::arith::{expand, ArithExpr, RangeEnv, SymRange};
use crate::eval::{gid_atom, is_atom, is_gid_atom, is_load_atom, Atoms, Eval, OnLoad};
use crate::footprint::{classify_kernel, AccessRecord, KernelFootprints};
use crate::kast::{KStmt, Kernel, MemRef, MemSpace};
use std::collections::BTreeMap;
use std::fmt;

/// Facts about one buffer parameter, keyed by parameter name in
/// [`Assumptions::buffers`].
#[derive(Clone, Debug)]
pub struct BufferFacts {
    /// Symbolic element count the buffer is allocated with.
    pub len: ArithExpr,
    /// Range every *element value* of the buffer lies in (for integer
    /// gather tables such as `boundaryIndices`); enables bounds proofs
    /// through indirect indexing. Assumed, not derived.
    pub value_range: Option<SymRange>,
    /// Element values are pairwise distinct (a permutation-like gather
    /// table); enables race proofs through indirect stores. Assumed.
    pub distinct: bool,
    /// The buffer is an interior mask over the canonical row-major grid:
    /// `buf[lin(gid)] > 0` implies every `gid` is at least 1 away from
    /// each face (see [`Assumptions::interior_dims`]). Assumed.
    pub interior_mask: bool,
    /// On entry the buffer holds `+0` at every cell a work-item indexes
    /// (`buf[lin(gid)]`) whose interior-mask entry is not positive — an
    /// output whose exterior no launch writes. Licenses dropping a store of
    /// `0` to such a cell ([`crate::simplify`]). Assumed, checked
    /// dynamically under a sanitizing runtime.
    pub exterior_zero: bool,
}

impl BufferFacts {
    /// Facts carrying only a length.
    pub fn sized(len: ArithExpr) -> Self {
        BufferFacts {
            len,
            value_range: None,
            distinct: false,
            interior_mask: false,
            exterior_zero: false,
        }
    }

    /// Adds a content value range.
    pub fn with_values(mut self, r: SymRange) -> Self {
        self.value_range = Some(r);
        self
    }

    /// Marks the contents pairwise distinct.
    pub fn with_distinct(mut self) -> Self {
        self.distinct = true;
        self
    }
}

/// The launch/allocation contract a kernel is verified against.
#[derive(Clone, Debug, Default)]
pub struct Assumptions {
    /// Per-dimension global size; `None` leaves that work-item id
    /// unbounded above, so in-kernel guards must establish the range.
    pub global_size: Vec<Option<ArithExpr>>,
    /// Lower bounds for symbolic size variables, e.g. `("Nx", 1)`.
    pub size_bounds: Vec<(String, i64)>,
    /// Equality defines relating aliased sizes, e.g. `S := MB·numB`.
    pub defines: Vec<(String, ArithExpr)>,
    /// Per-buffer facts, keyed by kernel parameter name.
    pub buffers: BTreeMap<String, BufferFacts>,
    /// Scalar variable names whose positivity implies the work-item is in
    /// the grid interior (hand-written kernels compute such a flag from
    /// halo checks). Assumed, cross-checked dynamically.
    pub interior_guards: Vec<String>,
    /// Grid extents used by interior refinement (`gid_d ∈ [1, dim_d−2]`)
    /// and by the canonical linearization an interior mask is indexed
    /// with. Empty when no interior facts apply.
    pub interior_dims: Vec<ArithExpr>,
    /// Per-dimension constant offset the kernel adds to each work-item id
    /// (slab-placed kernels produced by `Kernel::shift_gid` index their
    /// grid at `gid_d + offset_d`). The canonical linearization and the
    /// interior refinement shift with it: the interior fact becomes
    /// `gid_d + offset_d ∈ [1, dim_d−2]`. Missing entries are 0.
    pub gid_offsets: Vec<i64>,
    /// Distinct buffer parameters name distinct allocations (C's
    /// `restrict`): a store through one never changes what another reads.
    /// Licenses moving a global access across a store to another buffer
    /// ([`crate::simplify`]'s loop fusion). Assumed; the host that binds the
    /// buffers checks it once.
    pub distinct_buffers: bool,
}

impl Assumptions {
    /// The constant gid offset for dimension `d` (0 when unset).
    pub(crate) fn gid_offset(&self, d: usize) -> i64 {
        self.gid_offsets.get(d).copied().unwrap_or(0)
    }
}

/// Whether an access site reads or writes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// Indexed load.
    Load,
    /// Indexed store.
    Store,
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Load => write!(f, "load"),
            AccessKind::Store => write!(f, "store"),
        }
    }
}

/// Outcome of the bounds check for one access site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Both bounds proven for every work-item and loop iteration.
    Proven,
    /// At least one bound could not be established.
    Potential,
}

/// One access-site bounds record.
#[derive(Clone, Debug)]
pub struct SiteReport {
    /// Kernel name.
    pub kernel: String,
    /// Access site id (shared load/store numbering, mirrors the
    /// interpreter's).
    pub site: u32,
    /// Load or store.
    pub kind: AccessKind,
    /// Buffer (parameter or private/local array) name.
    pub buffer: String,
    /// Rendered symbolic index, when derivable.
    pub index: String,
    /// Rendered derived interval for the index.
    pub range: String,
    /// Verdict for this site.
    pub verdict: Verdict,
    /// Why the site is unproven (empty for proven sites).
    pub reason: String,
}

/// Outcome of the write-race check for one buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RaceVerdict {
    /// All store maps proven pairwise disjoint across work-items.
    ProvenDisjoint,
    /// Disjointness could not be established.
    Potential,
    /// Work-items provably collide on the rendered element.
    Definite {
        /// The element distinct work-items write.
        element: String,
    },
}

/// One per-buffer write-race record.
#[derive(Clone, Debug)]
pub struct RaceReport {
    /// Kernel name.
    pub kernel: String,
    /// Buffer (parameter) name.
    pub buffer: String,
    /// Store sites involved.
    pub sites: Vec<u32>,
    /// Verdict for this buffer.
    pub verdict: RaceVerdict,
    /// Why disjointness is unproven (empty when proven).
    pub reason: String,
}

/// Full static report for one kernel.
#[derive(Clone, Debug, Default)]
pub struct KernelReport {
    /// Kernel name.
    pub kernel: String,
    /// Bounds verdicts, one per access site.
    pub sites: Vec<SiteReport>,
    /// Race verdicts, one per stored-to global buffer.
    pub races: Vec<RaceReport>,
    /// Per-site access footprints on global/constant buffer parameters
    /// (see [`crate::footprint`]).
    pub footprints: KernelFootprints,
}

impl KernelReport {
    /// True when every site and every buffer is proven.
    pub fn is_proven(&self) -> bool {
        self.sites.iter().all(|s| s.verdict == Verdict::Proven)
            && self.races.iter().all(|r| r.verdict == RaceVerdict::ProvenDisjoint)
    }

    /// Per-site proof table for executors that want to elide dynamic
    /// bounds checks. A site is proven only when *every* report for it is
    /// [`Verdict::Proven`] (per-material or per-loop revisits of one site
    /// take the meet); sites with no report — e.g. in statically dead
    /// code the checker skipped — stay unproven.
    pub fn proof_table(&self) -> ProofTable {
        let max = self.sites.iter().map(|s| s.site + 1).max().unwrap_or(0);
        let mut proven = vec![false; max as usize];
        let mut seen = vec![false; max as usize];
        for s in &self.sites {
            let i = s.site as usize;
            let p = s.verdict == Verdict::Proven;
            proven[i] = if seen[i] { proven[i] && p } else { p };
            seen[i] = true;
        }
        ProofTable { proven }
    }
}

/// Dense per-access-site bounds-proof bits, indexed by the interpreter's
/// site numbering. Built by [`KernelReport::proof_table`]; consumed by
/// executors that elide per-access bounds checks at proven sites.
#[derive(Clone, Debug, Default)]
pub struct ProofTable {
    proven: Vec<bool>,
}

impl ProofTable {
    /// True when the bounds at `site` were proven for every work-item.
    /// Unknown sites (beyond the table) are conservatively unproven.
    pub fn proven(&self, site: u32) -> bool {
        self.proven.get(site as usize).copied().unwrap_or(false)
    }

    /// `(proven, potential)` counts over the sites the table covers.
    pub fn counts(&self) -> (usize, usize) {
        let p = self.proven.iter().filter(|&&b| b).count();
        (p, self.proven.len() - p)
    }
}

/// Drops duplicate site records, keeping one per `(kernel, site, reason)`
/// — much as the interpreter's divergence records are deduplicated per
/// kernel, so repeated verification of per-material or
/// per-precision variants of one kernel doesn't multiply identical
/// diagnostics.
pub fn dedupe_sites(sites: Vec<SiteReport>) -> Vec<SiteReport> {
    dedupe(sites, |s| (s.kernel.clone(), s.site, s.reason.clone()))
}

/// Drops duplicate race records, keeping one per
/// `(kernel, buffer, reason)`.
pub fn dedupe_races(races: Vec<RaceReport>) -> Vec<RaceReport> {
    dedupe(races, |r| (r.kernel.clone(), r.buffer.clone(), r.reason.clone()))
}

/// The first item of each `key`, in order.
fn dedupe<T, K: PartialEq>(items: Vec<T>, key: impl Fn(&T) -> K) -> Vec<T> {
    let (mut seen, mut out) = (Vec::new(), Vec::with_capacity(items.len()));
    for x in items {
        let k = key(&x);
        if !seen.contains(&k) {
            seen.push(k);
            out.push(x);
        }
    }
    out
}

/// The verifier's walk: what it records on the paths [`Eval`] follows.
#[derive(Default)]
struct Out {
    next_site: u32,
    sites: Vec<SiteReport>,
    /// Lengths of private/local arrays, recorded at their declaration.
    decl_lens: BTreeMap<String, ArithExpr>,
    /// Raw access records on buffer parameters, with the range facts in
    /// force at each, handed to the race pass and the footprint classifier
    /// after traversal.
    records: Vec<AccessRecord>,
}

/// Runs both static passes over `kernel` under `asm`.
pub fn verify_kernel(kernel: &Kernel, asm: &Assumptions) -> KernelReport {
    let (mut ev, mut out) = (Eval::new(kernel, asm, is_atom), Out::default());
    out.stmts(&kernel.body, &mut ev);

    let races = race_pass(kernel, &out.records, &ev.atoms);
    let footprints = classify_kernel(&kernel.name, asm, &out.records, &ev.atoms);
    KernelReport {
        kernel: kernel.name.clone(),
        sites: dedupe_sites(out.sites),
        races: dedupe_races(races),
        footprints,
    }
}

fn buf_name(kernel: &Kernel, mem: &MemRef) -> String {
    match mem {
        MemRef::Param(i) => {
            kernel.params.get(*i).map(|p| p.name.clone()).unwrap_or_else(|| format!("param{i}"))
        }
        MemRef::Priv(n) | MemRef::Local(n) => n.clone(),
    }
}

/// A load's site comes after its index sub-expression, as the
/// interpreter numbers it.
impl OnLoad for Out {
    fn load(&mut self, ev: &Eval, mem: &MemRef, idx: &Option<ArithExpr>) {
        let site = self.site();
        self.check_bounds(AccessKind::Load, mem, idx, site, ev);
    }
}

impl Out {
    fn site(&mut self) -> u32 {
        self.next_site += 1;
        self.next_site - 1
    }

    fn buf_len(&self, mem: &MemRef, ev: &Eval) -> Option<ArithExpr> {
        match mem {
            MemRef::Param(i) => {
                let p = ev.kernel.params.get(*i)?;
                ev.asm.buffers.get(&p.name).map(|f| f.len.clone())
            }
            MemRef::Priv(n) | MemRef::Local(n) => self.decl_lens.get(n).cloned(),
        }
    }

    fn check_bounds(
        &mut self,
        kind: AccessKind,
        mem: &MemRef,
        idx: &Option<ArithExpr>,
        site: u32,
        ev: &Eval,
    ) {
        if ev.path.dead {
            return;
        }
        let (renv, buffer) = (&ev.path.renv, buf_name(ev.kernel, mem));
        if matches!(mem, MemRef::Param(_)) {
            let (buffer, sym, renv) = (buffer.clone(), idx.clone(), renv.clone());
            self.records.push(AccessRecord { site, kind, buffer, sym, renv });
        }
        let index = idx.as_ref().map_or_else(|| "<non-affine>".to_string(), |i| format!("{i}"));
        let (proven, range, reason) = match (idx, self.buf_len(mem, ev)) {
            (None, _) => (false, String::new(), "index is not an affine/tracked expression".into()),
            (Some(_), None) => {
                (false, String::new(), format!("no length fact for buffer `{buffer}`"))
            }
            (Some(idx), Some(len)) => {
                let r = renv.range_of(idx);
                let lo_ok = r.lo.as_ref().is_some_and(|lo| renv.prove_nonneg(lo));
                let last = len.clone() - ArithExpr::one();
                let hi_ok = r.hi.as_ref().is_some_and(|hi| renv.prove_le(hi, &last));
                let reason = match (lo_ok, hi_ok) {
                    (true, true) => String::new(),
                    (false, _) => format!("lower bound unproven: index range {r} vs 0"),
                    (true, false) => format!("upper bound unproven: index range {r} vs len {len}"),
                };
                (lo_ok && hi_ok, format!("{r}"), reason)
            }
        };
        let verdict = if proven { Verdict::Proven } else { Verdict::Potential };
        let kernel = ev.kernel.name.clone();
        self.sites.push(SiteReport { kernel, site, kind, buffer, index, range, verdict, reason });
    }

    fn stmts(&mut self, stmts: &[KStmt], ev: &mut Eval) {
        for s in stmts {
            self.stmt(s, ev);
        }
    }

    fn stmt(&mut self, s: &KStmt, ev: &mut Eval) {
        match s {
            KStmt::DeclScalar { name, init, .. } => {
                let value = init.as_ref().and_then(|e| ev.value(e, self));
                ev.bind(name, value);
            }
            KStmt::DeclPrivArray { name, len, .. } | KStmt::DeclLocalArray { name, len, .. } => {
                if let Some(l) = ev.value(len, self) {
                    self.decl_lens.insert(name.clone(), l);
                }
            }
            KStmt::Assign { name, value } => {
                let value = ev.value(value, self);
                ev.bind(name, value);
            }
            KStmt::Store { mem, idx, value } => {
                // A store's site comes after its index and value.
                let idx = ev.value(idx, self);
                ev.value(value, self);
                let site = self.site();
                self.check_bounds(AccessKind::Store, mem, &idx, site, ev);
            }
            KStmt::For { var, begin, end, step, body } => {
                let (b, e) = (ev.value(begin, self), ev.value(end, self));
                ev.value(step, self);
                ev.for_loop(var, b, e, body, |ev| self.stmts(body, ev));
            }
            KStmt::If { cond, then_, else_ } => {
                ev.value(cond, self);
                let other = ev.branch(cond);
                self.stmts(then_, ev);
                let then = std::mem::replace(&mut ev.path, other);
                self.stmts(else_, ev);
                ev.join(then);
            }
            KStmt::Return => ev.path.dead = true,
            KStmt::Barrier | KStmt::Comment(_) => {}
        }
    }
}

// ---- write-race pass ----

/// Maximum number of store-map atoms for which stride permutations are
/// tried (4! = 24 orders).
const MAX_RADIX_ATOMS: usize = 4;

/// The race verdict of every global or local buffer parameter stored to;
/// `atoms` holds every load atom the walk met.
fn race_pass(kernel: &Kernel, records: &[AccessRecord], atoms: &Atoms) -> Vec<RaceReport> {
    let shared = |r: &&AccessRecord| {
        let p = kernel.params.iter().find(|p| p.name == r.buffer);
        r.kind == AccessKind::Store && p.is_some_and(|p| p.space != MemSpace::Private)
    };
    let stores: Vec<&AccessRecord> = records.iter().filter(shared).collect();
    let mut buffers: Vec<String> = Vec::new();
    for s in &stores {
        if !buffers.contains(&s.buffer) {
            buffers.push(s.buffer.clone());
        }
    }
    buffers
        .into_iter()
        .map(|buf| {
            let group: Vec<&AccessRecord> =
                stores.iter().copied().filter(|s| s.buffer == buf).collect();
            let sites: Vec<u32> = group.iter().map(|s| s.site).collect();
            let (verdict, reason) = race_verdict(&group, atoms, kernel.work_dim);
            RaceReport { kernel: kernel.name.clone(), buffer: buf, sites, verdict, reason }
        })
        .collect()
}

fn race_verdict(group: &[&AccessRecord], atoms: &Atoms, work_dim: u8) -> (RaceVerdict, String) {
    if group.iter().any(|s| s.sym.is_none()) {
        return (RaceVerdict::Potential, "store index is not an affine/tracked expression".into());
    }
    // Distinct maps only: several syntactic stores through one map are
    // same-element writes by the *same* work-item, which the dynamic
    // checker (counting distinct items per element) also permits.
    let mut maps: Vec<(&AccessRecord, ArithExpr)> = Vec::new();
    for s in group {
        let sym = expand(s.sym.as_ref().expect("checked above"));
        if !maps.iter().any(|(_, m)| *m == sym) {
            maps.push((s, sym));
        }
    }
    for (s, m) in &maps {
        let (v, reason) = single_map_verdict(s, m, atoms, work_dim);
        if v != RaceVerdict::ProvenDisjoint {
            return (v, reason);
        }
    }
    // Different maps must additionally be pairwise disjoint.
    for i in 0..maps.len() {
        for j in i + 1..maps.len() {
            if !maps_disjoint(maps[i].0, &maps[i].1, &maps[j].1) {
                return (
                    RaceVerdict::Potential,
                    format!(
                        "overlap between store maps at sites {} and {} unrefuted",
                        maps[i].0.site, maps[j].0.site
                    ),
                );
            }
        }
    }
    (RaceVerdict::ProvenDisjoint, String::new())
}

/// Splits an expanded map into (atom, coefficient) pairs and an atom-free
/// base; `None` when an atom occurs non-affinely (under `Div`/`Mod`/
/// `Min`/`Max`, or multiplied by another atom).
pub(crate) fn affine_split(m: &ArithExpr) -> Option<(Vec<(String, ArithExpr)>, ArithExpr)> {
    let mut pairs = Vec::new();
    let mut rest = m.clone();
    for v in m.free_vars() {
        if !is_atom(&v) {
            continue;
        }
        let c = expand(&(m.subst(&v, &ArithExpr::one()) - m.subst(&v, &ArithExpr::zero())));
        // Linearity: the coefficient must not mention any atom, and the
        // second difference must match the first.
        if c.free_vars().iter().any(|w| is_atom(w)) {
            return None;
        }
        let c2 = expand(&(m.subst(&v, &ArithExpr::Cst(2)) - m.subst(&v, &ArithExpr::one())));
        if c2 != c {
            return None;
        }
        rest = rest.subst(&v, &ArithExpr::zero());
        pairs.push((v, c));
    }
    if expand(&rest).free_vars().iter().any(|w| is_atom(w)) {
        return None;
    }
    Some((pairs, expand(&rest)))
}

fn single_map_verdict(
    s: &AccessRecord,
    m: &ArithExpr,
    atoms: &Atoms,
    work_dim: u8,
) -> (RaceVerdict, String) {
    let Some((pairs, base)) = affine_split(m) else {
        return (
            RaceVerdict::Potential,
            "store index depends non-affinely on a work-item/loop/gather value".into(),
        );
    };
    let gid_dependent = pairs.iter().any(|(n, _)| is_gid_atom(n))
        || pairs.iter().any(|(n, _)| {
            is_load_atom(n)
                && atoms.get(n).is_some_and(|i| i.arg.free_vars().iter().any(|w| is_atom(w)))
        });
    if !gid_dependent {
        // The map does not vary with the work-item id: every work-item
        // writes the same element(s) — a definite cross-item collision
        // (assuming ≥ 2 work-items are launched).
        let witness = if pairs.is_empty() { format!("{base}") } else { format!("{m}") };
        return (
            RaceVerdict::Definite { element: witness },
            "store index is identical for every work-item".into(),
        );
    }
    // Opaque distinct-gather map: ±A + const where A reads a
    // pairwise-distinct table at an index that is itself injective over
    // the full work-item space.
    if distinct_gather_injective(&pairs, s, atoms, work_dim) {
        return (RaceVerdict::ProvenDisjoint, String::new());
    }
    if covers_all_gids(&pairs, work_dim) && injective_mixed_radix(&pairs, &s.renv) {
        return (RaceVerdict::ProvenDisjoint, String::new());
    }
    (RaceVerdict::Potential, format!("injectivity of store map `{m}` across work-items unproven"))
}

/// Every launched dimension's id must take part in the map, otherwise two
/// items differing only in an excluded dimension collide.
fn covers_all_gids(pairs: &[(String, ArithExpr)], work_dim: u8) -> bool {
    (0..work_dim).all(|d| pairs.iter().any(|(n, _)| *n == gid_atom(d)))
}

/// Proves `±A + const` maps with `A` a distinct-contents gather atom:
/// distinct work-items read different table slots (the gather index is
/// injective), distinct slots hold distinct values, hence distinct store
/// elements.
fn distinct_gather_injective(
    pairs: &[(String, ArithExpr)],
    s: &AccessRecord,
    atoms: &Atoms,
    work_dim: u8,
) -> bool {
    let [(name, c)] = pairs else { return false };
    if !is_load_atom(name) || !matches!(c, ArithExpr::Cst(1) | ArithExpr::Cst(-1)) {
        return false;
    }
    let Some(info) = atoms.get(name) else { return false };
    if !info.distinct {
        return false;
    }
    let Some((apairs, _)) = affine_split(&expand(&info.arg)) else { return false };
    if !apairs.iter().all(|(n, _)| is_gid_atom(n)) {
        return false;
    }
    covers_all_gids(&apairs, work_dim) && injective_mixed_radix(&apairs, &s.renv)
}

/// Mixed-radix injectivity: for some ordering of the atoms, every
/// coefficient is ≥ 1 and each dominates the total span of all previous
/// digits (`c_i ≥ 1 + Σ_{j<i} c_j·(hi_j − lo_j)`) — then distinct atom
/// tuples map to distinct values, so distinct work-items never collide.
fn injective_mixed_radix(pairs: &[(String, ArithExpr)], renv: &RangeEnv) -> bool {
    if pairs.is_empty() || pairs.len() > MAX_RADIX_ATOMS {
        return false;
    }
    let spans: Option<Vec<(ArithExpr, ArithExpr)>> = pairs
        .iter()
        .map(|(n, c)| {
            let r = renv.var_range(n);
            match (r.lo, r.hi) {
                (Some(lo), Some(hi)) if renv.prove_nonneg(&(c.clone() - ArithExpr::one())) => {
                    Some((c.clone(), hi - lo))
                }
                _ => None,
            }
        })
        .collect();
    let Some(spans) = spans else { return false };
    let mut order: Vec<usize> = (0..spans.len()).collect();
    permutations(&mut order, 0, &mut |perm| {
        let mut span_sum = ArithExpr::zero();
        for (k, &i) in perm.iter().enumerate() {
            let (c, w) = &spans[i];
            if k > 0 && !renv.prove_le(&(ArithExpr::one() + span_sum.clone()), c) {
                return false;
            }
            span_sum = span_sum + c.clone() * w.clone();
        }
        true
    })
}

/// Tries every permutation of `items[at..]`, returning true as soon as
/// `check` accepts one.
fn permutations(
    items: &mut Vec<usize>,
    at: usize,
    check: &mut impl FnMut(&[usize]) -> bool,
) -> bool {
    if at == items.len() {
        return check(items);
    }
    for i in at..items.len() {
        items.swap(at, i);
        let found = permutations(items, at + 1, check);
        items.swap(at, i);
        if found {
            return true;
        }
    }
    false
}

/// Tries to refute any overlap between two different store maps: either
/// their value ranges are disjoint, or their difference is a nonzero
/// constant.
fn maps_disjoint(s1: &AccessRecord, m1: &ArithExpr, m2: &ArithExpr) -> bool {
    let r1 = s1.renv.range_of(m1);
    let r2 = s1.renv.range_of(m2);
    if let (Some(h1), Some(l2)) = (&r1.hi, &r2.lo) {
        if s1.renv.prove_lt(h1, l2) {
            return true;
        }
    }
    if let (Some(h2), Some(l1)) = (&r2.hi, &r1.lo) {
        if s1.renv.prove_lt(h2, l1) {
            return true;
        }
    }
    let d = expand(&(m1.clone() - m2.clone()));
    matches!(d, ArithExpr::Cst(c) if c != 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kast::{KExpr, KernelParam};
    use crate::scalar::BinOp;
    use crate::types::ScalarKind;

    fn asm_1d(n: &str, len: ArithExpr) -> Assumptions {
        Assumptions {
            global_size: vec![Some(ArithExpr::var(n))],
            size_bounds: vec![(n.to_string(), 1)],
            buffers: [("out".to_string(), BufferFacts::sized(len))].into_iter().collect(),
            ..Default::default()
        }
    }

    fn store_kernel(idx: KExpr) -> Kernel {
        Kernel {
            name: "t".into(),
            params: vec![
                KernelParam::global_buf("out", ScalarKind::F32),
                KernelParam::scalar("N", ScalarKind::I32),
            ],
            body: vec![KStmt::Store { mem: MemRef::Param(0), idx, value: KExpr::real(0.0) }],
            work_dim: 1,
        }
    }

    #[test]
    fn identity_store_is_proven() {
        let k = store_kernel(KExpr::GlobalId(0));
        let rep =
            verify_kernel(&k.resolve_real(ScalarKind::F32), &asm_1d("N", ArithExpr::var("N")));
        assert!(rep.is_proven(), "{rep:?}");
        assert_eq!(rep.sites.len(), 1);
        assert_eq!(rep.sites[0].site, 0);
    }

    #[test]
    fn off_by_one_store_is_potential() {
        let k = store_kernel(KExpr::GlobalId(0) + KExpr::int(1));
        let rep =
            verify_kernel(&k.resolve_real(ScalarKind::F32), &asm_1d("N", ArithExpr::var("N")));
        assert!(!rep.is_proven());
        assert_eq!(rep.sites[0].verdict, Verdict::Potential);
        assert!(rep.sites[0].reason.contains("upper bound"), "{}", rep.sites[0].reason);
    }

    #[test]
    fn constant_store_is_definite_race() {
        let k = store_kernel(KExpr::int(3));
        let rep =
            verify_kernel(&k.resolve_real(ScalarKind::F32), &asm_1d("N", ArithExpr::var("N")));
        match &rep.races[0].verdict {
            RaceVerdict::Definite { element } => assert_eq!(element, "3"),
            other => panic!("expected definite race, got {other:?}"),
        }
    }

    #[test]
    fn guard_refines_unbounded_gid() {
        // No global-size fact: the in-kernel guard must establish gid < N.
        let mut k = store_kernel(KExpr::GlobalId(0));
        k.body.insert(
            0,
            KStmt::return_if(KExpr::bin(BinOp::Ge, KExpr::GlobalId(0), KExpr::var("N"))),
        );
        let mut asm = asm_1d("N", ArithExpr::var("N"));
        asm.global_size = vec![None];
        let rep = verify_kernel(&k.resolve_real(ScalarKind::F32), &asm);
        assert!(rep.is_proven(), "{rep:?}");
    }

    /// `out[idx] = 0`.
    fn store(idx: KExpr) -> KStmt {
        KStmt::Store { mem: MemRef::Param(0), idx, value: KExpr::real(0.0) }
    }

    fn verdicts(body: Vec<KStmt>, asm: &Assumptions) -> Vec<Verdict> {
        let mut k = store_kernel(KExpr::GlobalId(0));
        k.params.push(KernelParam::global_buf("nbrs", ScalarKind::I32));
        k.body = body;
        let rep = verify_kernel(&k.resolve_real(ScalarKind::F32), asm);
        rep.sites.iter().map(|s| s.verdict).collect()
    }

    /// A fact one arm of an `if` or a `select` implies ends at the join: the
    /// arm's access is proven, the same access after the join is not.
    #[test]
    fn an_arm_fact_does_not_hold_after_the_join() {
        use Verdict::{Potential, Proven};
        let mut asm = asm_1d("N", ArithExpr::var("N"));
        asm.global_size = vec![None];
        let inside = || KExpr::bin(BinOp::Lt, KExpr::GlobalId(0), KExpr::var("N"));
        let branch =
            KStmt::If { cond: inside(), then_: vec![store(KExpr::GlobalId(0))], else_: vec![] };
        let body = vec![branch, store(KExpr::GlobalId(0))];
        assert_eq!(verdicts(body, &asm), [Proven, Potential]);
        let load = KExpr::load(MemRef::Param(0), KExpr::GlobalId(0));
        let picked = KExpr::select(inside(), load, KExpr::real(0.0));
        let decl =
            KStmt::DeclScalar { name: "x".into(), kind: ScalarKind::F32, init: Some(picked) };
        assert_eq!(verdicts(vec![decl, store(KExpr::GlobalId(0))], &asm), [Proven, Potential]);
    }

    /// A scalar a loop body assigns is unknown after the loop; the variable
    /// of a loop of one trip is its begin value, so the store map is the
    /// work-item's own cell and no race.
    #[test]
    fn a_loop_forgets_what_it_assigns_and_a_one_trip_loop_is_its_begin() {
        let asm = asm_1d("N", ArithExpr::var("N"));
        let looped = |begin: KExpr, end: KExpr, body| KStmt::For {
            var: "i".into(),
            begin,
            end,
            step: KExpr::int(1),
            body,
        };
        let assign = KStmt::Assign { name: "j".into(), value: KExpr::GlobalId(0) };
        let body = vec![
            KStmt::DeclScalar {
                name: "j".into(),
                kind: ScalarKind::I32,
                init: Some(KExpr::int(0)),
            },
            looped(KExpr::int(0), KExpr::var("N"), vec![assign]),
            store(KExpr::var("j")),
        ];
        assert_eq!(verdicts(body, &asm), [Verdict::Potential]);
        let one = looped(
            KExpr::GlobalId(0),
            KExpr::GlobalId(0) + KExpr::int(1),
            vec![store(KExpr::var("i"))],
        );
        let k = Kernel { body: vec![one], ..store_kernel(KExpr::GlobalId(0)) };
        let rep = verify_kernel(&k.resolve_real(ScalarKind::F32), &asm);
        assert!(rep.is_proven(), "{rep:?}");
    }

    /// `int t = nbrs[gid]; if (t > 0) …` under an interior mask narrows the
    /// id to the interior in the then-arm only: `out[gid − 1]` is proven
    /// there, and neither in the else-arm nor after the join.
    #[test]
    fn an_interior_mask_read_narrows_the_then_arm_only() {
        use Verdict::{Potential, Proven};
        let mut asm = asm_1d("N", ArithExpr::var("N"));
        let mut mask = BufferFacts::sized(ArithExpr::var("N"));
        mask.interior_mask = true;
        asm.buffers.insert("nbrs".into(), mask);
        asm.interior_dims = vec![ArithExpr::var("N")];
        let left = || store(KExpr::GlobalId(0) - KExpr::int(1));
        let t = KExpr::load(MemRef::Param(2), KExpr::GlobalId(0));
        let body = vec![
            KStmt::DeclScalar { name: "t".into(), kind: ScalarKind::I32, init: Some(t) },
            KStmt::If {
                cond: KExpr::bin(BinOp::Gt, KExpr::var("t"), KExpr::int(0)),
                then_: vec![left()],
                else_: vec![left()],
            },
            left(),
        ];
        assert_eq!(verdicts(body, &asm), [Proven, Proven, Potential, Potential]);
    }

    #[test]
    fn dedupe_collapses_identical_records() {
        let k = store_kernel(KExpr::GlobalId(0) + KExpr::int(1)).resolve_real(ScalarKind::F32);
        let asm = asm_1d("N", ArithExpr::var("N"));
        let a = verify_kernel(&k, &asm);
        let b = verify_kernel(&k, &asm);
        let both: Vec<SiteReport> = a.sites.iter().chain(b.sites.iter()).cloned().collect();
        assert_eq!(dedupe_sites(both).len(), a.sites.len());
    }
}
