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
use crate::footprint::{classify_kernel, AccessRecord, KernelFootprints};
use crate::kast::{Effects, KExpr, KStmt, Kernel, MemRef, MemSpace};
use crate::scalar::{BinOp, Intrinsic, Lit, UnOp};
use crate::types::ScalarKind;
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
    fn gid_offset(&self, d: usize) -> i64 {
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
    let mut seen: Vec<(String, u32, String)> = Vec::new();
    let mut out = Vec::with_capacity(sites.len());
    for s in sites {
        let key = (s.kernel.clone(), s.site, s.reason.clone());
        if !seen.contains(&key) {
            seen.push(key);
            out.push(s);
        }
    }
    out
}

/// Drops duplicate race records, keeping one per
/// `(kernel, buffer, reason)`.
pub fn dedupe_races(races: Vec<RaceReport>) -> Vec<RaceReport> {
    let mut seen: Vec<(String, String, String)> = Vec::new();
    let mut out = Vec::with_capacity(races.len());
    for r in races {
        let key = (r.kernel.clone(), r.buffer.clone(), r.reason.clone());
        if !seen.contains(&key) {
            seen.push(key);
            out.push(r);
        }
    }
    out
}

// ---- atoms ----
//
// The analysis works over "atoms": symbolic variables that vary per
// work-item or per loop iteration, distinguished from size variables by a
// leading '%' (which can never collide with kernel identifiers).
// Work-item ids are `%gid0..2`, loop variables get a fresh `%loop:` atom
// per loop, and loads from buffers with content facts become opaque
// `%ld:buf[idx]` atoms, cached by buffer and index so repeated loads
// unify.

fn gid_atom(d: u8) -> String {
    KExpr::GlobalId(d).builtin_atom().expect("NDRange dimension").to_string()
}

fn is_atom(name: &str) -> bool {
    name.starts_with('%')
}

pub(crate) fn is_gid_atom(name: &str) -> bool {
    name.starts_with("%gid")
}

pub(crate) fn is_load_atom(name: &str) -> bool {
    name.starts_with("%ld:")
}

/// Metadata for one opaque load atom.
#[derive(Clone, Debug)]
struct AtomInfo {
    /// The symbolic index the atom was loaded at.
    arg: ArithExpr,
    /// Contents of the source buffer are pairwise distinct.
    distinct: bool,
    /// The source buffer's parameter name.
    buffer: String,
}

/// One recorded store, input to the race pass.
struct StoreDesc {
    buffer: String,
    site: u32,
    sym: Option<ArithExpr>,
    /// Range facts in force at the store (includes guard/interior/loop
    /// refinements).
    renv: RangeEnv,
    /// Opaque-atom registry snapshot.
    atoms: BTreeMap<String, AtomInfo>,
}

struct Out<'k> {
    kernel: &'k Kernel,
    asm: &'k Assumptions,
    next_site: u32,
    sites: Vec<SiteReport>,
    stores: Vec<StoreDesc>,
    atoms: BTreeMap<String, AtomInfo>,
    /// Lengths of private/local arrays, recorded at their declaration.
    decl_lens: BTreeMap<String, ArithExpr>,
    loop_counter: u32,
    /// Raw access records on buffer parameters, handed to the footprint
    /// classifier after traversal.
    records: Vec<AccessRecord>,
}

#[derive(Clone)]
struct St {
    renv: RangeEnv,
    scalars: BTreeMap<String, Option<ArithExpr>>,
    dead: bool,
}

impl St {
    /// Joins two branch exit states.
    fn merge(self, other: St) -> St {
        if self.dead {
            return other;
        }
        if other.dead {
            return self;
        }
        let mut scalars = BTreeMap::new();
        for (k, v) in &self.scalars {
            let merged = match (v, other.scalars.get(k)) {
                (Some(a), Some(Some(b))) if a == b => Some(a.clone()),
                _ => None,
            };
            scalars.insert(k.clone(), merged);
        }
        for k in other.scalars.keys() {
            scalars.entry(k.clone()).or_insert(None);
        }
        let mut renv = self.renv.clone();
        let mut vars = self.renv.bounded_vars();
        for v in other.renv.bounded_vars() {
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
        for v in vars {
            let u = self.renv.union_of(&self.renv.var_range(&v), &other.renv.var_range(&v));
            renv.set_range(v, u);
        }
        St { renv, scalars, dead: false }
    }
}

/// Runs both static passes over `kernel` under `asm`.
pub fn verify_kernel(kernel: &Kernel, asm: &Assumptions) -> KernelReport {
    let mut renv = RangeEnv::new();
    for (name, lo) in &asm.size_bounds {
        renv.set_range(name.clone(), SymRange::at_least(ArithExpr::Cst(*lo)));
    }
    for (name, value) in &asm.defines {
        renv.define(name.clone(), value.clone());
    }
    for d in 0..kernel.work_dim {
        let hi = asm.global_size.get(d as usize).cloned().flatten().map(|g| g - ArithExpr::one());
        renv.set_range(gid_atom(d), SymRange { lo: Some(ArithExpr::Cst(0)), hi });
    }
    let mut scalars = BTreeMap::new();
    for p in &kernel.params {
        if !p.is_buffer {
            let sym = matches!(p.kind, ScalarKind::I32).then(|| ArithExpr::var(p.name.as_str()));
            scalars.insert(p.name.clone(), sym);
        }
    }
    let mut out = Out {
        kernel,
        asm,
        next_site: 0,
        sites: Vec::new(),
        stores: Vec::new(),
        atoms: BTreeMap::new(),
        decl_lens: BTreeMap::new(),
        loop_counter: 0,
        records: Vec::new(),
    };
    let mut st = St { renv, scalars, dead: false };
    run_stmts(&kernel.body, &mut st, &mut out);

    let races = race_pass(kernel, &out.stores);
    let footprints = classify_kernel(&kernel.name, asm, &out.records);
    KernelReport {
        kernel: kernel.name.clone(),
        sites: dedupe_sites(out.sites),
        races: dedupe_races(races),
        footprints,
    }
}

// ---- expression evaluation ----

fn lit_int(l: &Lit) -> Option<i64> {
    match l.kind {
        ScalarKind::I32 | ScalarKind::Bool => Some(l.value as i64),
        _ => None,
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

fn buf_len(out: &Out, mem: &MemRef) -> Option<ArithExpr> {
    match mem {
        MemRef::Param(i) => {
            let p = out.kernel.params.get(*i)?;
            out.asm.buffers.get(&p.name).map(|f| f.len.clone())
        }
        MemRef::Priv(n) | MemRef::Local(n) => out.decl_lens.get(n).cloned(),
    }
}

/// Evaluates `e` to an optional exact symbolic integer value. When
/// `record` is set this is the single main traversal: access sites are
/// numbered (mirroring the interpreter) and bounds-checked. Refinement
/// re-evaluation passes `record = false` and must not allocate sites.
fn eval(e: &KExpr, st: &mut St, out: &mut Out, record: bool) -> Option<ArithExpr> {
    match e {
        KExpr::Lit(l) => lit_int(l).map(ArithExpr::Cst),
        KExpr::Var(n) => st.scalars.get(n).cloned().flatten(),
        KExpr::GlobalId(d) => Some(ArithExpr::var(gid_atom(*d))),
        KExpr::GlobalSize(d) => out.asm.global_size.get(*d as usize).cloned().flatten(),
        KExpr::LocalId(_) | KExpr::LocalSize(_) | KExpr::GroupId(_) => None,
        KExpr::Load { mem, idx } => {
            let idx_sym = eval(idx, st, out, record);
            if record {
                let site = out.next_site;
                out.next_site += 1;
                check_bounds(AccessKind::Load, mem, &idx_sym, site, st, out);
            }
            load_atom(mem, &idx_sym, st, out)
        }
        KExpr::Bin(op, a, b) => {
            let sa = eval(a, st, out, record);
            let sb = eval(b, st, out, record);
            match (op, sa, sb) {
                (BinOp::Add, Some(x), Some(y)) => Some(x + y),
                (BinOp::Sub, Some(x), Some(y)) => Some(x - y),
                (BinOp::Mul, Some(x), Some(y)) => Some(x * y),
                (BinOp::Div, Some(x), Some(y)) => Some(ArithExpr::div(x, y)),
                (BinOp::Rem, Some(x), Some(y)) => Some(ArithExpr::rem(x, y)),
                _ => None,
            }
        }
        KExpr::Un(op, a) => {
            let sa = eval(a, st, out, record);
            match (op, sa) {
                (UnOp::Neg, Some(x)) => Some(ArithExpr::Cst(0) - x),
                _ => None,
            }
        }
        KExpr::Select(c, t, f) => {
            // The interpreter numbers sites across all three operands, so
            // both arms are traversed; each arm's value is derived under
            // the refinement its path implies (pad-clamp loads sit in the
            // false arm of a halo check).
            eval(c, st, out, record);
            let mut st_t = st.clone();
            refine(c, true, &mut st_t, out);
            let vt = eval(t, &mut st_t, out, record);
            let mut st_f = st.clone();
            refine(c, false, &mut st_f, out);
            let vf = eval(f, &mut st_f, out, record);
            match (vt, vf) {
                (Some(x), Some(y)) if x == y => Some(x),
                _ => None,
            }
        }
        KExpr::Call(i, args) => {
            let syms: Vec<Option<ArithExpr>> =
                args.iter().map(|a| eval(a, st, out, record)).collect();
            match (i, syms.as_slice()) {
                (Intrinsic::Min, [Some(x), Some(y)]) => Some(ArithExpr::min(x.clone(), y.clone())),
                (Intrinsic::Max, [Some(x), Some(y)]) => Some(ArithExpr::max(x.clone(), y.clone())),
                _ => None,
            }
        }
        KExpr::Cast(kind, a) => {
            let sa = eval(a, st, out, record);
            if matches!(kind, ScalarKind::I32) {
                sa
            } else {
                None
            }
        }
    }
}

/// Returns the opaque atom for a load from a fact-carrying buffer (cached
/// per buffer and index), or `None` when the value is untracked. The
/// atom's content value range is (re-)seeded into the *current* range
/// environment: content facts hold on every path.
fn load_atom(
    mem: &MemRef,
    idx_sym: &Option<ArithExpr>,
    st: &mut St,
    out: &mut Out,
) -> Option<ArithExpr> {
    let MemRef::Param(i) = mem else { return None };
    let p = out.kernel.params.get(*i)?;
    let facts = out.asm.buffers.get(&p.name)?;
    if facts.value_range.is_none() && !facts.distinct && !facts.interior_mask {
        return None;
    }
    let idx = idx_sym.clone()?;
    let name = format!("%ld:{}[{}]", p.name, idx);
    if !out.atoms.contains_key(&name) {
        out.atoms.insert(
            name.clone(),
            AtomInfo { arg: idx, distinct: facts.distinct, buffer: p.name.clone() },
        );
    }
    if let Some(r) = &facts.value_range {
        let cur = st.renv.var_range(&name);
        if cur.lo.is_none() && cur.hi.is_none() {
            st.renv.set_range(name.clone(), r.clone());
        }
    }
    Some(ArithExpr::var(name.as_str()))
}

fn check_bounds(
    kind: AccessKind,
    mem: &MemRef,
    idx_sym: &Option<ArithExpr>,
    site: u32,
    st: &St,
    out: &mut Out,
) {
    if st.dead {
        return;
    }
    let buffer = buf_name(out.kernel, mem);
    if matches!(mem, MemRef::Param(_)) {
        out.records.push(AccessRecord {
            site,
            kind,
            buffer: buffer.clone(),
            sym: idx_sym.clone(),
            renv: st.renv.clone(),
        });
    }
    let len = buf_len(out, mem);
    let (verdict, index, range, reason) = match (idx_sym, len) {
        (None, _) => (
            Verdict::Potential,
            "<non-affine>".to_string(),
            String::new(),
            "index is not an affine/tracked expression".to_string(),
        ),
        (Some(idx), None) => (
            Verdict::Potential,
            format!("{idx}"),
            String::new(),
            format!("no length fact for buffer `{buffer}`"),
        ),
        (Some(idx), Some(len)) => {
            let r = st.renv.range_of(idx);
            let lo_ok = r.lo.as_ref().is_some_and(|lo| st.renv.prove_nonneg(lo));
            let hi_ok =
                r.hi.as_ref()
                    .is_some_and(|hi| st.renv.prove_le(hi, &(len.clone() - ArithExpr::one())));
            let verdict = if lo_ok && hi_ok { Verdict::Proven } else { Verdict::Potential };
            let reason = if verdict == Verdict::Proven {
                String::new()
            } else if !lo_ok {
                format!("lower bound unproven: index range {r} vs 0")
            } else {
                format!("upper bound unproven: index range {r} vs len {len}")
            };
            (verdict, format!("{idx}"), format!("{r}"), reason)
        }
    };
    out.sites.push(SiteReport {
        kernel: out.kernel.name.clone(),
        site,
        kind,
        buffer,
        index,
        range,
        verdict,
        reason,
    });
}

// ---- path refinement ----

/// Canonical row-major linearization the interior mask is indexed with:
/// `(gid0+o0) + (gid1+o1)·d0 + (gid2+o2)·d0·d1`, where `o_d` is the
/// per-dimension gid offset of a slab-placed kernel (0 by default).
fn canonical_lin(dims: &[ArithExpr], asm: &Assumptions) -> ArithExpr {
    let mut stride = ArithExpr::one();
    let mut terms = Vec::new();
    for (d, ext) in dims.iter().enumerate() {
        let gid = ArithExpr::var(gid_atom(d as u8)) + ArithExpr::Cst(asm.gid_offset(d));
        terms.push(gid * stride.clone());
        stride = stride * ext.clone();
    }
    ArithExpr::add(terms)
}

/// Narrows every work-item id in `renv` so the *offset* id lies in the
/// grid interior: `gid_d + o_d ∈ [1, dim−2]`, i.e. `gid_d ∈ [1−o, dim−2−o]`.
/// Shared with [`crate::simplify`], which folds guards under it.
pub(crate) fn interior_refine(renv: &mut RangeEnv, asm: &Assumptions) {
    for (d, ext) in asm.interior_dims.iter().enumerate() {
        let atom = gid_atom(d as u8);
        let off = asm.gid_offset(d);
        let tight = SymRange::new(ArithExpr::Cst(1 - off), ext.clone() - ArithExpr::Cst(2 + off));
        let refined = renv.intersect(&renv.var_range(&atom), &tight);
        renv.set_range(atom, refined);
    }
}

/// True when `cond`, `x > 0`, establishes the interior fact under `asm`:
/// `x` is a declared interior guard, or `mask_load` — the buffer and
/// symbolic index `x`'s value was loaded from — reads an interior mask at
/// the canonical linearized index. Shared with [`crate::simplify`].
pub(crate) fn interior_trigger(
    asm: &Assumptions,
    renv: &RangeEnv,
    cond: &KExpr,
    mask_load: Option<(&str, &ArithExpr)>,
) -> bool {
    let KExpr::Bin(BinOp::Gt, x, zero) = cond else { return false };
    if asm.interior_dims.is_empty() || !matches!(&**zero, KExpr::Lit(l) if lit_int(l) == Some(0)) {
        return false;
    }
    if matches!(&**x, KExpr::Var(n) if asm.interior_guards.contains(n)) {
        return true;
    }
    let Some((buffer, idx)) = mask_load else { return false };
    asm.buffers.get(buffer).is_some_and(|f| f.interior_mask)
        && renv.prove_eq(idx, &canonical_lin(&asm.interior_dims, asm))
}

/// Updates `st` with what `cond == truth` implies. Conservative: facts
/// that can't be turned into single-atom interval updates are dropped.
fn refine(cond: &KExpr, truth: bool, st: &mut St, out: &mut Out) {
    match cond {
        KExpr::Un(UnOp::Not, a) => refine(a, !truth, st, out),
        KExpr::Bin(BinOp::And, a, b) if truth => {
            refine(a, true, st, out);
            refine(b, true, st, out);
        }
        KExpr::Bin(BinOp::Or, a, b) if !truth => {
            refine(a, false, st, out);
            refine(b, false, st, out);
        }
        KExpr::Bin(op @ (BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq), a, b) => {
            let sa = eval(a, st, out, false);
            // Interior trigger: `x > 0` for an interior guard or an
            // interior-mask load (possibly through a tracked scalar).
            let load = match &sa {
                Some(ArithExpr::Var(atom)) => out.atoms.get(&**atom),
                _ => None,
            };
            let load = load.map(|i| (i.buffer.as_str(), &i.arg));
            if truth && interior_trigger(out.asm, &st.renv, cond, load) {
                interior_refine(&mut st.renv, out.asm);
            }
            let sb = eval(b, st, out, false);
            if let (Some(sa), Some(sb)) = (sa, sb) {
                st.renv.assume(*op, truth, &sa, &sb, &is_atom);
            }
        }
        _ => {}
    }
}

// ---- statement traversal ----

fn run_stmts(stmts: &[KStmt], st: &mut St, out: &mut Out) {
    for s in stmts {
        run_stmt(s, st, out);
    }
}

fn run_stmt(s: &KStmt, st: &mut St, out: &mut Out) {
    match s {
        KStmt::DeclScalar { name, init, .. } => {
            let sym = init.as_ref().and_then(|e| eval(e, st, out, true));
            st.scalars.insert(name.clone(), sym);
        }
        KStmt::DeclPrivArray { name, len, .. } | KStmt::DeclLocalArray { name, len, .. } => {
            if let Some(l) = eval(len, st, out, true) {
                out.decl_lens.insert(name.clone(), l);
            }
        }
        KStmt::Barrier => {}
        KStmt::Assign { name, value } => {
            let sym = eval(value, st, out, true);
            st.scalars.insert(name.clone(), sym);
        }
        KStmt::Store { mem, idx, value } => {
            let idx_sym = eval(idx, st, out, true);
            eval(value, st, out, true);
            let site = out.next_site;
            out.next_site += 1;
            check_bounds(AccessKind::Store, mem, &idx_sym, site, st, out);
            if !st.dead {
                if let MemRef::Param(i) = mem {
                    let p = &out.kernel.params[*i];
                    if p.space != MemSpace::Private {
                        out.stores.push(StoreDesc {
                            buffer: p.name.clone(),
                            site,
                            sym: idx_sym,
                            renv: st.renv.clone(),
                            atoms: out.atoms.clone(),
                        });
                    }
                }
            }
        }
        KStmt::For { var, begin, end, step, body } => {
            let b = eval(begin, st, out, true);
            let e = eval(end, st, out, true);
            eval(step, st, out, true);
            // Loop-carried scalars are widened to unknown before the
            // single body pass (site numbering matches the interpreter's
            // one syntactic numbering pass).
            let assigned = Effects::of(body).assigns;
            for a in &assigned {
                if st.scalars.contains_key(*a) {
                    st.scalars.insert(a.to_string(), None);
                }
            }
            let single = match (&b, &e) {
                (Some(b), Some(e)) => st.renv.prove_eq(&(e.clone() - b.clone()), &ArithExpr::one()),
                _ => false,
            };
            if single {
                // Exactly one iteration: the loop variable is the begin
                // value itself (kills `idx + i` offsets from degenerate
                // copy loops).
                st.scalars.insert(var.clone(), b);
            } else {
                out.loop_counter += 1;
                let atom = format!("%loop:{var}:{}", out.loop_counter);
                // Sound for the interpreter's step ≥ 1 clamp: every value
                // taken lies in [begin, end−1].
                let r = SymRange { lo: b, hi: e.map(|e| e - ArithExpr::one()) };
                st.renv.set_range(atom.clone(), r);
                st.scalars.insert(var.clone(), Some(ArithExpr::var(atom.as_str())));
            }
            run_stmts(body, st, out);
            st.scalars.remove(var);
            for a in &assigned {
                if st.scalars.contains_key(*a) {
                    st.scalars.insert(a.to_string(), None);
                }
            }
        }
        KStmt::If { cond, then_, else_ } => {
            eval(cond, st, out, true);
            let mut st_t = st.clone();
            refine(cond, true, &mut st_t, out);
            let mut st_f = st.clone();
            refine(cond, false, &mut st_f, out);
            run_stmts(then_, &mut st_t, out);
            run_stmts(else_, &mut st_f, out);
            let dead_before = st.dead;
            *st = st_t.merge(st_f);
            st.dead |= dead_before;
        }
        KStmt::Return => {
            st.dead = true;
        }
        KStmt::Comment(_) => {}
    }
}

// ---- write-race pass ----

/// Maximum number of store-map atoms for which stride permutations are
/// tried (4! = 24 orders).
const MAX_RADIX_ATOMS: usize = 4;

fn race_pass(kernel: &Kernel, stores: &[StoreDesc]) -> Vec<RaceReport> {
    let mut buffers: Vec<String> = Vec::new();
    for s in stores {
        if !buffers.contains(&s.buffer) {
            buffers.push(s.buffer.clone());
        }
    }
    buffers
        .into_iter()
        .map(|buf| {
            let group: Vec<&StoreDesc> = stores.iter().filter(|s| s.buffer == buf).collect();
            let sites: Vec<u32> = group.iter().map(|s| s.site).collect();
            let (verdict, reason) = race_verdict(&group, kernel.work_dim);
            RaceReport { kernel: kernel.name.clone(), buffer: buf, sites, verdict, reason }
        })
        .collect()
}

fn race_verdict(group: &[&StoreDesc], work_dim: u8) -> (RaceVerdict, String) {
    if group.iter().any(|s| s.sym.is_none()) {
        return (RaceVerdict::Potential, "store index is not an affine/tracked expression".into());
    }
    // Distinct maps only: several syntactic stores through one map are
    // same-element writes by the *same* work-item, which the dynamic
    // checker (counting distinct items per element) also permits.
    let mut maps: Vec<(&StoreDesc, ArithExpr)> = Vec::new();
    for s in group {
        let sym = expand(s.sym.as_ref().expect("checked above"));
        if !maps.iter().any(|(_, m)| *m == sym) {
            maps.push((s, sym));
        }
    }
    for (s, m) in &maps {
        let (v, reason) = single_map_verdict(s, m, work_dim);
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

fn single_map_verdict(s: &StoreDesc, m: &ArithExpr, work_dim: u8) -> (RaceVerdict, String) {
    let Some((pairs, base)) = affine_split(m) else {
        return (
            RaceVerdict::Potential,
            "store index depends non-affinely on a work-item/loop/gather value".into(),
        );
    };
    let gid_dependent = pairs.iter().any(|(n, _)| is_gid_atom(n))
        || pairs.iter().any(|(n, _)| {
            is_load_atom(n)
                && s.atoms.get(n).is_some_and(|i| i.arg.free_vars().iter().any(|w| is_atom(w)))
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
    if distinct_gather_injective(&pairs, s, work_dim) {
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
fn distinct_gather_injective(pairs: &[(String, ArithExpr)], s: &StoreDesc, work_dim: u8) -> bool {
    let [(name, c)] = pairs else { return false };
    if !is_load_atom(name) || !matches!(c, ArithExpr::Cst(1) | ArithExpr::Cst(-1)) {
        return false;
    }
    let Some(info) = s.atoms.get(name) else { return false };
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
fn maps_disjoint(s1: &StoreDesc, m1: &ArithExpr, m2: &ArithExpr) -> bool {
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
    use crate::kast::KernelParam;

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
