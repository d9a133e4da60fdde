//! Kernel preparation and the parallel NDRange interpreter.
//!
//! [`prepare`] resolves a kernel AST's variable names to dense slots and
//! literals to runtime values, producing a [`Prepared`] kernel that the
//! interpreter executes one work-item at a time, parallelised over
//! workgroups — one warp each when the kernel has no workgroup features —
//! with rayon (the guides' canonical data-parallel substrate).
//!
//! The interpreter doubles as the measurement apparatus of the evaluation:
//!
//! * **Counters** — every global load/store and floating-point operation is
//!   counted (the paper quotes "45 memory accesses and 98 flops per update"
//!   for FD-MM; we measure the same quantities).
//! * **Memory-transaction model** — in [`ExecMode::Model`] the interpreter
//!   groups work-items into 32-wide warps and counts distinct 128-byte
//!   segments touched per load/store site per warp, i.e. the coalescing rule
//!   of the GPUs in Table III. Scattered boundary gathers therefore cost
//!   more transactions than streaming volume reads — reproducing the paper's
//!   box-vs-dome and room-size effects from first principles.
//! * **Sanitizer hooks** — on a sanitizing runtime every global load and
//!   store goes through the buffer's shadow ([`crate::sanitize`]), and a
//!   launch fails if two work-items wrote the same element, validating the
//!   safety contract of the in-place primitives.

use crate::buffer::{BufData, SharedBuf};
use crate::bytecode::{self, Compiled, BUNDLE};
use crate::runtime::Runtime;
use crate::sanitize::{FaultKind, Findings, SanCtx};
use lift::kast::{KExpr, KStmt, Kernel, KernelParam, MemRef, MemSpace};
use lift::prelude::{BinOp, Intrinsic, ScalarKind, UnOp, Value};
use lift::verify::Assumptions;
use rayon::prelude::*;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::{Arc, OnceLock, RwLock};

/// One traced global access of a work-item: (site, byte address tagged with
/// the buffer param in bits 40 and up).
pub(crate) type TraceRec = (u32, u64);

/// Warp width used by the transaction model (all Table III GPUs execute
/// 32-wide warps or 64-wide wavefronts; 32 is the finer, NVIDIA-accurate
/// granularity).
pub const WARP: usize = 32;

/// Execution error.
#[derive(Debug, Clone)]
pub struct ExecError(pub String);

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vgpu execution error: {}", self.0)
    }
}

impl std::error::Error for ExecError {}

fn err<T>(msg: impl Into<String>) -> Result<T, ExecError> {
    Err(ExecError(msg.into()))
}

/// Prepared memory reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PMem {
    /// Kernel buffer parameter (index into the launch's buffer bindings).
    Param(usize),
    /// Private array (index into per-work-item private storage).
    Priv(usize),
    /// Workgroup-shared local array (index into per-group storage).
    Local(usize),
}

/// Prepared expression.
#[derive(Debug, Clone)]
pub enum PExpr {
    /// Resolved literal.
    Lit(Value),
    /// Scalar slot.
    Var(usize),
    /// `get_global_id(d)`.
    GlobalId(u8),
    /// `get_global_size(d)`.
    GlobalSize(u8),
    /// `get_local_id(d)`.
    LocalId(u8),
    /// `get_local_size(d)`.
    LocalSize(u8),
    /// `get_group_id(d)`.
    GroupId(u8),
    /// Indexed load; `site` identifies the static instruction for the
    /// transaction model, `space` drives the counters.
    Load {
        /// Memory operand.
        mem: PMem,
        /// Index expression.
        idx: Box<PExpr>,
        /// Static site id.
        site: u32,
        /// Address space of the operand.
        space: MemSpace,
    },
    /// Binary operation.
    Bin(BinOp, Box<PExpr>, Box<PExpr>),
    /// Unary operation.
    Un(UnOp, Box<PExpr>),
    /// Lazy ternary.
    Select(Box<PExpr>, Box<PExpr>, Box<PExpr>),
    /// Intrinsic call.
    Call(Intrinsic, Vec<PExpr>),
    /// Cast.
    Cast(ScalarKind, Box<PExpr>),
}

/// Prepared statement.
#[derive(Debug, Clone)]
pub enum PStmt {
    /// Scalar declaration/initialisation.
    DeclScalar {
        /// Slot.
        slot: usize,
        /// Declared kind (assignments cast to it).
        kind: ScalarKind,
        /// Optional initialiser.
        init: Option<PExpr>,
    },
    /// Private array declaration.
    DeclPriv {
        /// Private array index.
        arr: usize,
        /// Element kind.
        kind: ScalarKind,
        /// Length expression.
        len: PExpr,
    },
    /// Scalar assignment (cast to the slot's declared kind).
    Assign {
        /// Slot.
        slot: usize,
        /// Value.
        value: PExpr,
    },
    /// Indexed store.
    Store {
        /// Memory operand.
        mem: PMem,
        /// Index.
        idx: PExpr,
        /// Value.
        value: PExpr,
        /// Static site id.
        site: u32,
        /// Address space.
        space: MemSpace,
    },
    /// Counted loop.
    For {
        /// Loop-variable slot.
        slot: usize,
        /// Start.
        begin: PExpr,
        /// Exclusive end.
        end: PExpr,
        /// Step.
        step: PExpr,
        /// Body.
        body: Vec<PStmt>,
    },
    /// Conditional.
    If {
        /// Condition.
        cond: PExpr,
        /// Then branch.
        then_: Vec<PStmt>,
        /// Else branch.
        else_: Vec<PStmt>,
    },
    /// Local (workgroup-shared) array declaration; allocated once per
    /// group, a no-op for subsequent work-items.
    DeclLocal {
        /// Local array index.
        arr: usize,
        /// Element kind.
        kind: ScalarKind,
        /// Length expression (uniform across the group).
        len: PExpr,
    },
    /// Group synchronisation point (top level only; splits phases).
    Barrier,
    /// Work-item early exit.
    Return,
}

/// A kernel ready for execution — the one artifact a launch reads. It owns
/// everything derived from the kernel: the tree-walker's statement form, the
/// bytecode tape, the source AST and launch contract the bounds proofs are
/// made from, and (lazily, shared by its clones and dropped with the last
/// of them) the per-shape check tables and the tape verifier's report.
/// Nothing about a kernel lives in a side table keyed by its id or name.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// Kernel name.
    pub name: String,
    /// Parameter declarations (buffer/scalar, spaces, kinds).
    pub params: Vec<KernelParam>,
    /// Number of scalar slots.
    pub nslots: usize,
    /// Number of private arrays.
    pub npriv: usize,
    /// NDRange dimensionality.
    pub work_dim: u8,
    /// Slot assigned to each scalar parameter (parallel to `params`,
    /// `None` for buffers).
    pub scalar_slots: Vec<Option<usize>>,
    /// Element kind of each private array.
    pub priv_kinds: Vec<ScalarKind>,
    /// Element kind of each workgroup-local array.
    pub local_kinds: Vec<ScalarKind>,
    /// True when the kernel uses barriers, local memory, or local/group
    /// ids — launching then requires an explicit workgroup size.
    pub uses_groups: bool,
    /// Body split at top-level barriers; a barrier-free kernel's one entry
    /// is its whole body.
    pub phases: Vec<Vec<PStmt>>,
    /// The bytecode tape [`Engine::Fast`] runs. Every `Prepared` has one:
    /// a kernel the tape compiler rejects fails [`prepare`].
    pub(crate) tape: Compiled,
    /// The source kernel AST: a launch runs the static bounds verifier on
    /// it against its concrete shape (the per-site PROVEN/POTENTIAL table
    /// that licenses check elision).
    source: Arc<Kernel>,
    /// The launch contract the kernel was compiled under
    /// ([`prepare_under`]); empty for a plain [`prepare`], whose proofs
    /// then rest on launch-concrete facts alone.
    contract: Assumptions,
    /// Launch-constant arguments ([`bytecode::launch_constant_slots`]): (parameter, slot).
    launch_consts: Vec<(usize, usize)>,
    /// What launches and the verifier gate have derived so far.
    pub(crate) derived: Arc<Derived>,
}

/// Most check tables one artifact keeps. A table is recomputable (one
/// verifier run), so reaching the cap drops them all rather than tracking
/// ages; at a few hundred bytes a table (lane shapes are shared) the cap
/// bounds an artifact's derived state near 150 KB however many room shapes.
pub const CHECK_TABLE_CAP: usize = 512;

/// What is derived from a [`Prepared`] on demand.
#[derive(Debug, Default)]
pub(crate) struct Derived {
    /// The record of each launch shape seen, flat or grouped, under the hash
    /// of the shape ([`launch_record`]); at most [`CHECK_TABLE_CAP`] entries.
    tables: RwLock<HashMap<u64, Arc<CheckTable>>>,
    /// The tape verifier's report ([`crate::artifact::verify_cached`]).
    pub(crate) tape_report: OnceLock<Arc<crate::verify::TapeReport>>,
}

/// One launch shape's record: `checked[site]` keeps the dynamic bounds
/// check; `tape` is the specialised tape the launch runs (`None`: the
/// kernel's), shared by every record of the same launch-constant values;
/// `shapes` and `entry` are [`crate::compile::launch_shapes`]' of it. A
/// grouped launch's record has no proof and no lane shapes. `gsize` and
/// `args` are the shape in full — a record is used only when they equal the
/// launch's, never on the hash alone.
#[derive(Debug, Default)]
struct CheckTable {
    gsize: [usize; 3],
    args: Box<[u64]>,
    checked: Vec<bool>,
    shapes: [Arc<[bytecode::Shape]>; 2],
    entry: usize,
    tape: Option<Arc<Compiled>>,
}

impl Prepared {
    /// Ops every work-item steps through on the bytecode tape — the size of
    /// the code, not of a run.
    pub fn tape_len(&self) -> usize {
        self.tape.ops.len()
    }

    /// The precision of the kernel's float traffic: `"f64"` when a buffer
    /// parameter is `F64`, else `"f32"` — what the roofline model and the
    /// per-kernel accounts key on.
    pub fn precision(&self) -> &'static str {
        let double = self.params.iter().any(|p| p.is_buffer && p.kind == ScalarKind::F64);
        if double {
            "f64"
        } else {
            "f32"
        }
    }

    /// Launch records currently held, flat or grouped (at most
    /// [`CHECK_TABLE_CAP`]).
    pub fn check_tables(&self) -> usize {
        self.derived.tables.read().expect("no panic under this lock").len()
    }
}

struct PrepCtx {
    slots: HashMap<String, usize>,
    privs: HashMap<String, usize>,
    priv_kinds: Vec<ScalarKind>,
    locals: HashMap<String, usize>,
    local_kinds: Vec<ScalarKind>,
    uses_groups: bool,
    sites: u32,
}

impl PrepCtx {
    fn slot(&mut self, name: &str) -> usize {
        let next = self.slots.len();
        *self.slots.entry(name.to_string()).or_insert(next)
    }

    fn site(&mut self) -> u32 {
        let s = self.sites;
        self.sites += 1;
        s
    }
}

/// Prepares a kernel for execution with no launch contract: its bounds
/// proofs rest on launch-concrete facts only (global size, bound buffer
/// lengths, i32 scalar values). The kernel must have its `Real` scalars
/// resolved, and must compile to a tape — the tape compiler's rejection is
/// the error (the `clBuildProgram` failure of this substrate).
pub fn prepare(kernel: &Kernel) -> Result<Prepared, ExecError> {
    prepare_under(kernel, &Assumptions::default())
}

/// [`prepare`] under a launch contract: the [`Assumptions`] every launch of
/// this artifact satisfies (buffer-length relations, interior guards,
/// gather-table value facts). A flat launch merges the contract with its
/// concrete shape and elides per-access bounds checks only at sites the
/// static verifier then returns PROVEN for.
///
/// Soundness — who compiles under a contract takes the obligation that its
/// launches satisfy it. A stated buffer length the launch can evaluate from
/// its i32 arguments is *checked* against the bound buffer (and replaced by
/// the real length when it overstates it, see [`build_checked_sites`]);
/// what stays *trusted* is content facts (value ranges, distinctness,
/// interior masks) and lengths over a size variable no argument binds (`N`,
/// `NM` of the hand-written boundary kernels). Shipped contracts are
/// cross-checked by the `verify` CI gate and the differential/sanitizer
/// harnesses. The contract is part of the artifact: another kernel of the
/// same name, or the same kernel compiled without it, never sees it.
pub fn prepare_under(kernel: &Kernel, contract: &Assumptions) -> Result<Prepared, ExecError> {
    let mut ctx = PrepCtx {
        slots: HashMap::new(),
        privs: HashMap::new(),
        priv_kinds: Vec::new(),
        locals: HashMap::new(),
        local_kinds: Vec::new(),
        uses_groups: false,
        sites: 0,
    };
    let mut scalar_slots = Vec::with_capacity(kernel.params.len());
    for p in &kernel.params {
        if p.kind == ScalarKind::Real {
            return err(format!(
                "kernel `{}` parameter `{}` has unresolved Real precision",
                kernel.name, p.name
            ));
        }
        if p.is_buffer {
            scalar_slots.push(None);
        } else {
            scalar_slots.push(Some(ctx.slot(&p.name)));
        }
    }
    // split at top-level barriers
    let mut phases: Vec<Vec<PStmt>> = vec![Vec::new()];
    for st in prep_stmts(&kernel.body, kernel, &mut ctx, false)? {
        if matches!(st, PStmt::Barrier) {
            phases.push(Vec::new());
        } else {
            phases.last_mut().unwrap().push(st);
        }
    }
    let mut prep = Prepared {
        name: kernel.name.clone(),
        params: kernel.params.clone(),
        nslots: ctx.slots.len(),
        npriv: ctx.priv_kinds.len(),
        work_dim: kernel.work_dim,
        scalar_slots,
        priv_kinds: ctx.priv_kinds,
        local_kinds: ctx.local_kinds,
        uses_groups: ctx.uses_groups,
        phases,
        tape: Compiled::default(),
        source: Arc::new(kernel.clone()),
        contract: contract.clone(),
        launch_consts: Vec::new(),
        derived: Arc::default(),
    };
    let slots = bytecode::launch_constant_slots(&prep);
    let consts = prep.scalar_slots.iter().enumerate().filter_map(|(i, s)| Some((i, (*s)?)));
    prep.launch_consts = consts.filter(|c| slots.contains(&c.1)).collect();
    prep.tape = bytecode::compile(&prep, &[]).map(|c| c.0).map_err(|e| {
        ExecError(format!("kernel `{}` does not compile to a tape: {e}", kernel.name))
    })?;
    let [optimized, fused] = &crate::runtime().counters.tape_ops;
    if prep.tape.optimized_ops > 0 {
        optimized.add(prep.tape.optimized_ops as u64);
    }
    if prep.tape.fused_ops > 0 {
        fused.add(prep.tape.fused_ops as u64);
    }
    Ok(prep)
}

/// Prepares a block, `nested` in a loop or branch; comments are dropped.
fn prep_stmts(
    stmts: &[KStmt],
    k: &Kernel,
    ctx: &mut PrepCtx,
    nested: bool,
) -> Result<Vec<PStmt>, ExecError> {
    let code = stmts.iter().filter(|s| !matches!(s, KStmt::Comment(_)));
    code.map(|s| prep_stmt(s, k, ctx, nested)).collect()
}

fn prep_stmt(s: &KStmt, k: &Kernel, ctx: &mut PrepCtx, nested: bool) -> Result<PStmt, ExecError> {
    Ok(match s {
        KStmt::DeclScalar { name, kind, init } => {
            let init = match init {
                Some(e) => Some(prep_expr(e, k, ctx)?),
                None => None,
            };
            let slot = ctx.slot(name);
            PStmt::DeclScalar { slot, kind: *kind, init }
        }
        KStmt::DeclPrivArray { name, kind, len } => {
            let len = prep_expr(len, k, ctx)?;
            let arr = ctx.priv_kinds.len();
            ctx.privs.insert(name.clone(), arr);
            ctx.priv_kinds.push(*kind);
            PStmt::DeclPriv { arr, kind: *kind, len }
        }
        KStmt::DeclLocalArray { name, kind, len } => {
            let len = prep_expr(len, k, ctx)?;
            let arr = ctx.local_kinds.len();
            ctx.locals.insert(name.clone(), arr);
            ctx.local_kinds.push(*kind);
            ctx.uses_groups = true;
            PStmt::DeclLocal { arr, kind: *kind, len }
        }
        KStmt::Barrier => {
            if nested {
                return err("barrier inside a loop or branch is not supported by this device \
                     (kernels generated here only place barriers at the top level)");
            }
            ctx.uses_groups = true;
            PStmt::Barrier
        }
        KStmt::Assign { name, value } => {
            let value = prep_expr(value, k, ctx)?;
            if !ctx.slots.contains_key(name) {
                return err(format!("assignment to undeclared variable `{name}`"));
            }
            PStmt::Assign { slot: ctx.slot(name), value }
        }
        KStmt::Store { mem, idx, value } => {
            let (pm, space) = prep_mem(mem, k, ctx)?;
            PStmt::Store {
                mem: pm,
                idx: prep_expr(idx, k, ctx)?,
                value: prep_expr(value, k, ctx)?,
                site: ctx.site(),
                space,
            }
        }
        KStmt::For { var, begin, end, step, body } => {
            let begin = prep_expr(begin, k, ctx)?;
            let end = prep_expr(end, k, ctx)?;
            let step = prep_expr(step, k, ctx)?;
            let slot = ctx.slot(var);
            let body = prep_stmts(body, k, ctx, true)?;
            PStmt::For { slot, begin, end, step, body }
        }
        KStmt::If { cond, then_, else_ } => PStmt::If {
            cond: prep_expr(cond, k, ctx)?,
            then_: prep_stmts(then_, k, ctx, true)?,
            else_: prep_stmts(else_, k, ctx, true)?,
        },
        KStmt::Return => PStmt::Return,
        KStmt::Comment(_) => unreachable!("`prep_stmts` drops comments"),
    })
}

fn prep_mem(m: &MemRef, k: &Kernel, ctx: &mut PrepCtx) -> Result<(PMem, MemSpace), ExecError> {
    match m {
        MemRef::Param(i) => {
            let p = k
                .params
                .get(*i)
                .ok_or_else(|| ExecError(format!("parameter index {i} out of range")))?;
            if !p.is_buffer {
                return err(format!("memory access through scalar parameter `{}`", p.name));
            }
            Ok((PMem::Param(*i), p.space))
        }
        MemRef::Priv(name) => {
            let arr = ctx
                .privs
                .get(name)
                .copied()
                .ok_or_else(|| ExecError(format!("unknown private array `{name}`")))?;
            Ok((PMem::Priv(arr), MemSpace::Private))
        }
        MemRef::Local(name) => {
            let arr = ctx
                .locals
                .get(name)
                .copied()
                .ok_or_else(|| ExecError(format!("unknown local array `{name}`")))?;
            ctx.uses_groups = true;
            Ok((PMem::Local(arr), MemSpace::Private))
        }
    }
}

fn prep_expr(e: &KExpr, k: &Kernel, ctx: &mut PrepCtx) -> Result<PExpr, ExecError> {
    Ok(match e {
        KExpr::Lit(l) => {
            if l.kind == ScalarKind::Real {
                return err("unresolved Real literal".to_string());
            }
            PExpr::Lit(l.to_value(ScalarKind::F64))
        }
        KExpr::Var(n) => {
            if !ctx.slots.contains_key(n.as_str()) {
                return err(format!("use of unbound variable `{n}` (not a declared scalar, parameter or loop variable)"));
            }
            PExpr::Var(ctx.slot(n))
        }
        KExpr::GlobalId(d) => PExpr::GlobalId(*d),
        KExpr::GlobalSize(d) => PExpr::GlobalSize(*d),
        KExpr::LocalId(d) => {
            ctx.uses_groups = true;
            PExpr::LocalId(*d)
        }
        KExpr::LocalSize(d) => {
            ctx.uses_groups = true;
            PExpr::LocalSize(*d)
        }
        KExpr::GroupId(d) => {
            ctx.uses_groups = true;
            PExpr::GroupId(*d)
        }
        KExpr::Load { mem, idx } => {
            let (pm, space) = prep_mem(mem, k, ctx)?;
            PExpr::Load { mem: pm, idx: Box::new(prep_expr(idx, k, ctx)?), site: ctx.site(), space }
        }
        KExpr::Bin(op, a, b) => {
            PExpr::Bin(*op, Box::new(prep_expr(a, k, ctx)?), Box::new(prep_expr(b, k, ctx)?))
        }
        KExpr::Un(op, a) => PExpr::Un(*op, Box::new(prep_expr(a, k, ctx)?)),
        KExpr::Select(c, t, f) => PExpr::Select(
            Box::new(prep_expr(c, k, ctx)?),
            Box::new(prep_expr(t, k, ctx)?),
            Box::new(prep_expr(f, k, ctx)?),
        ),
        KExpr::Call(i, args) => {
            let args: Result<Vec<PExpr>, ExecError> =
                args.iter().map(|a| prep_expr(a, k, ctx)).collect();
            PExpr::Call(*i, args?)
        }
        KExpr::Cast(kind, a) => PExpr::Cast(*kind, Box::new(prep_expr(a, k, ctx)?)),
    })
}

/// Per-launch performance counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize)]
pub struct Counters {
    /// Global-memory loads executed.
    pub loads_global: u64,
    /// Global-memory stores executed.
    pub stores_global: u64,
    /// `__constant`-space loads (modeled as cached/broadcast, no DRAM
    /// traffic).
    pub loads_constant: u64,
    /// Bytes read from global memory (request size, before coalescing).
    pub bytes_loaded: u64,
    /// Bytes written to global memory.
    pub bytes_stored: u64,
    /// Floating-point operations executed.
    pub flops: u64,
    /// Work-items executed.
    pub work_items: u64,
}

impl Counters {
    /// Adds another launch's (or chunk's) counts.
    pub fn add(&mut self, o: &Counters) {
        self.loads_global += o.loads_global;
        self.stores_global += o.stores_global;
        self.loads_constant += o.loads_constant;
        self.bytes_loaded += o.bytes_loaded;
        self.bytes_stored += o.bytes_stored;
        self.flops += o.flops;
        self.work_items += o.work_items;
    }

    /// Scales all counts (used when the model samples a subset of warps).
    pub fn scaled(&self, f: f64) -> Counters {
        let s = |x: u64| (x as f64 * f).round() as u64;
        Counters {
            loads_global: s(self.loads_global),
            stores_global: s(self.stores_global),
            loads_constant: s(self.loads_constant),
            bytes_loaded: s(self.bytes_loaded),
            bytes_stored: s(self.bytes_stored),
            flops: s(self.flops),
            work_items: s(self.work_items),
        }
    }
}

/// How a launch executes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExecMode {
    /// Run every work-item; count operations but no transaction model.
    Fast,
    /// Warp-accurate transaction counting. `sample_stride` > 1 executes only
    /// every k-th warp and scales the counts (valid for translation-
    /// invariant kernels such as stencils; boundary kernels use stride 1).
    Model {
        /// Execute every k-th warp.
        sample_stride: usize,
    },
    /// Run every work-item like `Fast` and time every tape op it
    /// dispatches: the launch's [`LaunchStats::op_profile`].
    Profile,
}

/// How a launch is executed — the one user-facing execution knob
/// (`VGPU_ENGINE`, see [`Engine::parse`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The warp executor over the kernel's tape ([`Backend::Tape`]): one
    /// decode per warp over a structure-of-arrays register file,
    /// superinstructions over fixed-width lane loops, divergent branches
    /// executed under complementary lane masks and reconverged at the
    /// branch's join (`vgpu.warp.divergent`). One loop runs every launch,
    /// modeled and sanitized ones alike, over groups of consecutive
    /// work-items: the launch's workgroups (barrier phases over a shared
    /// local arena), or one warp each for a kernel without workgroup
    /// features. Only such a flat launch has a bounds proof — a local id is
    /// bounded by nothing the static verifier sees — so only it elides
    /// checks at the sites proven safe for its concrete shape, and only its
    /// warps take its shape's lane shapes. Every [`Prepared`] has
    /// a tape and every launch is checked against its parameter kinds first,
    /// so `Fast` never runs anything else.
    #[default]
    Fast,
    /// The reference tree-walking interpreter — the oracle, over the same
    /// groups item by item. Reachable only by asking for it (or through
    /// `Differential`).
    Tree,
    /// The oracle, then the tape: the tree-walker's outputs are
    /// snapshotted, the inputs restored, and the warp executor must
    /// reproduce bit-identical buffers and equal counters and transaction
    /// bytes. Any shadow-sanitizer finding either leg raised is a launch
    /// error too.
    Differential,
}

impl Engine {
    /// Parses a `VGPU_ENGINE` value: `fast`, `tree`, `diff` or
    /// `differential`; `None` for anything else.
    pub fn parse(s: &str) -> Option<Engine> {
        match s {
            "fast" => Some(Engine::Fast),
            "tree" => Some(Engine::Tree),
            "diff" | "differential" => Some(Engine::Differential),
            _ => None,
        }
    }
}

/// The executor that ran a launch: [`Backend::Tape`] under
/// [`Engine::Fast`] and [`Engine::Differential`] (whose oracle leg is
/// reported apart, `LaunchStats::oracle_wall`), [`Backend::Tree`] under
/// [`Engine::Tree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The masked warp executor over the tape (SoA register file, one
    /// decode per warp, superinstructions, proof-licensed bounds elision).
    Tape,
    /// The reference tree-walking interpreter.
    Tree,
}

impl Backend {
    /// Display label (`"tape"` / `"tree"`), as used in telemetry events,
    /// sanitizer findings and the `vgpu.launches.*` counters.
    pub fn label(self) -> &'static str {
        match self {
            Backend::Tape => "tape",
            Backend::Tree => "tree",
        }
    }
}

/// Result of a launch.
#[derive(Debug, Clone)]
pub struct LaunchStats {
    /// Operation counters (scaled to the full NDRange when sampled).
    pub counters: Counters,
    /// DRAM bytes actually moved per the 128-byte transaction model; `None`
    /// in [`ExecMode::Fast`].
    pub transaction_bytes: Option<u64>,
    /// Modeled device time in seconds: `Some` exactly under
    /// [`ExecMode::Model`], per the launching device's profile and the
    /// precision of the kernel's float traffic.
    pub modeled_s: Option<f64>,
    /// Wall-clock execution time of the interpreter (host-side).
    pub wall: std::time::Duration,
    /// Total work-items in the NDRange.
    pub global_work_items: u64,
    /// Tasks the launch was dispatched as; at most 1 means it ran on the
    /// launching thread alone. A fact about scheduling, like `wall`: never
    /// part of differential comparison.
    pub tasks: usize,
    /// Which backend executed the launch.
    pub backend: Backend,
    /// Warps whose active lanes disagreed at one or more branches and ran
    /// them under divergence masks (reconverging at each branch's join);
    /// each such warp counts once, however many branches or barrier phases
    /// diverged. Always 0 on [`Backend::Tree`].
    pub divergent_warps: u64,
    /// Wall-clock time of the tree-walker *oracle* leg when the launch ran
    /// under [`Engine::Differential`] (`wall` then covers only the tape
    /// leg). `None` for single-backend launches. Lets launch audits and
    /// traces attribute the oracle's extra execution instead of silently
    /// folding it into the reported launch.
    pub oracle_wall: Option<std::time::Duration>,
    /// Per-opcode time attribution merged across the launch's tasks:
    /// `Some` exactly under [`ExecMode::Profile`] (empty on
    /// [`Backend::Tree`], which runs no tape); never part of differential
    /// comparison (timing is not a result).
    pub op_profile: Option<Box<crate::profiler::OpProf>>,
}

/// One buffer binding or scalar argument.
pub enum ArgBind<'a> {
    /// A device buffer.
    Buf(&'a SharedBuf),
    /// A scalar value.
    Val(Value),
}

struct ItemState {
    slots: Vec<Value>,
    privs: Vec<Vec<Value>>,
    counters: Counters,
    trace: Vec<TraceRec>, // loads + stores
    modeled: bool,
    item: u64,
}

/// Per-item execution coordinates.
#[derive(Clone, Copy)]
struct ItemCtx {
    gid: [usize; 3],
    lid: usize,
    group: usize,
    lsize: usize,
}

enum Flow {
    Next,
    Return,
}

struct Exec<'a> {
    prep: &'a Prepared,
    bufs: &'a [Option<&'a SharedBuf>],
    gsize: [usize; 3],
    /// Where sanitizer findings land.
    san: SanCtx<'a>,
}

impl<'a> Exec<'a> {
    fn eval(
        &self,
        e: &PExpr,
        st: &mut ItemState,
        locals: &mut Vec<Vec<Value>>,
        ic: ItemCtx,
    ) -> Value {
        match e {
            PExpr::Lit(v) => *v,
            PExpr::Var(s) => st.slots[*s],
            PExpr::GlobalId(d) => Value::I32(ic.gid[*d as usize] as i32),
            PExpr::GlobalSize(d) => Value::I32(self.gsize[*d as usize] as i32),
            PExpr::LocalId(d) => Value::I32(if *d == 0 { ic.lid as i32 } else { 0 }),
            PExpr::LocalSize(d) => Value::I32(if *d == 0 { ic.lsize as i32 } else { 1 }),
            PExpr::GroupId(d) => Value::I32(if *d == 0 { ic.group as i32 } else { 0 }),
            PExpr::Load { mem, idx, site, space } => {
                let i = self.eval(idx, st, locals, ic).as_i64();
                match mem {
                    PMem::Param(p) => {
                        let buf = self.bufs[*p].expect("buffer bound");
                        in_bounds("load", *p, i, buf.len());
                        let eb = buf.elem_bytes() as u64;
                        match space {
                            MemSpace::Constant => st.counters.loads_constant += 1,
                            _ => {
                                st.counters.loads_global += 1;
                                st.counters.bytes_loaded += eb;
                                if st.modeled {
                                    st.trace.push((*site, ((*p as u64) << 40) | ((i as u64) * eb)));
                                }
                            }
                        }
                        if let Some(sh) = buf.shadow() {
                            if let Some(kind) = sh.classify_load(i as usize) {
                                self.san.report(kind, *p, *site, i as u64);
                            }
                        }
                        // SAFETY: launch contract — no concurrent writer of
                        // this element.
                        unsafe { buf.get(i as usize) }
                    }
                    PMem::Priv(a) => {
                        st.privs[*a][array_index("private", *a, i, st.privs[*a].len())]
                    }
                    PMem::Local(a) => locals[*a][array_index("local", *a, i, locals[*a].len())],
                }
            }
            PExpr::Bin(op, a, b) => {
                let va = self.eval(a, st, locals, ic);
                let vb = self.eval(b, st, locals, ic);
                if op.is_flop() && (va.kind().is_float() || vb.kind().is_float()) {
                    st.counters.flops += 1;
                }
                lift::scalar::eval_bin(*op, va, vb)
            }
            PExpr::Un(op, a) => {
                let v = self.eval(a, st, locals, ic);
                match op {
                    UnOp::Neg => match v {
                        Value::F32(x) => Value::F32(-x),
                        Value::F64(x) => Value::F64(-x),
                        Value::I32(x) => Value::I32(-x),
                        Value::Bool(b) => Value::I32(-(b as i32)),
                    },
                    UnOp::Not => Value::Bool(!v.truthy()),
                }
            }
            PExpr::Select(c, t, f) => {
                if self.eval(c, st, locals, ic).truthy() {
                    self.eval(t, st, locals, ic)
                } else {
                    self.eval(f, st, locals, ic)
                }
            }
            PExpr::Call(intr, args) => {
                let vals: Vec<Value> = args.iter().map(|a| self.eval(a, st, locals, ic)).collect();
                st.counters.flops += match intr {
                    Intrinsic::Sqrt
                    | Intrinsic::Exp
                    | Intrinsic::Log
                    | Intrinsic::Sin
                    | Intrinsic::Cos => 4,
                    Intrinsic::Fma => 2,
                    Intrinsic::Min | Intrinsic::Max => {
                        if vals[0].kind().is_float() {
                            1
                        } else {
                            0
                        }
                    }
                    Intrinsic::Fabs => 0,
                };
                lift::scalar::eval_intrinsic(*intr, &vals)
            }
            PExpr::Cast(kind, a) => self.eval(a, st, locals, ic).cast(*kind),
        }
    }

    fn exec_block(
        &self,
        stmts: &[PStmt],
        st: &mut ItemState,
        locals: &mut Vec<Vec<Value>>,
        ic: ItemCtx,
    ) -> Flow {
        for s in stmts {
            match s {
                PStmt::DeclScalar { slot, kind, init } => {
                    let v = match init {
                        Some(e) => self.eval(e, st, locals, ic).cast(*kind),
                        None => Value::zero(*kind),
                    };
                    st.slots[*slot] = v;
                }
                PStmt::DeclPriv { arr, kind, len } => {
                    let n = array_len("private", *arr, self.eval(len, st, locals, ic).as_i64());
                    st.privs[*arr].clear();
                    st.privs[*arr].resize(n, Value::zero(*kind));
                }
                PStmt::DeclLocal { arr, kind, len } => {
                    // allocated once per group (first item to execute it)
                    let n = array_len("local", *arr, self.eval(len, st, locals, ic).as_i64());
                    if locals[*arr].len() != n {
                        locals[*arr].clear();
                        locals[*arr].resize(n, Value::zero(*kind));
                    }
                }
                PStmt::Barrier => {
                    unreachable!("barriers are phase boundaries, never executed directly")
                }
                PStmt::Assign { slot, value } => {
                    let kind = st.slots[*slot].kind();
                    let v = self.eval(value, st, locals, ic).cast(kind);
                    st.slots[*slot] = v;
                }
                PStmt::Store { mem, idx, value, site, space } => {
                    let i = self.eval(idx, st, locals, ic).as_i64();
                    let v = self.eval(value, st, locals, ic);
                    match mem {
                        PMem::Param(p) => {
                            let buf = self.bufs[*p].expect("buffer bound");
                            in_bounds("store", *p, i, buf.len());
                            let eb = buf.elem_bytes() as u64;
                            if !matches!(space, MemSpace::Private) {
                                st.counters.stores_global += 1;
                                st.counters.bytes_stored += eb;
                                if st.modeled {
                                    st.trace.push((*site, ((*p as u64) << 40) | ((i as u64) * eb)));
                                }
                            }
                            if let Some(sh) = buf.shadow() {
                                self.san.note_store(sh, *p, *site, i as usize, st.item);
                            }
                            // SAFETY: launch contract — element disjointness
                            // across work-items (a write race on a sanitizing
                            // runtime).
                            unsafe { buf.set(i as usize, v) };
                        }
                        PMem::Priv(a) => {
                            let kind = self.prep.priv_kinds[*a];
                            let at = array_index("private", *a, i, st.privs[*a].len());
                            st.privs[*a][at] = v.cast(kind);
                        }
                        PMem::Local(a) => {
                            let kind = self.prep.local_kinds[*a];
                            let at = array_index("local", *a, i, locals[*a].len());
                            locals[*a][at] = v.cast(kind);
                        }
                    }
                }
                PStmt::For { slot, begin, end, step, body } => {
                    let b = self.eval(begin, st, locals, ic).as_i64();
                    let e = self.eval(end, st, locals, ic).as_i64();
                    let stp = self.eval(step, st, locals, ic).as_i64().max(1);
                    let mut i = b;
                    while i < e {
                        st.slots[*slot] = Value::I32(i as i32);
                        if let Flow::Return = self.exec_block(body, st, locals, ic) {
                            return Flow::Return;
                        }
                        i += stp;
                    }
                }
                PStmt::If { cond, then_, else_ } => {
                    let flow = if self.eval(cond, st, locals, ic).truthy() {
                        self.exec_block(then_, st, locals, ic)
                    } else {
                        self.exec_block(else_, st, locals, ic)
                    };
                    if let Flow::Return = flow {
                        return Flow::Return;
                    }
                }
                PStmt::Return => return Flow::Return,
            }
        }
        Flow::Next
    }
}

/// Counts distinct transaction segments per (site, occurrence) across one
/// warp's per-item traces — the `n`-th access of an item at a site lines up
/// with every other item's `n`-th there — empties the traces and returns
/// the DRAM bytes moved.
fn warp_transaction_bytes<'a>(
    traces: impl IntoIterator<Item = &'a mut Vec<TraceRec>>,
    txn: u64,
) -> u64 {
    let mut groups: HashMap<(u32, u32), Vec<u64>> = HashMap::new();
    let mut occ: HashMap<u32, u32> = HashMap::new();
    for t in traces {
        occ.clear();
        for (site, addr) in t.drain(..) {
            let n = occ.entry(site).or_insert(0);
            groups.entry((site, *n)).or_default().push(addr);
            *n += 1;
        }
    }
    let mut bytes = 0u64;
    let mut segs: Vec<u64> = Vec::with_capacity(WARP);
    for (_, addrs) in groups {
        segs.clear();
        segs.extend(addrs.iter().map(|a| a / txn));
        segs.sort_unstable();
        segs.dedup();
        bytes += segs.len() as u64 * txn;
    }
    bytes
}

/// Fewest work-items in one task of a launch: 64 warps. At the ≈ 8 ns a
/// work-item costs on the tape executor (traced `vgpu.lane_ns_per_item` @
/// `room_hand` on 2 vCPUs: 8.0–8.9 ns) that is 16–18 µs of lane work,
/// several times the futex wake that hands a task to a pool worker.
/// EXPERIMENTS.md ("Lane pool and task grain") records the 32/64/128/256-warp
/// sweep it was chosen from: coarser tasks split mid-sized launches
/// unevenly over the threads, finer ones gain nothing further.
const GRAIN_ITEMS: usize = 64 * WARP;

/// Most elements a work-item's private array or a group's local array may
/// declare (every shipped configuration declares `MB = 3` private elements):
/// the length is a kernel expression, and an allocation that fails aborts
/// the process, not the launch.
const ARRAY_MAX_LEN: i64 = 65_536;

/// A declared length of `space` (`"private"` or `"local"`) array `arr`:
/// outside `0..=ARRAY_MAX_LEN` it is this panic, on every engine.
pub(crate) fn array_len(space: &str, arr: usize, len: i64) -> usize {
    assert!(
        (0..=ARRAY_MAX_LEN).contains(&len),
        "{space} array #{arr}: length {len} outside 0..={ARRAY_MAX_LEN}"
    );
    len as usize
}

/// Checks element `i` of kernel parameter `param` against its buffer's
/// `len` for a `what` (`"load"` or `"store"`) of the oracle: out of range it
/// fails the launch with the tape's panic text, in every build.
fn in_bounds(what: &str, param: usize, i: i64, len: usize) {
    #[cold]
    #[inline(never)]
    fn fail(what: &str, param: usize, i: i64, len: usize) -> ! {
        panic!("{what} out of bounds: param {param}[{i}] (len {len})")
    }
    if i as u64 >= len as u64 {
        fail(what, param, i, len)
    }
}

/// Element `i` of `space` array `arr` of `len` elements; out of range it
/// fails the launch with this panic, on every engine. The panic is out of
/// line: the lane loops this sits in are expanded once per mask shape.
pub(crate) fn array_index(space: &str, arr: usize, i: i64, len: usize) -> usize {
    #[cold]
    #[inline(never)]
    fn fail(space: &str, arr: usize, i: i64, len: usize) -> ! {
        panic!("{space} array #{arr}: index {i} out of bounds (len {len})")
    }
    if i as u64 >= len as u64 {
        fail(space, arr, i, len)
    }
    i as usize
}

/// Ids (warps, or groups of `items_per_id` work-items) per task: the launch
/// is cut into as many equal tasks as hold [`GRAIN_ITEMS`] each, so a launch
/// below two grains is one task, which [`dispatch`] runs on the launching
/// thread with no hand-off. The count depends on the launch shape alone,
/// never on the thread count.
fn dispatch_chunk(nids: usize, items_per_id: usize) -> usize {
    let grain_ids = GRAIN_ITEMS.div_ceil(items_per_id.max(1));
    let ntasks = (nids / grain_ids).max(1);
    nids.div_ceil(ntasks).max(1)
}

/// Runs `task` over the ids `0..nids` cut into [`dispatch_chunk`]-sized
/// ranges on the rayon pool — the launching thread claims tasks alongside
/// the pool's idle workers — and returns the per-task results in id order
/// with the wall time of the whole. Counts, in `rt`, `vgpu.dispatch.tasks`
/// (tasks published) and `vgpu.dispatch.inline_launches` (launches that
/// were a single task).
fn dispatch(
    rt: &Runtime,
    nids: u64,
    items_per_id: usize,
    task: impl Fn(Range<u64>) -> ChunkAcc + Sync,
) -> (Vec<ChunkAcc>, std::time::Duration) {
    let [tasks, inline_launches] = &rt.counters.dispatch;
    let chunk = dispatch_chunk(nids as usize, items_per_id) as u64;
    let ntasks = nids.div_ceil(chunk) as usize;
    tasks.add(ntasks as u64);
    if ntasks <= 1 {
        inline_launches.inc();
    }
    let start = std::time::Instant::now();
    let ranges: Vec<_> = (0..ntasks as u64).map(|t| t * chunk..nids.min((t + 1) * chunk)).collect();
    let results = ranges.par_chunks(1).map(|r| task(r[0].clone())).collect();
    (results, start.elapsed())
}

/// The bundles of a flat launch of `gsize` that start at a warp of `warps`,
/// as item ranges. Where a bundle lies depends on its warps' positions
/// alone. In rows at least two warps wide it is a row's coherent warps four
/// at a time from its first whole warp (a row 96 wide is one bundle, a 1-D
/// launch one per 128 items), or a warp that straddles rows, alone; in
/// narrower rows it is the launch's warps `4k..4k + 4`, whatever rows they
/// span. Consecutive warp ranges tile the launch. One division per call,
/// none per bundle.
pub(crate) fn bundles(gsize: [usize; 3], warps: Range<u64>) -> impl Iterator<Item = Range<u64>> {
    let (gx, total, w) = (gsize[0] as u64, gsize.iter().product::<usize>() as u64, WARP as u64);
    let (end, mut b, narrow) = (total.min(warps.end * w), warps.start * w, gx < 2 * w);
    let mut x = if b < end && !narrow { b % gx } else { 0 };
    std::iter::from_fn(move || loop {
        // The bundle at item `b` (`x` into its row, kept for wide rows), if
        // one starts there.
        let rest = (b < end).then(|| total - b)?;
        let n = if narrow {
            b.is_multiple_of(BUNDLE as u64).then(|| rest.min(BUNDLE as u64))
        } else {
            let (left, row) = (gx - x, b - x);
            let first = row.next_multiple_of(w) - row;
            match rest.min(w) > left {
                true => Some(w.min(rest)),
                false => ((x - first) / w % 4 == 0)
                    .then(|| (if rest <= left { rest } else { left / w * w }).min(BUNDLE as u64)),
            }
        };
        let step = n.unwrap_or(w);
        (b, x) = (b + step, x + step);
        while x >= gx && !narrow {
            x -= gx;
        }
        if let Some(n) = n {
            return Some(b - n..b);
        }
    })
}

// ---- a launch shape's record: bounds proof, lane shapes, entry pc ----

/// The record of a launch's shape — for a flat launch, its check table
/// (`!checked[site]`: the static verifier proved the access in bounds for
/// every work-item of *this* shape) and lane shapes; for every launch, its
/// entry pc and tape. The shape is what [`build_checked_sites`] and the
/// lane-shape analysis read of a launch: the global size and, per
/// parameter, the bound buffer's length or the i32 scalar's bits. Records
/// are kept on the artifact ([`Derived`]); a hit takes a read lock and
/// allocates nothing, a miss runs the analyses outside any lock and, flat,
/// bumps `vgpu.tape.sites_{proven,checked}`. The tape specialised on the
/// launch's values of the kernel's launch-constant slots
/// ([`bytecode::compile_under`]) comes from any record of the same values,
/// or is compiled on the first launch of them.
fn launch_record(l: &Launch<'_>) -> Arc<CheckTable> {
    let prep = l.prep;
    let arg = |i: usize| match (l.bufs[i], scalar_arg_value(prep, l.init_slots, i)) {
        (Some(b), _) => b.len() as u64,
        (None, Some(v @ Value::I32(_))) => bytecode::bits_of_value(v),
        // Float scalars never reach the verifier.
        (None, _) => 0,
    };
    let args = || (0..prep.params.len()).map(arg);
    let mut h = std::collections::hash_map::DefaultHasher::new();
    l.gsize.hash(&mut h);
    args().for_each(|a| a.hash(&mut h));
    let key = h.finish();
    let tables = &prep.derived.tables;
    if let Some(t) = tables.read().expect("no panic under this lock").get(&key) {
        if t.gsize == l.gsize && t.args.iter().copied().eq(args()) {
            return t.clone();
        }
    }
    let checked = if l.lsize.is_none() { build_checked_sites(l) } else { Vec::new() };
    let kept = checked.iter().filter(|&&c| c).count() as u64;
    let [proven, checked_sites] = &l.rt.counters.sites;
    proven.add(checked.len() as u64 - kept);
    checked_sites.add(kept);
    let same = |t: &&Arc<CheckTable>| prep.launch_consts.iter().all(|&(i, _)| t.args[i] == arg(i));
    let tape = if prep.launch_consts.is_empty() {
        None
    } else {
        let held = tables.read().expect("no panic under this lock").values().find(same).cloned();
        let known: Vec<_> = prep.launch_consts.iter().map(|&(i, s)| (s, arg(i))).collect();
        held.map_or_else(|| bytecode::compile_under(prep, &known).map(Arc::new), |t| t.tape.clone())
    };
    let (shapes, entry) =
        crate::compile::launch_shapes(tape.as_deref().unwrap_or(&prep.tape), l.init_slots, l.gsize);
    let shapes = if l.lsize.is_none() { shapes } else { Default::default() };
    let mut tables = tables.write().expect("no panic under this lock");
    if tables.len() >= CHECK_TABLE_CAP {
        tables.clear();
    }
    // Most launch shapes share their lane shapes: one copy of each.
    let seen = |t: &[_]| tables.values().flat_map(|c| &c.shapes).find(|s| s[..] == *t).cloned();
    let shapes = shapes.map(|t| seen(&t).unwrap_or_else(|| t.into()));
    let (gsize, args) = (l.gsize, args().collect());
    let table = Arc::new(CheckTable { gsize, args, checked, shapes, entry, tape });
    tables.insert(key, table.clone());
    table
}

/// The value bound to scalar parameter `i`, recovered from the initial
/// slot assignments (already cast to the declared kind).
fn scalar_arg_value(prep: &Prepared, init_slots: &[(usize, Value)], i: usize) -> Option<Value> {
    let slot = prep.scalar_slots.get(i).copied().flatten()?;
    init_slots.iter().find(|(s, _)| *s == slot).map(|(_, v)| *v)
}

/// Builds the check table: the contract the kernel was compiled under
/// merged with the concrete launch shape, run through the static bounds
/// verifier. Unset global-size dims become the launch's constants, i32
/// scalars become equality defines with their bound values, and buffers
/// without contract facts get their concrete lengths. A contract length is
/// evaluated under the i32 arguments: when it exceeds the bound buffer's
/// real length the proof is made against the real length (content facts
/// stay as stated); one over a variable no argument binds cannot be
/// evaluated and is trusted (see [`prepare_under`]).
fn build_checked_sites(l: &Launch<'_>) -> Vec<bool> {
    use lift::arith::ArithExpr;
    let prep = l.prep;
    let mut asm = prep.contract.clone();
    let wd = (prep.work_dim as usize).max(1);
    if asm.global_size.len() < wd {
        asm.global_size.resize(wd, None);
    }
    for (slot, gs) in asm.global_size.iter_mut().zip(l.gsize).take(wd) {
        if slot.is_none() {
            *slot = Some(ArithExpr::cst(gs as i64));
        }
    }
    let i32_arg = |i: usize| match scalar_arg_value(prep, l.init_slots, i) {
        Some(Value::I32(x)) => Some(x as i64),
        _ => None,
    };
    let i32_named = |name: &str| prep.params.iter().position(|p| p.name == name).and_then(i32_arg);
    for (i, p) in prep.params.iter().enumerate() {
        if let Some(b) = l.bufs[i] {
            let real = b.len() as i64;
            match asm.buffers.get_mut(&p.name) {
                Some(facts) => {
                    if facts.len.eval(&i32_named).is_ok_and(|stated| stated > real) {
                        facts.len = ArithExpr::cst(real);
                    }
                }
                None => {
                    let facts = lift::verify::BufferFacts::sized(ArithExpr::cst(real));
                    asm.buffers.insert(p.name.clone(), facts);
                }
            }
        } else if let Some(x) = i32_arg(i) {
            if !asm.defines.iter().any(|(n, _)| n == &p.name) {
                asm.defines.push((p.name.clone(), ArithExpr::cst(x)));
            }
        }
    }
    let table = lift::verify::verify_kernel(&prep.source, &asm).proof_table();
    (0..prep.tape.nsites).map(|s| !table.proven(s)).collect()
}

/// One validated launch: everything a runner needs except which executor
/// runs it.
struct Launch<'a> {
    prep: &'a Prepared,
    bufs: &'a [Option<&'a SharedBuf>],
    /// Scalar arguments, cast to their declared kinds: (slot, value).
    init_slots: &'a [(usize, Value)],
    gsize: [usize; 3],
    total: u64,
    /// Workgroup size — `Some` exactly when the kernel uses workgroup
    /// features (barriers, local memory, local/group ids).
    lsize: Option<usize>,
    /// Execute every `stride`-th group and scale the counts.
    stride: usize,
    /// Run the warp transaction model ([`ExecMode::Model`]).
    modeled: bool,
    /// Time every tape op ([`ExecMode::Profile`]).
    profiled: bool,
    transaction_size: u64,
    /// Where the launch's counters and findings land.
    rt: &'a Runtime,
    /// The sanitizer findings the launch's own legs raised.
    found: Findings,
}

impl Launch<'_> {
    /// How the launch is cut: groups of `lsize` work-items, or of one warp
    /// when it is flat (its last group may then be partial), and how many of
    /// them run — every `stride`-th: the `k`-th is group `k · stride`.
    fn groups(&self) -> (usize, u64) {
        let group = self.lsize.unwrap_or(WARP);
        (group, self.total.div_ceil(group as u64).div_ceil(self.stride as u64))
    }
}

/// Executes a prepared kernel over the NDRange `global` — the one way to
/// launch ([`crate::Device::launch_wg`] is its caller).
///
/// `bindings` must match `prep.params` in order — a buffer of the declared
/// element kind for a buffer parameter, a value for a scalar — which one
/// pass checks before anything runs; the error names kernel and parameter
/// and is the same whatever the engine. Kernels that use barriers, local
/// memory or local/group ids *require* `local`, and the global size must be
/// a multiple of it; barrier-free kernels ignore it. The launch accounts to
/// `rt` (counters, sanitizer findings); on a sanitizing runtime
/// it fails on a write race, and under [`Engine::Differential`] on any
/// finding of its own.
#[allow(clippy::too_many_arguments)]
pub fn launch(
    prep: &Prepared,
    bindings: &[ArgBind<'_>],
    global: &[usize],
    local: Option<usize>,
    mode: ExecMode,
    transaction_size: u64,
    engine: Engine,
    rt: &Runtime,
) -> Result<LaunchStats, ExecError> {
    if bindings.len() != prep.params.len() {
        return err(format!(
            "kernel `{}` expects {} arguments, got {}",
            prep.name,
            prep.params.len(),
            bindings.len()
        ));
    }
    let mut bufs: Vec<Option<&SharedBuf>> = Vec::with_capacity(bindings.len());
    let mut init_slots: Vec<(usize, Value)> = Vec::new();
    for (i, (b, p)) in bindings.iter().zip(&prep.params).enumerate() {
        match (b, p.is_buffer) {
            // The tape bakes element kinds in, and the oracle must run what
            // the tape runs.
            (ArgBind::Buf(buf), true) if buf.kind() != p.kind => {
                return err(format!(
                    "kernel `{}`: buffer parameter `{}` is declared {:?} but bound as {:?}",
                    prep.name,
                    p.name,
                    p.kind,
                    buf.kind()
                ))
            }
            (ArgBind::Buf(buf), true) => bufs.push(Some(buf)),
            (ArgBind::Val(v), false) => {
                bufs.push(None);
                let slot = prep.scalar_slots[i].expect("scalar param has a slot");
                init_slots.push((slot, v.cast(p.kind)));
            }
            _ => {
                return err(format!(
                    "argument {i} of kernel `{}` does not match parameter `{}`",
                    prep.name, p.name
                ))
            }
        }
    }
    // OpenCL's `CL_INVALID_WORK_DIMENSION`: an NDRange has one to three
    // dimensions.
    if !(1..=3).contains(&global.len()) {
        return err(format!(
            "kernel `{}`: global size {global:?} has {} dimensions, 1 to 3 are supported",
            prep.name,
            global.len()
        ));
    }
    let mut gsize = [1usize; 3];
    gsize[..global.len()].copy_from_slice(global);
    let total: u64 = (gsize[0] as u64) * (gsize[1] as u64) * (gsize[2] as u64);

    let lsize = if prep.uses_groups {
        let lsize = match local {
            Some(l) if l > 0 => l,
            _ => {
                return err(format!(
                    "kernel `{}` uses workgroup features; launch it with an explicit local size \
                     (global {global:?}, local {local:?})",
                    prep.name
                ))
            }
        };
        if prep.work_dim != 1 || gsize[1] != 1 || gsize[2] != 1 {
            return err(format!(
                "kernel `{}`: workgroup kernels are supported for 1-D NDRanges only \
                 (global {global:?}, local size {lsize})",
                prep.name
            ));
        }
        if !total.is_multiple_of(lsize as u64) {
            return err(format!(
                "kernel `{}`: global size {total} is not a multiple of the workgroup size \
                 {lsize} (global {global:?})",
                prep.name
            ));
        }
        Some(lsize)
    } else {
        None
    };

    let l = Launch {
        prep,
        bufs: &bufs,
        init_slots: &init_slots,
        gsize,
        total,
        lsize,
        stride: match mode {
            ExecMode::Model { sample_stride } => sample_stride.max(1),
            ExecMode::Fast | ExecMode::Profile => 1,
        },
        modeled: matches!(mode, ExecMode::Model { .. }),
        profiled: mode == ExecMode::Profile,
        transaction_size,
        rt,
        found: Findings::default(),
    };
    match engine {
        Engine::Fast => run_launch(&l, Backend::Tape),
        Engine::Tree => run_launch(&l, Backend::Tree),
        Engine::Differential => run_differential(&l),
    }
}

/// Runs a validated launch on one executor, as one leg of the sanitizer's
/// writer tags; fails when the leg raced.
fn run_launch(l: &Launch<'_>, backend: Backend) -> Result<LaunchStats, ExecError> {
    let (leg, found) = (l.rt.next_leg(), &l.found);
    let san = SanCtx { prep: l.prep, rt: l.rt, leg, found, engine: backend.label() };
    let mut stats = match backend {
        Backend::Tree => run_tree(l, san),
        Backend::Tape => run_warps(l, san),
    };
    fail_on_findings(l, |kind| kind == FaultKind::WriteRace)?;
    stats.backend = backend;
    // The single accounting site of `vgpu.warp.divergent`; per launch
    // the figure rides `LaunchStats` into the launch's kernel event.
    if stats.divergent_warps > 0 {
        l.rt.counters.divergent.add(stats.divergent_warps);
    }
    Ok(stats)
}

/// Fails the launch on the findings of its own legs that `fails` selects,
/// naming each (kernel, site, buffer, element).
fn fail_on_findings(l: &Launch<'_>, fails: impl Fn(FaultKind) -> bool) -> Result<(), ExecError> {
    let bad: Vec<String> =
        l.found.all().iter().filter(|f| fails(f.kind)).map(|f| f.to_string()).collect();
    if bad.is_empty() {
        return Ok(());
    }
    err(format!(
        "shadow sanitizer flagged {} finding(s) in the launch of `{}`: {}",
        bad.len(),
        l.prep.name,
        bad.join("; ")
    ))
}

/// [`Engine::Differential`]: runs the tree-walker, snapshots its output,
/// restores the inputs, re-runs the launch on the tape and fails unless that
/// produced bit-identical buffers and identical counters and transaction
/// bytes; returns the tape leg's stats, tagged with the oracle's wall time.
/// Then the sanitizer gate — under `VGPU_SANITIZE=shadow` any finding
/// either leg raised turns the launch into a hard error, so the CI
/// `diff`+`shadow` leg fails on the first stale or uninit read.
fn run_differential(l: &Launch<'_>) -> Result<LaunchStats, ExecError> {
    // SAFETY: snapshots, rollback and comparison run between the legs.
    let snapshot = || l.bufs.iter().map(|b| b.map(|b| unsafe { b.data() }.clone())).collect();
    let inputs: Vec<_> = snapshot();
    let tree = run_launch(l, Backend::Tree)?;
    let expect: Vec<_> = snapshot();
    for (b, s) in l.bufs.iter().zip(&inputs).filter_map(|(b, s)| b.zip(s.as_ref())) {
        unsafe { b.restore(s) };
    }
    let mut stats = run_launch(l, Backend::Tape)?;
    stats.oracle_wall = Some(tree.wall);
    diff_check(l, &expect, &tree, &stats)?;
    fail_on_findings(l, |_| true)?;
    Ok(stats)
}

/// The differential comparison: current buffer contents against the
/// oracle's outputs (bitwise), plus counters and transaction bytes.
fn diff_check(
    l: &Launch<'_>,
    expect: &[Option<BufData>],
    oracle: &LaunchStats,
    got: &LaunchStats,
) -> Result<(), ExecError> {
    let label = Backend::Tape.label();
    let prep = l.prep;
    for (i, (b, e)) in l.bufs.iter().zip(expect).enumerate() {
        if let (Some(b), Some(e)) = (b, e) {
            // SAFETY: see `run_differential`.
            if !bits_eq(unsafe { b.data() }, e) {
                return err(format!(
                    "differential check failed for kernel `{}`: buffer `{}` differs between tree-walker and {label}",
                    prep.name, prep.params[i].name
                ));
            }
        }
    }
    if got.counters != oracle.counters {
        return err(format!(
            "differential check failed for kernel `{}`: counters differ (tree {:?}, {label} {:?})",
            prep.name, oracle.counters, got.counters
        ));
    }
    if got.transaction_bytes != oracle.transaction_bytes {
        return err(format!(
            "differential check failed for kernel `{}`: transaction bytes differ (tree {:?}, {label} {:?})",
            prep.name, oracle.transaction_bytes, got.transaction_bytes
        ));
    }
    Ok(())
}

/// Bitwise buffer equality (distinguishes NaN payloads and signed zeros,
/// which `PartialEq` on floats would not).
fn bits_eq(a: &BufData, b: &BufData) -> bool {
    let same = a.kind() == b.kind() && a.len() == b.len();
    same && (0..a.len()).all(|i| a.get_bits(i) == b.get_bits(i))
}

/// Sampled-launch scale factor: the full NDRange over the work-items that
/// every `stride`-th group of `group` items actually covered. A flat
/// launch's last group may be partial, so weighting by group *count* would
/// over-scale whenever it is sampled; whole groups give
/// `(a·group) / (b·group)`, which rounds exactly as `a / b`.
fn sample_scale(total: u64, group: usize, stride: usize) -> f64 {
    let (group, n, stride) = (group as u64, total.div_ceil(group as u64), stride as u64);
    // Every sampled group is whole but the launch's last, when sampled.
    let short = if n > 0 && (n - 1) % stride == 0 { n * group - total } else { 0 };
    let covered = n.div_ceil(stride) * group - short;
    if covered == 0 || covered == total {
        1.0
    } else {
        total as f64 / covered as f64
    }
}

/// What one rayon task (a chunk of groups) contributes to a
/// launch; [`finish`] sums these.
#[derive(Default)]
struct ChunkAcc {
    counters: Counters,
    /// Transaction-model bytes ([`warp_transaction_bytes`]).
    tbytes: u64,
    /// Warps that diverged (tape executor only).
    divergent: u32,
    /// Per-op time tally (tape executor under [`ExecMode::Profile`] only):
    /// one per chunk, merged after the parallel section — no shared state
    /// inside the hot loop.
    prof: Option<Box<crate::profiler::OpProf>>,
}

// One step's collected `Vec<ChunkAcc>` of the benchmark room fits the block a
// task's register file just freed; at 112 bytes glibc grew the heap by ~17 KB
// a step instead (EXPERIMENTS.md, "Lane shapes"). A new field stays below that.
const _: () = assert!(std::mem::size_of::<ChunkAcc>() == 80);

/// Per-launch aggregation shared by every runner: sums the chunk results
/// and applies the sampling scale.
fn finish(
    l: &Launch<'_>,
    chunks: Vec<ChunkAcc>,
    scale: f64,
    wall: std::time::Duration,
) -> LaunchStats {
    let mut counters = Counters::default();
    let mut tbytes = 0u64;
    let mut divergent_warps = 0u64;
    let mut op_profile = l.profiled.then(Box::<crate::profiler::OpProf>::default);
    let tasks = chunks.len();
    for c in chunks {
        counters.add(&c.counters);
        tbytes += c.tbytes;
        divergent_warps += c.divergent as u64;
        if let (Some(m), Some(p)) = (op_profile.as_deref_mut(), c.prof) {
            m.merge(&p);
        }
    }
    LaunchStats {
        counters: counters.scaled(scale),
        transaction_bytes: l.modeled.then(|| (tbytes as f64 * scale).round() as u64),
        // Set by `Device::launch_wg`, which knows the device profile.
        modeled_s: None,
        wall,
        global_work_items: l.total,
        tasks,
        // Overwritten by `run_launch`, which knows which backend ran.
        backend: Backend::Tree,
        divergent_warps,
        // Set by `run_differential` when an oracle leg also ran.
        oracle_wall: None,
        op_profile,
    }
}

/// The tree-walker over a launch's groups, parallel over groups: within one
/// group, work-items execute each barrier-delimited phase in turn, sharing
/// local memory — the standard sequential-consistency model for
/// barrier-synchronised OpenCL kernels. Every item starts from zeroed slots
/// and empty private arrays.
fn run_tree(l: &Launch<'_>, san: SanCtx<'_>) -> LaunchStats {
    let prep = l.prep;
    let exec = Exec { prep, bufs: l.bufs, gsize: l.gsize, san };
    let (group, nids) = l.groups();
    let [gx, gy, _] = l.gsize.map(|g| g as u64);
    let (results, wall) = dispatch(l.rt, nids, group, |ids| {
        // Per-item states allocated once per task and reset per group.
        let mut locals: Vec<Vec<Value>> = vec![Vec::new(); prep.local_kinds.len()];
        let mut states: Vec<ItemState> = (0..group)
            .map(|_| ItemState {
                slots: vec![Value::I32(0); prep.nslots],
                privs: vec![Vec::new(); prep.npriv],
                counters: Counters::default(),
                trace: Vec::new(),
                modeled: l.modeled,
                item: 0,
            })
            .collect();
        let mut active = vec![true; group];
        let mut acc = ChunkAcc::default();
        for g in ids.map(|k| k * l.stride as u64) {
            let first = g * group as u64;
            let states = &mut states[..(l.total - first).min(group as u64) as usize];
            for a in locals.iter_mut() {
                // Emptied so the group's first DeclLocal re-allocates.
                a.clear();
            }
            for (lid, st) in states.iter_mut().enumerate() {
                st.slots.fill(Value::I32(0));
                for (slot, v) in l.init_slots {
                    st.slots[*slot] = *v;
                }
                st.privs.iter_mut().for_each(Vec::clear);
                st.item = first + lid as u64;
                active[lid] = true;
            }
            acc.counters.work_items += states.len() as u64;
            for phase in &prep.phases {
                for (lid, st) in states.iter_mut().enumerate() {
                    if !active[lid] {
                        continue;
                    }
                    let i = st.item;
                    let gid = [(i % gx) as usize, (i / gx % gy) as usize, (i / (gx * gy)) as usize];
                    let ic = ItemCtx { gid, lid, group: g as usize, lsize: group };
                    if let Flow::Return = exec.exec_block(phase, st, &mut locals, ic) {
                        active[lid] = false;
                    }
                }
            }
            if l.modeled {
                // The tape's warp partition: runs of WARP items, last one partial.
                for warp in states.chunks_mut(WARP) {
                    let traces = warp.iter_mut().map(|st| &mut st.trace);
                    acc.tbytes += warp_transaction_bytes(traces, l.transaction_size);
                }
            }
        }
        for st in states.iter() {
            acc.counters.add(&st.counters);
        }
        acc
    });
    finish(l, results, sample_scale(l.total, group, l.stride), wall)
}

/// The launch-invariant register state of the warp runners: the zeroed
/// file + scalar arguments + the optimizer's hoisted prelude, computed once
/// per *launch* and broadcast into each bundle's SoA file (see
/// [`bytecode::warp_init_regs`] for which registers need it when).
struct WarpInit {
    regs0: Vec<u64>,
    /// Registers broadcast once per register-file allocation.
    once: Vec<bytecode::R>,
    /// Registers re-broadcast for every fresh bundle.
    per_warp: Vec<bytecode::R>,
}

impl WarpInit {
    fn new(l: &Launch<'_>, tape: &Compiled) -> WarpInit {
        let mut regs0 = vec![0u64; tape.nregs];
        for (slot, v) in l.init_slots {
            regs0[*slot] = bytecode::bits_of_value(*v);
        }
        bytecode::exec_pre(tape, &mut regs0, l.gsize);
        let (once, per_warp) = bytecode::warp_init_regs(tape, l.prep.nslots);
        WarpInit { regs0, once, per_warp }
    }
}

/// One bundle's execution state, re-aimed at each bundle it runs
/// ([`WarpState::load`]).
struct WarpState {
    /// The register file ([`bytecode::File`]).
    vregs: Vec<u64>,
    /// The kernel's private arrays, one set of lane-minor rows each.
    privs: Vec<bytecode::PrivRows>,
    /// Per-lane access traces for the transaction model.
    traces: Vec<Vec<TraceRec>>,
    /// Per-lane indices of the access being run ([`bytecode::WarpCtx::idx`]).
    idx: [i64; BUNDLE],
    /// The work-items of the loaded bundle.
    ids: bytecode::WarpIds,
    /// Lanes that have not returned: a barrier phase runs these.
    alive: bytecode::Mask,
    /// Warps that diverged in some phase ([`bytecode::PhaseRun::diverged`]).
    diverged: u32,
}

impl WarpState {
    fn new(l: &Launch<'_>, tape: &Compiled, init: &WarpInit) -> WarpState {
        let mut vregs = vec![0; tape.nregs * BUNDLE];
        bytecode::broadcast(tape, &mut vregs, &init.regs0, &init.once);
        WarpState {
            vregs,
            privs: vec![Default::default(); l.prep.npriv],
            traces: vec![Vec::new(); if l.modeled { BUNDLE } else { 0 }],
            idx: [0; BUNDLE],
            ids: Default::default(),
            alive: 0,
            diverged: 0,
        }
    }

    /// Aims the state at the fresh bundle of work-items `items` (consecutive,
    /// at most [`BUNDLE`]): launch-initial registers, empty private arrays,
    /// every lane alive, and the per-item context prelude.
    fn load(&mut self, l: &Launch<'_>, tape: &Compiled, init: &WarpInit, items: Range<u64>) {
        let nact = (items.end - items.start) as usize;
        self.ids = bytecode::WarpIds::new(items.start, nact, l.gsize, l.lsize.unwrap_or(WARP));
        bytecode::broadcast(tape, &mut self.vregs, &init.regs0, &init.per_warp);
        bytecode::exec_item_pre_warp(tape, &mut self.vregs, nact, &self.ids);
        for p in self.privs.iter_mut() {
            p.reset();
        }
        self.alive = bytecode::prefix(nact);
        self.diverged = 0;
    }

    /// Runs phase `pc` of the loaded bundle over its live lanes, recording
    /// into `acc`; `locals` is the workgroup's local arena (empty for flat
    /// launches).
    fn run(
        &mut self,
        (l, tape, rec): (&Launch<'_>, &Compiled, &CheckTable),
        pc: usize,
        (san, acc, locals): (SanCtx<'_>, &mut ChunkAcc, &mut [Vec<u64>]),
    ) {
        let shapes = &rec.shapes[!self.ids.coherent as usize];
        let lic = bytecode::Licence { checked: &rec.checked, shapes };
        let mut wc = bytecode::WarpCtx {
            bufs: l.bufs,
            counters: &mut acc.counters,
            traces: &mut self.traces,
            modeled: l.modeled,
            idx: &mut self.idx,
            ids: self.ids,
            locals,
            prof: acc.prof.as_deref_mut(),
            san,
        };
        let (file, privs) = (&mut self.vregs[..], &mut self.privs[..]);
        let run = bytecode::exec_phase_warp(tape, pc, self.alive, file, privs, &mut wc, lic);
        self.alive &= !run.returned;
        self.diverged |= run.diverged;
    }
}

/// The tape executor over a launch's groups ([`bytecode::exec_phase_warp`]),
/// parallel over groups; mirrors [`run_tree`] phase for phase. Every launch
/// runs bundles of up to [`BUNDLE`] lanes: a flat launch its [`bundles`], a
/// sampled one each sampled warp alone, a grouped one each group cut into
/// bundles that share one local-memory arena. Each barrier phase runs bundle
/// by bundle over the lanes still alive, phase 0 from the launch's entry pc
/// ([`launch_record`]). Only a flat launch has a proof (its unchecked sites)
/// and lane shapes, of its bundle's kind, row-coherent or straddling.
/// Arithmetic, counters, traces and sanitizer findings reproduce the
/// tree-walker's. A thread's first task allocates its bundle states; each
/// task hands them on to the next.
fn run_warps(l: &Launch<'_>, san: SanCtx<'_>) -> LaunchStats {
    let rec = launch_record(l);
    let tape = rec.tape.as_deref().unwrap_or(&l.prep.tape);
    let init = WarpInit::new(l, tape);
    let (group, nids) = l.groups();
    let pool = std::sync::Mutex::new(Vec::new());
    let (results, wall) = dispatch(l.rt, nids, group, |ids| {
        let mut acc = ChunkAcc { prof: l.profiled.then(Box::default), ..ChunkAcc::default() };
        let pooled = pool.lock().expect("no panic under this lock").pop();
        let mut warps: Vec<WarpState> = pooled.unwrap_or_else(|| {
            (0..group.div_ceil(BUNDLE)).map(|_| WarpState::new(l, tape, &init)).collect()
        });
        let mut locals: Vec<Vec<u64>> = vec![Vec::new(); l.prep.local_kinds.len()];
        // A unit of bundles: a bundle, or a group cut into bundles.
        let mut run = |items: Range<u64>| {
            for a in locals.iter_mut() {
                // Emptied so the group's first DeclLocal re-zeros it.
                a.clear();
            }
            acc.counters.work_items += items.end - items.start;
            let mut n = 0;
            for (warp, b) in warps.iter_mut().zip(items.clone().step_by(BUNDLE)) {
                warp.load(l, tape, &init, b..items.end.min(b + BUNDLE as u64));
                n += 1;
            }
            for phase in 0..tape.phases() {
                let pc = if phase == 0 { rec.entry } else { tape.phase_starts[phase] as usize };
                for warp in warps[..n].iter_mut().filter(|w| w.alive != 0) {
                    warp.run((l, tape, &rec), pc, (san, &mut acc, &mut locals));
                }
            }
            for warp in warps[..n].iter_mut() {
                acc.divergent += warp.diverged.count_ones();
                for traces in warp.traces.chunks_mut(WARP) {
                    acc.tbytes += warp_transaction_bytes(traces, l.transaction_size);
                }
            }
        };
        if l.lsize.is_none() && l.stride == 1 {
            bundles(l.gsize, ids).for_each(run);
        } else {
            for g in ids.map(|k| k * l.stride as u64 * group as u64) {
                run(g..l.total.min(g + group as u64));
            }
        }
        pool.lock().expect("no panic under this lock").push(warps);
        acc
    });
    finish(l, results, sample_scale(l.total, group, l.stride), wall)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::buffer::BufData;
    use lift::kast::{Kernel, KernelParam};
    use lift::prelude::*;

    /// `data` with shadow memory, as a sanitizing device allocates it.
    pub(crate) fn shadowed(data: impl Into<BufData>) -> SharedBuf {
        SharedBuf::with_shadow(data.into(), true, true)
    }

    /// A flat launch on a sanitizing runtime with the default one's engine:
    /// over [`shadowed`] buffers it fails on a write race.
    fn launch_flat(
        prep: &Prepared,
        bindings: &[ArgBind<'_>],
        global: &[usize],
        mode: ExecMode,
        transaction_size: u64,
    ) -> Result<LaunchStats, ExecError> {
        let rt = Runtime::sanitizing();
        launch(prep, bindings, global, None, mode, transaction_size, rt.settings.engine, &rt)
    }

    /// For warps and for groups of several sizes: the chunk is never 0, the
    /// tasks cover every id, a launch below two grains is one task, one of
    /// `k` whole grains is `k` tasks, and no task falls short of the grain
    /// by more than the rounding of an even split.
    #[test]
    fn dispatch_chunk_respects_the_grain() {
        for items_per_id in [1, WARP, 48, 64, 5000] {
            let grain = GRAIN_ITEMS.div_ceil(items_per_id);
            for nids in (0..6 * grain + 7).step_by(if grain > 1000 { 97 } else { 1 }) {
                let chunk = dispatch_chunk(nids, items_per_id);
                assert!(chunk >= 1, "{nids} ids of {items_per_id}");
                let ntasks = nids.div_ceil(chunk);
                assert!(ntasks * chunk >= nids);
                if nids < 2 * grain {
                    assert!(ntasks <= 1, "{nids} ids of {items_per_id}: {ntasks} tasks");
                } else {
                    assert!(ntasks >= 2);
                    let last = nids - (ntasks - 1) * chunk;
                    assert!(chunk >= grain && last + ntasks > grain, "{nids} ids: tail {last}");
                }
                if nids.is_multiple_of(grain) {
                    assert_eq!(ntasks, nids / grain);
                }
            }
        }
    }

    fn saxpy_kernel() -> Kernel {
        Kernel {
            name: "saxpy".into(),
            params: vec![
                KernelParam::global_buf("x", ScalarKind::F32),
                KernelParam::global_buf("y", ScalarKind::F32),
                KernelParam::scalar("a", ScalarKind::F32),
                KernelParam::scalar("N", ScalarKind::I32),
            ],
            body: vec![
                KStmt::return_if(KExpr::bin(BinOp::Ge, KExpr::GlobalId(0), KExpr::var("N"))),
                KStmt::Store {
                    mem: MemRef::Param(1),
                    idx: KExpr::GlobalId(0),
                    value: KExpr::var("a") * KExpr::load(MemRef::Param(0), KExpr::GlobalId(0))
                        + KExpr::load(MemRef::Param(1), KExpr::GlobalId(0)),
                },
            ],
            work_dim: 1,
        }
    }

    #[test]
    fn saxpy_executes_correctly() {
        let prep = prepare(&saxpy_kernel()).unwrap();
        let x = shadowed((0..100).map(|i| i as f32).collect::<Vec<_>>());
        let y = shadowed(vec![1.0f32; 100]);
        let stats = launch_flat(
            &prep,
            &[
                ArgBind::Buf(&x),
                ArgBind::Buf(&y),
                ArgBind::Val(Value::F32(2.0)),
                ArgBind::Val(Value::I32(100)),
            ],
            &[128],
            ExecMode::Fast,
            128,
        )
        .unwrap();
        let out = unsafe { y.data() }.to_f64_vec();
        assert_eq!(out[3], 2.0 * 3.0 + 1.0);
        assert_eq!(out[99], 2.0 * 99.0 + 1.0);
        // 100 active items × 2 loads, 1 store
        assert_eq!(stats.counters.loads_global, 200);
        assert_eq!(stats.counters.stores_global, 100);
        // 2 flops per item
        assert_eq!(stats.counters.flops, 200);
        assert_eq!(stats.counters.work_items, 128);
    }

    #[test]
    fn transaction_model_counts_coalesced_segments() {
        let prep = prepare(&saxpy_kernel()).unwrap();
        let n = 128usize;
        let x = SharedBuf::new(BufData::from(vec![0.0f32; n]));
        let y = SharedBuf::new(BufData::from(vec![0.0f32; n]));
        let stats = launch_flat(
            &prep,
            &[
                ArgBind::Buf(&x),
                ArgBind::Buf(&y),
                ArgBind::Val(Value::F32(1.0)),
                ArgBind::Val(Value::I32(n as i32)),
            ],
            &[n],
            ExecMode::Model { sample_stride: 1 },
            128,
        )
        .unwrap();
        // Perfectly coalesced: each warp of 32 f32 accesses = 128 bytes = 1
        // transaction per site. 4 warps × 3 sites × 128 B = 1536 B.
        assert_eq!(stats.transaction_bytes, Some(4 * 3 * 128));
    }

    #[test]
    fn a_write_race_fails_the_launch_on_every_engine() {
        // Work-item 0 stores to element 0; so does every other one.
        let k = Kernel {
            name: "clash".into(),
            params: vec![KernelParam::global_buf("y", ScalarKind::F32)],
            body: vec![KStmt::Store {
                mem: MemRef::Param(0),
                idx: KExpr::int(0),
                value: KExpr::Lit(Lit::f32(1.0)),
            }],
            work_dim: 1,
        };
        let prep = prepare(&k).unwrap();
        for engine in [Engine::Tree, Engine::Fast, Engine::Differential] {
            let rt = Runtime::sanitizing();
            let y = shadowed(vec![0.0f32; 4]);
            let bind = [ArgBind::Buf(&y)];
            let r = launch(&prep, &bind, &[8], None, ExecMode::Fast, 128, engine, &rt);
            let msg = r.expect_err("a write race fails the launch").0;
            assert!(msg.contains("write-race in `clash` site 0: buffer `y` element 0"), "{msg}");
            let [race] = &rt.findings.all()[..] else { panic!("one finding: {msg}") };
            assert_eq!(race.kind, crate::sanitize::FaultKind::WriteRace);
            assert_eq!(rt.registry.counter("vgpu.sanitize.write_races").get(), 7, "{engine:?}");
        }
        // The same launch over a buffer without shadow memory runs.
        let y = SharedBuf::new(BufData::from(vec![0.0f32; 4]));
        launch_flat(&prep, &[ArgBind::Buf(&y)], &[8], ExecMode::Fast, 128).unwrap();
    }

    /// One work-item storing the same element twice is no race; two
    /// parameters bound to one buffer are one buffer.
    #[test]
    fn races_are_between_work_items_on_a_buffer() {
        let store = |p: usize, at: KExpr| KStmt::Store {
            mem: MemRef::Param(p),
            idx: at,
            value: KExpr::Lit(Lit::f32(1.0)),
        };
        let params = vec![
            KernelParam::global_buf("a", ScalarKind::F32),
            KernelParam::global_buf("b", ScalarKind::F32),
        ];
        // Item i stores a[i] twice, then b[(i + 1) % 4].
        let next = KExpr::bin(BinOp::Rem, KExpr::GlobalId(0) + KExpr::int(1), KExpr::int(4));
        let body = vec![store(0, KExpr::GlobalId(0)), store(0, KExpr::GlobalId(0)), store(1, next)];
        let prep = prepare(&Kernel { name: "twice".into(), params, body, work_dim: 1 }).unwrap();
        for engine in [Engine::Tree, Engine::Fast, Engine::Differential] {
            let (a, b) = (shadowed(vec![0.0f32; 4]), shadowed(vec![0.0f32; 4]));
            let rt = Runtime::sanitizing();
            let bind = [ArgBind::Buf(&a), ArgBind::Buf(&b)];
            launch(&prep, &bind, &[4], None, ExecMode::Fast, 128, engine, &rt).unwrap();
            assert!(rt.findings.all().is_empty(), "{engine:?}");
            // `a` and `b` one buffer: item 3 stores element 0 after item 0.
            let bind = [ArgBind::Buf(&a), ArgBind::Buf(&a)];
            let r = launch(&prep, &bind, &[4], None, ExecMode::Fast, 128, engine, &rt);
            let msg = r.expect_err("a race through two parameters").0;
            assert!(msg.contains("write-race in `twice` site 2: buffer `b`"), "{engine:?}: {msg}");
        }
    }

    #[test]
    fn for_loop_and_private_arrays() {
        // out[gid] = sum of p[0..4] where p[j] = gid + j
        let k = Kernel {
            name: "privsum".into(),
            params: vec![
                KernelParam::global_buf("out", ScalarKind::F32),
                KernelParam::scalar("N", ScalarKind::I32),
            ],
            body: vec![
                KStmt::return_if(KExpr::bin(BinOp::Ge, KExpr::GlobalId(0), KExpr::var("N"))),
                KStmt::DeclPrivArray {
                    name: "p".into(),
                    kind: ScalarKind::F32,
                    len: KExpr::int(4),
                },
                KStmt::For {
                    var: "j".into(),
                    begin: KExpr::int(0),
                    end: KExpr::int(4),
                    step: KExpr::int(1),
                    body: vec![KStmt::Store {
                        mem: MemRef::Priv("p".into()),
                        idx: KExpr::var("j"),
                        value: KExpr::Cast(
                            ScalarKind::F32,
                            Box::new(KExpr::GlobalId(0) + KExpr::var("j")),
                        ),
                    }],
                },
                KStmt::DeclScalar {
                    name: "s".into(),
                    kind: ScalarKind::F32,
                    init: Some(KExpr::real(0.0)),
                },
                KStmt::For {
                    var: "j2".into(),
                    begin: KExpr::int(0),
                    end: KExpr::int(4),
                    step: KExpr::int(1),
                    body: vec![KStmt::Assign {
                        name: "s".into(),
                        value: KExpr::var("s")
                            + KExpr::load(MemRef::Priv("p".into()), KExpr::var("j2")),
                    }],
                },
                KStmt::Store {
                    mem: MemRef::Param(0),
                    idx: KExpr::GlobalId(0),
                    value: KExpr::var("s"),
                },
            ],
            work_dim: 1,
        }
        .resolve_real(ScalarKind::F32);
        let prep = prepare(&k).unwrap();
        let out = shadowed(vec![0.0f32; 16]);
        launch_flat(
            &prep,
            &[ArgBind::Buf(&out), ArgBind::Val(Value::I32(16))],
            &[16],
            ExecMode::Fast,
            128,
        )
        .unwrap();
        let o = unsafe { out.data() }.to_f64_vec();
        assert_eq!(o[0], 0.0 + 1.0 + 2.0 + 3.0);
        assert_eq!(o[5], 5.0 * 4.0 + 6.0);
    }

    #[test]
    fn scattered_access_costs_more_transactions() {
        // y[gid] = x[gid * 33]: each access in its own 128-B segment.
        let k = Kernel {
            name: "scatter".into(),
            params: vec![
                KernelParam::global_buf("x", ScalarKind::F32),
                KernelParam::global_buf("y", ScalarKind::F32),
            ],
            body: vec![KStmt::Store {
                mem: MemRef::Param(1),
                idx: KExpr::GlobalId(0),
                value: KExpr::load(MemRef::Param(0), KExpr::GlobalId(0) * KExpr::int(33)),
            }],
            work_dim: 1,
        };
        let prep = prepare(&k).unwrap();
        let x = SharedBuf::new(BufData::from(vec![0.0f32; 33 * 32]));
        let y = SharedBuf::new(BufData::from(vec![0.0f32; 32]));
        let stats = launch_flat(
            &prep,
            &[ArgBind::Buf(&x), ArgBind::Buf(&y)],
            &[32],
            ExecMode::Model { sample_stride: 1 },
            128,
        )
        .unwrap();
        // loads: 32 distinct segments; stores: 1 segment.
        assert_eq!(stats.transaction_bytes, Some(32 * 128 + 128));
    }

    #[test]
    fn constant_space_loads_tracked_separately() {
        let k = Kernel {
            name: "cst".into(),
            params: vec![
                KernelParam::constant_buf("beta", ScalarKind::F32),
                KernelParam::global_buf("y", ScalarKind::F32),
            ],
            body: vec![KStmt::Store {
                mem: MemRef::Param(1),
                idx: KExpr::GlobalId(0),
                value: KExpr::load(MemRef::Param(0), KExpr::int(0)),
            }],
            work_dim: 1,
        };
        let prep = prepare(&k).unwrap();
        let beta = SharedBuf::new(BufData::from(vec![0.5f32; 4]));
        let y = SharedBuf::new(BufData::from(vec![0.0f32; 64]));
        let stats = launch_flat(
            &prep,
            &[ArgBind::Buf(&beta), ArgBind::Buf(&y)],
            &[64],
            ExecMode::Fast,
            128,
        )
        .unwrap();
        assert_eq!(stats.counters.loads_constant, 64);
        assert_eq!(stats.counters.loads_global, 0);
    }

    #[test]
    fn sampling_scales_counters() {
        let prep = prepare(&saxpy_kernel()).unwrap();
        let n = 32 * 64;
        let x = SharedBuf::new(BufData::from(vec![0.0f32; n]));
        let y = SharedBuf::new(BufData::from(vec![0.0f32; n]));
        let args = [
            ArgBind::Buf(&x),
            ArgBind::Buf(&y),
            ArgBind::Val(Value::F32(1.0)),
            ArgBind::Val(Value::I32(n as i32)),
        ];
        let full =
            launch_flat(&prep, &args, &[n], ExecMode::Model { sample_stride: 1 }, 128).unwrap();
        let sampled =
            launch_flat(&prep, &args, &[n], ExecMode::Model { sample_stride: 4 }, 128).unwrap();
        let f = full.transaction_bytes.unwrap() as f64;
        let s = sampled.transaction_bytes.unwrap() as f64;
        assert!((f - s).abs() / f < 0.05, "full {f}, sampled {s}");
    }

    fn saxpy_launch_engine(
        n: usize,
        global: usize,
        mode: ExecMode,
        engine: Engine,
    ) -> (LaunchStats, Vec<f64>) {
        let prep = prepare(&saxpy_kernel()).unwrap();
        let x = shadowed((0..n).map(|i| i as f32).collect::<Vec<_>>());
        let y = shadowed(vec![1.0f32; n]);
        let stats = launch(
            &prep,
            &[
                ArgBind::Buf(&x),
                ArgBind::Buf(&y),
                ArgBind::Val(Value::F32(2.0)),
                ArgBind::Val(Value::I32(n as i32)),
            ],
            &[global],
            None,
            mode,
            128,
            engine,
            &Runtime::sanitizing(),
        )
        .unwrap();
        (stats, unsafe { y.data() }.to_f64_vec())
    }

    #[test]
    fn fast_matches_tree_on_saxpy() {
        let (ts, to) =
            saxpy_launch_engine(100, 128, ExecMode::Model { sample_stride: 1 }, Engine::Tree);
        let (ps, po) =
            saxpy_launch_engine(100, 128, ExecMode::Model { sample_stride: 1 }, Engine::Fast);
        assert_eq!(to, po);
        assert_eq!(ts.counters, ps.counters);
        assert_eq!(ts.transaction_bytes, ps.transaction_bytes);
        // Differential mode performs the same comparison internally.
        saxpy_launch_engine(100, 128, ExecMode::Model { sample_stride: 2 }, Engine::Differential);
    }

    #[test]
    fn partial_warp_sampling_weights_by_items_covered() {
        // 48 items = a full warp + a half warp. Weighting by warp *count*
        // would scale 48/(2·32) = 0.75× and under-report; weighting by the
        // items the sampled warps covered keeps full sampling exact.
        for engine in [Engine::Tree, Engine::Fast] {
            let (stats, _) =
                saxpy_launch_engine(48, 48, ExecMode::Model { sample_stride: 1 }, engine);
            assert_eq!(stats.counters.flops, 2 * 48, "{engine:?}");
            assert_eq!(stats.counters.stores_global, 48, "{engine:?}");
            // 112 items = 3.5 warps; stride 2 samples warps {0, 2} = 64 items,
            // so the scale is exactly 112/64 and the totals stay exact.
            let (stats, _) =
                saxpy_launch_engine(112, 112, ExecMode::Model { sample_stride: 2 }, engine);
            assert_eq!(stats.counters.flops, 2 * 112, "{engine:?}");
        }
    }

    #[test]
    fn sample_scale_handles_a_partial_last_warp() {
        // 2 warps, both run; 4 warps, 0 and 2 run; 2 warps, 0 runs; none.
        assert_eq!(sample_scale(48, WARP, 1), 1.0);
        assert_eq!(sample_scale(112, WARP, 2), 112.0 / 64.0);
        assert_eq!(sample_scale(64, WARP, 2), 2.0);
        assert_eq!(sample_scale(0, WARP, 1), 1.0);
    }

    /// Over whole groups the item-weighted scale is the group count over the
    /// sampled groups, bit for bit — what grouped launches scaled by before
    /// flat and grouped launches shared one loop.
    #[test]
    fn sample_scale_over_whole_groups_is_the_group_ratio_bit_for_bit() {
        for lsize in [8, 32, 48] {
            for groups_total in 1..=64u64 {
                for stride in 1..=5 {
                    let ids: Vec<u64> = (0..groups_total).step_by(stride).collect();
                    let total = groups_total * lsize as u64;
                    let want = match stride {
                        1 => 1.0,
                        _ => groups_total as f64 / ids.len() as f64,
                    };
                    let got = sample_scale(total, lsize, stride);
                    assert_eq!(got.to_bits(), want.to_bits(), "{groups_total} groups of {lsize}");
                }
            }
        }
    }

    #[test]
    fn race_report_names_elements_and_sites() {
        // Every work-item stores to element gid % 2: two conflicting
        // elements, one store site.
        let k = Kernel {
            name: "clash2".into(),
            params: vec![KernelParam::global_buf("y", ScalarKind::F32)],
            body: vec![KStmt::Store {
                mem: MemRef::Param(0),
                idx: KExpr::bin(BinOp::Rem, KExpr::GlobalId(0), KExpr::int(2)),
                value: KExpr::Lit(Lit::f32(1.0)),
            }],
            work_dim: 1,
        };
        let prep = prepare(&k).unwrap();
        for engine in [Engine::Tree, Engine::Fast, Engine::Differential] {
            let (y, rt) = (shadowed(vec![0.0f32; 4]), Runtime::sanitizing());
            let bind = [ArgBind::Buf(&y)];
            let msg = launch(&prep, &bind, &[8], None, ExecMode::Fast, 128, engine, &rt)
                .unwrap_err()
                .to_string();
            // Items 2..8 each store an element an earlier item stored.
            assert_eq!(rt.registry.counter("vgpu.sanitize.write_races").get(), 6);
            assert!(msg.contains("1 finding(s) in the launch of `clash2`"), "{engine:?}: {msg}");
            assert!(msg.contains("site 0: buffer `y` element 0"), "{engine:?}: {msg}");
        }
    }

    #[test]
    fn three_dimensional_ids() {
        // out[z*4*4 + y*4 + x] = x + 10*y + 100*z
        let k = Kernel {
            name: "grid3".into(),
            params: vec![KernelParam::global_buf("out", ScalarKind::I32)],
            body: vec![KStmt::Store {
                mem: MemRef::Param(0),
                idx: (KExpr::GlobalId(2) * KExpr::int(16))
                    + (KExpr::GlobalId(1) * KExpr::int(4))
                    + KExpr::GlobalId(0),
                value: KExpr::GlobalId(0)
                    + KExpr::GlobalId(1) * KExpr::int(10)
                    + KExpr::GlobalId(2) * KExpr::int(100),
            }],
            work_dim: 3,
        };
        let prep = prepare(&k).unwrap();
        let out = shadowed(vec![0i32; 64]);
        launch_flat(&prep, &[ArgBind::Buf(&out)], &[4, 4, 4], ExecMode::Fast, 128).unwrap();
        let o = unsafe { out.data() }.to_f64_vec();
        assert_eq!(o[1 + 2 * 4 + 3 * 16], 1.0 + 20.0 + 300.0);
    }

    /// Two barrier-separated phases so the launch takes the grouped path:
    /// phase 1 stores the local id, phase 2 re-reads it and adds one.
    fn two_phase_lid_kernel() -> Kernel {
        Kernel {
            name: "lid2p".into(),
            params: vec![KernelParam::global_buf("out", ScalarKind::I32)],
            body: vec![
                KStmt::Store {
                    mem: MemRef::Param(0),
                    idx: KExpr::GlobalId(0),
                    value: KExpr::LocalId(0),
                },
                KStmt::Barrier,
                KStmt::Store {
                    mem: MemRef::Param(0),
                    idx: KExpr::GlobalId(0),
                    value: KExpr::load(MemRef::Param(0), KExpr::GlobalId(0)) + KExpr::int(1),
                },
            ],
            work_dim: 1,
        }
    }

    #[test]
    fn grouped_sampled_launches_scale_counters() {
        // 8 groups of 32; stride 2 executes groups {0, 2, 4, 6} and must
        // scale counters and transaction bytes back to full-launch totals
        // (all groups do identical work here), on the oracle and on the warp
        // interpreter.
        let prep = prepare(&two_phase_lid_kernel()).unwrap();
        let run = |stride: usize, engine: Engine| {
            let out = SharedBuf::new(BufData::from(vec![0i32; 256]));
            launch(
                &prep,
                &[ArgBind::Buf(&out)],
                &[256],
                Some(32),
                ExecMode::Model { sample_stride: stride },
                128,
                engine,
                crate::runtime(),
            )
            .unwrap()
        };
        let full_tree = run(1, Engine::Tree);
        for engine in [Engine::Tree, Engine::Fast] {
            let full = run(1, engine);
            let sampled = run(2, engine);
            assert_eq!(full.counters, sampled.counters, "{engine:?}");
            assert_eq!(full.transaction_bytes, sampled.transaction_bytes, "{engine:?}");
            assert_eq!(full.counters, full_tree.counters, "{engine:?} vs tree");
            // Every item stores twice and loads once.
            assert_eq!(full.counters.stores_global, 2 * 256, "{engine:?}");
            assert_eq!(full.counters.loads_global, 256, "{engine:?}");
        }
        // Grouped sampling on the differential engine cross-checks both.
        run(2, Engine::Differential);
    }

    /// A grouped launch shape keeps one record, as a flat one does, with no
    /// proof and no lane shapes: a second launch of it finds the first's.
    #[test]
    fn a_grouped_launch_shape_keeps_one_record() {
        let prep = prepare(&two_phase_lid_kernel()).unwrap();
        let out = SharedBuf::new(BufData::from(vec![0i32; 256]));
        for _ in 0..2 {
            let rt = crate::runtime();
            let binds = [ArgBind::Buf(&out)];
            launch(&prep, &binds, &[256], Some(32), ExecMode::Fast, 128, Engine::Fast, rt).unwrap();
        }
        assert_eq!(prep.check_tables(), 1);
        let tables = prep.derived.tables.read().unwrap();
        let rec = tables.values().next().unwrap();
        assert!(rec.checked.is_empty() && rec.shapes.iter().all(|s| s.is_empty()));
    }

    #[test]
    fn launch_validation_errors_name_kernel_and_sizes() {
        let prep = prepare(&two_phase_lid_kernel()).unwrap();
        let out = SharedBuf::new(BufData::from(vec![0i32; 64]));
        // Workgroup kernel launched without a local size.
        let msg = launch(
            &prep,
            &[ArgBind::Buf(&out)],
            &[64],
            None,
            ExecMode::Fast,
            128,
            Engine::Fast,
            crate::runtime(),
        )
        .unwrap_err()
        .to_string();
        assert!(msg.contains("lid2p"), "{msg}");
        assert!(msg.contains("[64]"), "{msg}");
        // Local size that does not divide the global size.
        let msg = launch(
            &prep,
            &[ArgBind::Buf(&out)],
            &[64],
            Some(24),
            ExecMode::Fast,
            128,
            Engine::Fast,
            crate::runtime(),
        )
        .unwrap_err()
        .to_string();
        assert!(msg.contains("lid2p"), "{msg}");
        assert!(msg.contains("64"), "{msg}");
        assert!(msg.contains("24"), "{msg}");
        // A global size of more than three dimensions.
        let msg = launch(
            &prep,
            &[ArgBind::Buf(&out)],
            &[4, 4, 2, 2],
            Some(4),
            ExecMode::Fast,
            128,
            Engine::Fast,
            crate::runtime(),
        )
        .unwrap_err()
        .to_string();
        assert!(msg.contains("lid2p"), "{msg}");
        assert!(msg.contains("[4, 4, 2, 2]"), "{msg}");
        // A global size of no dimension: not one work-item, but an error.
        let msg = launch(
            &prep,
            &[ArgBind::Buf(&out)],
            &[],
            Some(1),
            ExecMode::Fast,
            128,
            Engine::Fast,
            crate::runtime(),
        )
        .unwrap_err()
        .to_string();
        assert!(msg.contains("lid2p"), "{msg}");
        assert!(msg.contains("global size []"), "{msg}");
    }

    /// `if (gid(d) >= N_d) return;` for each of `work_dim` dimensions — the
    /// guards LIFT's `mapGlb` emits — then `out[i] = x[i] + 1` at the
    /// linear id `i`; with `barrier`, a second phase adds the local id.
    fn guarded_kernel(work_dim: u8, barrier: bool) -> Kernel {
        let g = KExpr::GlobalId;
        let at = || if work_dim == 1 { g(0) } else { g(1) * KExpr::GlobalSize(0) + g(0) };
        let mut body: Vec<KStmt> = (0..work_dim)
            .map(|d| {
                KStmt::return_if(KExpr::bin(BinOp::Ge, g(d), KExpr::var(["N", "M"][d as usize])))
            })
            .collect();
        let load = |p| KExpr::load(MemRef::Param(p), at());
        body.push(KStmt::Store {
            mem: MemRef::Param(1),
            idx: at(),
            value: load(0) + KExpr::int(1),
        });
        if barrier {
            body.push(KStmt::Barrier);
            let value = load(1) + KExpr::LocalId(0);
            body.push(KStmt::Store { mem: MemRef::Param(1), idx: at(), value });
        }
        Kernel {
            name: "guarded".into(),
            params: vec![
                KernelParam::global_buf("x", ScalarKind::I32),
                KernelParam::global_buf("out", ScalarKind::I32),
                KernelParam::scalar("N", ScalarKind::I32),
                KernelParam::scalar("M", ScalarKind::I32),
            ],
            body,
            work_dim,
        }
    }

    /// Launches [`guarded_kernel`] with `x[i] = 3i` on the differential
    /// engine, profiled: the output — bit-identical to the tree oracle's,
    /// counters and findings too (asserted inside) — and how many `CmpJz`
    /// and `Ret` the tape dispatched.
    fn run_guarded(
        (work_dim, barrier): (u8, bool),
        (n, m): (i32, i32),
        global: &[usize],
        local: Option<usize>,
    ) -> (Vec<i32>, u64, u64) {
        let prep = prepare(&guarded_kernel(work_dim, barrier)).unwrap();
        let total = global.iter().product::<usize>();
        let x = shadowed((0..total as i32).map(|i| 3 * i).collect::<Vec<_>>());
        let out = shadowed(vec![0i32; total]);
        let binds = [
            ArgBind::Buf(&x),
            ArgBind::Buf(&out),
            ArgBind::Val(Value::I32(n)),
            ArgBind::Val(Value::I32(m)),
        ];
        let rt = Runtime::sanitizing();
        let mode = ExecMode::Profile;
        let stats =
            launch(&prep, &binds, global, local, mode, 128, Engine::Differential, &rt).unwrap();
        let prof = stats.op_profile.expect("a profiled launch");
        let dispatched = |name| prof.entries().iter().find(|e| e.0 == name).map_or(0, |e| e.1);
        let BufData::I32(out) = unsafe { out.data() }.clone() else { unreachable!() };
        (out, dispatched("CmpJz"), dispatched("Ret"))
    }

    /// A launch of exactly `(N, M)` items decides both guards: no warp
    /// dispatches one.
    #[test]
    fn a_flat_launch_of_exactly_its_sizes_skips_every_guard() {
        let (out, cmps, rets) = run_guarded((2, false), (48, 3), &[48, 3], None);
        assert_eq!(out, (0..144).map(|i| 3 * i + 1).collect::<Vec<_>>());
        assert_eq!((cmps, rets), (0, 0));
    }

    /// `N = 50` on 64 items: the guard decides per item, in their one bundle.
    #[test]
    fn a_padded_launch_keeps_its_guard() {
        let (out, cmps, rets) = run_guarded((1, false), (50, 1), &[64], None);
        let want: Vec<i32> = (0..64).map(|i| if i < 50 { 3 * i + 1 } else { 0 }).collect();
        assert_eq!(out, want);
        assert_eq!((cmps, rets), (1, 1));
    }

    /// `N = 0`: every item returns — the one bundle of 80 items enters at
    /// the `Ret`.
    #[test]
    fn a_launch_of_no_valid_item_returns_every_item() {
        let (out, cmps, rets) = run_guarded((2, false), (0, 0), &[40, 2], None);
        assert_eq!(out, vec![0; 80]);
        assert_eq!((cmps, rets), (0, 1));
    }

    /// A grouped launch with a barrier: phase 0 enters past the guard that
    /// its size decides, and keeps the one it does not; the lanes that
    /// returned sit out the second phase.
    #[test]
    fn a_grouped_launch_with_barriers_enters_past_its_decided_guard() {
        let (out, cmps, _) = run_guarded((1, true), (64, 1), &[64], Some(32));
        assert_eq!(out, (0..64).map(|i| 3 * i + 1 + i % 32).collect::<Vec<_>>());
        assert_eq!(cmps, 0);
        let (out, cmps, _) = run_guarded((1, true), (40, 1), &[64], Some(32));
        let want: Vec<i32> = (0..64).map(|i| if i < 40 { 3 * i + 1 + i % 32 } else { 0 }).collect();
        assert_eq!(out, want);
        assert_eq!(cmps, 2);
    }

    /// Two launches of one shape but for an i32 argument get two check
    /// tables: `gid0 + a·gid1` is the straddling warps' linear item id at
    /// `a = 11` and not at `a = 12`, where the first launch's lane shapes
    /// would claim runs the debug audit and the differential engine refuse.
    #[test]
    fn a_check_table_never_serves_a_launch_whose_i32_arguments_differ() {
        let idx = || KExpr::GlobalId(0) + KExpr::var("a") * KExpr::GlobalId(1);
        let k = Kernel {
            name: "rows_of_a".into(),
            params: vec![
                KernelParam::global_buf("x", ScalarKind::I32),
                KernelParam::global_buf("out", ScalarKind::I32),
                KernelParam::scalar("a", ScalarKind::I32),
            ],
            body: vec![KStmt::Store {
                mem: MemRef::Param(1),
                idx: idx(),
                value: KExpr::load(MemRef::Param(0), idx()) + KExpr::int(1),
            }],
            work_dim: 2,
        };
        let prep = prepare(&k).unwrap();
        let rt = Runtime::new(crate::Settings { shadow: false, ..crate::runtime().settings });
        for (a, tables) in [(11, 1), (12, 2), (11, 2)] {
            let x = SharedBuf::new((0..40).collect::<Vec<i32>>().into());
            let out = SharedBuf::new(vec![0i32; 40].into());
            let binds = [ArgBind::Buf(&x), ArgBind::Buf(&out), ArgBind::Val(Value::I32(a))];
            launch(&prep, &binds, &[11, 3], None, ExecMode::Fast, 128, Engine::Differential, &rt)
                .unwrap();
            let BufData::I32(out) = unsafe { out.data() }.clone() else { unreachable!() };
            for i in (0..3).flat_map(|y| (0..11).map(move |x| x + a * y)) {
                assert_eq!(out[i as usize], i + 1, "a = {a}");
            }
            assert_eq!(prep.check_tables(), tables, "a = {a}");
        }
    }

    #[test]
    fn warp_interpreter_matches_tree_on_partial_final_warp() {
        // 100 items = 3 full warps + a 4-lane partial warp: the masked tail
        // must produce bit-identical values, counters, and transactions.
        let mode = ExecMode::Model { sample_stride: 1 };
        let (ts, to) = saxpy_launch_engine(100, 100, mode, Engine::Tree);
        let (vs, vo) = saxpy_launch_engine(100, 100, mode, Engine::Fast);
        assert_eq!(vs.backend, Backend::Tape);
        assert_eq!(to, vo);
        assert_eq!(ts.counters, vs.counters);
        assert_eq!(ts.transaction_bytes, vs.transaction_bytes);
    }

    #[test]
    fn uniform_branches_are_not_divergent() {
        // global 96, N = 64: warps 0–1 have the guard false on every lane,
        // warp 2 has it true on every lane. Uniform either way — the branch
        // must not count as divergence.
        let (stats, out) = saxpy_launch_engine(64, 96, ExecMode::Fast, Engine::Fast);
        assert_eq!(stats.backend, Backend::Tape);
        assert_eq!(stats.divergent_warps, 0, "uniform warps must not count");
        assert_eq!(out[63], 2.0 * 63.0 + 1.0);
    }

    #[test]
    fn divergent_store_branch_counts_warps_and_matches_tree() {
        // Even lanes double, odd lanes negate: every warp diverges at the
        // branch and runs both arms under complementary masks.
        let k = Kernel {
            name: "divstore".into(),
            params: vec![
                KernelParam::global_buf("x", ScalarKind::F32),
                KernelParam::global_buf("y", ScalarKind::F32),
            ],
            body: vec![KStmt::If {
                cond: KExpr::bin(
                    BinOp::Eq,
                    KExpr::bin(BinOp::Rem, KExpr::GlobalId(0), KExpr::int(2)),
                    KExpr::int(0),
                ),
                then_: vec![KStmt::Store {
                    mem: MemRef::Param(1),
                    idx: KExpr::GlobalId(0),
                    value: KExpr::load(MemRef::Param(0), KExpr::GlobalId(0))
                        * KExpr::Lit(Lit::f32(2.0)),
                }],
                else_: vec![KStmt::Store {
                    mem: MemRef::Param(1),
                    idx: KExpr::GlobalId(0),
                    value: KExpr::Lit(Lit::f32(0.0))
                        - KExpr::load(MemRef::Param(0), KExpr::GlobalId(0)),
                }],
            }],
            work_dim: 1,
        };
        let prep = prepare(&k).unwrap();
        let run = |engine: Engine| {
            let x = shadowed((0..64).map(|i| i as f32).collect::<Vec<_>>());
            let y = shadowed(vec![0.0f32; 64]);
            let stats = launch(
                &prep,
                &[ArgBind::Buf(&x), ArgBind::Buf(&y)],
                &[64],
                None,
                ExecMode::Model { sample_stride: 1 },
                128,
                engine,
                &Runtime::sanitizing(),
            )
            .unwrap();
            (stats, unsafe { y.data() }.to_f64_vec())
        };
        let (ts, to) = run(Engine::Tree);
        let (vs, vo) = run(Engine::Fast);
        assert_eq!(vs.backend, Backend::Tape);
        assert_eq!(vs.divergent_warps, 2, "both mixed warps must count");
        assert_eq!(to, vo);
        assert_eq!(ts.counters, vs.counters);
        assert_eq!(ts.transaction_bytes, vs.transaction_bytes);
        assert_eq!(vo[6], 12.0);
        assert_eq!(vo[7], -7.0);
    }

    #[test]
    fn lane_dependent_private_indexing_matches_tree() {
        // Each lane writes a different slot of its private array (gid % 4)
        // then reads it back: per-lane private addressing under the mask.
        let k = Kernel {
            name: "lanepriv".into(),
            params: vec![KernelParam::global_buf("out", ScalarKind::F32)],
            body: vec![
                KStmt::DeclPrivArray {
                    name: "p".into(),
                    kind: ScalarKind::F32,
                    len: KExpr::int(4),
                },
                KStmt::Store {
                    mem: MemRef::Priv("p".into()),
                    idx: KExpr::bin(BinOp::Rem, KExpr::GlobalId(0), KExpr::int(4)),
                    value: KExpr::Cast(
                        ScalarKind::F32,
                        Box::new(KExpr::GlobalId(0) * KExpr::int(3)),
                    ),
                },
                KStmt::Store {
                    mem: MemRef::Param(0),
                    idx: KExpr::GlobalId(0),
                    value: KExpr::load(
                        MemRef::Priv("p".into()),
                        KExpr::bin(BinOp::Rem, KExpr::GlobalId(0), KExpr::int(4)),
                    ),
                },
            ],
            work_dim: 1,
        };
        let prep = prepare(&k).unwrap();
        let run = |engine: Engine| {
            let out = shadowed(vec![0.0f32; 48]);
            let stats = launch(
                &prep,
                &[ArgBind::Buf(&out)],
                &[48],
                None,
                ExecMode::Fast,
                128,
                engine,
                &Runtime::sanitizing(),
            )
            .unwrap();
            (stats, unsafe { out.data() }.to_f64_vec())
        };
        let (_, to) = run(Engine::Tree);
        let (vs, vo) = run(Engine::Fast);
        assert_eq!(vs.backend, Backend::Tape);
        assert_eq!(to, vo);
        assert_eq!(vo[13], 39.0);
    }

    #[test]
    fn grouped_launch_runs_on_the_warp_interpreter() {
        // A barrier kernel runs phase by phase on the warp interpreter, with
        // real local ids.
        let prep = prepare(&two_phase_lid_kernel()).unwrap();
        let out = SharedBuf::new(BufData::from(vec![0i32; 64]));
        let stats = launch(
            &prep,
            &[ArgBind::Buf(&out)],
            &[64],
            Some(32),
            ExecMode::Fast,
            128,
            Engine::Fast,
            crate::runtime(),
        )
        .unwrap();
        assert_eq!(stats.backend, Backend::Tape);
        assert_eq!(stats.divergent_warps, 0);
        let o = unsafe { out.data() }.to_f64_vec();
        assert_eq!(o[5], 6.0);
        assert_eq!(o[37], 6.0);
    }

    #[test]
    fn engine_parse_accepts_three_names_and_rejects_the_rest() {
        assert_eq!(Engine::parse("fast"), Some(Engine::Fast));
        assert_eq!(Engine::parse("tree"), Some(Engine::Tree));
        assert_eq!(Engine::parse("diff"), Some(Engine::Differential));
        assert_eq!(Engine::parse("differential"), Some(Engine::Differential));
        assert_eq!(Engine::default(), Engine::Fast);
        // A typo, and the retired rung names, are rejected — which
        // `settings::setting` reports, never a silent default.
        for bad in ["dif", "", "Fast", "tape", "vector", "compiled"] {
            assert_eq!(Engine::parse(bad), None, "`{bad}`");
        }
    }

    /// ```text
    /// if (gid % 2 == 0) { for (i = 0; i < gid % 5; i++) acc += x[gid]; out[gid] = acc; }
    /// else              { out[gid] = -x[gid]; }
    /// out[gid] = out[gid] + 1;
    /// ```
    /// An outer store-bearing diamond (every warp diverges) around a loop
    /// whose trip count depends on the lane, then a converged tail.
    fn diamond_around_lane_dependent_loop() -> Kernel {
        let gid = || KExpr::GlobalId(0);
        let x = || KExpr::load(MemRef::Param(0), gid());
        let out = |value: KExpr| KStmt::Store { mem: MemRef::Param(1), idx: gid(), value };
        Kernel {
            name: "valve".into(),
            params: vec![
                KernelParam::global_buf("x", ScalarKind::F32),
                KernelParam::global_buf("out", ScalarKind::F32),
            ],
            body: vec![
                KStmt::DeclScalar {
                    name: "acc".into(),
                    kind: ScalarKind::F32,
                    init: Some(KExpr::Lit(Lit::f32(0.0))),
                },
                KStmt::If {
                    cond: KExpr::bin(
                        BinOp::Eq,
                        KExpr::bin(BinOp::Rem, gid(), KExpr::int(2)),
                        KExpr::int(0),
                    ),
                    then_: vec![
                        KStmt::For {
                            var: "i".into(),
                            begin: KExpr::int(0),
                            end: KExpr::bin(BinOp::Rem, gid(), KExpr::int(5)),
                            step: KExpr::int(1),
                            body: vec![KStmt::Assign {
                                name: "acc".into(),
                                value: KExpr::var("acc") + x(),
                            }],
                        },
                        out(KExpr::var("acc")),
                    ],
                    else_: vec![out(KExpr::Lit(Lit::f32(0.0)) - x())],
                },
                out(KExpr::load(MemRef::Param(1), gid()) + KExpr::Lit(Lit::f32(1.0))),
            ],
            work_dim: 1,
        }
    }

    #[test]
    fn a_diamond_around_a_lane_dependent_loop_reconverges_at_both_joins() {
        // The loop's trip count and the diamond's side differ lane by lane:
        // both levels diverge and reconverge at their joins.
        let prep = prepare(&diamond_around_lane_dependent_loop()).unwrap();
        for (mode, shadow) in [
            (ExecMode::Fast, false),
            (ExecMode::Fast, true),
            (ExecMode::Model { sample_stride: 1 }, true),
        ] {
            let n = 80; // two full warps and a 16-lane one
            let buf = |data: BufData| SharedBuf::with_shadow(data, shadow, true);
            let x = buf(BufData::from((0..n).map(|i| i as f32).collect::<Vec<_>>()));
            let out = buf(BufData::from(vec![0.0f32; n]));
            // Differential: buffers, counters and transaction bytes
            // bit-identical to the tree oracle, or the launch errors.
            let stats = launch(
                &prep,
                &[ArgBind::Buf(&x), ArgBind::Buf(&out)],
                &[n],
                None,
                mode,
                128,
                Engine::Differential,
                &Runtime::sanitizing(),
            )
            .unwrap();
            assert_eq!(stats.backend, Backend::Tape);
            assert_eq!(stats.divergent_warps, 3, "each warp diverges, and counts once");
            let o = unsafe { out.data() }.to_f64_vec();
            assert_eq!(o[8], 3.0 * 8.0 + 1.0, "8 % 5 = 3 trips");
            assert_eq!(o[9], -9.0 + 1.0);
        }
    }

    /// Launch-constant specialisation ([`launch_record`]): the tape a launch
    /// runs is its kernel's, specialised on the i32 arguments that bound its
    /// loops and size its private arrays.
    mod specialise {
        use super::*;
        use crate::bytecode::Op;
        use lift_acoustics::LiftBoundary;
        use room_acoustics::{GridDims, KernelSource, RoomShape, SimConfig, SimSetup};

        /// The FD-MM boundary kernel as it ships: Listing 4 or the generated one.
        pub(super) fn fdmm(generated: bool, real: ScalarKind) -> Kernel {
            if !generated {
                return room_acoustics::handwritten::fdmm_kernel().resolve_real(real);
            }
            let prog = LiftBoundary::FdMm.host_program(real).unwrap();
            let k = prog.kernels.into_iter().find(|k| k.kernel.name == "fdmm_boundary_lift");
            k.expect("the generated set launches its FD-MM kernel").kernel
        }

        pub(super) enum Arg {
            Buf(SharedBuf),
            Val(Value),
        }

        /// Arguments of either FD-MM kernel, by parameter name: `numb`
        /// boundary points of a grid of `4·numb` cells, two materials of `mb`
        /// branches, deterministic data.
        pub(super) fn fdmm_args(k: &Kernel, mb: usize, numb: usize) -> Vec<Arg> {
            let (nm, n) = (2, 4 * numb);
            let real = k.params.iter().find(|p| p.name == "next").expect("a `next` grid").kind;
            let reals = |len: usize, f: &dyn Fn(f64) -> f64| {
                let v: Vec<f64> = (0..len).map(|i| f(i as f64)).collect();
                Arg::Buf(shadowed(match real {
                    ScalarKind::F32 => BufData::F32(v.iter().map(|&x| x as f32).collect()),
                    _ => BufData::F64(v),
                }))
            };
            let ints = |len: usize, f: &dyn Fn(usize) -> usize| {
                Arg::Buf(shadowed((0..len).map(|i| f(i) as i32).collect::<Vec<_>>()))
            };
            let int = |x: usize| Arg::Val(Value::I32(x as i32));
            let params = k.params.iter();
            params
                .map(|p| match p.name.as_str() {
                    "boundaryIndices" => ints(numb, &|i| 4 * i + 1),
                    "nbrs" => ints(n, &|j| j % 6),
                    "bnbrs" => ints(numb, &|i| (4 * i + 1) % 6),
                    "material" => ints(numb, &|i| i % nm),
                    "beta" => reals(nm, &|m| 0.1 + 0.05 * m),
                    "BI" | "D" | "DI" | "F" => reals(nm * mb, &|j| 0.3 + 0.01 * j),
                    "next" | "prev" => reals(n, &|j| (0.37 * j).sin()),
                    "g1" | "v1" | "v2" => reals(mb * numb, &|j| 0.01 * (0.11 * j).cos()),
                    "l" => Arg::Val(Value::F64(0.57).cast(real)),
                    "numB" => int(numb),
                    "MB" => int(mb),
                    "MBM" => int(nm * mb),
                    "N" => int(n),
                    "NM" => int(nm),
                    "S" => int(mb * numb),
                    other => panic!("{}: no data for `{other}`", k.name),
                })
                .collect()
        }

        /// One 1-D launch over `n` items; the stats and every buffer after it.
        fn run(
            prep: &Prepared,
            args: &[Arg],
            n: usize,
            mode: ExecMode,
            engine: Engine,
        ) -> Result<(LaunchStats, Vec<BufData>), ExecError> {
            let binds: Vec<ArgBind<'_>> = args
                .iter()
                .map(|a| match a {
                    Arg::Buf(b) => ArgBind::Buf(b),
                    Arg::Val(v) => ArgBind::Val(*v),
                })
                .collect();
            let stats =
                launch(prep, &binds, &[n], None, mode, 128, engine, &Runtime::sanitizing())?;
            let bufs = args.iter().filter_map(|a| match a {
                Arg::Buf(b) => Some(unsafe { b.data() }.clone()),
                Arg::Val(_) => None,
            });
            Ok((stats, bufs.collect()))
        }

        /// `k` prepared to run its generic tape on every launch.
        fn generic(k: &Kernel) -> Prepared {
            Prepared { launch_consts: Vec::new(), ..prepare(k).unwrap() }
        }

        fn same_bits(got: &[BufData], want: &[BufData], what: &str) {
            assert_eq!(got.len(), want.len());
            for (i, (g, w)) in got.iter().zip(want).enumerate() {
                assert!(bits_eq(g, w), "{what}: buffer {i} differs from the generic tape's");
            }
        }

        /// The tapes an artifact's launch records hold, once per
        /// launch-constant key, in key order.
        fn tapes(prep: &Prepared) -> Vec<(Box<bytecode::Known>, Option<Arc<Compiled>>)> {
            let key = |t: &CheckTable| -> Box<[_]> {
                prep.launch_consts.iter().map(|&(i, s)| (s, t.args[i])).collect()
            };
            let tables = prep.derived.tables.read().unwrap();
            let mut tapes: Vec<_> = tables.values().map(|t| (key(t), t.tape.clone())).collect();
            tapes.sort_by(|a, b| a.0.cmp(&b.0));
            tapes.dedup_by(|a, b| a.0 == b.0);
            tapes
        }

        fn has(t: &Compiled, hit: impl Fn(&Op) -> bool) -> bool {
            t.ops.iter().chain(&t.pre).chain(&t.item_pre).any(hit)
        }

        /// A loop's or a private array's op.
        fn rolled(op: &Op) -> bool {
            use Op::*;
            matches!(
                op,
                JgeI64 { .. }
                    | MaxOne { .. }
                    | I64ToI32 { .. }
                    | DeclPriv { .. }
                    | LdP { .. }
                    | StP { .. }
            )
        }

        /// Both FD-MM kernels at both precisions run specialised at up to
        /// eight branches and generic at nine, bit-identical to the tree
        /// oracle (the differential engine, on a sanitizing runtime) and to
        /// the generic tape, with its counters, transaction bytes and
        /// divergent warps.
        #[test]
        fn fdmm_runs_specialised_up_to_eight_branches_as_the_generic_tape_does() {
            for (generated, real) in [(false, ScalarKind::F32), (false, ScalarKind::F64)]
                .into_iter()
                .chain([(true, ScalarKind::F32), (true, ScalarKind::F64)])
            {
                let k = fdmm(generated, real);
                for mb in [1, 2, 3, 8, 9] {
                    let (prep, reference) = (prepare(&k).unwrap(), generic(&k));
                    let what = format!("{} {real:?} MB={mb}", k.name);
                    for mode in [ExecMode::Fast, ExecMode::Model { sample_stride: 1 }] {
                        let args = || fdmm_args(&k, mb, 70);
                        let (s, got) = run(&prep, &args(), 70, mode, Engine::Differential).unwrap();
                        let (g, want) = run(&reference, &args(), 70, mode, Engine::Fast).unwrap();
                        same_bits(&got, &want, &what);
                        assert_eq!(s.counters, g.counters, "{what}");
                        assert_eq!(s.transaction_bytes, g.transaction_bytes, "{what}");
                        assert_eq!(s.divergent_warps, g.divergent_warps, "{what}");
                    }
                    let tapes = tapes(&prep);
                    assert_eq!(tapes.len(), 1, "{what}: one key, MB");
                    match &tapes[0].1 {
                        Some(t) => assert!(mb <= 8 && !has(t, rolled), "{what}: {:?}", t.ops),
                        None => assert_eq!(mb, 9, "{what} runs the generic tape"),
                    }
                }
            }
        }

        /// A launch of another branch count compiles its own tape: served
        /// the first one's, it would run two branches where it has three.
        #[test]
        fn a_launch_of_another_branch_count_never_runs_the_first_ones_tape() {
            let k = fdmm(false, ScalarKind::F64);
            let (prep, reference) = (prepare(&k).unwrap(), generic(&k));
            for mb in [2, 3, 2] {
                let args = || fdmm_args(&k, mb, 40);
                let (_, got) = run(&prep, &args(), 40, ExecMode::Fast, Engine::Fast).unwrap();
                let (_, want) = run(&reference, &args(), 40, ExecMode::Fast, Engine::Fast).unwrap();
                same_bits(&got, &want, &format!("MB={mb}"));
            }
            let keys: Vec<_> = tapes(&prep).into_iter().map(|t| t.0).collect();
            let mb = prep.scalar_slots[15].unwrap();
            assert_eq!(keys, [[(mb, 2u64)].into(), [(mb, 3u64)].into()] as [Box<[_]>; 2]);
        }

        /// Two flat shapes of one branch count run one tape: the second
        /// shape's record takes the first one's.
        #[test]
        fn two_shapes_of_one_branch_count_share_one_tape() {
            let k = fdmm(false, ScalarKind::F64);
            let prep = prepare(&k).unwrap();
            for numb in [70, 40] {
                run(&prep, &fdmm_args(&k, 3, numb), numb, ExecMode::Fast, Engine::Fast).unwrap();
            }
            let tables = prep.derived.tables.read().unwrap();
            let tapes: Vec<_> = tables.values().map(|t| t.tape.clone().expect("on MB")).collect();
            assert_eq!(tapes.len(), 2, "two shapes");
            assert!(Arc::ptr_eq(&tapes[0], &tapes[1]));
        }

        /// `(x, sel, out, n)`, f32 data, 1-D, with `body`.
        fn array_kernel(body: Vec<KStmt>) -> Kernel {
            Kernel {
                name: "priv".into(),
                params: vec![
                    KernelParam::global_buf("x", ScalarKind::F32),
                    KernelParam::global_buf("sel", ScalarKind::I32),
                    KernelParam::global_buf("out", ScalarKind::F32),
                    KernelParam::scalar("n", ScalarKind::I32),
                ],
                body,
                work_dim: 1,
            }
        }

        fn arr(i: KExpr) -> KExpr {
            KExpr::load(MemRef::Priv("a".into()), i)
        }

        fn out(i: KExpr, value: KExpr) -> KStmt {
            KStmt::Store { mem: MemRef::Param(2), idx: i, value }
        }

        /// Runs `k` at `n` over 40 items on the differential engine and
        /// on the generic tape; both must agree. Returns `out`, and the
        /// specialised tape if any.
        fn run_array_kernel(k: &Kernel, n: i32) -> (Vec<f64>, Option<Arc<Compiled>>) {
            let args = || {
                vec![
                    Arg::Buf(shadowed((0..80).map(|i| 1.0 + i as f32).collect::<Vec<_>>())),
                    Arg::Buf(shadowed((0..40).map(|i| i % 3).collect::<Vec<i32>>())),
                    Arg::Buf(shadowed(vec![-1.0f32; 80])),
                    Arg::Val(Value::I32(n)),
                ]
            };
            let prep = prepare(k).unwrap();
            let model = ExecMode::Model { sample_stride: 1 };
            let (s, got) = run(&prep, &args(), 40, model, Engine::Differential).unwrap();
            let (g, want) = run(&generic(k), &args(), 40, model, Engine::Fast).unwrap();
            same_bits(&got, &want, &format!("n={n}"));
            assert_eq!((s.counters, s.transaction_bytes), (g.counters, g.transaction_bytes));
            let tape = tapes(&prep)[0].1.clone();
            if let Some(t) = &tape {
                let p = Prepared { tape: (**t).clone(), ..prep.clone() };
                let report = crate::verify::tape_report(&p);
                assert!(report.is_clean(), "n={n}: {:?}", report.findings);
            }
            (got[2].to_f64_vec(), tape)
        }

        fn decl(len: KExpr) -> KStmt {
            KStmt::DeclPrivArray { name: "a".into(), kind: ScalarKind::F32, len }
        }

        /// `for (b = 0; b < n; b += 1) body`.
        fn upto_n(body: Vec<KStmt>) -> KStmt {
            KStmt::For {
                var: "b".into(),
                begin: KExpr::int(0),
                end: KExpr::var("n"),
                step: KExpr::int(1),
                body,
            }
        }

        /// Filled in an unrolled loop, then read at an index loaded per
        /// item: the loop unrolls, the array stays an array.
        #[test]
        fn a_private_array_indexed_at_run_time_stays_an_array() {
            let gid = || KExpr::GlobalId(0);
            let k = array_kernel(vec![
                decl(KExpr::var("n")),
                upto_n(vec![KStmt::Store {
                    mem: MemRef::Priv("a".into()),
                    idx: KExpr::var("b"),
                    value: KExpr::load(MemRef::Param(0), gid() + KExpr::var("b")),
                }]),
                out(gid(), arr(KExpr::load(MemRef::Param(1), gid()))),
            ]);
            let (got, tape) = run_array_kernel(&k, 3);
            assert_eq!(got[5], 1.0 + 5.0 + 2.0, "a[sel[5]] = x[5 + 2]");
            let t = tape.expect("the loop unrolls");
            assert!(!has(&t, |op| matches!(op, Op::JgeI64 { .. })), "{:?}", t.ops);
            assert!(has(&t, |op| matches!(op, Op::LdP { .. })), "{:?}", t.ops);
            assert!(has(&t, |op| matches!(op, Op::StP { .. })), "{:?}", t.ops);
        }

        /// An element read before any write reads 0, and one written in a
        /// branch keeps its zero on the other path — in every warp, whatever
        /// the warp before it left in the register: registers all, no
        /// private-array op.
        #[test]
        fn private_elements_in_registers_read_zero_until_written() {
            let gid = || KExpr::GlobalId(0);
            // `sel[gid] == 1`: a lane writes in one warp and not in the next.
            let picked = KExpr::bin(BinOp::Eq, KExpr::load(MemRef::Param(1), gid()), KExpr::int(1));
            let k = array_kernel(vec![
                decl(KExpr::var("n")),
                out(gid() + gid(), arr(KExpr::int(1))),
                KStmt::If {
                    cond: picked,
                    then_: vec![KStmt::Store {
                        mem: MemRef::Priv("a".into()),
                        idx: KExpr::int(0),
                        value: KExpr::load(MemRef::Param(0), gid()),
                    }],
                    else_: vec![],
                },
                out(gid() + gid() + KExpr::int(1), arr(KExpr::int(0))),
            ]);
            let (got, tape) = run_array_kernel(&k, 2);
            for g in 0..40 {
                assert_eq!(got[2 * g], 0.0, "read before any write");
                assert_eq!(got[2 * g + 1], if g % 3 == 1 { 1.0 + g as f64 } else { 0.0 });
            }
            let t = tape.expect("the array moves to registers");
            assert!(!has(&t, rolled), "{:?}", t.ops);
        }

        /// `acc` sums `n` elements staged through `a[n]`.
        fn sum_kernel() -> Kernel {
            let b = || KExpr::var("b");
            array_kernel(vec![
                decl(KExpr::var("n")),
                KStmt::DeclScalar {
                    name: "acc".into(),
                    kind: ScalarKind::F32,
                    init: Some(KExpr::real(0.5)),
                },
                upto_n(vec![
                    KStmt::Store {
                        mem: MemRef::Priv("a".into()),
                        idx: b(),
                        value: KExpr::load(MemRef::Param(0), b()),
                    },
                    KStmt::Assign { name: "acc".into(), value: KExpr::var("acc") + arr(b()) },
                ]),
                out(KExpr::GlobalId(0), KExpr::var("acc")),
            ])
            .resolve_real(ScalarKind::F32)
        }

        /// A loop of no trips runs no body, and a negative length fails the
        /// launch with the generic tape's panic.
        #[test]
        fn zero_trips_and_negative_lengths_behave_as_on_the_generic_tape() {
            let k = sum_kernel();
            let (got, tape) = run_array_kernel(&k, 0);
            assert!(got[..40].iter().all(|&v| v == 0.5), "{got:?}");
            assert!(!has(&tape.expect("specialised"), rolled));
            let (got, _) = run_array_kernel(&k, 4);
            assert_eq!(got[0], 0.5 + 1.0 + 2.0 + 3.0 + 4.0);
            let panic_text = |prep: &Prepared| {
                let args = [
                    Arg::Buf(shadowed(vec![1.0f32; 80])),
                    Arg::Buf(shadowed(vec![0i32; 40])),
                    Arg::Buf(shadowed(vec![0.0f32; 80])),
                    Arg::Val(Value::I32(-1)),
                ];
                let run = || run(prep, &args, 40, ExecMode::Fast, Engine::Fast);
                let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).unwrap_err();
                err.downcast_ref::<String>().cloned().unwrap_or_default()
            };
            let prep = prepare(&k).unwrap();
            let want = panic_text(&generic(&k));
            assert!(want.contains("length -1"), "{want}");
            assert_eq!(panic_text(&prep), want);
            assert!(tapes(&prep)[0].1.is_some(), "the zero-trip loop unrolled");
        }

        /// Every shipped kernel at both precisions: the FD-MM kernels' one
        /// launch constant is `MB`, the others have none, and the tape
        /// specialised on the shipped `MB` is clean under the tape verifier.
        #[test]
        fn every_shipped_kernel_specialises_clean_at_its_shipped_arguments() {
            let cfg = SimConfig::fdmm(GridDims::new(12, 12, 12), RoomShape::Dome);
            let mb = SimSetup::new(&cfg).mb as u64;
            let mut specialised = 0;
            for real in [ScalarKind::F32, ScalarKind::F64] {
                let mut kernels: Vec<Kernel> = room_acoustics::handwritten::all_kernels()
                    .iter()
                    .map(|k| k.resolve_real(real))
                    .collect();
                for set in lift_acoustics::hostprog::all_sets() {
                    let prog = set.host_program(real).unwrap();
                    kernels.extend(prog.kernels.into_iter().map(|k| k.kernel));
                }
                for k in &kernels {
                    let prep = prepare(k).unwrap();
                    let slots = bytecode::launch_constant_slots(&prep);
                    let name = |s: &usize| {
                        let i = prep.scalar_slots.iter().position(|x| *x == Some(*s)).unwrap();
                        prep.params[i].name.as_str()
                    };
                    let names: Vec<&str> = slots.iter().map(name).collect();
                    let want: &[&str] = if k.name.starts_with("fdmm") { &["MB"] } else { &[] };
                    assert_eq!(names, want, "{}", k.name);
                    if let [mb_slot] = slots[..] {
                        let mut p = prep.clone();
                        p.tape = bytecode::compile_under(&prep, &[(mb_slot, mb)]).unwrap();
                        let report = crate::verify::tape_report(&p);
                        assert!(report.is_clean(), "{} {real:?}: {:?}", k.name, report.findings);
                        specialised += 1;
                    }
                }
            }
            assert!(specialised >= 4, "{specialised}: both FD-MM kernels at both precisions");
        }

        /// The FD-MM tapes specialised on three branches, as recorded: no
        /// loop and no private array is left, and (main tape, `pre`,
        /// `item_pre`) ops stay as they were pinned. The generic tapes are
        /// `bytecode::tests::TAPE_PINS`' rows. Each main tape lost three ops
        /// (92 → 89, 91 → 88) when value numbering took the prelude first:
        /// ops reading duplicate prelude constants merge.
        #[test]
        fn the_specialised_fdmm_tapes_match_the_recorded_pins() {
            let pins = [
                (false, ScalarKind::F32, (89, 11, 1)),
                (false, ScalarKind::F64, (89, 11, 1)),
                (true, ScalarKind::F32, (88, 11, 1)),
                (true, ScalarKind::F64, (88, 11, 1)),
            ];
            let got = pins.map(|(generated, real, _)| {
                let prep = prepare(&fdmm(generated, real)).unwrap();
                let mb = bytecode::launch_constant_slots(&prep)[0];
                let t = bytecode::compile_under(&prep, &[(mb, 3)]).unwrap();
                assert!(!has(&t, rolled), "{:?}", t.ops);
                (generated, real, (t.ops.len(), t.pre.len(), t.item_pre.len()))
            });
            assert_eq!(got, pins, "the specialised FD-MM tapes changed");
        }
    }

    /// What running warps in bundles must not change.
    mod bundles {
        use super::specialise::{fdmm, fdmm_args, Arg};
        use super::*;
        use room_acoustics::{GridDims, RoomShape, SimConfig, SimSetup};

        /// A launch's account: divergent warps, modeled transaction bytes
        /// and the counters (global loads and stores, constant loads, bytes
        /// loaded and stored, flops, work-items).
        type Account = (u64, u64, [u64; 7]);

        /// Launches `prep` over `global` in `mode` on the fast engine.
        fn run_fast(
            prep: &Prepared,
            args: &[Arg],
            global: &[usize],
            mode: ExecMode,
        ) -> LaunchStats {
            let binds: Vec<ArgBind<'_>> = args
                .iter()
                .map(|a| match a {
                    Arg::Buf(b) => ArgBind::Buf(b),
                    Arg::Val(v) => ArgBind::Val(*v),
                })
                .collect();
            let rt = Runtime::new(crate::Settings::default());
            launch(prep, &binds, global, None, mode, 128, Engine::Fast, &rt).unwrap()
        }

        /// [`run_fast`]'s account, with 0 transaction bytes outside the model.
        fn account(prep: &Prepared, args: &[Arg], global: &[usize], mode: ExecMode) -> Account {
            let s = run_fast(prep, args, global, mode);
            let c = &s.counters;
            let counters = [
                c.loads_global,
                c.stores_global,
                c.loads_constant,
                c.bytes_loaded,
                c.bytes_stored,
                c.flops,
                c.work_items,
            ];
            (s.divergent_warps, s.transaction_bytes.unwrap_or(0), counters)
        }

        /// The hand-written volume kernel as it ships, under its launch
        /// contract.
        fn volume_prep(real: ScalarKind) -> Prepared {
            let k = room_acoustics::handwritten::volume_kernel().resolve_real(real);
            prepare_under(&k, &room_acoustics::contracts::launch_contract(&k)).unwrap()
        }

        /// The volume kernel's arguments over a dome room of `[nx, ny, nz]`
        /// cells, with deterministic pressures.
        fn volume_args([nx, ny, nz]: [usize; 3], real: ScalarKind) -> Vec<Arg> {
            let cfg = SimConfig::fdmm(GridDims::new(nx, ny, nz), RoomShape::Dome);
            let setup = SimSetup::new(&cfg);
            let grid = |f: &dyn Fn(f64) -> f64| {
                let v = (0..nx * ny * nz).map(|i| f(i as f64));
                Arg::Buf(SharedBuf::new(match real {
                    ScalarKind::F32 => BufData::F32(v.map(|x| x as f32).collect()),
                    _ => BufData::F64(v.collect()),
                }))
            };
            let int = |x: usize| Arg::Val(Value::I32(x as i32));
            vec![
                grid(&|_| 0.0),
                grid(&|i| (0.37 * i).sin()),
                grid(&|i| (0.11 * i).cos()),
                Arg::Buf(SharedBuf::new(BufData::from(setup.room.nbrs))),
                Arg::Val(Value::F64(setup.l2).cast(real)),
                int(nx),
                int(ny),
                int(nz),
            ]
        }

        /// The hand-written volume kernel over rooms of rows 96 (three warps
        /// each, the benchmark room), 100 (a row straddles every fourth
        /// warp), 40, 33 and 11 wide (three rows in each warp), and the
        /// hand-written FD-MM kernel over 1-D launches of as many items and
        /// of the benchmark room's 12 904: the modeled accounts recorded
        /// before warps ran in bundles, at both precisions; and the volume
        /// kernel over 9³, 12³ and 15³ dome rooms (`batch_small`'s sizes),
        /// recorded before rows narrower than two warps bundled. A fast
        /// launch keeps the model's counters and divergent warps.
        #[test]
        fn accounts_match_the_pins_recorded_before_bundling() {
            let (mut got, model) = (Vec::new(), ExecMode::Model { sample_stride: 1 });
            for (real, prec) in [(ScalarKind::F32, "f32"), (ScalarKind::F64, "f64")] {
                let mut check = |what, prep: &Prepared, args: &dyn Fn() -> Vec<_>, global: &[_]| {
                    let model = account(prep, &args(), global, model);
                    let fast = account(prep, &args(), global, ExecMode::Fast);
                    assert_eq!((fast.0, fast.2), (model.0, model.2), "{prec} {what} {global:?}");
                    got.push((prec, what, global[0], model));
                };
                let prep = volume_prep(real);
                let rooms = [[96, 64, 48], [100, 6, 5], [40, 8, 6], [33, 8, 6], [11, 11, 9]];
                for dims in rooms.into_iter().chain([[9; 3], [12; 3], [15; 3]]) {
                    check("volume", &prep, &|| volume_args(dims, real), &dims);
                }
                let k = fdmm(false, real);
                let prep = prepare(&k).unwrap();
                for n in [96, 100, 40, 33, 11, 12_904] {
                    check("fdmm", &prep, &|| fdmm_args(&k, 3, n), &[n]);
                }
            }
            assert_eq!(got, PINS, "the accounts moved");
        }

        /// `out[gid] = x[gid] + 3·x[gid + 1] − x[(7·gid) % n]` at `kind`,
        /// after `return` where `cond` holds.
        fn holed_kernel(kind: ScalarKind, cond: KExpr) -> Kernel {
            let (gid, x) = (|| KExpr::GlobalId(0), |i: KExpr| KExpr::load(MemRef::Param(0), i));
            let gather = KExpr::bin(BinOp::Rem, gid() * KExpr::int(7), KExpr::var("n"));
            let three = KExpr::cast(kind, KExpr::int(3));
            Kernel {
                name: "holed".into(),
                params: vec![
                    KernelParam::global_buf("x", kind),
                    KernelParam::global_buf("out", kind),
                    KernelParam::scalar("n", ScalarKind::I32),
                ],
                body: vec![
                    KStmt::return_if(cond),
                    KStmt::Store {
                        mem: MemRef::Param(1),
                        idx: gid(),
                        value: x(gid()) + x(gid() + KExpr::int(1)) * three - x(gather),
                    },
                ],
                work_dim: 1,
            }
        }

        /// `gid % 128 op k`: a condition that is a lane's place in its bundle.
        fn in_bundle(op: BinOp, k: i32) -> KExpr {
            KExpr::bin(
                op,
                KExpr::bin(BinOp::Rem, KExpr::GlobalId(0), KExpr::int(128)),
                KExpr::int(k),
            )
        }

        /// `k` over `n` items on the differential engine — tape and oracle
        /// bit-identical in buffers, counters and transaction bytes, or the
        /// launch fails — sanitizing, in `mode`, over plain or shadowed
        /// buffers (which run no unit-stride runs).
        fn run_diff(k: &Kernel, n: usize, mode: ExecMode, shadow: bool) -> LaunchStats {
            let kind = k.params[0].kind;
            let data = |len: usize| match kind {
                ScalarKind::F32 => {
                    BufData::F32((0..len).map(|i| (0.37 * i as f32).sin()).collect())
                }
                ScalarKind::F64 => {
                    BufData::F64((0..len).map(|i| (0.37 * i as f64).sin()).collect())
                }
                _ => BufData::I32((0..len).map(|i| (i as i32 * 7919) % 1000 - 500).collect()),
            };
            let buf = |d: BufData| SharedBuf::with_shadow(d, shadow, true);
            let (x, out) = (buf(data(n + 1)), buf(data(n)));
            let binds = [ArgBind::Buf(&x), ArgBind::Buf(&out), ArgBind::Val(Value::I32(n as i32))];
            let rt = Runtime::sanitizing();
            launch(&prepare(k).unwrap(), &binds, &[n], None, mode, 128, Engine::Differential, &rt)
                .unwrap()
        }

        const MODES: [ExecMode; 2] = [ExecMode::Fast, ExecMode::Model { sample_stride: 1 }];

        /// Every flat launch runs bundles, whatever its size and its rows'
        /// width: one `Halt` dispatched per 128 items of a 1-D launch of 40 to
        /// 1 280 items, and of the volume kernel over dome rooms whose rows
        /// (9, 12 and 15 cells wide) are narrower than two warps.
        #[test]
        fn launches_of_any_size_and_width_dispatch_one_halt_per_bundle() {
            let halts = |stats: LaunchStats| {
                let prof = stats.op_profile.expect("a profiled launch");
                prof.entries().iter().find(|e| e.0 == "Halt").map_or(0, |e| e.1)
            };
            let k = holed_kernel(ScalarKind::F32, in_bundle(BinOp::Lt, 0));
            for (n, want) in [(40, 1), (511, 4), (512, 4), (1280, 10)] {
                assert_eq!(halts(run_diff(&k, n, ExecMode::Profile, false)), want, "{n} items");
            }
            let prep = volume_prep(ScalarKind::F64);
            for (n, want) in [(9, 6), (12, 14), (15, 27)] {
                let (dims, mode) = ([n; 3], ExecMode::Profile);
                let stats = run_fast(&prep, &volume_args(dims, ScalarKind::F64), &dims, mode);
                assert_eq!(halts(stats), want, "{n}³ room");
            }
        }

        /// Lanes that return early leave holes in the first three warps of
        /// every 128-item bundle of a 1-D launch (and of its 40-item last
        /// one); unit-stride loads run across them, a gather goes lane by
        /// lane, at f32, f64 and i32. Each holed warp diverged at the return,
        /// the whole fourth did not.
        #[test]
        fn bundles_with_holes_in_three_warps_match_the_oracle() {
            let cond = KExpr::bin(
                BinOp::And,
                in_bundle(BinOp::Lt, 96),
                KExpr::bin(
                    BinOp::Eq,
                    KExpr::bin(BinOp::Rem, KExpr::GlobalId(0), KExpr::int(5)),
                    KExpr::int(2),
                ),
            );
            for kind in [ScalarKind::F32, ScalarKind::F64, ScalarKind::I32] {
                let k = holed_kernel(kind, cond.clone());
                for (mode, shadow) in MODES.into_iter().flat_map(|m| [(m, false), (m, true)]) {
                    let stats = run_diff(&k, 4096 + 40, mode, shadow);
                    assert_eq!(stats.divergent_warps, 3 * 32 + 2, "{kind:?} {mode:?} {shadow}");
                }
            }
        }

        /// A branch whose lanes agree within each warp of a bundle but not
        /// across them diverges no warp; one that splits the bundle's third
        /// warp diverges that warp alone.
        #[test]
        fn a_branch_some_warps_of_a_bundle_take_diverges_only_split_warps() {
            for (split, divergent) in [(64, 0), (80, 32)] {
                let k = holed_kernel(ScalarKind::F32, in_bundle(BinOp::Ge, split));
                for mode in MODES {
                    let stats = run_diff(&k, 4096, mode, false);
                    assert_eq!(stats.divergent_warps, divergent, "split at {split}, {mode:?}");
                }
            }
        }

        #[rustfmt::skip]
        const PINS: &[(&str, &str, usize, Account)] = &[
            ("f32", "volume", 96, (4056, 9075200, [1381632, 135840, 0, 5526528, 543360, 1494240, 294912])),
            ("f32", "volume", 100, (7, 34560, [5720, 340, 0, 22880, 1360, 3740, 3000])),
            ("f32", "volume", 40, (18, 35072, [4608, 336, 0, 18432, 1344, 3696, 1920])),
            ("f32", "volume", 33, (15, 30336, [3776, 274, 0, 15104, 1096, 3014, 1584])),
            ("f32", "volume", 11, (20, 34816, [2809, 215, 0, 11236, 860, 2365, 1089])),
            ("f32", "volume", 9, (13, 22528, [1777, 131, 0, 7108, 524, 1441, 729])),
            ("f32", "volume", 12, (32, 58368, [4896, 396, 0, 19584, 1584, 4356, 1728])),
            ("f32", "volume", 15, (65, 114048, [11063, 961, 0, 44252, 3844, 10571, 3375])),
            ("f32", "fdmm", 96, (0, 18816, [2880, 672, 0, 11520, 2688, 5568, 96])),
            ("f32", "fdmm", 100, (0, 26624, [3000, 700, 0, 12000, 2800, 5800, 100])),
            ("f32", "fdmm", 40, (0, 12032, [1200, 280, 0, 4800, 1120, 2320, 40])),
            ("f32", "fdmm", 33, (0, 12032, [990, 231, 0, 3960, 924, 1914, 33])),
            ("f32", "fdmm", 11, (0, 5760, [330, 77, 0, 1320, 308, 638, 11])),
            ("f32", "fdmm", 12904, (0, 2945024, [387120, 90328, 0, 1548480, 361312, 748432, 12904])),
            ("f64", "volume", 96, (4056, 14181888, [1381632, 135840, 0, 9873408, 1086720, 1494240, 294912])),
            ("f64", "volume", 100, (7, 47744, [5720, 340, 0, 33760, 2720, 3740, 3000])),
            ("f64", "volume", 40, (18, 49152, [4608, 336, 0, 29184, 2688, 3696, 1920])),
            ("f64", "volume", 33, (15, 43648, [3776, 274, 0, 23872, 2192, 3014, 1584])),
            ("f64", "volume", 11, (20, 48640, [2809, 215, 0, 18116, 1720, 2365, 1089])),
            ("f64", "volume", 9, (13, 29952, [1777, 131, 0, 11300, 1048, 1441, 729])),
            ("f64", "volume", 12, (32, 77696, [4896, 396, 0, 32256, 3168, 4356, 1728])),
            ("f64", "volume", 15, (65, 166016, [11063, 961, 0, 75004, 7688, 10571, 3375])),
            ("f64", "fdmm", 96, (0, 28032, [2880, 672, 0, 21888, 5376, 5568, 96])),
            ("f64", "fdmm", 100, (0, 35840, [3000, 700, 0, 22800, 5600, 5800, 100])),
            ("f64", "fdmm", 40, (0, 14976, [1200, 280, 0, 9120, 2240, 2320, 40])),
            ("f64", "fdmm", 33, (0, 15104, [990, 231, 0, 7524, 1848, 1914, 33])),
            ("f64", "fdmm", 11, (0, 6656, [330, 77, 0, 2508, 616, 638, 11])),
            ("f64", "fdmm", 12904, (0, 3977088, [387120, 90328, 0, 2942112, 722624, 748432, 12904])),
        ];
    }
}
