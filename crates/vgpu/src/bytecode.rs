//! Flat bytecode compilation of prepared kernels.
//!
//! The tree-walking interpreter in [`crate::exec`] dispatches on boxed
//! [`PExpr`] nodes and `Value` enums for every operation of every work-item.
//! This module flattens a [`Prepared`] kernel once, at compile time, into a
//! linear tape of register-register [`Op`]s:
//!
//! * **Dense, typed registers** — scalar slots map to the first `nslots`
//!   registers; expression temporaries extend the file. A register's kind
//!   ([`K`]) is fixed statically, and with it its width: the warp executor
//!   keeps a 32-bit kind (`F32`, `I32`, `Bool`) as a packed `u32` row,
//!   `F64` and the internal i64 registers as `u64` rows, one lane per
//!   work-item of a bundle ([`File`]; [`Compiled::wide`]: one width per
//!   register, checked op by op in
//!   [`validate`]), so the inner loop never unwraps a `Value`. Only the
//!   scalar file of the launch prelude ([`exec_pre`]) holds 64-bit patterns.
//! * **Monomorphised arithmetic** — C-style promotion (`f64 > f32 > i32`,
//!   bool → i32) is resolved during compilation; every `Bin` op carries its
//!   promoted kind and operands are pre-cast by explicit `Cast` ops. The
//!   arithmetic therefore reproduces the tree-walker (and a native OpenCL
//!   kernel) bit for bit.
//! * **Static load/store sites** — `LdG`/`StG` ops carry the same site ids
//!   the tree-walker assigns, feeding the identical warp transaction model,
//!   counters, and sanitizer findings.
//! * **Static flop accounting** — flop counts are summed per basic block and
//!   materialised as single `Flops` ops, preserving the tree-walker's
//!   data-dependent totals (branches carry their own counts).
//!
//! Not every kernel compiles: one whose scalar kinds cannot be inferred
//! statically (e.g. a variable re-declared with a different kind on one
//! branch only, then read) is rejected, and [`crate::exec::prepare`] fails
//! with that error — nothing falls back to the tree-walker, which runs only
//! as the differential oracle (see [`crate::exec::Engine`]).

use crate::buffer::{BufPtr, SharedBuf};
use crate::exec::{array_index, array_len, Counters, PExpr, PMem, PStmt, Prepared};
use crate::exec::{TraceRec, WARP};
use crate::profiler::OpProf;
use lift::kast::MemSpace;
use lift::prelude::{BinOp, Intrinsic, ScalarKind, UnOp, Value};
use std::mem::MaybeUninit;
use std::num::Wrapping;
use std::time::Instant;

/// Register index.
pub(crate) type R = u32;

/// Statically-known register kind (the bit-pattern interpretation). Where
/// a 32-bit kind is held as a 64-bit pattern — the scalar prelude file,
/// constants, private and local arrays — it is zero-extended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum K {
    F32,
    F64,
    I32,
    /// 0 or 1.
    Bool,
}

impl K {
    fn is_float(self) -> bool {
        matches!(self, K::F32 | K::F64)
    }

    /// A register of this kind is a 64-bit row of the warp register file
    /// (see [`Compiled::wide`]).
    fn wide(self) -> bool {
        self == K::F64
    }
}

fn kk(k: ScalarKind) -> Result<K, String> {
    match k {
        ScalarKind::F32 => Ok(K::F32),
        ScalarKind::F64 => Ok(K::F64),
        ScalarKind::I32 => Ok(K::I32),
        ScalarKind::Bool => Ok(K::Bool),
        ScalarKind::Real => Err("unresolved Real kind".into()),
    }
}

// ---- bit-pattern helpers (the register encoding) ----

#[inline(always)]
fn b32(x: f32) -> u64 {
    x.to_bits() as u64
}
#[inline(always)]
fn f32v(b: u64) -> f32 {
    f32::from_bits(b as u32)
}
#[inline(always)]
fn b64(x: f64) -> u64 {
    x.to_bits()
}
#[inline(always)]
fn f64v(b: u64) -> f64 {
    f64::from_bits(b)
}
#[inline(always)]
fn bi32(x: i32) -> u64 {
    x as u32 as u64
}
#[inline(always)]
fn i32v(b: u64) -> i32 {
    b as u32 as i32
}
#[inline(always)]
fn bi64(x: i64) -> u64 {
    x as u64
}
#[inline(always)]
fn i64v(b: u64) -> i64 {
    b as i64
}
#[inline(always)]
fn bb(x: bool) -> u64 {
    x as u64
}

/// `Value::as_f64` on a register.
#[inline(always)]
fn to_f64(k: K, b: u64) -> f64 {
    match k {
        K::F32 => f32v(b) as f64,
        K::F64 => f64v(b),
        K::I32 => i32v(b) as f64,
        K::Bool => (b != 0) as i32 as f64,
    }
}

/// `Value::as_i64` on a register.
#[inline(always)]
fn to_i64(k: K, b: u64) -> i64 {
    match k {
        K::F32 => f32v(b) as i64,
        K::F64 => f64v(b) as i64,
        K::I32 => i32v(b) as i64,
        K::Bool => b as i64,
    }
}

/// `Value::truthy` on a register.
#[inline(always)]
fn truthy(k: K, b: u64) -> bool {
    match k {
        K::F32 => f32v(b) != 0.0,
        K::F64 => f64v(b) != 0.0,
        K::I32 => i32v(b) != 0,
        K::Bool => b != 0,
    }
}

/// `Value::cast` on a register (C conversion semantics).
#[inline(always)]
fn cast_bits(from: K, to: K, b: u64) -> u64 {
    match to {
        K::F32 => b32(to_f64(from, b) as f32),
        K::F64 => b64(to_f64(from, b)),
        K::I32 => bi32(to_i64(from, b) as i32),
        K::Bool => bb(truthy(from, b)),
    }
}

fn value_bits(v: Value) -> (K, u64) {
    match v {
        Value::F32(x) => (K::F32, b32(x)),
        Value::F64(x) => (K::F64, b64(x)),
        Value::I32(x) => (K::I32, bi32(x)),
        Value::Bool(x) => (K::Bool, bb(x)),
    }
}

pub(crate) fn bits_of_value(v: Value) -> u64 {
    value_bits(v).1
}

fn bits_value(k: K, b: u64) -> Value {
    match k {
        K::F32 => Value::F32(f32v(b)),
        K::F64 => Value::F64(f64v(b)),
        K::I32 => Value::I32(i32v(b)),
        K::Bool => Value::Bool(b != 0),
    }
}

/// One tape instruction. Loop counters, lengths and private or local
/// indices are internal i64 registers (`AsI64` truncates like
/// `Value::as_i64`); a global access reads its index at the index
/// register's own width ([`Compiled::wide`]): an i32 as it is, an i64 as the
/// `AsI64` of any other kind made it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Op {
    /// dst = bits.
    Const { dst: R, bits: u64 },
    /// dst = get_global_id(dim) as i32 bits.
    Gid { dst: R, dim: u8 },
    /// dst = get_global_size(dim).
    Gsz { dst: R, dim: u8 },
    /// dst = get_local_id(dim).
    Lid { dst: R, dim: u8 },
    /// dst = get_local_size(dim).
    Lsz { dst: R, dim: u8 },
    /// dst = get_group_id(dim).
    Grp { dst: R, dim: u8 },
    /// dst = src.
    Mov { dst: R, src: R },
    /// dst = cast(src) with C semantics.
    Cast { dst: R, src: R, from: K, to: K },
    /// dst = as_i64(src) (i64 register).
    AsI64 { dst: R, src: R, from: K },
    /// dst = max(dst, 1) on an i64 register (loop step clamping).
    MaxOne { dst: R },
    /// dst = src as i32 (loop variable materialisation).
    I64ToI32 { dst: R, src: R },
    /// dst = a + b on i64 registers.
    AddI64 { dst: R, a: R, b: R },
    /// Jump when a >= b (i64 registers; loop exit test).
    JgeI64 { a: R, b: R, target: u32 },
    /// Monomorphised negation.
    Neg { dst: R, src: R, k: K },
    /// Logical not (truthiness).
    Not { dst: R, src: R, k: K },
    /// Binary op on two operands pre-cast to the promoted kind `k`.
    Bin { dst: R, a: R, b: R, op: BinOp, k: K },
    /// Non-short-circuit `&&` / `||` on raw operands.
    Logic { dst: R, a: R, b: R, ka: K, kb: K, or: bool },
    /// min/max on operands pre-cast to `k` (f32 computes through f64 like
    /// the tree-walker).
    MinMax { dst: R, a: R, b: R, k: K, max: bool },
    /// Unary float intrinsic at fixed precision.
    Intr1 { dst: R, src: R, intr: Intrinsic, k: K },
    /// Global/constant-space load of `buf[base ± off]`. An i32 `base`
    /// may carry the single-use i32 `Add`/`Sub` that computed it as `off`
    /// ([`crate::compile::fuse`]), wrapping exactly like [`bin_bits`]; an
    /// i64 `base` has no `off`. A load some `Add`/`Sub` folds into is an
    /// [`Op::LdGSum`] link instead.
    LdG { dst: R, buf: u16, base: R, off: Option<(R, bool)>, site: u32, constant: bool },
    /// Global-space store at `idx` (i32 or i64); `vk` is the value
    /// register's kind (the buffer casts on write, as the tree-walker does).
    StG { buf: u16, idx: R, val: R, vk: K, site: u32 },
    /// Private-array load.
    LdP { dst: R, arr: u16, idx: R },
    /// Private-array store (casts `vk` → the array kind `k`).
    StP { arr: u16, idx: R, val: R, vk: K, k: K },
    /// Workgroup-local load.
    LdL { dst: R, arr: u16, idx: R },
    /// Workgroup-local store.
    StL { arr: u16, idx: R, val: R, vk: K, k: K },
    /// (Re)allocate a private array, zero-filled.
    DeclPriv { arr: u16, len: R },
    /// Allocate a local array once per group.
    DeclLocal { arr: u16, len: R },
    /// Add `n` to the flop counter (one per basic block).
    Flops { n: u32 },
    /// Unconditional jump.
    Jmp { target: u32 },
    /// Jump when the condition is falsy.
    Jz { cond: R, k: K, target: u32 },
    /// Work-item early exit.
    Ret,
    /// End of phase.
    Halt,
    // ---- superinstructions, written by [`crate::compile::fuse`] ----
    /// `Bin{t,a,b,Mul,k}; Bin{dst,…,…,Add|Sub,k}` with `t` single-use:
    /// `dst = (a*b) ⊕ c` (or `c ⊕ (a*b)` when `rev`). The multiply and the
    /// add/sub stay two distinct roundings — never contracted to an FMA.
    MulAdd { dst: R, a: R, b: R, c: R, k: K, sub: bool, rev: bool },
    /// `Bin{t,a,b,cmp,k}; Jz{t,Bool,target}` with `t` single-use: jump when
    /// `a cmp b` is false.
    CmpJz { a: R, b: R, op: BinOp, k: K, target: u32 },
    /// The one accumulating load: `n ≥ 1` global loads of one buffer, each
    /// an i32-indexed `LdG` whose value an `Add`/`Sub` folds into the sum so
    /// far (the first load starts the sum when there is no `src`). `dst` =
    /// `src` (if any) folded with the links' loads in order, written once
    /// after every link has read its index. The links,
    /// [`Compiled::links`]`[at..at + n]`, stay beside the tape.
    LdGSum { dst: R, buf: u16, src: Option<R>, at: u32, n: u32 },
}

const _: () = assert!(std::mem::size_of::<Op>() == 24);

/// One load of an [`Op::LdGSum`] at `base [± off]`, folded into the sum so
/// far `s` as `s ⊕ loaded` (`loaded ⊕ s` when `rev`, `⊕` = `-` when `sub`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Link {
    pub(crate) base: R,
    pub(crate) off: Option<(R, bool)>,
    pub(crate) site: u32,
    pub(crate) sub: bool,
    pub(crate) rev: bool,
}

/// The opcode table, one entry per [`Op`] variant in declaration order:
/// `NOPCODES` (sizes the profiler's per-opcode tally arrays,
/// [`crate::profiler::OpProf`]), the display names and [`op_index`].
macro_rules! opcodes {
    ($($v:ident),* $(,)?) => {
        pub(crate) const NOPCODES: usize = [$(stringify!($v)),*].len();
        const OP_NAMES: [&str; NOPCODES] = [$(stringify!($v)),*];

        enum Opcode {
            $($v),*
        }

        /// Dense index of an op's variant (declaration order), used by the
        /// per-op profiler to tally counts/time in fixed arrays without hashing.
        #[inline(always)]
        pub(crate) fn op_index(op: &Op) -> usize {
            match op {
                $(Op::$v { .. } => Opcode::$v as usize),*
            }
        }
    };
}

opcodes!(
    Const, Gid, Gsz, Lid, Lsz, Grp, Mov, Cast, AsI64, MaxOne, I64ToI32, AddI64, JgeI64, Neg, Not,
    Bin, Logic, MinMax, Intr1, LdG, StG, LdP, StP, LdL, StL, DeclPriv, DeclLocal, Flops, Jmp, Jz,
    Ret, Halt, MulAdd, CmpJz, LdGSum,
);

/// Display name of the opcode with dense index `i` (see [`op_index`]).
pub(crate) fn op_name(i: usize) -> &'static str {
    OP_NAMES[i]
}

/// How a register's value varies across the active lanes of a flat launch's
/// warp — one table per launch shape and warp kind (row-coherent or
/// straddling rows), by [`crate::compile::launch_shapes`]; licenses the warp
/// executor's shortcuts, which audit it lane by lane in debug builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Shape {
    /// The same bits in every active lane.
    Uniform,
    /// An i32 register whose lane `l` holds lane `l0`'s value plus
    /// `stride × (l − l0)`, wrapping — or the i64 sign extension of one (what
    /// `AsI64` makes of it), affine as an i64 only while the i32 does not
    /// wrap ([`unit_run`]).
    Affine(i32),
    Varying,
}

impl Shape {
    /// Shape of `a ± b` on i32 registers (wrapping): strides add, and a
    /// zero stride is uniform.
    pub(crate) fn add(self, b: Shape, sub: bool) -> Shape {
        let stride = |s| match s {
            Shape::Uniform => Some(0i32),
            Shape::Affine(s) => Some(s),
            _ => None,
        };
        match (stride(self), stride(b)) {
            (Some(x), Some(y)) => match if sub { x.wrapping_sub(y) } else { x.wrapping_add(y) } {
                0 => Shape::Uniform,
                s => Shape::Affine(s),
            },
            _ => Shape::Varying,
        }
    }
}

/// What the warp executor may take for granted about one bundle: the
/// per-site bounds verdicts of the launch shape (`checked[site]` keeps the
/// dynamic check; empty — every site checked — without a proof) and the lane
/// shapes of the tape's registers for the bundle's kind — empty, every
/// register [`Shape::Varying`], for a bundle of a grouped launch.
#[derive(Clone, Copy)]
pub(crate) struct Licence<'a> {
    pub(crate) checked: &'a [bool],
    pub(crate) shapes: &'a [Shape],
}

impl Licence<'_> {
    #[inline(always)]
    fn check(&self, site: u32) -> bool {
        self.checked.get(site as usize).copied().unwrap_or(true)
    }

    #[inline(always)]
    fn shape(&self, r: R) -> Shape {
        self.shapes.get(r as usize).copied().unwrap_or(Shape::Varying)
    }

    /// Whether the index `base [± off]` counts up by one per lane.
    #[inline(always)]
    fn unit(&self, base: R, off: Option<(R, bool)>) -> bool {
        let base = self.shape(base);
        off.map_or(base, |(o, sub)| base.add(self.shape(o), sub)) == Shape::Affine(1)
    }
}

/// A compiled kernel tape: one instruction stream with an entry point per
/// barrier-delimited phase, plus a launch-invariant prelude hoisted out of
/// the per-item path by [`optimize`].
#[derive(Debug, Clone, Default)]
pub struct Compiled {
    pub(crate) ops: Vec<Op>,
    pub(crate) phase_starts: Vec<u32>,
    pub(crate) nregs: usize,
    /// Item-invariant ops hoisted out of the per-item stream; executed once
    /// per register file by [`exec_pre`] (after scalar-slot initialisation,
    /// before any phase). Contains only pure register ops — never loads,
    /// stores, `Flops`, or control flow — so counters and the transaction
    /// model are unaffected.
    pub(crate) pre: Vec<Op>,
    /// Deduplicated launch-context reads (`Gid`/`Lid`/`Lsz`/`Grp`), one per
    /// distinct (op, dim): executed once per work-item by [`exec_item_pre_warp`]
    /// instead of at every use site. Pure register writes only.
    pub(crate) item_pre: Vec<Op>,
    /// Ops the peephole optimizer rewrote or moved: constant folds, ops
    /// hoisted into `pre`, deduplicated context reads and coalesced copies.
    /// Feeds `vgpu.tape.optimized_ops`.
    pub(crate) optimized_ops: u32,
    /// Reconvergence metadata for the warp interpreter, parallel to `ops`:
    /// `joins[pc]` is the immediate postdominator of the conditional branch
    /// at `pc` — the first instruction every lane reaches again no matter
    /// which side of the branch it took — `ops.len()` when the branch's
    /// paths only meet again at `Ret`/`Halt`, and [`NO_JOIN`] on non-branch
    /// ops. Computed by [`compute_joins`] on the final optimized tape and
    /// held to the join rule by [`validate`].
    pub(crate) joins: Vec<u32>,
    /// Ops absorbed into superinstructions by [`crate::compile::fuse`]
    /// (beyond the first of each window). Feeds `vgpu.tape.fused_ops`.
    pub(crate) fused_ops: u32,
    /// Number of global access sites (`max site + 1`) — sizes the per-site
    /// bounds-check table of [`Licence`].
    pub(crate) nsites: u32,
    /// Width of every register, fixed where it is allocated: the warp
    /// register file keeps `r` as a `u64` row when `wide[r]` (`F64`, the
    /// internal i64 registers), otherwise as a packed `u32` row ([`File`]).
    /// [`validate`] holds every op to it.
    pub(crate) wide: Vec<bool>,
    /// The links of every [`Op::LdGSum`].
    pub(crate) links: Vec<Link>,
}

impl Compiled {
    /// Number of barrier-delimited phases.
    pub(crate) fn phases(&self) -> usize {
        self.phase_starts.len()
    }

    /// The links of an [`Op::LdGSum`] (none out of range: [`validate`]).
    pub(crate) fn chain(&self, op: &Op) -> &[Link] {
        let Op::LdGSum { at, n, .. } = *op else { return &[] };
        self.links.get(at as usize..(at + n) as usize).unwrap_or_default()
    }

    /// Visits every register `op` reads, an [`Op::LdGSum`]'s links included.
    pub(crate) fn srcs(&self, op: &Op, f: &mut impl FnMut(R)) {
        visit_srcs(op, f);
        for link in self.chain(op) {
            f(link.base);
            link.off.iter().for_each(|&(o, _)| f(o));
        }
    }
}

/// Static kind state of a scalar slot during compilation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sk {
    Unset,
    Known(K),
    Conflict,
}

fn merge_sk(a: Sk, b: Sk) -> Sk {
    if a == b {
        a
    } else {
        Sk::Conflict
    }
}

struct Cc<'a> {
    prep: &'a Prepared,
    ops: Vec<Op>,
    /// Width of every register allocated so far ([`Compiled::wide`]).
    wide: Vec<bool>,
    slots: Vec<Sk>,
    /// Per scalar slot: whether a declaration has fixed the width of its own
    /// register, and the register that holds it at the other width, if any.
    twins: Vec<(bool, Option<R>)>,
    flops: u32,
    /// Each slot's constant i32 value (a launch-constant argument
    /// [`compile_under`] substitutes, or an unrolled loop's counter in one
    /// copy) and one `Const` register per value; the slots local to the copy
    /// being compiled and their registers in it, per width.
    subst: Vec<Option<i32>>,
    consts: Vec<(i32, R)>,
    fresh: Vec<Option<[Option<R>; 2]>>,
    /// With `regs`, each private array's element registers once declared,
    /// and the ops zeroing them ([`finish`] drops the ones overwritten).
    regs: bool,
    elems: Vec<Option<Vec<R>>>,
    zeroes: Vec<usize>,
    /// Branch arms and rolled loop bodies entered (a declaration inside one
    /// may not reach every read), and whether a substituted value mattered.
    depth: u32,
    specialised: bool,
}

impl<'a> Cc<'a> {
    fn temp(&mut self, wide: bool) -> R {
        self.wide.push(wide);
        (self.wide.len() - 1) as R
    }

    /// The register that holds scalar slot `slot` at kind `k`. The first
    /// declaration fixes the width of the slot's own register; a variable
    /// re-declared at the other width lives on in a twin temporary, so no
    /// register is ever used at two widths.
    fn slot_reg(&mut self, slot: usize, k: K) -> R {
        // A variable local to an unrolled loop's copy: registers of its own
        // per copy and width, temporaries to value numbering.
        if let Some(mut regs) = self.fresh[slot] {
            let r = *regs[k.wide() as usize].get_or_insert_with(|| self.temp(k.wide()));
            self.fresh[slot] = Some(regs);
            return r;
        }
        if !std::mem::replace(&mut self.twins[slot].0, true) {
            self.wide[slot] = k.wide();
        }
        if self.wide[slot] == k.wide() {
            return slot as R;
        }
        let twin = self.twins[slot].1.unwrap_or_else(|| self.temp(k.wide()));
        self.twins[slot].1 = Some(twin);
        twin
    }

    fn flush(&mut self) {
        if self.flops > 0 {
            let n = self.flops;
            self.ops.push(Op::Flops { n });
            self.flops = 0;
        }
    }

    fn here(&self) -> u32 {
        self.ops.len() as u32
    }

    fn patch(&mut self, at: u32, t: u32) {
        *jump_target_mut(&mut self.ops[at as usize]).expect("patch target is a jump") = t;
    }

    fn cast(&mut self, r: R, from: K, to: K) -> R {
        if from == to {
            return r;
        }
        let dst = self.temp(to.wide());
        self.ops.push(Op::Cast { dst, src: r, from, to });
        dst
    }

    fn as_i64(&mut self, r: R, from: K) -> R {
        let dst = self.temp(true);
        self.ops.push(Op::AsI64 { dst, src: r, from });
        dst
    }

    /// The index register of an access to `mem`: a global access reads an
    /// i32 index as it is, every other index is widened.
    fn index(&mut self, mem: &PMem, r: R, k: K) -> R {
        match (mem, k) {
            (PMem::Param(_), K::I32) => r,
            _ => self.as_i64(r, k),
        }
    }

    /// Promoted kind under C's usual arithmetic conversions.
    fn promote_k(ka: K, kb: K) -> K {
        if ka == K::F64 || kb == K::F64 {
            K::F64
        } else if ka == K::F32 || kb == K::F32 {
            K::F32
        } else {
            K::I32
        }
    }

    /// `e`'s value when it is a literal or a substituted slot.
    fn konst(&self, e: &PExpr) -> Option<i64> {
        match e {
            PExpr::Lit(v) => Some(v.as_i64()),
            PExpr::Var(s) => self.subst[*s].map(i64::from),
            _ => None,
        }
    }

    /// The register of element `idx` of private array `arr`, when `idx` is
    /// a constant in range of a declared array.
    fn elem(&self, arr: usize, idx: &PExpr) -> Result<(R, K), String> {
        let i = self.konst(idx).and_then(|i| usize::try_from(i).ok());
        match self.elems[arr].as_ref().zip(i).and_then(|(e, i)| e.get(i)) {
            Some(&r) => Ok((r, kk(self.prep.priv_kinds[arr])?)),
            None => Err(format!("private array {arr} is indexed at run time")),
        }
    }

    fn expr(&mut self, e: &PExpr) -> Result<(R, K), String> {
        Ok(match e {
            // One register per value, which value numbering sees repeat (a
            // `Const` always moves to the prelude).
            PExpr::Var(s) if self.subst[*s].is_some() => {
                let x = self.subst[*s].unwrap_or(0);
                if let Some(&(_, r)) = self.consts.iter().find(|c| c.0 == x) {
                    return Ok((r, K::I32));
                }
                let dst = self.temp(false);
                self.ops.push(Op::Const { dst, bits: bi32(x) });
                self.consts.push((x, dst));
                (dst, K::I32)
            }
            PExpr::Load { mem: PMem::Priv(a), idx, .. } if self.regs => self.elem(*a, idx)?,
            PExpr::Lit(v) => {
                let (k, bits) = value_bits(*v);
                let dst = self.temp(k.wide());
                self.ops.push(Op::Const { dst, bits });
                (dst, k)
            }
            PExpr::Var(s) => match self.slots[*s] {
                Sk::Known(k) => (self.slot_reg(*s, k), k),
                Sk::Unset => return Err(format!("slot {s} read before any declaration")),
                Sk::Conflict => {
                    return Err(format!("slot {s} has branch-dependent kind at a read"))
                }
            },
            PExpr::GlobalId(d) => {
                let dst = self.temp(false);
                self.ops.push(Op::Gid { dst, dim: *d });
                (dst, K::I32)
            }
            PExpr::GlobalSize(d) => {
                let dst = self.temp(false);
                self.ops.push(Op::Gsz { dst, dim: *d });
                (dst, K::I32)
            }
            PExpr::LocalId(d) => {
                let dst = self.temp(false);
                self.ops.push(Op::Lid { dst, dim: *d });
                (dst, K::I32)
            }
            PExpr::LocalSize(d) => {
                let dst = self.temp(false);
                self.ops.push(Op::Lsz { dst, dim: *d });
                (dst, K::I32)
            }
            PExpr::GroupId(d) => {
                let dst = self.temp(false);
                self.ops.push(Op::Grp { dst, dim: *d });
                (dst, K::I32)
            }
            PExpr::Load { mem, idx, site, space } => {
                let (ri, ki) = self.expr(idx)?;
                let ri = self.index(mem, ri, ki);
                let k = kk(match mem {
                    PMem::Param(p) => self.prep.params[*p].kind,
                    PMem::Priv(a) => self.prep.priv_kinds[*a],
                    PMem::Local(a) => self.prep.local_kinds[*a],
                })?;
                let dst = self.temp(k.wide());
                match mem {
                    PMem::Param(p) => {
                        let constant = matches!(space, MemSpace::Constant);
                        self.ops.push(Op::LdG {
                            dst,
                            buf: *p as u16,
                            base: ri,
                            off: None,
                            site: *site,
                            constant,
                        });
                    }
                    PMem::Priv(a) => self.ops.push(Op::LdP { dst, arr: *a as u16, idx: ri }),
                    PMem::Local(a) => self.ops.push(Op::LdL { dst, arr: *a as u16, idx: ri }),
                }
                (dst, k)
            }
            PExpr::Bin(op, a, b) => {
                let (ra, ka) = self.expr(a)?;
                let (rb, kb) = self.expr(b)?;
                match op {
                    BinOp::And | BinOp::Or => {
                        let dst = self.temp(false);
                        self.ops.push(Op::Logic {
                            dst,
                            a: ra,
                            b: rb,
                            ka,
                            kb,
                            or: matches!(op, BinOp::Or),
                        });
                        (dst, K::Bool)
                    }
                    BinOp::Rem => {
                        let k = Self::promote_k(ka, kb);
                        if k != K::I32 {
                            return Err("% on float operands".into());
                        }
                        let ra = self.cast(ra, ka, k);
                        let rb = self.cast(rb, kb, k);
                        let dst = self.temp(false);
                        self.ops.push(Op::Bin { dst, a: ra, b: rb, op: *op, k });
                        (dst, k)
                    }
                    _ => {
                        let k = Self::promote_k(ka, kb);
                        let ra = self.cast(ra, ka, k);
                        let rb = self.cast(rb, kb, k);
                        if op.is_flop() && (ka.is_float() || kb.is_float()) {
                            self.flops += 1;
                        }
                        let kd = if op.is_predicate() { K::Bool } else { k };
                        let dst = self.temp(kd.wide());
                        self.ops.push(Op::Bin { dst, a: ra, b: rb, op: *op, k });
                        (dst, kd)
                    }
                }
            }
            PExpr::Un(op, a) => {
                let (ra, ka) = self.expr(a)?;
                let dst = self.temp(matches!(op, UnOp::Neg) && ka.wide());
                match op {
                    UnOp::Neg => {
                        self.ops.push(Op::Neg { dst, src: ra, k: ka });
                        (dst, if ka == K::Bool { K::I32 } else { ka })
                    }
                    UnOp::Not => {
                        self.ops.push(Op::Not { dst, src: ra, k: ka });
                        (dst, K::Bool)
                    }
                }
            }
            PExpr::Select(c, t, f) => {
                let (rc, kc) = self.expr(c)?;
                self.flush();
                let dst = self.temp(false);
                let jz = self.here();
                self.ops.push(Op::Jz { cond: rc, k: kc, target: 0 });
                let (rt, kt) = self.expr(t)?;
                self.flush();
                self.ops.push(Op::Mov { dst, src: rt });
                let jmp = self.here();
                self.ops.push(Op::Jmp { target: 0 });
                let else_at = self.here();
                self.patch(jz, else_at);
                let (rf, kf) = self.expr(f)?;
                self.flush();
                self.ops.push(Op::Mov { dst, src: rf });
                let end = self.here();
                self.patch(jmp, end);
                if kt != kf {
                    return Err("select branches have different kinds".into());
                }
                self.wide[dst as usize] = kt.wide();
                (dst, kt)
            }
            PExpr::Call(intr, args) => {
                let mut rs = Vec::with_capacity(args.len());
                for a in args {
                    rs.push(self.expr(a)?);
                }
                match intr {
                    Intrinsic::Sqrt
                    | Intrinsic::Fabs
                    | Intrinsic::Exp
                    | Intrinsic::Log
                    | Intrinsic::Sin
                    | Intrinsic::Cos => {
                        let (r0, k0) = rs[0];
                        self.flops += match intr {
                            Intrinsic::Fabs => 0,
                            _ => 4,
                        };
                        let (src, k) = if k0 == K::F32 {
                            (r0, K::F32)
                        } else {
                            (self.cast(r0, k0, K::F64), K::F64)
                        };
                        let dst = self.temp(k.wide());
                        self.ops.push(Op::Intr1 { dst, src, intr: *intr, k });
                        (dst, k)
                    }
                    Intrinsic::Min | Intrinsic::Max => {
                        let (r0, k0) = rs[0];
                        let (r1, k1) = rs[1];
                        if k0.is_float() {
                            self.flops += 1;
                        }
                        let k = Self::promote_k(k0, k1);
                        let a = self.cast(r0, k0, k);
                        let b = self.cast(r1, k1, k);
                        let dst = self.temp(k.wide());
                        self.ops.push(Op::MinMax {
                            dst,
                            a,
                            b,
                            k,
                            max: matches!(intr, Intrinsic::Max),
                        });
                        (dst, k)
                    }
                    Intrinsic::Fma => {
                        // Unfused a*b + c in the promoted precision of (a, b):
                        // f32 when both promote to f32, otherwise f64 — the
                        // tree-walker's exact arm structure. Two flops.
                        let (r0, k0) = rs[0];
                        let (r1, k1) = rs[1];
                        let (r2, k2) = rs[2];
                        self.flops += 2;
                        let k = if Self::promote_k(k0, k1) == K::F32 { K::F32 } else { K::F64 };
                        let a = self.cast(r0, k0, k);
                        let b = self.cast(r1, k1, k);
                        let c = self.cast(r2, k2, k);
                        let t = self.temp(k.wide());
                        self.ops.push(Op::Bin { dst: t, a, b, op: BinOp::Mul, k });
                        let dst = self.temp(k.wide());
                        self.ops.push(Op::Bin { dst, a: t, b: c, op: BinOp::Add, k });
                        (dst, k)
                    }
                }
            }
            PExpr::Cast(kind, a) => {
                let (ra, ka) = self.expr(a)?;
                let k = kk(*kind)?;
                (self.cast(ra, ka, k), k)
            }
        })
    }

    fn stmts(&mut self, stmts: &[PStmt]) -> Result<(), String> {
        for s in stmts {
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &PStmt) -> Result<(), String> {
        match s {
            PStmt::DeclScalar { slot, kind, init } => {
                let k = kk(*kind)?;
                match init {
                    Some(e) => {
                        let (r, ke) = self.expr(e)?;
                        let r = self.cast(r, ke, k);
                        let dst = self.slot_reg(*slot, k);
                        self.ops.push(Op::Mov { dst, src: r });
                    }
                    None => {
                        let dst = self.slot_reg(*slot, k);
                        self.ops.push(Op::Const { dst, bits: 0 });
                    }
                }
                self.slots[*slot] = Sk::Known(k);
            }
            PStmt::Assign { slot, value } => {
                let k = match self.slots[*slot] {
                    Sk::Known(k) => k,
                    _ => return Err(format!("assignment to slot {slot} of unknown kind")),
                };
                let (r, ke) = self.expr(value)?;
                let r = self.cast(r, ke, k);
                let dst = self.slot_reg(*slot, k);
                self.ops.push(Op::Mov { dst, src: r });
            }
            PStmt::DeclPriv { arr, kind, len } if self.regs => {
                let n = self.konst(len).filter(|n| (0..=UNROLL).contains(n) && self.depth == 0);
                let wide = kk(*kind)?.wide();
                let regs = match (n, &self.elems[*arr]) {
                    (Some(n), None) => (0..n).map(|_| self.temp(wide)).collect(),
                    (Some(n), Some(e)) if e.len() as i64 == n => e.clone(),
                    _ => return Err(format!("private array {arr} stays an array")),
                };
                self.zeroes.extend(self.here() as usize..self.here() as usize + regs.len());
                self.ops.extend(regs.iter().map(|&dst| Op::Const { dst, bits: 0 }));
                self.elems[*arr] = Some(regs);
                self.specialised |= !matches!(len, PExpr::Lit(_));
            }
            PStmt::Store { mem: PMem::Priv(a), idx, value, .. } if self.regs => {
                let (dst, k) = self.elem(*a, idx)?;
                let (rv, kv) = self.expr(value)?;
                let src = self.cast(rv, kv, k);
                self.ops.push(Op::Mov { dst, src });
            }
            PStmt::DeclPriv { arr, len, .. } => {
                let (rl, kl) = self.expr(len)?;
                let rl = self.as_i64(rl, kl);
                self.ops.push(Op::DeclPriv { arr: *arr as u16, len: rl });
            }
            PStmt::DeclLocal { arr, len, .. } => {
                let (rl, kl) = self.expr(len)?;
                let rl = self.as_i64(rl, kl);
                self.ops.push(Op::DeclLocal { arr: *arr as u16, len: rl });
            }
            PStmt::Store { mem, idx, value, site, space: _ } => {
                let (ri, ki) = self.expr(idx)?;
                let ri = self.index(mem, ri, ki);
                let (rv, kv) = self.expr(value)?;
                match mem {
                    PMem::Param(p) => {
                        self.ops.push(Op::StG {
                            buf: *p as u16,
                            idx: ri,
                            val: rv,
                            vk: kv,
                            site: *site,
                        });
                    }
                    PMem::Priv(a) => {
                        let k = kk(self.prep.priv_kinds[*a])?;
                        self.ops.push(Op::StP { arr: *a as u16, idx: ri, val: rv, vk: kv, k });
                    }
                    PMem::Local(a) => {
                        let k = kk(self.prep.local_kinds[*a])?;
                        self.ops.push(Op::StL { arr: *a as u16, idx: ri, val: rv, vk: kv, k });
                    }
                }
            }
            PStmt::For { slot, begin, end, step, body } => {
                if self.unroll(*slot, [begin, end, step], body)? {
                    return Ok(());
                }
                let (rb, kb) = self.expr(begin)?;
                let rb = self.as_i64(rb, kb);
                let (re, ke) = self.expr(end)?;
                let re = self.as_i64(re, ke);
                let (rs, ks) = self.expr(step)?;
                let rs = self.as_i64(rs, ks);
                self.ops.push(Op::MaxOne { dst: rs });
                let ri = self.temp(true);
                self.ops.push(Op::Mov { dst: ri, src: rb });
                self.flush();
                let head = self.here();
                self.ops.push(Op::JgeI64 { a: ri, b: re, target: 0 });
                let var = self.slot_reg(*slot, K::I32);
                self.ops.push(Op::I64ToI32 { dst: var, src: ri });
                let pre = self.slots.clone();
                self.slots[*slot] = Sk::Known(K::I32);
                let entry = self.slots.clone();
                self.depth += 1;
                self.stmts(body)?;
                self.depth -= 1;
                self.flush();
                self.ops.push(Op::AddI64 { dst: ri, a: ri, b: rs });
                self.ops.push(Op::Jmp { target: head });
                let end_at = self.here();
                self.patch(head, end_at);
                // A later iteration re-enters the body with the kinds the
                // previous one left behind; reject kernels where they differ
                // from the kinds the emitted ops assumed.
                for s in 0..self.slots.len() {
                    if let (Sk::Known(k1), Sk::Known(k2)) = (entry[s], self.slots[s]) {
                        if k1 != k2 {
                            return Err(format!("loop body changes kind of slot {s}"));
                        }
                    }
                    self.slots[s] = merge_sk(pre[s], self.slots[s]);
                }
            }
            PStmt::If { cond, then_, else_ } => {
                // Constant conditions (e.g. lowered comments) take one branch
                // statically; the tree-walker's Lit eval has no side effects.
                if let PExpr::Lit(v) = cond {
                    return self.stmts(if v.truthy() { then_ } else { else_ });
                }
                let (rc, kc) = self.expr(cond)?;
                self.flush();
                let jz = self.here();
                self.ops.push(Op::Jz { cond: rc, k: kc, target: 0 });
                let saved = self.slots.clone();
                self.depth += 1;
                self.stmts(then_)?;
                self.flush();
                // Without an `else` the arm falls through to the join: no jump.
                let jmp = (!else_.is_empty()).then(|| self.here());
                if jmp.is_some() {
                    self.ops.push(Op::Jmp { target: 0 });
                }
                let else_at = self.here();
                self.patch(jz, else_at);
                let after_then = std::mem::replace(&mut self.slots, saved);
                self.stmts(else_)?;
                self.depth -= 1;
                self.flush();
                if let Some(jmp) = jmp {
                    let end = self.here();
                    self.patch(jmp, end);
                }
                for (slot, &then_sk) in self.slots.iter_mut().zip(&after_then) {
                    *slot = merge_sk(then_sk, *slot);
                }
            }
            PStmt::Return => {
                self.flush();
                self.ops.push(Op::Ret);
            }
            PStmt::Barrier => return Err("barrier inside a phase".into()),
        }
        Ok(())
    }

    /// Emits a loop of constant bounds and at most [`UNROLL`] trips once per
    /// trip, its counter a constant in each copy; false when the loop stays
    /// rolled.
    fn unroll(&mut self, slot: usize, bounds: [&PExpr; 3], body: &[PStmt]) -> Result<bool, String> {
        let [b, e, s] = bounds.map(|x| self.konst(x));
        let (Some(b), Some(e), Some(s)) = (b, e, s.map(|s| s.max(1))) else { return Ok(false) };
        let trips = if b < e { (e.saturating_sub(b) - 1) / s + 1 } else { 0 };
        // The counter stays unreadable after the loop, as after a rolled one.
        let mut hidden = !matches!(self.slots[slot], Sk::Known(_));
        each_stmt(body, &mut |s| hidden &= written(s) != Some(slot));
        if trips > UNROLL || !hidden {
            return Ok(false);
        }
        let pre = self.slots.clone();
        let new: Vec<usize> = (0..pre.len()).filter(|&s| !matches!(pre[s], Sk::Known(_))).collect();
        let outer = self.fresh.clone();
        self.slots[slot] = Sk::Known(K::I32);
        for t in 0..trips {
            new.iter().for_each(|&s| self.fresh[s] = Some([None; 2]));
            self.subst[slot] = Some((b + t * s) as i32);
            self.stmts(body)?;
        }
        self.fresh = outer;
        self.subst[slot] = None;
        self.specialised |= bounds.iter().any(|x| !matches!(x, PExpr::Lit(_)));
        for (now, pre) in self.slots.iter_mut().zip(pre) {
            *now = merge_sk(pre, *now);
        }
        Ok(true)
    }
}

/// Most trips a loop unrolls, and most elements a private array keeps in
/// registers.
const UNROLL: i64 = 8;

/// Launch-constant i32 arguments, as (slot, bits).
pub(crate) type Known = [(usize, u64)];

/// Calls `f` on every statement of `stmts`, a nested one after its parent.
fn each_stmt<'p>(stmts: &'p [PStmt], f: &mut impl FnMut(&'p PStmt)) {
    for s in stmts {
        f(s);
        match s {
            PStmt::For { body, .. } => each_stmt(body, f),
            PStmt::If { then_, else_, .. } => [then_, else_].iter().for_each(|b| each_stmt(b, f)),
            _ => {}
        }
    }
}

/// The slot a statement declares, assigns or counts a loop with.
fn written(s: &PStmt) -> Option<usize> {
    let (PStmt::DeclScalar { slot, .. } | PStmt::Assign { slot, .. } | PStmt::For { slot, .. }) = s
    else {
        return None;
    };
    Some(*slot)
}

/// The slots [`compile_under`] substitutes: the i32 scalar arguments the
/// kernel never writes that a loop bound or a private array's length is.
pub(crate) fn launch_constant_slots(prep: &Prepared) -> Vec<usize> {
    let (mut bounds, mut writes) = (Vec::new(), Vec::new());
    for phase in &prep.phases {
        each_stmt(phase, &mut |s| {
            match s {
                PStmt::For { begin, end, step, .. } => bounds.extend([begin, end, step]),
                PStmt::DeclPriv { len, .. } => bounds.push(len),
                _ => {}
            }
            writes.extend(written(s));
        });
    }
    let bound = |s: &usize| bounds.iter().any(|e| matches!(e, PExpr::Var(v) if v == s));
    let args = prep.params.iter().zip(&prep.scalar_slots).filter(|a| a.0.kind == ScalarKind::I32);
    args.filter_map(|a| *a.1).filter(|s| bound(s) && !writes.contains(s)).collect()
}

/// Compiles a prepared kernel into a tape with the i32 slots `known`
/// substituted, or explains why it cannot be compiled ([`crate::exec::prepare`]
/// substitutes none and fails with that reason). A loop of constant bounds
/// and at most [`UNROLL`] trips [`Cc::unroll`]s, and a private array declared
/// outside branches and rolled loops with a constant length of at most
/// [`UNROLL`] is one register per element — unless an access has a run-time
/// index, which keeps every array an array. Also says whether a substituted
/// value decided an unroll or a register array.
pub(crate) fn compile(prep: &Prepared, known: &Known) -> Result<(Compiled, bool), String> {
    let run = |regs| {
        let mut cc = Cc::new(prep, known, regs);
        finish(&mut cc).map(|c| (c, cc.specialised))
    };
    run(true).or_else(|_| run(false))
}

/// `prep`'s tape specialised on the launch-constant i32 arguments `known`
/// ([`launch_constant_slots`]); `None` when no loop unrolls and no array
/// moves to registers on them (the generic tape serves) or it fails.
pub(crate) fn compile_under(prep: &Prepared, known: &Known) -> Option<Compiled> {
    compile(prep, known).ok().filter(|c| c.1).map(|c| c.0)
}

impl<'a> Cc<'a> {
    fn new(prep: &'a Prepared, known: &Known, regs: bool) -> Self {
        let n = prep.nslots;
        let mut subst = vec![None; n];
        known.iter().for_each(|&(s, bits)| subst[s] = Some(i32v(bits)));
        Cc {
            prep,
            ops: Vec::new(),
            wide: vec![false; n],
            slots: vec![Sk::Unset; n],
            twins: vec![(false, None); n],
            flops: 0,
            subst,
            consts: Vec::new(),
            fresh: vec![None; n],
            regs,
            elems: vec![None; prep.npriv],
            zeroes: Vec::new(),
            depth: 0,
            specialised: false,
        }
    }
}

fn finish(cc: &mut Cc<'_>) -> Result<Compiled, String> {
    let prep = cc.prep;
    for (p, s) in prep.params.iter().zip(&prep.scalar_slots) {
        if let Some(slot) = s {
            let k = kk(p.kind)?;
            cc.slots[*slot] = Sk::Known(k);
            cc.slot_reg(*slot, k);
        }
    }
    let mut phase_starts = Vec::with_capacity(prep.phases.len());
    for phase in &prep.phases {
        phase_starts.push(cc.here());
        cc.stmts(phase)?;
        cc.flush();
        cc.ops.push(Op::Halt);
    }
    if cc.wide.len() > (u32::MAX / 2) as usize {
        return Err("register file overflow".into());
    }
    let nregs = cc.wide.len();
    let (ops, wide) = (std::mem::take(&mut cc.ops), std::mem::take(&mut cc.wide));
    let mut c = Compiled { ops, phase_starts, nregs, wide, ..Compiled::default() };
    let (leader, mut dead) = (block_leaders(&c), vec![false; c.ops.len()]);
    for &z in &cc.zeroes {
        let r = op_dst(&c.ops[z]).expect("a zero writes its element");
        let next = (z + 1..c.ops.len())
            .find(|&q| leader[q] || reads_reg(&c.ops[q], r) || op_dst(&c.ops[q]) == Some(r));
        dead[z] = next.is_some_and(|q| !leader[q] && !reads_reg(&c.ops[q], r));
    }
    compact(&mut c, &dead);
    optimize(&mut c, prep.nslots, &prep.scalar_slots);
    c.nsites = c
        .ops
        .iter()
        .map(|op| match *op {
            Op::LdG { site, .. } | Op::StG { site, .. } => site + 1,
            _ => 0,
        })
        .max()
        .unwrap_or(0);
    crate::compile::fuse(&mut c);
    number_values(&mut c, prep.nslots);
    crate::compile::fuse_sums(&mut c, |buf| kk(prep.params.get(buf as usize)?.kind).ok());
    // Branch reconvergence points for the warp executor, computed on the
    // final op stream (every pass has already remapped its targets), then
    // checked with everything else the executor trusts; the lane shapes of
    // each launch shape read them.
    c.joins = compute_joins(&c.ops);
    if !validate(&c, prep) {
        // Never expected: the compiler allocated every operand itself and
        // emits structured control flow only. Failing the compilation beats
        // trusting a tape the check rejected.
        return Err("tape validation failed".into());
    }
    Ok(c)
}

/// `joins[pc]` of an op that is not a conditional branch. [`compute_joins`]
/// also leaves it on a branch that cannot reach the end of the tape, and
/// [`validate`] rejects such a tape.
pub(crate) const NO_JOIN: u32 = u32::MAX;

/// Immediate postdominators of the tape's conditional branches — the warp
/// interpreter's reconvergence points. The tape's control-flow graph is one
/// node per op (successors: fall-through, jump targets, or a shared virtual
/// exit after `Ret`/`Halt`); postdominators are computed by the standard
/// iterative algorithm of Cooper–Harvey–Kennedy run on the reversed graph,
/// which the tape's size (hundreds of ops) makes effectively linear. The
/// result is exact for arbitrary reducible control flow, so it covers the
/// structured `If`/`Select` diamonds and `For` loops the compiler emits —
/// including branches whose only meeting point is the virtual exit (a `Ret`
/// inside one arm), which map to `ops.len()`.
pub(crate) fn compute_joins(ops: &[Op]) -> Vec<u32> {
    let n = ops.len();
    let exit = n; // virtual exit node shared by every `Ret`/`Halt`
    let succs = |pc: usize| {
        let end = matches!(ops[pc], Op::Ret | Op::Halt).then_some(exit);
        successors(&ops[pc], pc).chain(end)
    };
    // Predecessor lists of the original graph double as successor lists of
    // the reversed graph, whose dominator tree is the postdominator tree.
    let mut preds: Vec<Vec<u32>> = vec![Vec::new(); n + 1];
    for pc in 0..n {
        for s in succs(pc) {
            preds[s].push(pc as u32);
        }
    }
    // Iterative DFS postorder over the reversed graph from the exit. Ops
    // that cannot reach the exit (an infinite loop, which the structured
    // compiler never emits) stay unvisited and keep `NO_JOIN`.
    let mut order: Vec<usize> = Vec::with_capacity(n + 1);
    let mut seen = vec![false; n + 1];
    let mut stack: Vec<(usize, usize)> = vec![(exit, 0)];
    seen[exit] = true;
    while let Some(&mut (v, ref mut i)) = stack.last_mut() {
        if let Some(&u) = preds[v].get(*i) {
            *i += 1;
            if !seen[u as usize] {
                seen[u as usize] = true;
                stack.push((u as usize, 0));
            }
        } else {
            order.push(v);
            stack.pop();
        }
    }
    let mut po = vec![usize::MAX; n + 1];
    for (i, &v) in order.iter().enumerate() {
        po[v] = i;
    }
    let mut ipdom = vec![usize::MAX; n + 1];
    ipdom[exit] = exit;
    let intersect = |ipdom: &[usize], mut a: usize, mut b: usize| {
        while a != b {
            while po[a] < po[b] {
                a = ipdom[a];
            }
            while po[b] < po[a] {
                b = ipdom[b];
            }
        }
        a
    };
    let mut changed = true;
    while changed {
        changed = false;
        // Reverse postorder of the reversed graph; only successors already
        // assigned an ipdom participate in the intersection.
        for &v in order.iter().rev() {
            if v == exit {
                continue;
            }
            let mut new = usize::MAX;
            for s in succs(v) {
                if ipdom[s] != usize::MAX {
                    new = if new == usize::MAX { s } else { intersect(&ipdom, new, s) };
                }
            }
            if new != usize::MAX && ipdom[v] != new {
                ipdom[v] = new;
                changed = true;
            }
        }
    }
    let mut joins = vec![NO_JOIN; n];
    for (pc, join) in joins.iter_mut().enumerate() {
        if is_branch(&ops[pc]) && ipdom[pc] != usize::MAX {
            *join = ipdom[pc] as u32;
        }
    }
    joins
}

/// One-time structural check run at compile time: every register operand in
/// the main tape and the prelude is below `nregs`, every jump target and
/// phase entry is inside the tape, the tape is non-empty, every conditional
/// branch jumps forward to at most its join, and every op uses every
/// register at the one width [`Compiled::wide`] records for it
/// ([`widths_ok`]). The warp executor relies on this to elide per-access
/// register bounds checks and the fetch bounds check, and to read a row at
/// the width it was written.
fn validate(c: &Compiled, prep: &Prepared) -> bool {
    // The tape must end in a terminator: `pc` only moves past non-final ops
    // (a fall-through at the final op would run off the end) or to a
    // validated jump target, so the program counter can never leave the
    // tape. `WarpExec::run` elides the fetch bounds check on this basis.
    let mut ok = matches!(c.ops.last(), Some(Op::Ret | Op::Halt)) && c.wide.len() == c.nregs;
    for op in c.ops.iter().chain(&c.pre).chain(&c.item_pre) {
        let mut in_file = op_dst(op).is_none_or(|d| (d as usize) < c.nregs);
        c.srcs(op, &mut |r| in_file &= (r as usize) < c.nregs);
        ok &= in_file && widths_ok(op, c, prep);
        if let Some(target) = jump_target(op) {
            ok &= (target as usize) < c.ops.len();
        }
    }
    for &s in &c.phase_starts {
        ok &= (s as usize) < c.ops.len();
    }
    // The join rule: a conditional branch at `pc` has `pc < target ≤
    // joins[pc] ≤ ops.len()` (`ops.len()`: its paths meet only at
    // `Ret`/`Halt`), every other op `NO_JOIN`. `WarpExec::branch` runs a
    // divergent branch's sides up to the join and continues there.
    ok &= c.joins.len() == c.ops.len();
    for (pc, (op, &join)) in c.ops.iter().zip(&c.joins).enumerate() {
        ok &= match jump_target(op).filter(|_| is_branch(op)) {
            Some(target) => pc < target as usize && target <= join && join as usize <= c.ops.len(),
            None => join == NO_JOIN,
        };
    }
    ok
}

/// The one-width rule for one op, its registers being inside `wide`: an
/// operand of kind `k` is a register of `k`'s width, an i64 operand (private
/// and local indices, lengths, loop counters) a wide one, a global index
/// either (an i32 or an i64, and only an i32 `base` has an `off`, itself an
/// i32), a loaded value has its memory's element width, and the untyped
/// `Mov` moves bits between registers of one width. An `LdGSum`'s links lie
/// inside [`Compiled::links`], their indices i32, and its `dst` and `src`
/// have its buffer's element width.
fn widths_ok(op: &Op, c: &Compiled, prep: &Prepared) -> bool {
    let w = |r: R| c.wide[r as usize];
    let is = |r: R, k: K| w(r) == k.wide();
    let param = |buf: u16| kk(prep.params.get(buf as usize)?.kind).ok();
    let load = |dst: R, idx: R, kind: Option<K>| w(idx) && kind.is_some_and(|k| is(dst, k));
    let elem = |kinds: &[ScalarKind], arr: u16| kk(*kinds.get(arr as usize)?).ok();
    match *op {
        Op::Const { dst, bits } => w(dst) || bits >> 32 == 0,
        Op::Gid { dst, .. }
        | Op::Gsz { dst, .. }
        | Op::Lid { dst, .. }
        | Op::Lsz { dst, .. }
        | Op::Grp { dst, .. } => !w(dst),
        Op::Mov { dst, src } => w(dst) == w(src),
        Op::Cast { dst, src, from, to } => is(src, from) && is(dst, to),
        Op::AsI64 { dst, src, from } => w(dst) && is(src, from),
        Op::MaxOne { dst } => w(dst),
        Op::I64ToI32 { dst, src } => !w(dst) && w(src),
        Op::AddI64 { dst, a, b } => w(dst) && w(a) && w(b),
        Op::JgeI64 { a, b, .. } => w(a) && w(b),
        Op::Neg { dst, src, k } => is(src, k) && is(dst, k),
        Op::Intr1 { dst, src, k, .. } => k.is_float() && is(src, k) && is(dst, k),
        Op::Not { dst, src, k } => is(src, k) && !w(dst),
        Op::Bin { dst, a, b, op, k } => {
            is(a, k) && is(b, k) && w(dst) == (k.wide() && !op.is_predicate())
        }
        Op::Logic { dst, a, b, ka, kb, .. } => is(a, ka) && is(b, kb) && !w(dst),
        Op::MinMax { dst, a, b, k, .. } => is(a, k) && is(b, k) && is(dst, k),
        Op::LdG { dst, buf, base, off, .. } => {
            off.is_none_or(|(o, _)| !w(base) && !w(o)) && param(buf).is_some_and(|k| is(dst, k))
        }
        Op::LdP { dst, arr, idx } => load(dst, idx, elem(&prep.priv_kinds, arr)),
        Op::LdL { dst, arr, idx } => load(dst, idx, elem(&prep.local_kinds, arr)),
        Op::StG { val, vk, .. } => is(val, vk),
        Op::StP { idx, val, vk, .. } | Op::StL { idx, val, vk, .. } => w(idx) && is(val, vk),
        Op::DeclPriv { len, .. } | Op::DeclLocal { len, .. } => w(len),
        Op::Jz { cond, k, .. } => is(cond, k),
        Op::MulAdd { dst, a, b, c, k, .. } => is(a, k) && is(b, k) && is(c, k) && is(dst, k),
        Op::LdGSum { dst, buf, src, n, .. } => {
            let index = |l: &Link| !w(l.base) && l.off.is_none_or(|(o, _)| !w(o));
            let links = c.chain(op);
            let sum = |k| is(dst, k) && src.is_none_or(|s| is(s, k));
            links.len() == n as usize && links.iter().all(index) && param(buf).is_some_and(sum)
        }
        Op::CmpJz { a, b, k, .. } => is(a, k) && is(b, k),
        Op::Flops { .. } | Op::Jmp { .. } | Op::Ret | Op::Halt => true,
    }
}

// ---- peephole optimizer ----
//
// Four passes over the compiled tape, run once at compile time, in this
// order:
//
// 1. **Constant folding** — pure register ops whose operands are all
//    compile-time constants are rewritten to `Const`.
// 2. **Hoisting** — pure ops whose operands are item-invariant move to
//    `Compiled::pre` and execute once per register file instead of once per
//    work-item.
// 3. **Context CSE** — context reads (`Gid`, `Lid`, …) are deduplicated
//    into `Compiled::item_pre`, run once per work-item; jump targets and
//    phase entries are remapped around what moved.
// 4. **Copy coalescing** — a `Mov` out of a single-use temporary folds into
//    the temporary's producer; a `Mov` that is its destination's only
//    definition gives way to its source ([`coalesce_copies`]).
//
// Value numbering ([`number_values`]) runs later, on the fused tape.
// Branches stay branches: a pure `if` keeps its `Jz`, and the warp executor
// runs its arms under complementary masks and reconverges at the join. The
// passes never touch loads, stores, `Flops`, declarations, or control flow, so the observable semantics — buffer bits,
// all counters, the transaction trace, and sanitizer findings — are identical to
// the unoptimized tape. `Engine::Differential` enforces this against the
// tree-walker.

/// The tape pc a jump op may transfer control to.
#[inline(always)]
pub(crate) fn jump_target(op: &Op) -> Option<u32> {
    let mut op = *op;
    jump_target_mut(&mut op).copied()
}

fn jump_target_mut(op: &mut Op) -> Option<&mut u32> {
    match op {
        Op::Jmp { target }
        | Op::Jz { target, .. }
        | Op::CmpJz { target, .. }
        | Op::JgeI64 { target, .. } => Some(target),
        _ => None,
    }
}

/// True for the conditional branches: a fall-through and a jump successor,
/// and a join in [`Compiled::joins`].
pub(crate) fn is_branch(op: &Op) -> bool {
    matches!(op, Op::Jz { .. } | Op::CmpJz { .. } | Op::JgeI64 { .. })
}

/// The pcs control may pass to from the op at `pc` within its phase: the
/// fall-through, then the jump target. `Ret` and `Halt` have none.
pub(crate) fn successors(op: &Op, pc: usize) -> impl Iterator<Item = usize> {
    let falls = !matches!(op, Op::Jmp { .. } | Op::Ret | Op::Halt);
    falls.then_some(pc + 1).into_iter().chain(jump_target(op).map(|t| t as usize))
}

/// `leader[pc]`: a basic block starts at `pc` — a phase entry, a jump
/// target, or the op after a jump or terminator (`leader[len]` is the end).
pub(crate) fn block_leaders(c: &Compiled) -> Vec<bool> {
    let mut leader = vec![false; c.ops.len() + 1];
    for &p in &c.phase_starts {
        leader[p as usize] = true;
    }
    for (pc, op) in c.ops.iter().enumerate() {
        if let Some(target) = jump_target(op) {
            leader[target as usize] = true;
        }
        leader[pc + 1] |= jump_target(op).is_some() || matches!(op, Op::Ret | Op::Halt);
    }
    leader
}

/// The destination register an op writes, if any. `MaxOne` both reads and
/// writes its `dst`; callers that need read sets must also consult
/// [`visit_srcs`].
#[inline(always)]
pub(crate) fn op_dst(op: &Op) -> Option<R> {
    let mut op = *op;
    op_dst_mut(&mut op).copied()
}

/// The destination field itself, which copy coalescing retargets to fold a
/// `Mov` into its producer.
#[inline(always)]
fn op_dst_mut(op: &mut Op) -> Option<&mut R> {
    match op {
        Op::Const { dst, .. }
        | Op::Gid { dst, .. }
        | Op::Gsz { dst, .. }
        | Op::Lid { dst, .. }
        | Op::Lsz { dst, .. }
        | Op::Grp { dst, .. }
        | Op::Mov { dst, .. }
        | Op::Cast { dst, .. }
        | Op::AsI64 { dst, .. }
        | Op::MaxOne { dst }
        | Op::I64ToI32 { dst, .. }
        | Op::AddI64 { dst, .. }
        | Op::Neg { dst, .. }
        | Op::Not { dst, .. }
        | Op::Bin { dst, .. }
        | Op::Logic { dst, .. }
        | Op::MinMax { dst, .. }
        | Op::Intr1 { dst, .. }
        | Op::LdG { dst, .. }
        | Op::LdP { dst, .. }
        | Op::LdL { dst, .. }
        | Op::MulAdd { dst, .. }
        | Op::LdGSum { dst, .. } => Some(dst),
        Op::StG { .. }
        | Op::StP { .. }
        | Op::StL { .. }
        | Op::DeclPriv { .. }
        | Op::DeclLocal { .. }
        | Op::Flops { .. }
        | Op::Jmp { .. }
        | Op::JgeI64 { .. }
        | Op::Jz { .. }
        | Op::CmpJz { .. }
        | Op::Ret
        | Op::Halt => None,
    }
}

/// Visits every register an op reads but an [`Op::LdGSum`]'s links, which
/// [`Compiled::srcs`] adds.
pub(crate) fn visit_srcs(op: &Op, f: &mut impl FnMut(R)) {
    let mut op = *op;
    visit_srcs_mut(&mut op, &mut |r| f(*r));
}

/// True when `op` reads register `r`.
pub(crate) fn reads_reg(op: &Op, r: R) -> bool {
    let mut hit = false;
    visit_srcs(op, &mut |s| hit |= s == r);
    hit
}

/// Offers every source-register field for in-place rewriting (the
/// context-CSE pass redirects reads of duplicate context registers to the
/// canonical one, copy coalescing reads of a copy to its source).
fn visit_srcs_mut(op: &mut Op, f: &mut impl FnMut(&mut R)) {
    match op {
        Op::Mov { src, .. }
        | Op::Cast { src, .. }
        | Op::AsI64 { src, .. }
        | Op::I64ToI32 { src, .. }
        | Op::Neg { src, .. }
        | Op::Not { src, .. }
        | Op::Intr1 { src, .. } => f(src),
        Op::MaxOne { dst } => f(dst),
        Op::AddI64 { a, b, .. }
        | Op::JgeI64 { a, b, .. }
        | Op::CmpJz { a, b, .. }
        | Op::Bin { a, b, .. }
        | Op::Logic { a, b, .. }
        | Op::MinMax { a, b, .. } => {
            f(a);
            f(b);
        }
        Op::LdG { base, off, .. } => {
            f(base);
            if let Some((o, _)) = off {
                f(o);
            }
        }
        Op::LdP { idx, .. } | Op::LdL { idx, .. } => f(idx),
        Op::StG { idx, val, .. } | Op::StP { idx, val, .. } | Op::StL { idx, val, .. } => {
            f(idx);
            f(val);
        }
        Op::DeclPriv { len, .. } | Op::DeclLocal { len, .. } => f(len),
        Op::Jz { cond, .. } => f(cond),
        Op::MulAdd { a, b, c, .. } => {
            f(a);
            f(b);
            f(c);
        }
        Op::LdGSum { src, .. } => src.iter_mut().for_each(f),
        Op::Const { .. }
        | Op::Gid { .. }
        | Op::Gsz { .. }
        | Op::Lid { .. }
        | Op::Lsz { .. }
        | Op::Grp { .. }
        | Op::Flops { .. }
        | Op::Jmp { .. }
        | Op::Ret
        | Op::Halt => {}
    }
}

/// Number of writers of each register across the whole tape.
pub(crate) fn count_writers(ops: &[Op], nregs: usize) -> Vec<u32> {
    let mut w = vec![0u32; nregs];
    for op in ops {
        if let Some(d) = op_dst(op) {
            w[d as usize] += 1;
        }
    }
    w
}

/// Number of reads of each register across the tape and both preludes.
pub(crate) fn count_readers(c: &Compiled) -> Vec<u32> {
    let mut r = vec![0u32; c.nregs];
    for op in c.ops.iter().chain(&c.pre).chain(&c.item_pre) {
        c.srcs(op, &mut |s| r[s as usize] += 1);
    }
    r
}

/// Folds one op whose operands are all known constants into its result
/// bits, by running it ([`eval_pure`], the arithmetic of the prelude) on a
/// four-register file. Returns `None` for non-foldable ops, unknown
/// operands, and i32 `Div`/`Rem` cases that would trap at runtime (those
/// must keep trapping at their original site).
fn try_fold(op: &Op, constv: &[Option<u64>]) -> Option<(R, u64)> {
    match *op {
        Op::Bin { a, b, op: BinOp::Div | BinOp::Rem, k: K::I32, .. } => {
            let (p, q) = (i32v(constv[a as usize]?), i32v(constv[b as usize]?));
            if q == 0 || (p == i32::MIN && q == -1) {
                return None;
            }
        }
        Op::MinMax { k: K::Bool, .. } | Op::Const { .. } | Op::Gsz { .. } => return None,
        _ if !hoistable(op) => return None,
        _ => {}
    }
    let (mut op, mut regs, mut n) = (*op, [0u64; 4], 0);
    let mut known = true;
    visit_srcs_mut(&mut op, &mut |r| {
        known &= constv[*r as usize].is_some();
        regs[n] = constv[*r as usize].unwrap_or(0);
        (*r, n) = (n as R, n + 1);
    });
    let dst = std::mem::replace(op_dst_mut(&mut op)?, 3);
    known.then(|| {
        eval_pure(&op, &mut regs, [0; 3]);
        (dst, regs[3])
    })
}

/// True for pure register ops that are safe to hoist into the per-warp
/// prelude when their operands are item-invariant. Conservatively excludes
/// i32 `Div`/`Rem` (may trap) and every id-dependent, memory, counter, or
/// control op.
fn hoistable(op: &Op) -> bool {
    match op {
        Op::Bin { op: b, k, .. } => !(*k == K::I32 && matches!(b, BinOp::Div | BinOp::Rem)),
        Op::Const { .. }
        | Op::Gsz { .. }
        | Op::Mov { .. }
        | Op::Cast { .. }
        | Op::AsI64 { .. }
        | Op::I64ToI32 { .. }
        | Op::AddI64 { .. }
        | Op::Neg { .. }
        | Op::Not { .. }
        | Op::Logic { .. }
        | Op::MinMax { .. }
        | Op::Intr1 { .. } => true,
        _ => false,
    }
}

/// Runs the peephole passes on a freshly compiled tape. `nslots` is
/// the number of scalar-slot registers (slots may be re-initialised per
/// item and are never treated as constants or hoist destinations);
/// `arg_slots` are the slots launch arguments initialise (one entry per
/// kernel parameter, `None` for buffers).
// The passes walk `c.ops` by index while mutating the parallel `removed`
// mask and appending to `c.pre`/`c.item_pre`; iterator forms would need a
// second borrow of `c`.
#[allow(clippy::needless_range_loop)]
fn optimize(c: &mut Compiled, nslots: usize, arg_slots: &[Option<usize>]) {
    let writers = count_writers(&c.ops, c.nregs);
    let single_temp = |r: R| (r as usize) >= nslots && writers[r as usize] == 1;

    // Pass 1: constant folding to fixpoint. A register is constant when it
    // is a single-writer temporary whose writer is a `Const` op; codegen
    // guarantees such temporaries are written before every read.
    let mut constv: Vec<Option<u64>> = vec![None; c.nregs];
    loop {
        let mut changed = false;
        for i in 0..c.ops.len() {
            if let Some((dst, bits)) = try_fold(&c.ops[i], &constv) {
                c.ops[i] = Op::Const { dst, bits };
                c.optimized_ops += 1;
                changed = true;
            }
            if let Op::Const { dst, bits } = c.ops[i] {
                if single_temp(dst) && constv[dst as usize].is_none() {
                    constv[dst as usize] = Some(bits);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Pass 2: hoist item-invariant ops into the prelude. An op qualifies
    // anywhere in the tape — even behind a branch or inside a loop — when
    // (a) it is pure and non-trapping (`hoistable`), (b) its destination is
    // a single-writer temporary (codegen guarantees write-before-read, so
    // no path observes the pre-hoist zero), and (c) every operand is
    // immutable over the whole launch: a never-written scalar slot (slots
    // are re-initialised to identical bits for every item) or the result of
    // an already-hoisted op. Running such an op once per register file in
    // the prelude therefore produces exactly the bits every reader saw
    // before. The prelude stays dependency-ordered for free: a register is
    // only marked invariant when its producer is pushed, so consumers always
    // land after their producers.
    let mut removed = vec![false; c.ops.len()];
    let mut invariant = vec![false; c.nregs];
    for (r, inv) in invariant.iter_mut().enumerate().take(nslots) {
        *inv = writers[r] == 0;
    }
    loop {
        let mut changed = false;
        for i in 0..c.ops.len() {
            if removed[i] {
                continue;
            }
            let op = c.ops[i];
            let dst = match op_dst(&op) {
                Some(d) if single_temp(d) => d,
                _ => continue,
            };
            if !hoistable(&op) {
                continue;
            }
            let mut ok = true;
            visit_srcs(&op, &mut |r| ok &= invariant[r as usize]);
            if !ok {
                continue;
            }
            c.pre.push(op);
            removed[i] = true;
            invariant[dst as usize] = true;
            c.optimized_ops += 1;
            changed = true;
        }
        if !changed {
            break;
        }
    }

    // Pass 3: context-op CSE. `Gid`/`Lid`/`Lsz`/`Grp` read launch context
    // that is fixed for the duration of one work-item, so every occurrence
    // of the same (op, dim) writes identical bits wherever it sits — even
    // behind branches or inside loops. Codegen re-emits them at each use
    // site; here the first single-writer occurrence becomes canonical and
    // moves to `item_pre` (run once per item, before any phase), readers of
    // the duplicates are redirected to the canonical register, and all
    // in-tape occurrences are dropped. Canonical registers are never
    // written by the main tape afterwards, so the value persists across
    // phases of the same item.
    let mut redirect: Vec<Option<R>> = vec![None; c.nregs];
    let mut canon: std::collections::HashMap<(u8, u8), R> = std::collections::HashMap::new();
    for i in 0..c.ops.len() {
        if removed[i] {
            continue;
        }
        let (tag, dim, dst) = match c.ops[i] {
            Op::Gid { dst, dim } => (0u8, dim, dst),
            Op::Lid { dst, dim } => (1, dim, dst),
            Op::Lsz { dst, dim } => (2, dim, dst),
            Op::Grp { dst, dim } => (3, dim, dst),
            _ => continue,
        };
        if !single_temp(dst) {
            continue;
        }
        match canon.entry((tag, dim)) {
            std::collections::hash_map::Entry::Occupied(e) => {
                redirect[dst as usize] = Some(*e.get());
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(dst);
                c.item_pre.push(c.ops[i]);
            }
        }
        removed[i] = true;
        c.optimized_ops += 1;
    }
    if !canon.is_empty() {
        for (i, op) in c.ops.iter_mut().enumerate() {
            if !removed[i] {
                visit_srcs_mut(op, &mut |r| {
                    if let Some(n) = redirect[*r as usize] {
                        *r = n;
                    }
                });
            }
        }
    }

    compact(c, &removed);

    // Pass 4: copy coalescing, on the compacted tape.
    let copies = coalesce_copies(c, nslots, arg_slots);
    c.optimized_ops += copies.iter().filter(|&&r| r).count() as u32;
    compact(c, &copies);
}

/// Drops the ops marked in `removed`, remapping jump targets and phase entry
/// points. A target pointing at a removed op falls through to the next
/// retained one (the prefix count gives exactly that index).
pub(crate) fn compact(c: &mut Compiled, removed: &[bool]) {
    if !removed.iter().any(|&r| r) {
        return;
    }
    let mut newpos = Vec::with_capacity(c.ops.len() + 1);
    let mut n = 0u32;
    for &r in removed {
        newpos.push(n);
        if !r {
            n += 1;
        }
    }
    newpos.push(n);
    let mut ops = Vec::with_capacity(n as usize);
    for (i, mut op) in c.ops.drain(..).enumerate() {
        if removed[i] {
            continue;
        }
        if let Some(target) = jump_target_mut(&mut op) {
            *target = newpos[*target as usize];
        }
        ops.push(op);
    }
    c.ops = ops;
    for s in c.phase_starts.iter_mut() {
        *s = newpos[*s as usize];
    }
}

/// Pass 4: copy coalescing. Codegen materialises every declaration,
/// assignment and select arm as `producer → temporary; Mov slot ← temporary`,
/// and no earlier pass removes a copy. Returns the `Mov`s to drop, after
/// rewriting the tape around each by one of two rules:
///
/// 1. **Retarget the producer.** `src` is a single-writer temporary whose
///    only reader is this `Mov`, its producer sits earlier in the same basic
///    block, and nothing in between reads or writes `dst`: the producer
///    writes `dst` directly. `dst` may have other writers (the arms of a
///    select); the producer may itself read `dst` (`x = x − t`).
/// 2. **Redirect the readers.** Otherwise, when the `Mov` is `dst`'s only
///    definition (`dst` is no launch-argument slot), lies in no loop, and
///    `src` is not written after it: every read of `dst` — all follow the
///    `Mov`, by write-before-read — finds the same bits in `src`.
///
/// Register contents at every remaining read are unchanged lane for lane, so
/// buffers, counters, traces and sanitizer findings are too.
fn coalesce_copies(c: &mut Compiled, nslots: usize, arg_slots: &[Option<usize>]) -> Vec<bool> {
    let n = c.ops.len();
    let mut removed = vec![false; n];
    let leader = block_leaders(c);
    let mut writers = count_writers(&c.ops, c.nregs);
    let mut reads = count_readers(c);
    for m in 0..n {
        let Op::Mov { dst, src } = c.ops[m] else { continue };
        if dst == src {
            continue;
        }
        // Rule 1: look for the producer of `src` in this block.
        let mut producer = None;
        if src as usize >= nslots && writers[src as usize] == 1 && reads[src as usize] == 1 {
            for p in (0..m).rev() {
                let op = &c.ops[p];
                if leader[p + 1] || (!removed[p] && op_dst(op) == Some(src)) {
                    producer = (!leader[p + 1]).then_some(p);
                    break;
                }
                if !removed[p] && (op_dst(op) == Some(dst) || reads_reg(op, dst)) {
                    break;
                }
            }
        }
        if let Some(p) = producer {
            *op_dst_mut(&mut c.ops[p]).expect("a producer writes a register") = dst;
            (writers[src as usize], reads[src as usize]) = (0, 0);
            removed[m] = true;
            continue;
        }
        // Rule 2: `dst` is only ever this copy of `src`.
        let only_def = writers[dst as usize] == 1 && !arg_slots.contains(&Some(dst as usize));
        let in_loop = c.ops[m..].iter().any(|op| jump_target(op).is_some_and(|t| t as usize <= m));
        let read_before = c.ops[..m].iter().any(|op| reads_reg(op, dst));
        let src_rewritten = c.ops[m + 1..].iter().any(|op| op_dst(op) == Some(src));
        if only_def && !in_loop && !read_before && !src_rewritten {
            for op in &mut c.ops[m + 1..] {
                visit_srcs_mut(op, &mut |r| {
                    if *r == dst {
                        *r = src;
                    }
                });
            }
            reads[src as usize] += reads[dst as usize] - 1;
            (writers[dst as usize], reads[dst as usize]) = (0, 0);
            removed[m] = true;
        }
    }
    removed
}

/// Block-local value numbering of the fused tape's prelude (one block), then
/// of its main tape: a pure register op ([`hoistable`], or a `MulAdd`) that
/// repeats an earlier op of its block — same opcode and operands, none of
/// them written in between — is dropped when both write single-writer
/// temporaries of one width, and its readers read the earlier register
/// instead. A block runs
/// whole, so whenever the earlier op runs the dropped one would have run
/// right after it on the same operand bits, and no later read can tell the
/// two registers apart — unless it sits before the dropped op in tape order
/// (a loop's next trip), which keeps it. The walk renames every read as it
/// reaches it, so with the prelude numbered first two main-tape ops that
/// read duplicate prelude registers read one and merge. Running after fusion
/// keeps the fused windows' single-use intermediates.
fn number_values(c: &mut Compiled, nslots: usize) {
    let (leader, wide, mut same) =
        (block_leaders(c), &c.wide, (0..c.nregs as R).collect::<Vec<_>>());
    // The ops of `ops` to drop; `same[r]` is what a dropped op's `r` now is.
    let mut number = |ops: &mut [Op], leader: &[bool]| {
        let writers = count_writers(ops, same.len());
        let temp = |r: R| r as usize >= nslots && writers[r as usize] == 1;
        let (mut read, mut removed) = (vec![false; same.len()], vec![false; ops.len()]);
        let mut start = 0;
        for pc in 0..ops.len() {
            start = if leader.get(pc) == Some(&true) { pc } else { start };
            visit_srcs_mut(&mut ops[pc], &mut |r| *r = same[*r as usize]);
            let op = ops[pc];
            visit_srcs(&op, &mut |r| read[r as usize] = true);
            let pure = hoistable(&op) || matches!(op, Op::MulAdd { .. });
            let Some(d) = op_dst(&op).filter(|&d| pure && temp(d) && !read[d as usize]) else {
                continue;
            };
            for p in (start..pc).rev().filter(|&p| !removed[p]) {
                // The earlier op, writing `d`: equal to `op` when it computes the same.
                let mut prev = ops[p];
                let w = op_dst_mut(&mut prev).map(|w| std::mem::replace(w, d));
                let one_width = |e: R| wide[e as usize] == wide[d as usize];
                if let Some(e) = w.filter(|&e| temp(e) && one_width(e) && prev == op) {
                    (same[d as usize], removed[pc]) = (e, true);
                    break;
                }
                if w.is_some_and(|w| reads_reg(&op, w)) {
                    break;
                }
            }
        }
        removed
    };
    let dropped = number(&mut c.pre, &[]);
    let removed = number(&mut c.ops, &leader);
    c.pre = c.pre.iter().zip(&dropped).filter(|p| !p.1).map(|p| *p.0).collect();
    c.optimized_ops += removed.iter().chain(&dropped).filter(|&&r| r).count() as u32;
    compact(c, &removed);
}

/// Executes the hoisted prelude once into a freshly initialised register
/// file (scalar slots must already hold their launch values). Contains only
/// pure register ops, so it touches no counters, traces, or memory.
pub(crate) fn exec_pre(c: &Compiled, regs: &mut [u64], gsize: [usize; 3]) {
    for op in &c.pre {
        eval_pure(op, regs, gsize);
    }
}

/// Executes one pure register op on a scalar register file: the arithmetic
/// of the prelude and of constant folding ([`try_fold`]).
fn eval_pure(op: &Op, regs: &mut [u64], gsize: [usize; 3]) {
    match *op {
        Op::Const { dst, bits } => regs[dst as usize] = bits,
        Op::Gsz { dst, dim } => regs[dst as usize] = bi32(gsize[dim as usize] as i32),
        Op::Mov { dst, src } => regs[dst as usize] = regs[src as usize],
        Op::Cast { dst, src, from, to } => {
            regs[dst as usize] = cast_bits(from, to, regs[src as usize])
        }
        Op::AsI64 { dst, src, from } => regs[dst as usize] = bi64(to_i64(from, regs[src as usize])),
        Op::I64ToI32 { dst, src } => regs[dst as usize] = bi32(i64v(regs[src as usize]) as i32),
        Op::AddI64 { dst, a, b } => {
            regs[dst as usize] = bi64(i64v(regs[a as usize]).wrapping_add(i64v(regs[b as usize])))
        }
        Op::Neg { dst, src, k } => {
            let s = regs[src as usize];
            regs[dst as usize] = match k {
                K::F32 => b32(-f32v(s)),
                K::F64 => b64(-f64v(s)),
                K::I32 => bi32(i32v(s).wrapping_neg()),
                K::Bool => bi32(-((s != 0) as i32)),
            };
        }
        Op::Not { dst, src, k } => {
            regs[dst as usize] = bb(!truthy(k, regs[src as usize]));
        }
        Op::Bin { dst, a, b, op, k } => {
            regs[dst as usize] = bin_bits(op, k, regs[a as usize], regs[b as usize]);
        }
        Op::Logic { dst, a, b, ka, kb, or } => {
            let (x, y) = (truthy(ka, regs[a as usize]), truthy(kb, regs[b as usize]));
            regs[dst as usize] = bb(if or { x || y } else { x && y });
        }
        Op::MinMax { dst, a, b, k, max } => {
            let (x, y) = (regs[a as usize], regs[b as usize]);
            regs[dst as usize] = match k {
                K::F32 => {
                    let (p, q) = (f32v(x) as f64, f32v(y) as f64);
                    b32((if max { p.max(q) } else { p.min(q) }) as f32)
                }
                K::F64 => {
                    let (p, q) = (f64v(x), f64v(y));
                    b64(if max { p.max(q) } else { p.min(q) })
                }
                K::I32 => {
                    let (p, q) = (i32v(x) as i64, i32v(y) as i64);
                    bi32((if max { p.max(q) } else { p.min(q) }) as i32)
                }
                K::Bool => unreachable!("min/max never promotes to bool"),
            };
        }
        Op::Intr1 { dst, src, intr, k } => {
            let s = regs[src as usize];
            regs[dst as usize] = match k {
                K::F32 => b32(intr1_f32(intr, f32v(s))),
                _ => b64(intr1_f64(intr, f64v(s))),
            };
        }
        _ => unreachable!("not a pure register op"),
    }
}

/// Closes a pending per-op attribution: charges `pending`'s opcode with the
/// time elapsed since its dispatch started. Called at every interpreter exit
/// point of a profiled (`PROF = true`) run.
#[inline]
fn flush_pending(prof: &mut Option<&mut OpProf>, pending: &mut Option<(usize, Instant)>) {
    if let (Some((idx, start)), Some(p)) = (pending.take(), prof.as_deref_mut()) {
        p.add(idx, start.elapsed());
    }
}

// ---- warp execution ----
//
// The warp executor decodes each op *once* per **bundle** — up to four
// consecutive warps ([`BUNDLE`] lanes) of a launch or of a workgroup — and
// applies it to the active lanes through a structure-of-arrays register
// file ([`File`]), the software analogue of SIMT instruction issue on the
// paper's GPUs. Every launch runs this one lane width. The active set is a
// lane bitmask ([`Mask`]) — the prefix `0..nact` of a fresh bundle, minus
// the lanes that returned in an earlier barrier phase of a grouped launch.
// All lane loops go through `for_mask!`.
//
// Branches follow the hardware's reconvergence discipline. A branch whose
// active lanes agree takes a single jump. When lanes *diverge*, the
// executor runs both sides under complementary masks and reconverges
// at the branch's immediate postdominator (`Compiled::joins`, computed at
// compile time) — exactly the stack-based reconvergence real SIMT hardware
// performs, which keeps warps vectorized across the per-lane boundary
// conditions that dominate the acoustics kernels. Lanes that `Ret` inside a
// masked region simply drop out of the mask. Every branch has a join:
// `validate` proves `pc < target ≤ join ≤ ops.len()` for each, so the
// executor has no other way to run a divergent branch. Divergence is
// therefore a performance event, never a correctness one, and
// `vgpu.warp.divergent` counts the warps whose own lanes split at a branch:
// the GPU model's warps stay 32 lanes, for divergence and transaction traces.
//
// Work-items are a formula ([`WarpIds`]): lane `l` is item `begin + l`, and a
// `Gid` row is an iota (x) or a broadcast (y, z) over each row's lanes.
//
// Lane shapes: a bundle of a flat launch also receives its launch shape's
// lane-shape table for its kind ([`Shape`], [`Licence`]; the row-coherent
// table holds for any lanes of one row, the straddling one for any run of
// consecutive items), which licenses three shortcuts —
// unit-stride loads and stores as runs ([`unit_run`]), uniform branch
// conditions read off one lane ([`decided`]), and private
// accesses as rows — each audited lane by lane in debug builds. Private
// arrays are lane-minor like the registers ([`PrivRows`]): an `LdP`/`StP`
// whose index is [`Shape::Uniform`] (a loop counter, a constant) reads it off
// the first active lane, checks it **once** against the active lanes'
// declared lengths and moves one row (the audit: every active lane holds
// that index); any other index goes lane by lane through the same check.
//
// Bounds discipline: every global access goes through [`load_global`] /
// [`store_global`] with the launch's per-site `checked` table (true ⇒ keep
// the dynamic check; no table ⇒ every site checked). Sites the static
// verifier proved in bounds for every work-item run raw unchecked pointer
// accesses ([`BufPtr`]), audited by a debug-build assert pass; every other
// site keeps a release-mode `assert!` and fails with a clean panic instead
// of undefined behaviour.

/// Lanes in a bundle: four warps.
pub(crate) const BUNDLE: usize = 4 * WARP;

/// A bundle's active lanes, bit `l` for lane `l`.
pub(crate) type Mask = u128;

/// Lanes `0..n`: the active mask of a fresh bundle of `n` work-items.
pub(crate) fn prefix(n: usize) -> Mask {
    if n == BUNDLE {
        !0
    } else {
        !(!0 << n)
    }
}

/// The lowest lane of `mask`.
#[inline(always)]
fn first(mask: Mask) -> usize {
    mask.trailing_zeros() as usize
}

/// One past the highest lane of `mask`.
#[inline(always)]
fn end(mask: Mask) -> usize {
    BUNDLE - mask.leading_zeros() as usize
}

/// A bundle's SoA register file, rows of [`BUNDLE`] lanes: register `r`
/// owns a 64-bit row, or a packed 32-bit row in its first half.
pub(crate) type File = [u64];

/// Unchecked SoA register read: lane `l` of the 64-bit row of register `r`.
/// The tape passed [`validate`] at compile time (every operand `< nregs`),
/// [`exec_phase_warp`] asserts the file holds `nregs` rows, and a lane of a
/// [`Mask`] is below [`BUNDLE`].
#[inline(always)]
fn vg(vregs: &File, r: R, l: usize) -> u64 {
    debug_assert!(l < BUNDLE && r as usize * BUNDLE + l < vregs.len());
    // SAFETY: see doc comment.
    unsafe { *vregs.get_unchecked(r as usize * BUNDLE + l) }
}

/// Unchecked SoA register write; same justification as [`vg`].
#[inline(always)]
fn vs(vregs: &mut File, r: R, l: usize, v: u64) {
    debug_assert!(l < BUNDLE && r as usize * BUNDLE + l < vregs.len());
    // SAFETY: see doc comment on `vg`.
    unsafe { *vregs.get_unchecked_mut(r as usize * BUNDLE + l) = v }
}

/// Packed read: lane `l` of the `u32` row of a 32-bit register — the first
/// half of the words the file gives every register.
#[inline(always)]
fn vg32(vregs: &File, r: R, l: usize) -> u32 {
    debug_assert!(l < BUNDLE && (r as usize + 1) * BUNDLE <= vregs.len());
    // SAFETY: in bounds as for `vg` (lane `l` of the packed row lies inside
    // the register's own words, and `u32` needs no more alignment than
    // `u64`); it holds what `vs32` put there because `validate`'s width rule
    // lets no op use a register at two widths.
    unsafe { *vregs.as_ptr().add(r as usize * BUNDLE).cast::<u32>().add(l) }
}

/// Packed write; the twin of [`vg32`].
#[inline(always)]
fn vs32(vregs: &mut File, r: R, l: usize, v: u32) {
    debug_assert!(l < BUNDLE && (r as usize + 1) * BUNDLE <= vregs.len());
    // SAFETY: in bounds and aligned as for `vg32`; `validate`'s width rule
    // says every reader of this register reads the packed row.
    unsafe { *vregs.as_mut_ptr().add(r as usize * BUNDLE).cast::<u32>().add(l) = v }
}

/// Raw bits of lane `l` of a register of the given width, zero-extended.
#[inline(always)]
fn vgw(vregs: &File, r: R, wide: bool, l: usize) -> u64 {
    match wide {
        true => vg(vregs, r, l),
        false => vg32(vregs, r, l) as u64,
    }
}

/// Writes the low bits of `v` to lane `l` of a register of the given width.
#[inline(always)]
fn vsw(vregs: &mut File, r: R, wide: bool, l: usize, v: u64) {
    match wide {
        true => vs(vregs, r, l, v),
        false => vs32(vregs, r, l, v as u32),
    }
}

/// A lane's value as the typed arms see it: read from and written to the row
/// of its width. `u32`/`u64` are raw rows, for the ops that only move bits.
trait Lane: Copy {
    fn get(vregs: &File, r: R, l: usize) -> Self;
    fn put(self, vregs: &mut File, r: R, l: usize);
}

macro_rules! lane {
    ($($t:ty: $get:ident $from:expr, $set:ident $to:expr;)*) => {$(
        impl Lane for $t {
            #[inline(always)]
            fn get(vregs: &File, r: R, l: usize) -> $t {
                ($from)($get(vregs, r, l))
            }
            #[inline(always)]
            fn put(self, vregs: &mut File, r: R, l: usize) {
                $set(vregs, r, l, ($to)(self))
            }
        }
    )*};
}

lane! {
    u32: vg32 (|b| b), vs32 (|v| v);
    f32: vg32 f32::from_bits, vs32 f32::to_bits;
    i32: vg32 (|b: u32| b as i32), vs32 (|v: i32| v as u32);
    Wrapping<i32>: vg32 (|b: u32| Wrapping(b as i32)), vs32 (|v: Wrapping<i32>| v.0 as u32);
    bool: vg32 (|b: u32| b != 0), vs32 (|v: bool| v as u32);
    u64: vg (|b| b), vs (|v| v);
    f64: vg f64::from_bits, vs f64::to_bits;
    i64: vg (|b: u64| b as i64), vs (|v: i64| v as u64);
}

/// Runs `$body` with `$T` the raw lane type of a register of width `$wide`.
macro_rules! at_width {
    ($wide:expr, $T:ident => $body:expr) => {
        if $wide {
            type $T = u64;
            $body
        } else {
            type $T = u32;
            $body
        }
    };
}

/// The warps (bit `w`: lanes `32w..32w + 32`) with a lane in `mask`.
#[inline(always)]
fn warps(mask: Mask) -> u32 {
    (0..BUNDLE).step_by(WARP).fold(0, |ws, w| ws | u32::from((mask >> w) as u32 != 0) << (w / WARP))
}

/// Runs `$body` with `$l` bound to each set lane of `$mask`, low to high:
/// a bit-scan of each 64-lane word.
macro_rules! for_lanes {
    ($mask:expr, $l:ident, $body:block) => {{
        let m = $mask;
        for word in (0..BUNDLE).step_by(64) {
            let mut h = (m >> word) as u64;
            while h != 0 {
                let $l = word + h.trailing_zeros() as usize;
                h &= h - 1;
                $body
            }
        }
    }};
}

/// The active lanes of `mask` as a dense range `lo..hi`, when the mask is
/// one contiguous run of set bits — as full and partial bundles and the
/// divergence masks of boundary-condition branches (interior vs. edge lanes
/// of a stencil row) are, so lane loops stay dense even while diverged.
#[inline(always)]
fn contiguous(mask: Mask) -> Option<(usize, usize)> {
    let (lo, hi) = (first(mask), end(mask));
    (mask == prefix(hi) & !prefix(lo)).then_some((lo, hi))
}

/// Runs `$body` with `$l` bound to each active lane of `$mask`: a fixed
/// [`BUNDLE`]-trip loop when every lane of the file is active, a dense range for
/// contiguous masks, a bit-scan otherwise. The executor's lane loops all
/// come through here so the hot (uniform / contiguous) paths present LLVM
/// with plain counted loops over monomorphic bodies.
macro_rules! for_mask {
    ($mask:expr, $l:ident, $body:block) => {{
        let m = $mask;
        if m == !0 {
            for $l in 0..BUNDLE {
                $body
            }
        } else if let Some((lo, hi)) = contiguous(m) {
            for $l in lo..hi {
                $body
            }
        } else {
            for_lanes!(m, $l, $body);
        }
    }};
}

/// `dst = v` in every active lane.
#[inline(always)]
fn vfill<D: Lane>(vregs: &mut File, dst: R, mask: Mask, v: D) {
    for_mask!(mask, l, {
        v.put(vregs, dst, l);
    });
}

/// Lane-wise unary register op over the active mask, at the widths of its
/// operand and result types; the [`for_mask!`] lane loops stay dense — and
/// autovectorizable — for the overwhelmingly common full and contiguous
/// masks (see [`contiguous`]).
#[inline(always)]
fn vmap1<A: Lane, D: Lane>(vregs: &mut File, dst: R, src: R, mask: Mask, f: impl Fn(A) -> D) {
    for_mask!(mask, l, {
        f(A::get(vregs, src, l)).put(vregs, dst, l);
    });
}

/// Lane-wise binary register op over the active mask; see [`vmap1`].
#[inline(always)]
fn vmap2<A: Lane, D: Lane>(
    vregs: &mut File,
    dst: R,
    a: R,
    b: R,
    mask: Mask,
    f: impl Fn(A, A) -> D,
) {
    for_mask!(mask, l, {
        f(A::get(vregs, a, l), A::get(vregs, b, l)).put(vregs, dst, l);
    });
}

/// Lane-wise ternary register op over the active mask; see [`vmap1`].
#[inline(always)]
fn vmap3<A: Lane>(
    vregs: &mut File,
    dst: R,
    (a, b, c): (R, R, R),
    mask: Mask,
    f: impl Fn(A, A, A) -> A,
) {
    for_mask!(mask, l, {
        f(A::get(vregs, a, l), A::get(vregs, b, l), A::get(vregs, c, l)).put(vregs, dst, l);
    });
}

/// Registers the flat vector dispatcher must broadcast into every lane of a
/// bundle register file, split by lifetime:
///
/// - `.0` — broadcast **once per register-file allocation**: scalar slots
///   the main tape never writes (zero or launch-argument bits, like the
///   scalar path's `regs.fill(0)` + slot init) and the destinations of the
///   hoisted prelude (single-writer: their only writer moved to `pre`).
///   Nothing overwrites these lanes, so one fill serves every bundle the
///   file is reused for.
/// - `.1` — broadcast **per bundle**: slots the tape itself writes; the next
///   bundle must see the launch-initial bits again.
///
/// `item_pre` destinations need no broadcast at all — [`exec_item_pre_warp`]
/// rewrites every active lane each bundle, and masked execution never reads
/// an inactive lane. Every other register is written before it is read
/// within one item — the same single-writer/write-before-read property the
/// optimizer's hoisting pass relies on — so its lanes may start as garbage.
pub(crate) fn warp_init_regs(c: &Compiled, nslots: usize) -> (Vec<R>, Vec<R>) {
    let writers = count_writers(&c.ops, c.nregs);
    let (mut once, mut per_warp): (Vec<R>, Vec<R>) = (Vec::new(), Vec::new());
    for s in 0..nslots as R {
        if writers[s as usize] > 0 {
            per_warp.push(s);
        } else {
            once.push(s);
        }
    }
    for op in &c.pre {
        if let Some(d) = op_dst(op) {
            once.push(d);
        }
    }
    once.sort_unstable();
    once.dedup();
    (once, per_warp)
}

/// Broadcasts the launch values `regs0` (the scalar file [`exec_pre`] left) of
/// registers `regs` into every lane of their rows, each at its width.
pub(crate) fn broadcast(c: &Compiled, vregs: &mut File, regs0: &[u64], regs: &[R]) {
    assert!(vregs.len() >= c.nregs * BUNDLE && regs0.len() >= c.nregs);
    for &r in regs {
        assert!((r as usize) < c.nregs);
        at_width!(c.wide[r as usize], T => vfill(vregs, r, !0, regs0[r as usize] as T));
    }
}

/// The work-items of one bundle in closed form: lane `l` is the linear
/// work-item `begin + l`, and its global id follows from lane 0's.
#[derive(Clone, Copy, Default)]
pub(crate) struct WarpIds {
    pub begin: u64,
    /// Global id of lane 0.
    pub gid0: [usize; 3],
    /// Global NDRange sizes.
    pub gsize: [usize; 3],
    /// Work-items per group (1-D: `item = group * lsize + lid`); only a
    /// grouped launch's tape reads local or group ids.
    pub lsize: usize,
    /// The bundle stays in one row of the NDRange; which lane-shape table
    /// ([`Shape`]) it runs under is the caller's to say.
    pub coherent: bool,
}

impl WarpIds {
    /// The bundle of work-items `begin..begin + nact`, in two divisions:
    /// lane 0's id and the lane count say whether it stays in one row.
    pub(crate) fn new(begin: u64, nact: usize, gsize: [usize; 3], lsize: usize) -> Self {
        let (gx, gy) = (gsize[0] as u64, gsize[1] as u64);
        let row = begin / gx;
        let (x, z) = (begin - row * gx, row / gy);
        let gid0 = [x as usize, (row - z * gy) as usize, z as usize];
        WarpIds { begin, gid0, gsize, lsize, coherent: x + nact as u64 <= gx }
    }
}

/// Writes a launch-context read (`Gid`/`Lid`/`Lsz`/`Grp`) to the lanes of
/// `mask`. A `Gid` row is an iota (x) or a broadcast (y, z) over the lanes
/// of each NDRange row: one in a row-coherent bundle, three in a warp of a
/// row 11 wide, lane 0's id carried from row to row — no division and no
/// carry test per lane.
fn write_context(op: &Op, vregs: &mut File, mask: Mask, ids: &WarpIds) {
    let dst = op_dst(op).expect("context reads write a register");
    match *op {
        Op::Gid { dim, .. } if ids.coherent => {
            let (first, step) = (ids.gid0[dim as usize] as i32, (dim == 0) as i32);
            for_mask!(mask, l, {
                first.wrapping_add(step * l as i32).put(vregs, dst, l);
            });
        }
        Op::Gid { dim, .. } => {
            let (mut g, [gx, gy, _], d) = (ids.gid0, ids.gsize, dim as usize);
            let (mut lo, end) = (0, end(mask));
            while lo < end {
                let hi = end.min(lo + gx - g[0]);
                let row = mask & prefix(hi) & !prefix(lo);
                let (v, step) = (g[d] as i32 - if d == 0 { lo as i32 } else { 0 }, (d == 0) as i32);
                if row != 0 {
                    for_mask!(row, l, {
                        v.wrapping_add(step * l as i32).put(vregs, dst, l);
                    });
                }
                g = if g[1] + 1 == gy { [0, 0, g[2] + 1] } else { [0, g[1] + 1, g[2]] };
                lo = hi;
            }
        }
        _ => for_mask!(mask, l, {
            let (item, n) = (ids.begin + l as u64, ids.lsize as u64);
            let v = match *op {
                Op::Lid { dim: 0, .. } => item % n,
                Op::Lsz { dim: 0, .. } => n,
                Op::Grp { dim: 0, .. } => item / n,
                Op::Lid { .. } | Op::Grp { .. } => 0,
                Op::Lsz { .. } => 1,
                _ => unreachable!("not a launch-context read"),
            };
            (v as i32).put(vregs, dst, l);
        }),
    }
}

/// Executes the per-item context prelude for a fresh bundle: one
/// deduplicated `Gid`/`Lid`/`Lsz`/`Grp` read per distinct (op, dim), written
/// to lanes `0..nact`. Run once per bundle, after slot initialisation and
/// before any phase.
pub(crate) fn exec_item_pre_warp(c: &Compiled, vregs: &mut File, nact: usize, ids: &WarpIds) {
    for op in &c.item_pre {
        write_context(op, vregs, prefix(nact), ids);
    }
}

/// One private array of a bundle, lane-minor like the register file:
/// element `k` of lane `l` is `cells[k * BUNDLE + l]`, bits as the
/// tree-walker holds them; `lens[l]` is the length lane `l` declared (0: not
/// yet).
#[derive(Clone, Default)]
pub(crate) struct PrivRows {
    cells: Vec<u64>,
    lens: Vec<u32>,
}

impl PrivRows {
    /// A fresh bundle: no lane has declared the array (which zeroes cells).
    pub(crate) fn reset(&mut self) {
        self.lens.clear();
        self.lens.resize(BUNDLE, 0);
    }

    /// `DeclPriv`: each lane of `mask` declares `len(l)` zeroed elements (and
    /// zeroes, up to the longest, cells past its own length: out of its reach).
    fn declare(&mut self, arr: u16, mask: Mask, len: impl Fn(usize) -> i64) {
        let mut rows = 0;
        for_mask!(mask, l, {
            let n = array_len("private", arr as usize, len(l));
            self.lens[l] = n as u32;
            rows = rows.max(n);
        });
        self.cells.resize(self.cells.len().max(rows * BUNDLE), 0);
        for row in self.cells[..rows * BUNDLE].chunks_exact_mut(BUNDLE) {
            for_mask!(mask, l, {
                row[l] = 0;
            });
        }
    }

    /// The row an access through `idx` touches, the lanes of `mask` holding
    /// one index ([`one_index`]; audited lane by lane in debug builds):
    /// **one** pass over their lengths finds it in range — an index no `u32`
    /// holds is past them all — or the first lane it is not for panics.
    #[inline(always)]
    fn row(&mut self, arr: u16, vregs: &File, idx: R, mask: Mask) -> &mut [u64] {
        let i = i64::get(vregs, idx, first(mask));
        let at = u32::try_from(i).unwrap_or(u32::MAX);
        if cfg!(debug_assertions) {
            for_lanes!(mask, l, {
                assert_eq!(i64::get(vregs, idx, l), i, "lane-shape audit: private index");
            });
        }
        let short = lanes_where(mask, |l| at >= self.lens[l]);
        if short != 0 {
            let len = self.lens[first(short)] as usize;
            array_index("private", arr as usize, i, len);
        }
        &mut self.cells[at as usize * BUNDLE..][..BUNDLE]
    }
}

/// `mask` in parts whose lanes hold one private index: all of it when the
/// index register's lane shape is uniform (a loop counter, a constant),
/// otherwise lane by lane — one lane is uniform.
fn one_index(mask: Mask, uniform: bool) -> impl Iterator<Item = Mask> {
    let mut rest = mask;
    std::iter::from_fn(move || {
        let part = (rest != 0).then(|| if uniform { rest } else { 1 << first(rest) })?;
        rest &= !part;
        Some(part)
    })
}

/// Per-bundle launch state threaded through [`exec_phase_warp`]. Counters
/// are shared across lanes (bulk-added per op); transaction traces stay
/// per-lane so the warp coalescing model (`warp_transaction_bytes`, per 32
/// lanes) sees the same per-item access sequences the tree-walker produces.
pub(crate) struct WarpCtx<'a> {
    /// Buffer bindings (by parameter index).
    pub bufs: &'a [Option<&'a SharedBuf>],
    /// Shared operation counters.
    pub counters: &'a mut Counters,
    /// Per-lane transaction traces (`traces[l]` belongs to lane `l`).
    pub traces: &'a mut [Vec<TraceRec>],
    /// Record load/store addresses into `traces`.
    pub modeled: bool,
    /// Scratch: the per-lane indices of a global access that is not a run.
    pub idx: &'a mut [i64; BUNDLE],
    /// The bundle's work-items.
    pub ids: WarpIds,
    /// The workgroup's local-memory arena, shared by every bundle of the
    /// group (empty for flat dispatch, whose tapes carry no local ops).
    pub locals: &'a mut [Vec<u64>],
    /// Per-opcode time tally ([`crate::ExecMode::Profile`] only); `None` selects the
    /// unprofiled instantiation of the executor.
    pub prof: Option<&'a mut OpProf>,
    /// The launch leg's shadow-sanitizer context.
    pub san: crate::sanitize::SanCtx<'a>,
}

/// How one bundle's run of a phase ended.
pub(crate) struct PhaseRun {
    /// The warps (bit `w`: lanes `32w..32w + 32`) whose own active lanes
    /// disagreed at some branch; each feeds `vgpu.warp.divergent`.
    pub diverged: u32,
    /// Lanes that executed `Ret`: a grouped launch masks them off for the
    /// remaining barrier phases.
    pub returned: Mask,
}

/// Where phase 0 starts on a launch of `gsize` whose registers hold `vals`
/// ([`crate::compile::launch_shapes`]): past the guards the launch decides.
/// From the phase's entry, an ordered i32 `CmpJz` whose operands are each a
/// context `Gid{dim}` (values `0..gsize[dim]`) or of known launch value is
/// followed to its one outcome when the two ranges settle it for every
/// work-item — the `if (gid >= N) return;` of a launch of exactly `N` items.
/// A `CmpJz` writes no register and counts nothing, so a bundle entering
/// where the walk ends holds what running the guards would have left.
pub(crate) fn launch_entry(c: &Compiled, vals: &[crate::compile::Val], gsize: [usize; 3]) -> usize {
    // The values `lo..=hi` register `r` holds across the launch's items.
    let range = |r: R| match vals[r as usize] {
        Some(([0, 0, 0], Some(u))) => Some([u as i64; 2]),
        Some((c, Some(0))) => (0..3)
            .find(|&d| c == [0, 1, 2].map(|e| (e == d) as i32))
            .and_then(|d| i32::try_from(gsize[d].checked_sub(1)?).ok())
            .map(|hi| [0, hi as i64]),
        _ => None,
    };
    let mut pc = c.phase_starts[0] as usize;
    while let Op::CmpJz { a, b, op, k: K::I32, target } = c.ops[pc] {
        // As `x < y + d`: `a <= b` is `a < b + 1`, `a > b` is `b < a`.
        let (x, y, d) = match op {
            BinOp::Lt => (a, b, 0),
            BinOp::Le => (a, b, 1),
            BinOp::Gt => (b, a, 0),
            BinOp::Ge => (b, a, 1),
            _ => break,
        };
        let (Some([xlo, xhi]), Some([ylo, yhi])) = (range(x), range(y)) else { break };
        pc = match (xhi < ylo + d, xlo >= yhi + d) {
            (true, _) => pc + 1,
            (_, true) => target as usize,
            _ => break,
        };
    }
    pc
}

/// Executes one phase of a compiled tape for a whole bundle at once: the
/// lanes of `mask` advance through the tape in lockstep over the SoA
/// register file `vregs`, diverging and reconverging per the SIMT mask
/// discipline in the section comment above. Arithmetic goes through one set
/// of bit-level helpers ([`bin_bits`], [`cast_bits`],
/// [`intr1_f32`]/[`intr1_f64`]) that reproduce the tree-walker's `Value`
/// semantics — superinstructions in the exact operand order of the ops they
/// replaced — so results are bit-identical lane for lane. The run starts at
/// `pc`: a phase entry, or phase 0's [`launch_entry`]. `lic.shapes` is
/// the launch shape's lane-shape table for the bundle's kind, empty on a
/// grouped launch.
pub(crate) fn exec_phase_warp(
    c: &Compiled,
    pc: usize,
    mask: Mask,
    vregs: &mut File,
    privs: &mut [PrivRows],
    w: &mut WarpCtx<'_>,
    lic: Licence<'_>,
) -> PhaseRun {
    assert!(vregs.len() >= c.nregs * BUNDLE, "SoA register file smaller than tape nregs");
    assert!(mask != 0, "no active lane");
    assert!(!w.modeled || w.traces.len() >= end(mask));
    assert!(pc < c.ops.len(), "entry pc outside the tape");
    let prof_on = w.prof.is_some();
    let returned = 0;
    let mut ex = WarpExec { c, vregs, privs, w, lic, diverged: 0, returned, pending: None };
    let end = c.ops.len();
    if prof_on {
        ex.run::<true>(pc, end, mask);
        // Close the final op's span (the `Ret`/`Halt` that ended the phase).
        ex.flush_pending();
    } else {
        ex.run::<false>(pc, end, mask);
    }
    PhaseRun { diverged: ex.diverged, returned: ex.returned }
}

/// The lanes of `mask` where `f` holds: a fixed 32-trip loop per warp with an
/// active lane, reading its inactive lanes too (held, never in the result).
#[inline(always)]
fn lanes_where(mask: Mask, f: impl Fn(usize) -> bool) -> Mask {
    let mut out = 0;
    for w in (0..BUNDLE).step_by(WARP).filter(|&w| (mask >> w) as u32 != 0) {
        let mut bits = 0u32;
        for l in 0..WARP {
            bits |= u32::from(f(w + l)) << l;
        }
        out |= Mask::from(bits) << w;
    }
    out & mask
}

/// The lanes of `mask` that take a branch's jump (`jumps(l)`): read off the
/// first active lane when the lane shapes make the condition uniform, else
/// [`lanes_where`]'s, which debug builds hold the shortcut to.
#[inline(always)]
fn decided(uniform: bool, mask: Mask, jumps: impl Fn(usize) -> bool) -> Mask {
    let jm = match uniform {
        true if jumps(first(mask)) => mask,
        true => 0,
        false => lanes_where(mask, &jumps),
    };
    let audit = || lanes_where(mask, &jumps);
    debug_assert_eq!(jm, audit(), "lane-shape audit: condition differs across lanes");
    jm
}

/// Expands `$m!(T, cmp)` for the lane type `T` of kind `$k` and the comparison
/// `$op`: the compares dispatch on kind and operator **once** and run one
/// monomorphic lane loop.
macro_rules! with_cmp {
    ($k:expr, $op:expr, $m:ident) => {
        match $k {
            K::F32 => with_cmp!(@ f32, $op, $m),
            K::F64 => with_cmp!(@ f64, $op, $m),
            K::I32 => with_cmp!(@ i32, $op, $m),
            K::Bool => unreachable!("binary ops never monomorphise to bool"),
        }
    };
    (@ $t:ty, $op:expr, $m:ident) => {
        match $op {
            BinOp::Lt => $m!($t, <),
            BinOp::Le => $m!($t, <=),
            BinOp::Gt => $m!($t, >),
            BinOp::Ge => $m!($t, >=),
            BinOp::Eq => $m!($t, ==),
            BinOp::Ne => $m!($t, !=),
            _ => unreachable!("not a comparison"),
        }
    };
}

/// The lanes of `mask` where `a op b` (a comparison at kind `k`) is false:
/// those that take a `CmpJz`'s jump ([`decided`]).
#[inline(always)]
fn cmp_jumps(vregs: &File, (a, b, op, k): (R, R, BinOp, K), mask: Mask, uniform: bool) -> Mask {
    macro_rules! jumps {
        ($t:ty, $cmp:tt) => {
            decided(uniform, mask, |l| {
                let holds = <$t>::get(vregs, a, l) $cmp <$t>::get(vregs, b, l);
                !holds
            })
        };
    }
    with_cmp!(k, op, jumps)
}

/// Scatters register `val` (kind `vk`) to `b[at(l)]` for the active lanes.
/// The matched-kind arms replicate [`crate::buffer::BufData::set`]'s cast
/// exactly (identity for same-kind stores); mixed kinds — which the
/// acoustics kernels never emit — keep the generic per-element path. Same
/// bounds contract as [`load_lanes`], plus write disjointness.
#[inline(always)]
fn scatter_lanes(
    b: &SharedBuf,
    at: impl Fn(usize) -> usize,
    mask: Mask,
    vregs: &File,
    (val, vk): (R, K),
) {
    match (b.ptr(), vk) {
        (BufPtr::F32(p), K::F32) => for_mask!(mask, l, {
            // SAFETY: `at(l)` is in bounds — inside the run `unit_run` checked,
            // or an index `checked_indices` checked or a PROVEN site's — and
            // no other work-item of the launch touches it (the launch
            // contract's disjointness).
            unsafe { *p.add(at(l)) = f32::get(vregs, val, l) };
        }),
        (BufPtr::F64(p), K::F64) => for_mask!(mask, l, {
            // SAFETY: in bounds by `unit_run`'s span check, `checked_indices`
            // or a PROVEN site; disjoint by the launch contract.
            unsafe { *p.add(at(l)) = f64::get(vregs, val, l) };
        }),
        (BufPtr::I32(p), K::I32) => for_mask!(mask, l, {
            // SAFETY: in bounds by `unit_run`'s span check, `checked_indices`
            // or a PROVEN site; disjoint by the launch contract.
            unsafe { *p.add(at(l)) = i32::get(vregs, val, l) };
        }),
        _ => for_mask!(mask, l, {
            // SAFETY: `set` checks the bounds itself; the element is this
            // work-item's alone by the launch contract's disjointness.
            unsafe { b.set(at(l), bits_value(vk, vgw(vregs, val, vk.wide(), l))) };
        }),
    }
}

/// Shadow-sanitizer check for a bundle gather: classifies every active
/// lane's element and reports findings with the kernel context. One shadow
/// test and branch when the sanitizer is off.
#[inline(always)]
fn shadow_gather(
    b: &SharedBuf,
    idx: &[i64; BUNDLE],
    mask: Mask,
    san: &crate::sanitize::SanCtx<'_>,
    buf: usize,
    site: u32,
) {
    if let Some(sh) = b.shadow() {
        for_mask!(mask, l, {
            if let Some(kind) = sh.classify_load(idx[l] as usize) {
                san.report(kind, buf, site, idx[l] as u64);
            }
        });
    }
}

/// Shadow-sanitizer update for a bundle scatter: marks every active lane's
/// element initialized and written by the lane's work-item, reporting
/// write races with the kernel context.
#[inline(always)]
fn shadow_scatter(b: &SharedBuf, w: &WarpCtx<'_>, mask: Mask, buf: u16, site: u32) {
    if let Some(sh) = b.shadow() {
        for_mask!(mask, l, {
            w.san.note_store(sh, buf as usize, site, w.idx[l] as usize, w.ids.begin + l as u64);
        });
    }
}

/// The run of `b` a unit-stride access covers, as (first active lane, its
/// element): `unit` says the lane shapes make `idx_of` count up by one per
/// lane, which makes the span from the first to the last active lane one
/// run whatever holes the mask has. **One** range check per bundle-op
/// licenses it — kept at PROVEN sites too, where it is what rules out an
/// i32 index wrapping inside the run. `None` sends the op down the per-lane
/// path: a run that fails the check (so the out-of-bounds panic reads as
/// ever) and a buffer with a sanitizer shadow, whose findings are per
/// element (callers clear `unit` on launches that record per-lane
/// accesses). Debug builds audit the shape claim on every active lane.
#[inline(always)]
fn unit_run(
    b: &SharedBuf,
    unit: bool,
    mask: Mask,
    idx_of: &impl Fn(usize) -> i64,
) -> Option<(usize, usize)> {
    if !unit || b.shadow().is_some() {
        return None;
    }
    let (lo, hi) = (first(mask), end(mask));
    let start = idx_of(lo);
    if start < 0 || start as u64 + (hi - lo) as u64 > (b.len() as u64).min(1 << 31) {
        return None;
    }
    if cfg!(debug_assertions) {
        for_lanes!(mask, l, {
            assert_eq!(idx_of(l), start + (l - lo) as i64, "lane-shape audit: index of lane {l}");
        });
    }
    Some((lo, start as usize))
}

/// The per-lane indices of a bundle-op at `(buf, site)`, bounds-checked
/// unless the static verifier PROVED the site (debug builds check anyway).
#[inline(always)]
fn checked_indices(
    lic: Licence<'_>,
    (buf, site, len): (u16, u32, usize),
    mask: Mask,
    idx_of: impl Fn(usize) -> i64,
    what: &str,
    idx: &mut [i64; BUNDLE],
) {
    for_mask!(mask, l, {
        idx[l] = idx_of(l);
    });
    if lic.check(site) || cfg!(debug_assertions) {
        for_mask!(mask, l, {
            let i = idx[l];
            assert!(
                i >= 0 && (i as usize) < len,
                "{what} out of bounds: param {buf}[{i}] (len {len})"
            );
        });
    }
}

/// The transaction-model record of element `i` of parameter `buf`.
#[inline(always)]
fn trace_rec(buf: u16, site: u32, i: i64, elem_bytes: u64) -> TraceRec {
    (site, ((buf as u64) << 40) | ((i as u64) * elem_bytes))
}

/// One bundle-op's global load at `(buf, site, constant)`, up to the
/// reading: counts it, establishes bounds and says where `b[idx_of(l)]` is
/// for every active lane — one [`unit_run`] (first active lane, its
/// element) when there is one, otherwise the checked per-lane indices it
/// leaves in `w.idx`, after the per-lane transaction trace of a modeled
/// launch (which therefore declines the run, as a shadowed buffer does) and
/// the shadow-sanitizer check. [`load_lanes`] does the reading.
#[inline(always)]
fn load_global<'b>(
    w: &mut WarpCtx<'b>,
    lic: Licence<'_>,
    (buf, site, constant): (u16, u32, bool),
    mask: Mask,
    unit: bool,
    idx_of: impl Fn(usize) -> i64,
) -> (&'b SharedBuf, Option<(usize, usize)>) {
    let b = w.bufs[buf as usize].expect("buffer bound");
    let (n, eb) = (mask.count_ones() as u64, b.elem_bytes() as u64);
    if constant {
        w.counters.loads_constant += n;
    } else {
        w.counters.loads_global += n;
        w.counters.bytes_loaded += eb * n;
    }
    let traced = w.modeled && !constant;
    let run = unit_run(b, unit && !traced, mask, &idx_of);
    if run.is_none() {
        checked_indices(lic, (buf, site, b.len()), mask, idx_of, "load", w.idx);
        if traced {
            for_mask!(mask, l, {
                w.traces[l].push(trace_rec(buf, site, w.idx[l], eb));
            });
        }
        shadow_gather(b, w.idx, mask, &w.san, buf as usize, site);
    }
    (b, run)
}

/// Evaluates `$e` with `$x` the reader of lane `l`'s element of a buffer
/// (base pointer `$p`) where [`load_global`] said (`$at`): its run, else the
/// per-lane indices. Each access form gets its own expansion of `$e`, so a
/// run's lane loop reads at a stride the compiler can see.
///
/// The caller must have `$at` from [`load_global`] for this buffer, which
/// establishes bounds for every active lane — by a run's range check, by the
/// site's release-mode assert, or by the static verifier's PROVEN verdict
/// (audited by a debug-build assert pass).
macro_rules! with_elements {
    ($p:expr, $at:expr, |$x:ident| $e:expr) => {
        match $at {
            (Some((lo, start)), _) => {
                // SAFETY: `unit_run`'s span check put the run in bounds;
                // reads race only with disjoint writes per the launch
                // contract.
                let $x = |l: usize| unsafe { *$p.add(start + l - lo) };
                $e
            }
            (None, idx) => {
                // SAFETY: `checked_indices` checked every active index, or
                // the site is PROVEN; reads race only with disjoint writes
                // per the launch contract.
                let $x = |l: usize| unsafe { *$p.add(idx[l] as usize) };
                $e
            }
        }
    };
}

/// Reads `b` where [`load_global`] said — its run, else at `idx` — straight
/// into the row of `dst`, in one lane loop at the buffer's element type,
/// which [`validate`] made the kind of `dst`: a slice copy over a run.
#[inline(always)]
fn load_lanes(
    vregs: &mut File,
    dst: R,
    b: &SharedBuf,
    at: (Option<(usize, usize)>, &[i64; BUNDLE]),
    mask: Mask,
) {
    macro_rules! load {
        ($p:expr) => {
            with_elements!($p, at, |x| for_mask!(mask, l, {
                x(l).put(vregs, dst, l);
            }))
        };
    }
    match b.ptr() {
        BufPtr::F32(p) => load!(p),
        BufPtr::F64(p) => load!(p),
        BufPtr::I32(p) => load!(p),
    }
}

/// The index of `link` in lane `l`: `base ± off`, i32 wrapping.
#[inline(always)]
fn link_index(vregs: &File, link: &Link, l: usize) -> i64 {
    let (base, at) = (i32::get(vregs, link.base, l), |o| i32::get(vregs, o, l));
    let off = |(o, sub)| if sub { base.wrapping_sub(at(o)) } else { base.wrapping_add(at(o)) };
    link.off.map_or(base, off) as i64
}

/// [`Op::LdGSum`] over the active lanes, its buffer's base pointer `p` at
/// the element type `T`: `src` (if any), then each link in chain order,
/// folds lane by lane into a local accumulator, and the last link's pass
/// writes `dst`, once, after every link has read its index. Each link takes
/// its run or its checked indices from [`load_global`], so it counts,
/// traces, reports and panics as the `LdG` it was; a run sums as a
/// vector add. A local array is what lets the loops vectorise (the register
/// file's rows may alias); it starts uninitialised: no per-dispatch fill.
/// i32 wraps like [`bin_bits`].
#[inline(never)]
fn load_sum<T>(
    w: &mut WarpCtx<'_>,
    lic: Licence<'_>,
    vregs: &mut File,
    p: *const T,
    (dst, buf, src, links): (R, u16, Option<R>, &[Link]),
    mask: Mask,
) where
    T: Lane + std::ops::Add<Output = T> + std::ops::Sub<Output = T>,
{
    let mut sum = [MaybeUninit::<T>::uninit(); BUNDLE];
    // One link's pass over the lanes `l` of `mask`, `c` = `&mut sum[l]`:
    // `$v` = `s ⊕ $x(l)` per the fold `$f`, the sum so far `s` = `$get`,
    // stored by `$put`.
    macro_rules! pass {
        ($f:expr, $x:ident, |$c:ident, $l:ident, $v:ident| $get:expr => $put:expr) => {
            match $f {
                (false, false) => each_lane(&mut sum, mask, |$c, $l| {
                    let $v = $get + $x($l);
                    $put;
                }),
                (false, true) => each_lane(&mut sum, mask, |$c, $l| {
                    let $v = $x($l) + $get;
                    $put;
                }),
                (true, false) => each_lane(&mut sum, mask, |$c, $l| {
                    let $v = $get - $x($l);
                    $put;
                }),
                (true, true) => each_lane(&mut sum, mask, |$c, $l| {
                    let $v = $x($l) - $get;
                    $put;
                }),
            }
        };
    }
    for (i, link) in links.iter().enumerate() {
        let (regs, at, unit) = (&*vregs, (buf, link.site, false), lic.unit(link.base, link.off));
        let (_, run) = load_global(w, lic, at, mask, unit, |l| link_index(regs, link, l));
        // The first link starts from `src` or from nothing, the last writes
        // `dst`, and every other pass reads and writes `sum`.
        let (f, last) = ((link.sub, link.rev), i + 1 == links.len());
        with_elements!(p, (run, &*w.idx), |x| match (i, src, last) {
            (0, None, false) => each_lane(&mut sum, mask, |c, l| _ = c.write(x(l))),
            (0, None, true) => for_mask!(mask, l, {
                x(l).put(vregs, dst, l);
            }),
            (0, Some(s), false) => pass!(f, x, |c, l, v| T::get(vregs, s, l) => c.write(v)),
            (0, Some(s), true) =>
                pass!(f, x, |_c, l, v| T::get(vregs, s, l) => v.put(vregs, dst, l)),
            // SAFETY: every pass visits the lanes of `mask` alone, and the
            // first link's, not being the last, wrote each of them to `sum`.
            (_, _, false) => pass!(f, x, |c, l, v| unsafe { c.assume_init_read() } => c.write(v)),
            // SAFETY: as for the arm above.
            (_, _, true) => {
                pass!(f, x, |c, l, v| unsafe { c.assume_init_read() } => v.put(vregs, dst, l))
            }
        });
    }
}

/// `f(&mut sum[l], l)` for the active lanes of `mask`, over a dense slice of
/// the accumulator when they are contiguous (no per-lane index check).
#[inline(always)]
fn each_lane<S>(sum: &mut [S; BUNDLE], mask: Mask, mut f: impl FnMut(&mut S, usize)) {
    match contiguous(mask) {
        Some((lo, hi)) => sum[lo..hi].iter_mut().zip(lo..).for_each(|(s, l)| f(s, l)),
        None => for_lanes!(mask, l, {
            f(&mut sum[l], l);
        }),
    }
}

/// One bundle-op's global store of register `val` (kind `vk`) at
/// `(buf, site)`: the store-side twin of [`load_global`].
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn store_global(
    w: &mut WarpCtx<'_>,
    lic: Licence<'_>,
    (buf, site): (u16, u32),
    mask: Mask,
    unit: bool,
    idx_of: impl Fn(usize) -> i64,
    vregs: &File,
    val: (R, K),
) {
    let b = w.bufs[buf as usize].expect("buffer bound");
    let (n, eb) = (mask.count_ones() as u64, b.elem_bytes() as u64);
    w.counters.stores_global += n;
    w.counters.bytes_stored += eb * n;
    if let Some((lo, start)) = unit_run(b, unit && !w.modeled, mask, &idx_of) {
        scatter_lanes(b, |l| start + l - lo, mask, vregs, val);
    } else {
        checked_indices(lic, (buf, site, b.len()), mask, idx_of, "store", w.idx);
        if w.modeled {
            for_mask!(mask, l, {
                w.traces[l].push(trace_rec(buf, site, w.idx[l], eb));
            });
        }
        shadow_scatter(b, w, mask, buf, site);
        scatter_lanes(b, |l| w.idx[l] as usize, mask, vregs, val);
    }
}

// The superinstruction bodies below dispatch on their operand kind **once**
// and run monomorphic lane loops — the scalar-helper compositions reproduce
// [`bin_bits`]'s arms exactly, operand order included (float addition is not
// bitwise-commutative around NaN payloads).

/// [`Op::MulAdd`] over the active lanes: `dst = (a*b) ⊕ c`, two roundings.
fn mul_add(
    vregs: &mut File,
    (dst, a, b, c): (R, R, R, R),
    k: K,
    (sub, rev): (bool, bool),
    mask: Mask,
) {
    macro_rules! fma {
        ($t:ty) => {
            match (sub, rev) {
                (false, false) => vmap3(vregs, dst, (a, b, c), mask, |x: $t, y, z| x * y + z),
                (false, true) => vmap3(vregs, dst, (a, b, c), mask, |x: $t, y, z| z + x * y),
                (true, false) => vmap3(vregs, dst, (a, b, c), mask, |x: $t, y, z| x * y - z),
                (true, true) => vmap3(vregs, dst, (a, b, c), mask, |x: $t, y, z| z - x * y),
            }
        };
    }
    match k {
        K::F32 => fma!(f32),
        K::F64 => fma!(f64),
        K::I32 => fma!(Wrapping<i32>),
        K::Bool => unreachable!("mul/add never fuses at bool kind"),
    }
}

/// Outcome of resolving a conditional branch for the active mask.
enum Branch {
    /// Continue vectorized execution at this pc with this mask.
    Goto(usize, Mask),
    /// Every lane of the region returned inside the branch's sides.
    Done,
}

/// One bundle's execution state: the pieces [`WarpExec::run`] threads
/// through its reconvergence recursion.
struct WarpExec<'e, 'w> {
    c: &'e Compiled,
    vregs: &'e mut File,
    privs: &'e mut [PrivRows],
    w: &'e mut WarpCtx<'w>,
    lic: Licence<'e>,
    /// See [`PhaseRun::diverged`].
    diverged: u32,
    /// Lanes that executed `Ret` (see [`PhaseRun::returned`]).
    returned: Mask,
    /// Profiled runs only: the opcode whose bundle-wide dispatch is open and
    /// its start time. A *field* (not a `run` local) so reconvergence
    /// recursion attributes seamlessly: a child region's first iteration
    /// closes the parent's branch-op span, and nothing is double-counted.
    pending: Option<(usize, Instant)>,
}

impl WarpExec<'_, '_> {
    /// Closes the open per-op attribution span, if any (profiled runs).
    #[inline]
    fn flush_pending(&mut self) {
        flush_pending(&mut self.w.prof, &mut self.pending);
    }

    /// Executes ops from `pc` until the active lanes reach the
    /// reconvergence pc `until` (`c.ops.len()` means "run to `Ret`/`Halt`").
    /// Returns the mask of lanes parked at `until`, without executing it;
    /// lanes that hit `Ret`/`Halt` first are dropped. `mask` starts
    /// non-empty. The hot arms of the acoustics tapes (i32 index arithmetic,
    /// comparisons, `AsI64` from i32, bool logic/select) are monomorphised
    /// so the lane loops carry no per-lane kind dispatch. `PROF` is a const
    /// generic so the unprofiled instantiation carries no timing code at
    /// all: one timer read per op both closes the previous op's span and
    /// opens the next, and control-flow ops are charged until their target's
    /// first dispatch — their interpretation cost.
    fn run<const PROF: bool>(&mut self, mut pc: usize, until: usize, mut mask: Mask) -> Mask {
        let (ops, lic) = (&self.c.ops[..], self.lic);
        let uniform = |r: R| lic.shape(r) == Shape::Uniform;
        let wide = |r: R| self.c.wide[r as usize];
        // Resolves the conditional branch at `pc`, `$jmask` ⊆ `mask` being
        // the lanes that jump. The condition arms collect those lanes: one
        // over uniform registers is read off the first active lane; the lane
        // loops settle the rest — and, in debug builds, audit the shortcut
        // ([`decided`]).
        macro_rules! branch {
            ($jmask:expr, $target:expr) => {{
                let jmask = $jmask;
                match self.branch::<PROF>(pc, $target as usize, jmask, mask) {
                    Branch::Goto(p, m) => {
                        pc = p;
                        mask = m;
                        continue;
                    }
                    Branch::Done => return 0,
                }
            }};
        }
        loop {
            if pc == until {
                return mask;
            }
            if PROF {
                let now = Instant::now();
                if let (Some((idx, start)), Some(p)) =
                    (self.pending.take(), self.w.prof.as_deref_mut())
                {
                    p.add(idx, now - start);
                }
                // SAFETY: as for the fetch below — `pc` is in bounds.
                self.pending = Some((op_index(unsafe { ops.get_unchecked(pc) }), now));
            }
            let vregs = &mut *self.vregs;
            // SAFETY: `exec_phase_warp` asserts the entry pc is inside the
            // tape, and `validate` checked that every jump target and phase
            // entry is too and that the tape ends in `Ret`/`Halt`; by
            // induction `pc` stays in bounds (a non-terminator is never
            // final, hence `pc + 1` lands on an op; jumps land on validated
            // targets), and `until` is checked before the fetch. The
            // `Goto(join, …)` of a divergent branch lands on a join that
            // `validate`'s join rule puts at `≤ ops.len()`, with lanes only
            // when a side's run parked them there, i.e. when that side
            // reached `join` by one of the moves above — inside the tape.
            match *unsafe { ops.get_unchecked(pc) } {
                Op::Const { dst, bits } => {
                    at_width!(wide(dst), T => vfill(vregs, dst, mask, bits as T))
                }
                Op::Gsz { dst, dim } => {
                    vfill(vregs, dst, mask, self.w.ids.gsize[dim as usize] as i32)
                }
                ref op @ (Op::Gid { .. } | Op::Lid { .. } | Op::Lsz { .. } | Op::Grp { .. }) => {
                    write_context(op, vregs, mask, &self.w.ids)
                }
                Op::Mov { dst, src } => {
                    at_width!(wide(dst), T => vmap1(vregs, dst, src, mask, |x: T| x))
                }
                Op::Cast { dst, src, from, to } => match (from, to) {
                    (K::I32, K::F32) => vmap1(vregs, dst, src, mask, |x: i32| x as f64 as f32),
                    (K::I32, K::F64) => vmap1(vregs, dst, src, mask, |x: i32| x as f64),
                    _ => for_mask!(mask, l, {
                        let x = vgw(vregs, src, from.wide(), l);
                        vsw(vregs, dst, to.wide(), l, cast_bits(from, to, x));
                    }),
                },
                Op::AsI64 { dst, src, from } => match from {
                    K::I32 => vmap1(vregs, dst, src, mask, |x: i32| x as i64),
                    _ => for_mask!(mask, l, {
                        to_i64(from, vgw(vregs, src, from.wide(), l)).put(vregs, dst, l);
                    }),
                },
                Op::MaxOne { dst } => vmap1(vregs, dst, dst, mask, |x: i64| x.max(1)),
                Op::I64ToI32 { dst, src } => vmap1(vregs, dst, src, mask, |x: i64| x as i32),
                Op::AddI64 { dst, a, b } => vmap2(vregs, dst, a, b, mask, |x: i64, y| x + y),
                Op::JgeI64 { a, b, target } => {
                    let jumps = |l| i64::get(vregs, a, l) >= i64::get(vregs, b, l);
                    branch!(decided(uniform(a) && uniform(b), mask, jumps), target)
                }
                Op::Neg { dst, src, k } => match k {
                    K::F32 => vmap1(vregs, dst, src, mask, |x: f32| -x),
                    K::F64 => vmap1(vregs, dst, src, mask, |x: f64| -x),
                    K::I32 => vmap1(vregs, dst, src, mask, |x: i32| -x),
                    K::Bool => vmap1(vregs, dst, src, mask, |x: bool| -(x as i32)),
                },
                Op::Not { dst, src, k } => for_mask!(mask, l, {
                    (!truthy(k, vgw(vregs, src, k.wide(), l))).put(vregs, dst, l);
                }),
                Op::Bin { dst, a, b, op, k } => {
                    macro_rules! bin {
                        ($t:ty, $op:tt) => {
                            vmap2(vregs, dst, a, b, mask, |x: $t, y| x $op y)
                        };
                    }
                    match (k, op) {
                        (K::F32, BinOp::Add) => bin!(f32, +),
                        (K::F32, BinOp::Sub) => bin!(f32, -),
                        (K::F32, BinOp::Mul) => bin!(f32, *),
                        (K::F64, BinOp::Add) => bin!(f64, +),
                        (K::F64, BinOp::Sub) => bin!(f64, -),
                        (K::F64, BinOp::Mul) => bin!(f64, *),
                        (K::I32, BinOp::Add) => bin!(Wrapping<i32>, +),
                        (K::I32, BinOp::Sub) => bin!(Wrapping<i32>, -),
                        (K::I32, BinOp::Mul) => bin!(Wrapping<i32>, *),
                        _ if op.is_predicate() => with_cmp!(k, op, bin),
                        // Division: operands and result at the width of `k`.
                        _ => for_mask!(mask, l, {
                            let (x, y) = (vgw(vregs, a, k.wide(), l), vgw(vregs, b, k.wide(), l));
                            vsw(vregs, dst, k.wide(), l, bin_bits(op, k, x, y));
                        }),
                    }
                }
                Op::Logic { dst, a, b, ka, kb, or } => match (ka, kb, or) {
                    (K::Bool, K::Bool, false) => vmap2(vregs, dst, a, b, mask, |x: bool, y| x && y),
                    (K::Bool, K::Bool, true) => vmap2(vregs, dst, a, b, mask, |x: bool, y| x || y),
                    _ => for_mask!(mask, l, {
                        let p = truthy(ka, vgw(vregs, a, ka.wide(), l));
                        let q = truthy(kb, vgw(vregs, b, kb.wide(), l));
                        (if or { p || q } else { p && q }).put(vregs, dst, l);
                    }),
                },
                Op::MinMax { dst, a, b, k, max } => match (k, max) {
                    (K::F32, _) => vmap2(vregs, dst, a, b, mask, |x: f32, y| {
                        let (p, q) = (x as f64, y as f64);
                        (if max { p.max(q) } else { p.min(q) }) as f32
                    }),
                    (K::F64, true) => vmap2(vregs, dst, a, b, mask, |x: f64, y| x.max(y)),
                    (K::F64, false) => vmap2(vregs, dst, a, b, mask, |x: f64, y| x.min(y)),
                    (K::I32, true) => vmap2(vregs, dst, a, b, mask, |x: i32, y| x.max(y)),
                    (K::I32, false) => vmap2(vregs, dst, a, b, mask, |x: i32, y| x.min(y)),
                    (K::Bool, _) => unreachable!("min/max never promotes to bool"),
                },
                Op::Intr1 { dst, src, intr, k } => match k {
                    K::F32 => vmap1(vregs, dst, src, mask, |x: f32| intr1_f32(intr, x)),
                    _ => vmap1(vregs, dst, src, mask, |x: f64| intr1_f64(intr, x)),
                },
                // The index at its register's width: an i64 (no `off`, by
                // `validate`), or an i32 `base ± off` wrapping like `bin_bits`.
                Op::LdG { dst, buf, base, off, site, constant } => {
                    let (at, unit, regs) = ((buf, site, constant), lic.unit(base, off), &*vregs);
                    let (b, run) = match off {
                        _ if wide(base) => {
                            let idx = |l| i64::get(regs, base, l);
                            load_global(self.w, lic, at, mask, unit, idx)
                        }
                        Some((o, sub)) => {
                            let (x, y) = (|l| i32::get(regs, base, l), |l| i32::get(regs, o, l));
                            if sub {
                                let idx = |l| x(l).wrapping_sub(y(l)) as i64;
                                load_global(self.w, lic, at, mask, unit, idx)
                            } else {
                                let idx = |l| x(l).wrapping_add(y(l)) as i64;
                                load_global(self.w, lic, at, mask, unit, idx)
                            }
                        }
                        None => {
                            let idx = |l| i32::get(regs, base, l) as i64;
                            load_global(self.w, lic, at, mask, unit, idx)
                        }
                    };
                    load_lanes(vregs, dst, b, (run, self.w.idx), mask);
                }
                Op::StG { buf, idx, val, vk, site } => {
                    let (at, unit, regs) = ((buf, site), lic.unit(idx, None), &*vregs);
                    if wide(idx) {
                        let ix = |l| i64::get(regs, idx, l);
                        store_global(self.w, lic, at, mask, unit, ix, regs, (val, vk));
                    } else {
                        let ix = |l| i32::get(regs, idx, l) as i64;
                        store_global(self.w, lic, at, mask, unit, ix, regs, (val, vk));
                    }
                }
                Op::LdP { dst, arr, idx } => {
                    let p = &mut self.privs[arr as usize];
                    for part in one_index(mask, uniform(idx)) {
                        let row = p.row(arr, vregs, idx, part);
                        at_width!(wide(dst), T => for_mask!(part, l, {
                            (row[l] as T).put(vregs, dst, l);
                        }));
                    }
                }
                Op::StP { arr, idx, val, vk, k } => {
                    let p = &mut self.privs[arr as usize];
                    for part in one_index(mask, uniform(idx)) {
                        let row = p.row(arr, vregs, idx, part);
                        // `Value::cast` of a value of the array's kind: f32 goes
                        // through f64 and back, the other kinds keep their bits.
                        match (vk, k) {
                            (K::F32, K::F32) => for_mask!(part, l, {
                                row[l] = b32(f32::get(vregs, val, l) as f64 as f32);
                            }),
                            _ if vk == k => for_mask!(part, l, {
                                row[l] = vgw(vregs, val, k.wide(), l);
                            }),
                            _ => for_mask!(part, l, {
                                row[l] = cast_bits(vk, k, vgw(vregs, val, vk.wide(), l));
                            }),
                        }
                    }
                }
                Op::LdL { dst, arr, idx } => {
                    let a = &self.w.locals[arr as usize];
                    at_width!(wide(dst), T => for_mask!(mask, l, {
                        let at = array_index("local", arr as usize, i64::get(vregs, idx, l), a.len());
                        (a[at] as T).put(vregs, dst, l);
                    }))
                }
                Op::StL { arr, idx, val, vk, k } => {
                    let a = &mut self.w.locals[arr as usize];
                    for_mask!(mask, l, {
                        let at =
                            array_index("local", arr as usize, i64::get(vregs, idx, l), a.len());
                        a[at] = cast_bits(vk, k, vgw(vregs, val, vk.wide(), l));
                    });
                }
                Op::DeclPriv { arr, len } => {
                    let len = |l| i64::get(vregs, len, l);
                    self.privs[arr as usize].declare(arr, mask, len);
                }
                // Allocated (zeroed) by the first bundle of the group to get
                // here; the length is uniform across the group.
                Op::DeclLocal { arr, len } => {
                    let n = i64::get(vregs, len, first(mask));
                    let n = array_len("local", arr as usize, n);
                    let a = &mut self.w.locals[arr as usize];
                    if a.len() != n {
                        a.clear();
                        a.resize(n, 0);
                    }
                }
                Op::Flops { n } => {
                    self.w.counters.flops += n as u64 * mask.count_ones() as u64;
                }
                Op::Jmp { target } => {
                    pc = target as usize;
                    continue;
                }
                Op::Jz { cond, k, target } => {
                    let jumps = |l| !truthy(k, vgw(vregs, cond, k.wide(), l));
                    branch!(decided(uniform(cond), mask, jumps), target)
                }
                Op::Ret => {
                    self.returned |= mask;
                    return 0;
                }
                Op::Halt => return 0,
                Op::MulAdd { dst, a, b, c, k, sub, rev } => {
                    mul_add(vregs, (dst, a, b, c), k, (sub, rev), mask)
                }
                Op::CmpJz { a, b, op, k, target } => {
                    let jumps = cmp_jumps(vregs, (a, b, op, k), mask, uniform(a) && uniform(b));
                    branch!(jumps, target)
                }
                Op::LdGSum { dst, buf, src, at, n } => {
                    let sum = (dst, buf, src, &self.c.links[at as usize..][..n as usize]);
                    match self.w.bufs[buf as usize].expect("buffer bound").ptr() {
                        BufPtr::F32(p) => load_sum(self.w, lic, vregs, p, sum, mask),
                        BufPtr::F64(p) => load_sum(self.w, lic, vregs, p, sum, mask),
                        // `Wrapping` is `repr(transparent)`.
                        BufPtr::I32(p) => {
                            load_sum(self.w, lic, vregs, p.cast::<Wrapping<i32>>(), sum, mask)
                        }
                    }
                }
            }
            pc += 1;
        }
    }

    /// Resolves the conditional branch at `pc`: `jmask` (⊆ `mask`) holds the
    /// lanes that take the jump to `target`. Uniform masks are a single
    /// jump. Divergent masks execute both sides under complementary masks
    /// and reconverge at the branch's join (its immediate postdominator,
    /// which `validate` proved to exist). Each side of a divergent branch
    /// holds strictly fewer lanes than `mask`, so the reconvergence
    /// recursion is at most `BUNDLE - 1` frames deep. Divergence is the
    /// warps' own: a warp whose active lanes all go one way did not diverge,
    /// whatever the other warps of its bundle do.
    fn branch<const PROF: bool>(
        &mut self,
        pc: usize,
        target: usize,
        jmask: Mask,
        mask: Mask,
    ) -> Branch {
        if jmask == 0 {
            return Branch::Goto(pc + 1, mask);
        }
        if jmask == mask {
            return Branch::Goto(target, mask);
        }
        self.diverged |= warps(jmask) & warps(mask & !jmask);
        let j = self.c.joins[pc] as usize;
        let fell = self.run::<PROF>(pc + 1, j, mask & !jmask);
        let jumped = self.run::<PROF>(target, j, jmask);
        match fell | jumped {
            // Every lane returned on its side; the join may then lie past
            // the enclosing region's end (an arm that ends in `Ret`).
            0 => Branch::Done,
            m => Branch::Goto(j, m),
        }
    }
}

#[inline(always)]
fn intr1_f32(i: Intrinsic, x: f32) -> f32 {
    match i {
        Intrinsic::Sqrt => x.sqrt(),
        Intrinsic::Fabs => x.abs(),
        Intrinsic::Exp => x.exp(),
        Intrinsic::Log => x.ln(),
        Intrinsic::Sin => x.sin(),
        Intrinsic::Cos => x.cos(),
        _ => unreachable!("not a unary intrinsic"),
    }
}

#[inline(always)]
fn intr1_f64(i: Intrinsic, x: f64) -> f64 {
    match i {
        Intrinsic::Sqrt => x.sqrt(),
        Intrinsic::Fabs => x.abs(),
        Intrinsic::Exp => x.exp(),
        Intrinsic::Log => x.ln(),
        Intrinsic::Sin => x.sin(),
        Intrinsic::Cos => x.cos(),
        _ => unreachable!("not a unary intrinsic"),
    }
}

#[inline(always)]
pub(crate) fn bin_bits(op: BinOp, k: K, x: u64, y: u64) -> u64 {
    match k {
        K::F32 => {
            let (a, b) = (f32v(x), f32v(y));
            match op {
                BinOp::Add => b32(a + b),
                BinOp::Sub => b32(a - b),
                BinOp::Mul => b32(a * b),
                BinOp::Div => b32(a / b),
                BinOp::Eq => bb(a == b),
                BinOp::Ne => bb(a != b),
                BinOp::Lt => bb(a < b),
                BinOp::Le => bb(a <= b),
                BinOp::Gt => bb(a > b),
                BinOp::Ge => bb(a >= b),
                BinOp::Rem | BinOp::And | BinOp::Or => unreachable!("not monomorphised to f32"),
            }
        }
        K::F64 => {
            let (a, b) = (f64v(x), f64v(y));
            match op {
                BinOp::Add => b64(a + b),
                BinOp::Sub => b64(a - b),
                BinOp::Mul => b64(a * b),
                BinOp::Div => b64(a / b),
                BinOp::Eq => bb(a == b),
                BinOp::Ne => bb(a != b),
                BinOp::Lt => bb(a < b),
                BinOp::Le => bb(a <= b),
                BinOp::Gt => bb(a > b),
                BinOp::Ge => bb(a >= b),
                BinOp::Rem | BinOp::And | BinOp::Or => unreachable!("not monomorphised to f64"),
            }
        }
        K::I32 => {
            let (a, b) = (i32v(x), i32v(y));
            match op {
                BinOp::Add => bi32(a.wrapping_add(b)),
                BinOp::Sub => bi32(a.wrapping_sub(b)),
                BinOp::Mul => bi32(a.wrapping_mul(b)),
                BinOp::Div => bi32(a / b),
                BinOp::Rem => bi32(a % b),
                BinOp::Eq => bb(a == b),
                BinOp::Ne => bb(a != b),
                BinOp::Lt => bb(a < b),
                BinOp::Le => bb(a <= b),
                BinOp::Gt => bb(a > b),
                BinOp::Ge => bb(a >= b),
                BinOp::And | BinOp::Or => unreachable!("logic ops use Op::Logic"),
            }
        }
        K::Bool => unreachable!("binary ops never monomorphise to bool"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufData;
    use crate::buffer::SharedBuf;
    use crate::exec::tests::shadowed;
    use crate::exec::{launch, prepare, ArgBind, Engine, ExecMode};
    use lift::kast::{KExpr, KStmt, Kernel, KernelParam, MemRef};
    use lift::prelude::Lit;

    /// out[gid] = x[gid] * scale + bias-ish expression, with `expr` as the
    /// stored value; single f32 input/output pair plus one scalar `a`.
    fn unary_kernel(name: &str, expr: KExpr) -> Kernel {
        Kernel {
            name: name.into(),
            params: vec![
                KernelParam::global_buf("x", ScalarKind::F32),
                KernelParam::global_buf("out", ScalarKind::F32),
                KernelParam::scalar("a", ScalarKind::F32),
            ],
            body: vec![KStmt::Store {
                mem: MemRef::Param(1),
                idx: KExpr::GlobalId(0),
                value: expr,
            }],
            work_dim: 1,
        }
        .resolve_real(ScalarKind::F32)
    }

    /// Launches on the differential engine (tree vs tape bit-equality of
    /// buffers, counters and transaction bytes is asserted inside) and
    /// returns the output buffer.
    fn run_diff(k: &Kernel, n: usize, a: f32) -> Vec<f64> {
        let prep = prepare(k).unwrap();
        let x = shadowed((0..n).map(|i| i as f32).collect::<Vec<_>>());
        let out = shadowed(vec![0.0f32; n]);
        launch(
            &prep,
            &[ArgBind::Buf(&x), ArgBind::Buf(&out), ArgBind::Val(Value::F32(a))],
            &[n],
            None,
            ExecMode::Model { sample_stride: 1 },
            128,
            Engine::Differential,
            &crate::Runtime::sanitizing(),
        )
        .unwrap();
        unsafe { out.data() }.to_f64_vec()
    }

    fn tape_of(k: &Kernel) -> Compiled {
        prepare(k).unwrap().tape
    }

    #[test]
    fn constant_expressions_fold_to_a_single_const() {
        // (2 + 3) is constant: the Add folds, and the folded constant (an
        // operand-free Const) is then hoisted into the warp prelude.
        let k = unary_kernel(
            "fold5",
            KExpr::load(MemRef::Param(0), KExpr::GlobalId(0))
                * (KExpr::real(2.0) + KExpr::real(3.0)),
        );
        let t = tape_of(&k);
        assert!(t.optimized_ops > 0);
        let five = (5.0f32).to_bits() as u64;
        assert!(
            t.pre.iter().any(|op| matches!(op, Op::Const { bits, .. } if *bits == five)),
            "folded 5.0 should sit in the prelude: {:?}",
            t.pre
        );
        let out = run_diff(&k, 64, 0.0);
        assert_eq!(out[7], 7.0 * 5.0);
    }

    #[test]
    fn scalar_invariant_ops_hoist_into_the_prelude() {
        // a*a depends only on a never-written scalar slot: computed once
        // per register file instead of once per item, even though it sits
        // in the middle of the per-item expression.
        let k = unary_kernel(
            "hoistsq",
            KExpr::load(MemRef::Param(0), KExpr::GlobalId(0)) + KExpr::var("a") * KExpr::var("a"),
        );
        let t = tape_of(&k);
        assert!(
            t.pre.iter().any(|op| matches!(op, Op::Bin { op: BinOp::Mul, .. })),
            "a*a should be hoisted: {:?}",
            t.pre
        );
        let out = run_diff(&k, 64, 3.0);
        assert_eq!(out[11], 11.0 + 9.0);
    }

    #[test]
    fn repeated_gid_reads_dedupe_into_the_item_prelude() {
        // GlobalId(0) appears three times; codegen re-emits the read at
        // each use site, the context-CSE pass leaves exactly one copy,
        // executed once per item.
        let k = unary_kernel(
            "gidcse",
            KExpr::load(MemRef::Param(0), KExpr::GlobalId(0))
                + KExpr::Cast(
                    ScalarKind::F32,
                    Box::new(KExpr::GlobalId(0) * KExpr::int(2) + KExpr::GlobalId(0)),
                ),
        );
        let t = tape_of(&k);
        let in_item_pre = t.item_pre.iter().filter(|op| matches!(op, Op::Gid { .. })).count();
        let in_tape = t.ops.iter().filter(|op| matches!(op, Op::Gid { .. })).count();
        assert_eq!(in_item_pre, 1, "one canonical Gid: {:?}", t.item_pre);
        assert_eq!(in_tape, 0, "all in-tape Gid reads deduped");
        let out = run_diff(&k, 64, 0.0);
        assert_eq!(out[9], 9.0 + (9 * 2 + 9) as f64);
    }

    #[test]
    fn optimizer_preserves_counters_and_transactions() {
        // The differential engine compares values, counters, and modeled
        // transaction bytes bit-for-bit between the optimized tape and the
        // unoptimized tree-walker — on a kernel exercising fold + hoist +
        // context CSE together.
        let k = unary_kernel(
            "alltogether",
            (KExpr::load(MemRef::Param(0), KExpr::GlobalId(0)) + KExpr::var("a") * KExpr::var("a"))
                * (KExpr::real(1.0) + KExpr::real(0.5))
                + KExpr::Cast(ScalarKind::F32, Box::new(KExpr::GlobalId(0))),
        );
        let out = run_diff(&k, 200, 2.0);
        assert_eq!(out[13], (13.0 + 4.0) * 1.5 + 13.0);
    }

    #[test]
    fn validated_tapes_keep_terminators_and_bounds() {
        let k = unary_kernel("vcheck", KExpr::load(MemRef::Param(0), KExpr::GlobalId(0)));
        let prep = prepare(&k).unwrap();
        assert!(validate(&prep.tape, &prep), "fresh tapes must pass validation");
        let mut broken = prep.tape.clone();
        broken.ops.push(Op::Mov { dst: broken.nregs as R, src: 0 });
        broken.joins.push(NO_JOIN);
        assert!(!validate(&broken, &prep), "out-of-range register must be rejected");
    }

    /// `validate` holds every branch to `pc < target ≤ join ≤ ops.len()` and
    /// every other op to `NO_JOIN`: four hand edits of a compiled diamond,
    /// each breaking one side of the rule, are rejected.
    #[test]
    fn validate_rejects_a_branch_without_a_proper_join() {
        let prep = prepare(&select_kernel("joins")).unwrap();
        let t = &prep.tape;
        assert!(validate(t, &prep));
        let pc = t.ops.iter().position(is_branch).expect("the select is a branch");
        let target = jump_target(&t.ops[pc]).unwrap();
        assert!(target < t.joins[pc], "a diamond's else arm starts before its join");
        let other = t.ops.iter().position(|op| !is_branch(op)).unwrap();
        let edit = |at: usize, join: u32| {
            let mut bad = t.clone();
            bad.joins[at] = join;
            bad
        };
        for (bad, why) in [
            (edit(pc, NO_JOIN), "a branch without a join"),
            (edit(pc, pc as u32), "a join at its branch"),
            (edit(pc, target - 1), "a target past its join"),
            (edit(other, t.joins[pc]), "a join on a non-branch op"),
        ] {
            assert!(!validate(&bad, &prep), "{why}: {:?}", bad.joins);
        }
    }

    /// `s = 0.5; if (gid % 2 == 0) s = 2 else s = 3; out[gid] = x[gid] * s`
    /// — a branch diamond whose arms are pure constant assigns, the shape
    /// the FI kernel's `one_if` selects compile to.
    fn select_kernel(name: &str) -> Kernel {
        Kernel {
            name: name.into(),
            params: vec![
                KernelParam::global_buf("x", ScalarKind::F32),
                KernelParam::global_buf("out", ScalarKind::F32),
                KernelParam::scalar("a", ScalarKind::F32),
            ],
            body: vec![
                KStmt::DeclScalar {
                    name: "s".into(),
                    kind: ScalarKind::F32,
                    init: Some(KExpr::real(0.5)),
                },
                KStmt::If {
                    cond: KExpr::bin(
                        BinOp::Eq,
                        KExpr::bin(BinOp::Rem, KExpr::GlobalId(0), KExpr::int(2)),
                        KExpr::int(0),
                    ),
                    then_: vec![KStmt::Assign { name: "s".into(), value: KExpr::real(2.0) }],
                    else_: vec![KStmt::Assign { name: "s".into(), value: KExpr::real(3.0) }],
                },
                KStmt::Store {
                    mem: MemRef::Param(1),
                    idx: KExpr::GlobalId(0),
                    value: KExpr::load(MemRef::Param(0), KExpr::GlobalId(0)) * KExpr::var("s"),
                },
            ],
            work_dim: 1,
        }
        .resolve_real(ScalarKind::F32)
    }

    /// A pure diamond stays a branch: the lane-dependent condition splits
    /// both warps, each runs the two arms under complementary masks, and the
    /// merged `s` matches the tree oracle bit for bit.
    #[test]
    fn a_lane_dependent_pure_select_stays_a_branch() {
        let k = select_kernel("pure_diamond");
        let t = tape_of(&k);
        assert!(t.ops.iter().any(is_branch), "the diamond keeps its branch: {:?}", t.ops);
        let out = run_diff(&k, 64, 0.0);
        assert_eq!((out[8], out[9]), (8.0 * 2.0, 9.0 * 3.0));
        let prep = prepare(&k).unwrap();
        let x = shadowed(vec![1.0f32; 64]);
        let out = shadowed(vec![0.0f32; 64]);
        let stats = launch(
            &prep,
            &[ArgBind::Buf(&x), ArgBind::Buf(&out), ArgBind::Val(Value::F32(0.0))],
            &[64],
            None,
            ExecMode::Fast,
            128,
            Engine::Fast,
            &crate::Runtime::sanitizing(),
        )
        .unwrap();
        assert_eq!(stats.divergent_warps, 2, "both warps split at the diamond");
    }

    #[test]
    fn store_bearing_branch_arms_keep_their_jumps() {
        // Same diamond shape, but the arms store to global memory.
        let k = Kernel {
            name: "ifkeep".into(),
            params: vec![
                KernelParam::global_buf("x", ScalarKind::F32),
                KernelParam::global_buf("out", ScalarKind::F32),
                KernelParam::scalar("a", ScalarKind::F32),
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
                    value: KExpr::load(MemRef::Param(0), KExpr::GlobalId(0)),
                }],
                else_: vec![KStmt::Store {
                    mem: MemRef::Param(1),
                    idx: KExpr::GlobalId(0),
                    value: KExpr::var("a"),
                }],
            }],
            work_dim: 1,
        }
        .resolve_real(ScalarKind::F32);
        let t = tape_of(&k);
        let jumps = t.ops.iter().filter(|op| is_branch(op)).count();
        assert!(jumps >= 1, "memory arms must keep the branch: {:?}", t.ops);
        let out = run_diff(&k, 64, 7.0);
        assert_eq!(out[6], 6.0);
        assert_eq!(out[7], 7.0);
    }

    /// The lane shapes of `prep`'s registers on a flat launch of `gsize`
    /// whose i32 arguments are `args` (by name; a scalar not named is taken
    /// for a float, of unknown value): `[row-coherent, straddling]`.
    fn shapes_at(prep: &Prepared, gsize: [usize; 3], args: &[(&str, i32)]) -> [Vec<Shape>; 2] {
        let value = |name: &str| args.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);
        let slots = prep.params.iter().zip(&prep.scalar_slots);
        let i32_or_float = |n| value(n).map_or(Value::F32(0.0), Value::I32);
        let args: Vec<_> =
            slots.filter_map(|(p, s)| Some(((*s)?, i32_or_float(&p.name)))).collect();
        crate::compile::launch_shapes(&prep.tape, &args, gsize).0
    }

    /// `(x, out, Nx)` with `body`, then `out[gid0] = Σ named`, so every named
    /// scalar stays live, launched over an 11 × 4 NDRange with `Nx = 11`.
    /// Returns, per warp kind (row-coherent, straddling), the lane shape of
    /// each scalar the body declares, in declaration order (slot 0 is `Nx`;
    /// loop variables count as declarations).
    fn shapes_of(body: Vec<KStmt>, named: &[&str]) -> [Vec<Shape>; 2] {
        let sum = named.iter().map(|n| KExpr::var(*n)).reduce(|a, b| a + b).expect("a name");
        let mut body = body;
        body.push(KStmt::Store { mem: MemRef::Param(1), idx: KExpr::GlobalId(0), value: sum });
        let k = Kernel {
            name: "shapes".into(),
            params: vec![
                KernelParam::global_buf("x", ScalarKind::I32),
                KernelParam::global_buf("out", ScalarKind::I32),
                KernelParam::scalar("Nx", ScalarKind::I32),
            ],
            body,
            work_dim: 2,
        };
        let prep = prepare(&k).unwrap();
        shapes_at(&prep, [11, 4, 1], &[("Nx", 11)]).map(|t| t[1..prep.nslots].to_vec())
    }

    fn decl(name: &str, init: KExpr) -> KStmt {
        KStmt::DeclScalar { name: name.into(), kind: ScalarKind::I32, init: Some(init) }
    }

    fn assign(name: &str, value: KExpr) -> KStmt {
        KStmt::Assign { name: name.into(), value }
    }

    fn store_out(value: i32) -> KStmt {
        KStmt::Store { mem: MemRef::Param(1), idx: KExpr::GlobalId(0), value: KExpr::int(value) }
    }

    /// On an 11-wide NDRange with `Nx = 11`: a row-coherent warp sees the
    /// `gid0` coefficient, a straddling one sees a stride only in a multiple
    /// of the linear item id `gid0 + 11·gid1`.
    #[test]
    fn launch_shapes_follow_the_index_expression() {
        use Shape::{Affine, Uniform, Varying};
        let (g0, g1, nx) = (|| KExpr::GlobalId(0), || KExpr::GlobalId(1), || KExpr::var("Nx"));
        let rows = [
            ("gid0 + 3", g0() + KExpr::int(3), [Affine(1), Varying]),
            ("gid0 + Nx*gid1", g0() + nx() * g1(), [Affine(1), Affine(1)]),
            (
                "(gid1 + 2)*Nx - Nx + gid0",
                (g1() + KExpr::int(2)) * nx() - nx() + g0(),
                [Affine(1); 2],
            ),
            ("2*(gid0 + Nx*gid1)", KExpr::int(2) * (g0() + nx() * g1()), [Affine(2), Affine(2)]),
            ("gid0 + (Nx+1)*gid1", g0() + (nx() + KExpr::int(1)) * g1(), [Affine(1), Varying]),
            ("Nx*gid1 - gid0", nx() * g1() - g0(), [Affine(-1), Varying]),
            (
                "(gid0 + 1) + (gid0 - Nx)",
                (g0() + KExpr::int(1)) + (g0() - nx()),
                [Affine(2), Varying],
            ),
            ("gid1 + Nx", g1() + nx(), [Uniform, Varying]),
            ("Nx*Nx - 3", nx() * nx() - KExpr::int(3), [Uniform, Uniform]),
            ("gid0 * gid1", g0() * g1(), [Varying, Varying]),
            ("x[gid0]", KExpr::load(MemRef::Param(0), g0()), [Varying, Varying]),
            ("x[gid1] + gid0", KExpr::load(MemRef::Param(0), g1()) + g0(), [Varying, Varying]),
        ];
        for (what, expr, want) in rows {
            assert_eq!(shapes_of(vec![decl("v", expr)], &["v"]), want.map(|s| vec![s]), "{what}");
        }
    }

    #[test]
    fn launch_shapes_follow_control_flow() {
        use Shape::{Affine, Uniform, Varying};
        let (g0, g1, nx) = (|| KExpr::GlobalId(0), || KExpr::GlobalId(1), || KExpr::var("Nx"));
        let lt = |a, b| KExpr::bin(BinOp::Lt, a, b);
        // Arms that store keep their jumps; `w` is written in both.
        let branch_on = |cond| {
            vec![
                decl("w", KExpr::int(0)),
                KStmt::If {
                    cond,
                    then_: vec![assign("w", KExpr::int(1)), store_out(1)],
                    else_: vec![assign("w", KExpr::int(2)), store_out(2)],
                },
            ]
        };
        let w = |s: Shape| vec![s];
        assert_eq!(shapes_of(branch_on(lt(g0(), KExpr::int(7))), &["w"]), [w(Varying), w(Varying)]);
        // A `gid[1]` guard splits only a warp that straddles rows.
        assert_eq!(shapes_of(branch_on(lt(g1(), KExpr::int(7))), &["w"]), [w(Uniform), w(Varying)]);
        assert_eq!(shapes_of(branch_on(lt(nx(), KExpr::int(7))), &["w"]), [w(Uniform), w(Uniform)]);
        // An early-return guard splits the warp for good: what the
        // survivors write afterwards they all write.
        let mut guarded = vec![KStmt::return_if(KExpr::bin(BinOp::Ge, g0(), nx()))];
        guarded.extend(branch_on(lt(g1(), KExpr::int(7))));
        assert_eq!(shapes_of(guarded, &["w"]), [w(Uniform), w(Varying)]);

        // acc += x[gid0 + k*Nx] for k in 0..end: the counter is uniform
        // exactly when the trip count is, and the index then unit-stride in
        // a row (in a straddling warp `k·Nx` is of unknown value).
        let sum_to = |end| {
            vec![
                decl("acc", KExpr::int(0)),
                KStmt::For {
                    var: "k".into(),
                    begin: KExpr::int(0),
                    end,
                    step: KExpr::int(1),
                    body: vec![
                        decl("i", g0() + KExpr::var("k") * nx()),
                        assign(
                            "acc",
                            KExpr::var("acc") + KExpr::load(MemRef::Param(0), KExpr::var("i")),
                        ),
                    ],
                },
            ]
        };
        assert_eq!(
            shapes_of(sum_to(nx()), &["acc"]),
            [vec![Varying, Uniform, Affine(1)], vec![Varying, Uniform, Varying]],
            "acc, k, i under a uniform bound"
        );
        assert_eq!(
            shapes_of(sum_to(g0()), &["acc"]),
            [vec![Varying; 3], vec![Varying; 3]],
            "acc, k, i under a per-lane bound"
        );
        // A scalar argument the kernel overwrites has two definitions.
        let clobber = vec![assign("Nx", g0()), decl("v", nx() + KExpr::int(1))];
        assert_eq!(shapes_of(clobber, &["v"]), [w(Varying), w(Varying)]);
    }

    /// Whether each global access of `t` runs unit-stride under `shapes`, as
    /// the executor decides it.
    fn unit_sites(t: &Compiled, shapes: &[Shape]) -> Vec<bool> {
        let sh = |r: R| shapes[r as usize];
        let at = |base, off: Option<(R, bool)>| {
            off.map_or(sh(base), |(o, sub)| sh(base).add(sh(o), sub)) == Shape::Affine(1)
        };
        let unit = |op: &Op| match *op {
            Op::LdG { base, off, .. } => vec![at(base, off)],
            Op::StG { idx, .. } => vec![at(idx, None)],
            Op::LdGSum { .. } => t.chain(op).iter().map(|l| at(l.base, l.off)).collect(),
            _ => vec![],
        };
        t.ops.iter().flat_map(unit).collect()
    }

    /// The volume kernel's `idx = z·Nx·Ny + y·Nx + x` is the linear item id
    /// of a launch of exactly `Nx × Ny × ·` items — every access of a
    /// straddling warp is unit-stride, the slab-placed form's too — and not
    /// of a padded one, where only row-coherent warps keep their runs.
    #[test]
    fn the_volume_index_is_unit_stride_in_straddling_warps_of_an_exact_launch() {
        let real = ScalarKind::F64;
        let whole = room_acoustics::handwritten::volume_kernel().resolve_real(real);
        let slab = room_acoustics::handwritten::volume_slab_kernel().resolve_real(real);
        let dims = [("Nx", 11), ("Ny", 11), ("Nz", 11)];
        for (k, gsize, want) in [
            (&whole, [11, 11, 9], [true, true]),
            (&slab, [11, 11, 9], [true, true]),
            (&whole, [12, 11, 9], [true, false]),
        ] {
            let prep = prepare(k).unwrap();
            let shapes = shapes_at(&prep, gsize, &dims);
            for (kind, (shapes, want)) in
                ["coherent", "straddling"].iter().zip(shapes.iter().zip(want))
            {
                let units = unit_sites(&prep.tape, shapes);
                assert!(units.len() >= 8, "{}: {units:?}", k.name);
                assert!(units.iter().all(|&u| u == want), "{} {gsize:?} {kind}: {units:?}", k.name);
            }
        }
    }

    /// `i = gid; v = x[i]; s = gid < 5 ? v + a : v * a; out[i] = s`: a
    /// declared index, a declared load and the two arms of a select, each
    /// `producer → temporary → Mov`.
    #[test]
    fn copies_coalesce_into_their_producers() {
        let g = || KExpr::GlobalId(0);
        let k = Kernel {
            name: "copies".into(),
            params: vec![
                KernelParam::global_buf("x", ScalarKind::F32),
                KernelParam::global_buf("out", ScalarKind::F32),
                KernelParam::scalar("a", ScalarKind::F32),
            ],
            body: vec![
                decl("i", g() + KExpr::int(0) * g()),
                KStmt::DeclScalar {
                    name: "v".into(),
                    kind: ScalarKind::F32,
                    init: Some(KExpr::load(MemRef::Param(0), KExpr::var("i"))),
                },
                KStmt::DeclScalar {
                    name: "s".into(),
                    kind: ScalarKind::F32,
                    init: Some(KExpr::select(
                        KExpr::bin(BinOp::Lt, g(), KExpr::int(5)),
                        KExpr::var("v") + KExpr::var("a"),
                        KExpr::var("v") * KExpr::var("a"),
                    )),
                },
                KStmt::Store {
                    mem: MemRef::Param(1),
                    idx: KExpr::var("i"),
                    value: KExpr::var("s"),
                },
            ],
            work_dim: 1,
        };
        let t = tape_of(&k);
        let movs = t.ops.iter().filter(|op| matches!(op, Op::Mov { .. })).count();
        assert_eq!(movs, 0, "every copy has a producer to fold into: {:?}", t.ops);
        let out = run_diff(&k, 70, 3.0);
        assert_eq!((out[4], out[5], out[69]), (7.0, 15.0, 207.0));
    }

    /// The names of the superinstructions `t` holds, a load with an offset
    /// step among them.
    fn superinstructions(t: &Compiled) -> std::collections::BTreeSet<&'static str> {
        let fused = |op: &&Op| {
            matches!(
                op,
                Op::MulAdd { .. }
                    | Op::LdG { off: Some(_), .. }
                    | Op::CmpJz { .. }
                    | Op::LdGSum { .. }
            )
        };
        t.ops.iter().filter(fused).map(|op| op_name(op_index(op))).collect()
    }

    /// What the executor takes for granted of a compiled tape, fused ops
    /// included: it validates (every branch has a join), its joins are
    /// those of its final op stream, and no op writes a register that is
    /// broadcast once per register file.
    fn assert_consistent(prep: &Prepared) {
        let (t, nslots) = (&prep.tape, prep.nslots);
        assert!(validate(t, prep), "{:?}", t.ops);
        assert_eq!(t.joins, compute_joins(&t.ops));
        let (once, per_warp) = warp_init_regs(t, nslots);
        for op in &t.ops {
            let d = op_dst(op);
            assert!(d.is_none_or(|d| !once.contains(&d)), "{op:?} writes a once-register");
            assert!(d.is_none_or(|d| d as usize >= nslots || per_warp.contains(&d)), "{op:?}");
        }
    }

    /// ```text
    /// if (gid >= 48) return;
    /// u = x[gid + 1 - 1];
    /// s = u < a ? u : a;
    /// r = (s * a + s) + x[gid];
    /// t = gid < 40 ? x[gid] : a;
    /// q = r + t;
    /// out[gid] = q;
    /// ```
    /// One window of each kind: compare-branch (the guard and both selects),
    /// offset load, multiply-add, a load `r` accumulates (a one-link
    /// `LdGSum`), compare-branch behind the flushed flop count of `r`.
    #[test]
    fn every_fusion_window_keeps_values_counters_and_transactions() {
        let g = || KExpr::GlobalId(0);
        let x = |idx| KExpr::load(MemRef::Param(0), idx);
        let (u, s, a) = (|| KExpr::var("u"), || KExpr::var("s"), || KExpr::var("a"));
        let real = |name: &str, init| KStmt::DeclScalar {
            name: name.into(),
            kind: ScalarKind::F32,
            init: Some(init),
        };
        let k = Kernel {
            name: "windows".into(),
            params: vec![
                KernelParam::global_buf("x", ScalarKind::F32),
                KernelParam::global_buf("out", ScalarKind::F32),
                KernelParam::scalar("a", ScalarKind::F32),
            ],
            body: vec![
                KStmt::return_if(KExpr::bin(BinOp::Ge, g(), KExpr::int(48))),
                real("u", x(g() + KExpr::int(1) - KExpr::int(1))),
                real("s", KExpr::select(KExpr::bin(BinOp::Lt, u(), a()), u(), a())),
                real("r", (s() * a() + s()) + x(g())),
                real("t", KExpr::select(KExpr::bin(BinOp::Lt, g(), KExpr::int(40)), x(g()), a())),
                real("q", KExpr::var("r") + KExpr::var("t")),
                KStmt::Store { mem: MemRef::Param(1), idx: g(), value: KExpr::var("q") },
            ],
            work_dim: 1,
        };
        let prep = prepare(&k).unwrap();
        let t = &prep.tape;
        let want = ["CmpJz", "LdG", "LdGSum", "MulAdd"];
        assert_eq!(superinstructions(t).into_iter().collect::<Vec<_>>(), want, "{:?}", t.ops);
        assert!(t.ops.iter().any(|op| matches!(op, Op::LdGSum { src: Some(_), n: 1, .. })));
        assert!(t.ops.windows(2).any(|w| matches!(w, [Op::Flops { .. }, Op::CmpJz { .. }])));
        assert!(!t.ops.iter().any(|op| matches!(op, Op::Jz { .. })), "{:?}", t.ops);
        assert!(t.fused_ops >= 6, "{} ops absorbed: {:?}", t.fused_ops, t.ops);
        assert_consistent(&prep);
        // The oracle never saw the pass: equal buffers, counters and
        // transaction bytes (asserted inside) say it changed none of them.
        let out = run_diff(&k, 64, 30.0);
        assert_eq!((out[3], out[40], out[48]), (99.0, 1000.0, 0.0));

        // A one-load accumulate at the other two element kinds, in all four
        // `(sub, rev)` forms: `o[4g + j]` = `s ⊕ x[g + 1]` or `x[g + 1] ⊕ s`,
        // each a one-link `LdGSum` from `s`, on plain and sanitizing runtimes.
        for kind in [ScalarKind::F64, ScalarKind::I32] {
            let s = || KExpr::var("s");
            let forms = [
                (s() + x(g() + KExpr::int(1)), (false, false)),
                (x(g() + KExpr::int(1)) + s(), (false, true)),
                (s() - x(g() + KExpr::int(1)), (true, false)),
                (x(g() + KExpr::int(1)) - s(), (true, true)),
            ];
            let mut body =
                vec![KStmt::DeclScalar { name: "s".into(), kind, init: Some(x(g()) * x(g())) }];
            for (j, (value, _)) in forms.iter().enumerate() {
                let idx = g() * KExpr::int(4) + KExpr::int(j as i32);
                body.push(KStmt::Store { mem: MemRef::Param(1), idx, value: value.clone() });
            }
            let k = Kernel {
                name: "acc_forms".into(),
                params: vec![
                    KernelParam::global_buf("x", kind),
                    KernelParam::global_buf("o", kind),
                ],
                body,
                work_dim: 1,
            };
            let prep = prepare(&k).unwrap();
            let t = &prep.tape;
            for (_, (sub, rev)) in forms {
                let hit = |op: &Op| {
                    matches!(op, Op::LdGSum { src: Some(_), .. })
                        && matches!(t.chain(op), [l] if (l.sub, l.rev) == (sub, rev))
                };
                assert!(t.ops.iter().any(hit), "{kind:?} {sub} {rev}: {:?}", t.ops);
            }
            assert_consistent(&prep);
            let n = 70; // two full warps and a 6-lane one
            let data = |v: Vec<i32>| match kind {
                ScalarKind::F64 => {
                    BufData::from(v.iter().map(|&i| i as f64 * 0.3).collect::<Vec<_>>())
                }
                _ => BufData::from(v),
            };
            for sanitize in [false, true] {
                let buf = |d: BufData| SharedBuf::with_shadow(d, sanitize, true);
                let rt = match sanitize {
                    true => crate::Runtime::sanitizing(),
                    false => crate::Runtime::new(crate::runtime().settings),
                };
                for mode in [ExecMode::Fast, ExecMode::Model { sample_stride: 1 }] {
                    let xs = buf(data((0..n as i32 + 1).map(|i| i * 7 - 90).collect()));
                    let o = buf(data(vec![0; 4 * n]));
                    let binds = [ArgBind::Buf(&xs), ArgBind::Buf(&o)];
                    launch(&prep, &binds, &[n], None, mode, 128, Engine::Differential, &rt)
                        .unwrap_or_else(|e| panic!("{kind:?} {mode:?} {sanitize}: {e}"));
                    let xv = unsafe { xs.data() }.to_f64_vec();
                    let ov = unsafe { o.data() }.to_f64_vec();
                    let (sq, nb) = (xv[9] * xv[9], xv[10]);
                    assert_eq!(ov[36..40], [sq + nb, nb + sq, sq - nb, nb - sq], "{kind:?}");
                }
            }
        }
    }

    /// The sums of [`a_sum_chain_matches_the_oracle_on_every_path`] at
    /// element kind `kind`, each `(name, kernel, links)`: an `Nx × Ny × ·`
    /// launch over `(x, m, out, Nx, Ny, N)` stores a sum of `x` to `out[idx]`
    /// where `m[idx] > 0`, `j = 3·idx mod N` indexing a gather (no run).
    /// - `seven links`: `x[idx]²` plus links folded as `s + x`, `s - x`,
    ///   `x + s` and `x - s`, and the gather `x[j]` late in the chain with
    ///   a run after it;
    /// - `gather first`: `x[j] + x[idx + 1] - x[idx - Nx]`, runs after it;
    /// - `reads its dst` (i32 only): `k = idx; k = x[k] + x[k + 1] + x[idx - 1]`,
    ///   whose links read the register the op writes.
    fn sum_chains(kind: ScalarKind) -> Vec<(&'static str, Kernel, usize)> {
        let (v, x) = (KExpr::var, |i| KExpr::load(MemRef::Param(0), i));
        let (idx, plane) = (|| KExpr::var("idx"), || KExpr::var("Nx") * KExpr::var("Ny"));
        let (g, real) = (KExpr::GlobalId, |n: &str, e| KStmt::DeclScalar {
            name: n.into(),
            kind,
            init: Some(e),
        });
        let store = |value| KStmt::Store { mem: MemRef::Param(2), idx: idx(), value };
        let kernel = |then_| {
            let body = vec![
                decl("idx", g(2) * plane() + g(1) * v("Nx") + g(0)),
                decl("j", KExpr::bin(BinOp::Rem, idx() * KExpr::int(3), v("N"))),
                KStmt::If {
                    cond: KExpr::bin(
                        BinOp::Gt,
                        KExpr::load(MemRef::Param(1), idx()),
                        KExpr::int(0),
                    ),
                    then_,
                    else_: vec![],
                },
            ];
            let params = vec![
                KernelParam::global_buf("x", kind),
                KernelParam::global_buf("m", ScalarKind::I32),
                KernelParam::global_buf("out", kind),
                KernelParam::scalar("Nx", ScalarKind::I32),
                KernelParam::scalar("Ny", ScalarKind::I32),
                KernelParam::scalar("N", ScalarKind::I32),
            ];
            Kernel { name: "sum_chain".into(), params, body, work_dim: 3 }
        };
        let seven = vec![
            real("w", x(idx()) * x(idx())),
            real(
                "a",
                v("w") + x(idx() - KExpr::int(1)) + x(idx() + KExpr::int(1)) - x(idx() - v("Nx")),
            ),
            real("b", x(idx() + v("Nx")) + v("a")),
            real("c", x(idx() + plane()) - v("b")),
            store(v("c") + x(v("j")) + x(idx() - plane())),
        ];
        let gather_first = vec![store(x(v("j")) + x(idx() + KExpr::int(1)) - x(idx() - v("Nx")))];
        let mut sums =
            vec![("seven links", kernel(seven), 7), ("gather first", kernel(gather_first), 3)];
        if kind == ScalarKind::I32 {
            let sum = x(v("k")) + x(v("k") + KExpr::int(1)) + x(idx() - KExpr::int(1));
            let own = vec![decl("k", idx()), assign("k", sum), store(v("k"))];
            sums.push(("reads its dst", kernel(own), 3));
        }
        sums
    }

    /// One `LdGSum` runs each of [`sum_chains`] in straddling warps (rows of
    /// 11) under holed masks, on plain and sanitizing runtimes, `Fast` and
    /// `Model`: its links sum in one accumulator, a run or a gather each as
    /// the launch allows, and `dst` is written once. Each is held by
    /// `Engine::Differential` to the tree oracle — buffers bit for bit,
    /// counters and transaction bytes — at every element kind.
    #[test]
    fn a_sum_chain_matches_the_oracle_on_every_path() {
        let [nx, ny, nz] = [11usize, 11, 9];
        let n = nx * ny * nz;
        let interior = |i: usize| {
            let (x, y, z) = (i % nx, i / nx % ny, i / (nx * ny));
            [x, y, z].iter().zip([nx, ny, nz]).all(|(&c, len)| c > 0 && c + 1 < len)
        };
        let m: Vec<i32> =
            (0..n).map(|i| (interior(i) && i % 7 != 3 && i % 5 != 1) as i32).collect();
        for kind in [ScalarKind::F32, ScalarKind::F64, ScalarKind::I32] {
            for (name, k, links) in sum_chains(kind) {
                let prep = prepare(&k).unwrap();
                let t = &prep.tape;
                let sums: Vec<&[Link]> =
                    t.ops.iter().map(|op| t.chain(op)).filter(|c| !c.is_empty()).collect();
                assert_eq!(
                    sums.iter().map(|c| c.len()).collect::<Vec<_>>(),
                    [links],
                    "{kind:?} {name}: {:?}",
                    t.ops
                );
                if name == "seven links" {
                    let folds: std::collections::BTreeSet<_> =
                        sums[0].iter().map(|l| (l.sub, l.rev)).collect();
                    assert_eq!(folds.len(), 4, "{kind:?}: every fold");
                    assert!(t.ops.iter().any(|op| matches!(op, Op::LdGSum { src: Some(_), .. })));
                }
                if name == "reads its dst" {
                    let reads_dst = |op: &Op| match *op {
                        Op::LdGSum { dst, .. } => t
                            .chain(op)
                            .iter()
                            .any(|l| l.base == dst || l.off.is_some_and(|o| o.0 == dst)),
                        _ => false,
                    };
                    assert!(t.ops.iter().any(reads_dst), "{:?} {:?}", t.ops, t.links);
                }
                assert_consistent(&prep);
                let xs: Vec<i32> = (0..n as i32).map(|i| (i * 37 % 101) - 50).collect();
                let data = |v: &[i32]| match kind {
                    ScalarKind::F32 => {
                        BufData::from(v.iter().map(|&i| i as f32 * 0.37).collect::<Vec<_>>())
                    }
                    ScalarKind::F64 => {
                        BufData::from(v.iter().map(|&i| i as f64 * 0.37).collect::<Vec<_>>())
                    }
                    _ => BufData::from(v.to_vec()),
                };
                for (rt, buf) in [
                    (
                        crate::Runtime::new(crate::runtime().settings),
                        SharedBuf::new as fn(BufData) -> _,
                    ),
                    (crate::Runtime::sanitizing(), |d| shadowed(d)),
                ] {
                    for mode in [ExecMode::Fast, ExecMode::Model { sample_stride: 1 }] {
                        let (x, mb, out) =
                            (buf(data(&xs)), buf(BufData::from(m.clone())), buf(data(&vec![0; n])));
                        let dims = [nx, ny, n].map(|d| ArgBind::Val(Value::I32(d as i32)));
                        let binds = [ArgBind::Buf(&x), ArgBind::Buf(&mb), ArgBind::Buf(&out)];
                        let binds: Vec<_> = binds.into_iter().chain(dims).collect();
                        launch(
                            &prep,
                            &binds,
                            &[nx, ny, nz],
                            None,
                            mode,
                            128,
                            Engine::Differential,
                            &rt,
                        )
                        .unwrap_or_else(|e| panic!("{kind:?} {name} {mode:?}: {e}"));
                        let out = unsafe { out.data() }.to_f64_vec();
                        let stored =
                            out.iter().zip(&m).filter(|(o, &m)| m > 0 && **o != 0.0).count();
                        assert!(stored > 200, "{kind:?} {name} {mode:?}: {stored} sums stored");
                    }
                }
            }
        }
    }

    /// `x[g] + x[g + k] + x[g + 1]` with `k` reaching past the end in the
    /// last warp: the middle link fails its run's range check and panics
    /// as the `LdG` it was, on every kind of launch.
    #[test]
    fn a_sum_chain_whose_middle_link_overruns_panics_as_the_unfused_load() {
        let (g, x) = (|| KExpr::GlobalId(0), |i| KExpr::load(MemRef::Param(0), i));
        let sum = x(g()) + x(g() + KExpr::var("k")) + x(g() + KExpr::int(1));
        let k = Kernel {
            name: "sum_overrun".into(),
            params: vec![
                KernelParam::global_buf("x", ScalarKind::F32),
                KernelParam::global_buf("out", ScalarKind::F32),
                KernelParam::scalar("k", ScalarKind::I32),
            ],
            body: vec![KStmt::Store { mem: MemRef::Param(1), idx: g(), value: sum }],
            work_dim: 1,
        };
        let prep = prepare(&k).unwrap();
        assert!(
            prep.tape.ops.iter().any(|op| prep.tape.chain(op).len() == 3),
            "{:?}",
            prep.tape.ops
        );
        for (sanitize, mode) in [
            (false, ExecMode::Fast),
            (true, ExecMode::Fast),
            (false, ExecMode::Model { sample_stride: 1 }),
        ] {
            let buf = |d: BufData| SharedBuf::with_shadow(d, sanitize, true);
            let (xs, out) =
                (buf(BufData::from(vec![1.0f32; 65])), buf(BufData::zeros(ScalarKind::F32, 64)));
            let rt = if sanitize {
                crate::Runtime::sanitizing()
            } else {
                crate::Runtime::new(crate::runtime().settings)
            };
            let binds = [ArgBind::Buf(&xs), ArgBind::Buf(&out), ArgBind::Val(Value::I32(2))];
            let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                launch(&prep, &binds, &[64], None, mode, 128, Engine::Fast, &rt)
            }))
            .expect_err("the overrun must panic");
            let msg = panicked.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("load out of bounds: param 0[65] (len 65)"), "{mode:?}: {msg:?}");
        }
    }

    /// A chain stops before an intermediate that something else reads: with
    /// `a = x[g]` read twice, `a + x[g + 1]` is a one-link sum from `a`;
    /// with `s = x[g] + x[g + 1]` read twice the chain ends at `s`, which
    /// `s + x[g + 2]` sums from; and with `b = x[g]` read twice the add
    /// right after its load, `b + a`, does not fold it.
    #[test]
    fn a_sum_chain_stops_at_an_intermediate_with_a_second_reader() {
        let (g, x) = (|| KExpr::GlobalId(0), |i| KExpr::load(MemRef::Param(0), i));
        let real = |name: &str, init| KStmt::DeclScalar {
            name: name.into(),
            kind: ScalarKind::F32,
            init: Some(init),
        };
        let twice = |v: &str, k| (KExpr::var(v) + x(g() + KExpr::int(k))) * KExpr::var(v);
        for (decl, value, links, want) in [
            (real("a", x(g())), twice("a", 1), vec![1], (3.0 + 4.0) * 3.0),
            (real("s", x(g()) + x(g() + KExpr::int(1))), twice("s", 2), vec![2, 1], 12.0 * 7.0),
            (real("b", x(g())), (KExpr::var("b") + KExpr::var("a")) * KExpr::var("b"), vec![], 9.0),
        ] {
            let mut k = unary_kernel("sum_readers", KExpr::int(0));
            let store = KStmt::Store { mem: MemRef::Param(1), idx: g(), value };
            k.body =
                vec![KStmt::return_if(KExpr::bin(BinOp::Ge, g(), KExpr::int(64))), decl, store];
            let t = tape_of(&k);
            let sums: Vec<_> =
                t.ops.iter().map(|op| t.chain(op).len()).filter(|&n| n > 0).collect();
            assert_eq!(sums, links, "{:?}", t.ops);
            assert_eq!(run_diff(&k, 70, 0.0)[3], want);
        }
    }

    /// Every op of `t`, preludes included.
    fn all_ops(t: &Compiled) -> impl Iterator<Item = &Op> {
        t.ops.iter().chain(&t.pre).chain(&t.item_pre)
    }

    /// The ids of every bundle a launch runs — row-coherent ones (up to four
    /// warps of a row), straddling ones (of rows narrower than two warps, or
    /// a warp that crosses a row end), the partial last one, the bundles of
    /// a grouped launch's groups — as the prelude writes them and as an
    /// in-tape read under a scattered mask does, against the definition:
    /// item `i` has `gid = (i % gx, (i / gx) % gy, i / (gx·gy))`, local and
    /// group ids `i % lsize` and `i / lsize` (a flat launch's groups are one
    /// warp).
    #[test]
    fn warp_ids_in_closed_form_match_the_definition_in_every_warp() {
        let context = [
            Op::Gid { dst: 0, dim: 0 },
            Op::Gid { dst: 1, dim: 1 },
            Op::Gid { dst: 2, dim: 2 },
            Op::Lid { dst: 3, dim: 0 },
            Op::Grp { dst: 4, dim: 0 },
        ];
        let c = Compiled {
            item_pre: context.to_vec(),
            nregs: context.len(),
            wide: vec![false; context.len()],
            ..Compiled::default()
        };
        const UNSET: i32 = -7;
        let scattered: Mask = 0x5A5A_A5A5_0FF0_F00F_A5A5_5A5A_1234_5678;
        let (mut units_seen, mut straddling) = (0, 0);
        for (gsize, lsize) in [
            ([5, 3, 4], WARP),
            ([12, 12, 12], WARP),
            ([33, 2, 2], WARP),
            ([100, 3, 2], WARP),
            ([96, 64, 48], WARP),
            ([12_904, 1, 1], WARP),
            ([96, 1, 1], 48),
            ([384, 1, 1], 192),
            ([24, 6, 2], 144),
        ] {
            let [gx, gy, gz] = gsize;
            let (total, group) = (gx * gy * gz, lsize as u64);
            let units: Vec<_> = match lsize {
                WARP => crate::exec::bundles(gsize, 0..total.div_ceil(WARP) as u64).collect(),
                // A group cut into bundles, as `exec::run_warps` runs it.
                _ => (0..total as u64)
                    .step_by(lsize)
                    .flat_map(|g| {
                        let end = g + group;
                        (g..end).step_by(BUNDLE).map(move |b| b..end.min(b + BUNDLE as u64))
                    })
                    .collect(),
            };
            assert_eq!(units.iter().map(|u| u.end - u.start).sum::<u64>(), total as u64);
            // A bundle's place depends on its warps' alone: a launch cut into
            // tasks anywhere runs the same bundles.
            let warps = total.div_ceil(WARP) as u64;
            for cut in (1..warps).step_by(97).filter(|_| lsize == WARP) {
                let tasks = [0..cut, cut..warps].map(|ws| crate::exec::bundles(gsize, ws));
                assert_eq!(tasks.into_iter().flatten().collect::<Vec<_>>(), units, "{gsize:?}");
            }
            for items in units {
                let (begin, nact) = (items.start as usize, (items.end - items.start) as usize);
                let ids = WarpIds::new(begin as u64, nact, gsize, lsize);
                let one_row = begin / gx == (begin + nact - 1) / gx;
                assert_eq!(ids.coherent, one_row, "{gsize:?}: unit at {begin}");
                units_seen += 1;
                straddling += !ids.coherent as usize;
                let want = |i: usize| [i % gx, (i / gx) % gy, i / (gx * gy), i % lsize, i / lsize];
                // The prelude fills lanes `0..nact`; the same reads under a
                // scattered mask write its lanes and no other. A coherent
                // unit must read the same when walked as a straddling one.
                let walked = WarpIds { coherent: false, ..ids };
                let (prefix, holed) = (prefix(nact), scattered & prefix(nact));
                for (ids, mask) in [(ids, prefix), (walked, prefix), (ids, holed), (walked, holed)]
                {
                    let vregs = &mut vec![0; c.nregs * BUNDLE][..];
                    for r in 0..c.nregs as R {
                        vfill(vregs, r, !0, UNSET);
                    }
                    if mask == prefix {
                        exec_item_pre_warp(&c, vregs, nact, &ids);
                    } else {
                        context.iter().for_each(|op| write_context(op, vregs, mask, &ids));
                    }
                    for l in 0..BUNDLE {
                        for (r, w) in want(begin + l).into_iter().enumerate() {
                            let w = if mask >> l & 1 != 0 { w as i32 } else { UNSET };
                            let got = i32::get(vregs, r as R, l);
                            assert_eq!(got, w, "{gsize:?} {lsize:?}: item {begin}+{l}, r{r}");
                        }
                    }
                }
            }
        }
        assert!(
            units_seen > 3000 && straddling > 20,
            "{units_seen} bundles, {straddling} straddling"
        );
    }

    /// Every shipped kernel — hand-written, generated, and the slab
    /// placement of each 3-D one — holds the one-width rule (`prepare` fails
    /// otherwise), and at single precision nothing but an i64 is wide; and
    /// every private access of theirs is through a uniform index — one row.
    #[test]
    fn every_shipped_tape_has_one_width_per_register() {
        use room_acoustics::contracts::slab_placed;
        let (mut seen, mut private_accesses) = (0, 0);
        for real in [ScalarKind::F32, ScalarKind::F64] {
            let mut kernels: Vec<Kernel> = room_acoustics::handwritten::all_kernels()
                .iter()
                .map(|k| k.resolve_real(real))
                .collect();
            for p in lift_acoustics::programs::all_programs() {
                kernels.push(p.lower(real).unwrap().kernel);
            }
            let slabs: Vec<Kernel> = kernels
                .iter()
                .filter(|k| k.work_dim == 3)
                .map(|k| slab_placed(k, &Default::default()).0)
                .collect();
            assert!(slabs.len() >= 2, "a hand-written and a generated volume kernel");
            for k in kernels.iter().chain(&slabs) {
                let prep = prepare(k).unwrap_or_else(|e| panic!("{} @ {real:?}: {e}", k.name));
                let t = &prep.tape;
                assert!(validate(t, &prep), "{} @ {real:?}", k.name);
                assert_eq!(t.wide.len(), t.nregs);
                let wide_writer = |op: &&Op| op_dst(op).is_some_and(|d| t.wide[d as usize]);
                let i64_op = |op: &Op| {
                    use Op::*;
                    matches!(
                        op,
                        AsI64 { .. } | AddI64 { .. } | MaxOne { .. } | Mov { .. } | Const { .. }
                    )
                };
                if real == ScalarKind::F32 {
                    for op in all_ops(t).filter(wide_writer) {
                        assert!(i64_op(op), "{}: {op:?} writes a wide register", k.name);
                    }
                } else {
                    assert!(all_ops(t).filter(wide_writer).any(|op| !i64_op(op)), "{}", k.name);
                }
                for shapes in shapes_at(&prep, [100, 1, 1], &[]) {
                    for op in all_ops(t) {
                        if let Op::LdP { idx, .. } | Op::StP { idx, .. } = *op {
                            assert_eq!(shapes[idx as usize], Shape::Uniform, "{}: {op:?}", k.name);
                            private_accesses += 1;
                        }
                    }
                }
                seen += 1;
            }
        }
        assert!(seen >= 24, "{seen} tapes");
        assert!(private_accesses >= 8, "{private_accesses}: the FD-MM kernels stage branch state");
    }

    /// Every kernel of every kernel set's host program and every
    /// hand-written kernel, at f32 and f64, whole-grid and — the 3-D ones
    /// not already placed — slab-placed, as (kernel/form/precision, kernel).
    fn shipped_kernels() -> Vec<(String, Kernel)> {
        use room_acoustics::contracts::slab_placed;
        let mut shipped = Vec::new();
        for (real, r) in [(ScalarKind::F32, "f32"), (ScalarKind::F64, "f64")] {
            let mut kernels: Vec<Kernel> = room_acoustics::handwritten::all_kernels()
                .iter()
                .map(|k| k.resolve_real(real))
                .collect();
            for set in lift_acoustics::hostprog::all_sets() {
                let prog = set.host_program(real).unwrap();
                kernels.extend(prog.kernels.into_iter().map(|k| k.kernel));
            }
            for k in kernels {
                let placed = k.work_dim == 3 && !k.name.ends_with("_slab");
                let slab = placed.then(|| slab_placed(&k, &Default::default()).0);
                shipped.push((format!("{}/whole/{r}", k.name), k));
                shipped.extend(slab.map(|k| (format!("{}/slab/{r}", k.name), k)));
            }
        }
        shipped
    }

    /// Each shipped tape ([`shipped_kernels`]) as (kernel/form/precision,
    /// main-tape ops, `pre` ops, `item_pre` ops, FNV-1a of its opcode
    /// histogram over all three). A row that appears twice (a kernel several
    /// sets share) is kept once.
    fn shipped_tape_rows() -> Vec<(String, usize, usize, usize, u64)> {
        let fnv = |text: &str| {
            text.bytes()
                .fold(0xcbf29ce484222325u64, |h, b| (h ^ b as u64).wrapping_mul(0x100000001b3))
        };
        let mut rows = Vec::new();
        for (name, k) in shipped_kernels() {
            let t = prepare(&k).unwrap_or_else(|e| panic!("{}: {e}", k.name)).tape;
            let mut hist = std::collections::BTreeMap::new();
            for op in all_ops(&t) {
                *hist.entry(op_name(op_index(op))).or_insert(0) += 1;
            }
            let text: String = hist.iter().map(|(n, c)| format!("{n}:{c} ")).collect();
            let row = (name, t.ops.len(), t.pre.len(), t.item_pre.len(), fnv(&text));
            if !rows.contains(&row) {
                rows.push(row);
            }
        }
        rows
    }

    /// No shipped tape, generic or specialised on `MB = 3`, widens an index
    /// for a global access: every `AsI64` left feeds a private or local
    /// access, an array declaration or a loop.
    #[test]
    fn no_shipped_tape_widens_a_global_index() {
        let mut tapes = 0;
        for (name, k) in shipped_kernels() {
            let prep = prepare(&k).unwrap_or_else(|e| panic!("{name}: {e}"));
            let known: Vec<_> = launch_constant_slots(&prep).into_iter().map(|s| (s, 3)).collect();
            let specialised = compile_under(&prep, &known);
            for t in std::iter::once(&prep.tape).chain(&specialised) {
                let widened: Vec<R> = all_ops(t)
                    .filter_map(|op| match *op {
                        Op::AsI64 { dst, .. } => Some(dst),
                        _ => None,
                    })
                    .collect();
                for op in all_ops(t) {
                    let mut reads = false;
                    t.srcs(op, &mut |r| reads |= widened.contains(&r));
                    let allowed = matches!(
                        op,
                        Op::LdP { .. }
                            | Op::StP { .. }
                            | Op::LdL { .. }
                            | Op::StL { .. }
                            | Op::DeclPriv { .. }
                            | Op::DeclLocal { .. }
                            | Op::MaxOne { .. }
                            | Op::AddI64 { .. }
                            | Op::JgeI64 { .. }
                            | Op::I64ToI32 { .. }
                    );
                    assert!(!reads || allowed, "{name}: {op:?} reads a widened index");
                }
                tapes += 1;
            }
        }
        assert!(tapes >= 60, "{tapes} tapes");
    }

    /// The generated volume kernel runs the hand-written one's tape: the same
    /// opcodes as often, main tape, id reads and the once-per-register-file
    /// `pre` tape alike — value numbering keeps one of the hand-written
    /// kernel's three `Nx·Ny` products, the one the generated kernel hoists
    /// into a name.
    #[test]
    fn the_generated_volume_tape_runs_the_hand_written_opcodes() {
        let histogram = |ops: &[Op]| {
            let mut hist = std::collections::BTreeMap::new();
            for op in ops {
                *hist.entry(op_name(op_index(op))).or_insert(0) += 1;
            }
            hist
        };
        let hand = room_acoustics::handwritten::volume_kernel();
        let gen = lift_acoustics::programs::volume_program();
        for real in [ScalarKind::F32, ScalarKind::F64] {
            let h = prepare(&hand.resolve_real(real)).unwrap().tape;
            let g = prepare(&gen.lower(real).unwrap().kernel).unwrap().tape;
            assert_eq!(histogram(&g.ops), histogram(&h.ops), "{real:?}: main tape");
            assert_eq!(histogram(&g.item_pre), histogram(&h.item_pre), "{real:?}: id reads");
            assert_eq!(
                histogram(&g.pre),
                histogram(&h.pre),
                "{real:?}: {:?} vs {:?}",
                g.pre,
                h.pre
            );
        }
    }

    /// The shipped tapes as recorded (see [`shipped_tape_rows`]): a moved
    /// row means the tape compiler or optimizer changed what ships.
    #[test]
    fn shipped_tapes_match_the_recorded_pins() {
        let got = shipped_tape_rows();
        let table: String = got
            .iter()
            .map(|(n, o, p, i, h)| format!("        (\"{n}\", {o}, {p}, {i}, {h:#018x}),\n"))
            .collect();
        let want: Vec<(String, usize, usize, usize, u64)> =
            TAPE_PINS.iter().map(|&(n, o, p, i, h)| (n.to_string(), o, p, i, h)).collect();
        assert_eq!(got, want, "the shipped tapes changed; now:\n{table}");
    }

    /// Every hash moved when the fused global load and store became the one
    /// `LdG` and `StG`, the opcode counts being otherwise equal; the op
    /// counts moved only where an op went: `fi_single_lift` (whole and slab)
    /// lost its store's index widening and three ops that repeat another
    /// once both read one prelude register (two `Bin`, one `Cast`),
    /// `fi_single_hand_slab` one such `Bin`, when value numbering took the
    /// prelude first.
    const TAPE_PINS: &[(&str, usize, usize, usize, u64)] = &[
        ("volume_handling_hand/whole/f32", 21, 4, 3, 0xe9a5471eba396e60),
        ("volume_handling_hand_slab/slab/f32", 23, 4, 3, 0xd90a85da9bfa46ca),
        ("volume_handling_hand_slab/whole/f32", 23, 4, 3, 0xd90a85da9bfa46ca),
        ("fi_single_hand/whole/f32", 81, 15, 3, 0x226fa92216e37adb),
        ("fi_single_hand_slab/slab/f32", 86, 15, 3, 0xb99d7660986605f9),
        ("fimm_boundary_hand/whole/f32", 18, 4, 1, 0x09cdb9fe05896fd7),
        ("fimm_boundary_hand_cbeta/whole/f32", 18, 4, 1, 0x09cdb9fe05896fd7),
        ("fdmm_boundary_hand/whole/f32", 74, 8, 1, 0xf16b154a9367de22),
        ("fi_single_lift/whole/f32", 38, 8, 3, 0xd1a254fca9d1aa63),
        ("fi_single_lift_slab/slab/f32", 40, 8, 3, 0x185bfce6b35a983d),
        ("volume_handling_lift/whole/f32", 21, 4, 3, 0xe9a5471eba396e60),
        ("volume_handling_lift_slab/slab/f32", 23, 4, 3, 0xd90a85da9bfa46ca),
        ("fimm_boundary_lift/whole/f32", 18, 5, 1, 0x534f8979cfff09c0),
        ("fdmm_boundary_lift/whole/f32", 73, 8, 1, 0xa5eb1f6fec20700f),
        ("volume_handling_hand/whole/f64", 21, 4, 3, 0xe9a5471eba396e60),
        ("volume_handling_hand_slab/slab/f64", 23, 4, 3, 0xd90a85da9bfa46ca),
        ("volume_handling_hand_slab/whole/f64", 23, 4, 3, 0xd90a85da9bfa46ca),
        ("fi_single_hand/whole/f64", 81, 15, 3, 0x226fa92216e37adb),
        ("fi_single_hand_slab/slab/f64", 86, 15, 3, 0xb99d7660986605f9),
        ("fimm_boundary_hand/whole/f64", 18, 4, 1, 0x09cdb9fe05896fd7),
        ("fimm_boundary_hand_cbeta/whole/f64", 18, 4, 1, 0x09cdb9fe05896fd7),
        ("fdmm_boundary_hand/whole/f64", 74, 8, 1, 0xf16b154a9367de22),
        ("fi_single_lift/whole/f64", 38, 8, 3, 0xd1a254fca9d1aa63),
        ("fi_single_lift_slab/slab/f64", 40, 8, 3, 0x185bfce6b35a983d),
        ("volume_handling_lift/whole/f64", 21, 4, 3, 0xe9a5471eba396e60),
        ("volume_handling_lift_slab/slab/f64", 23, 4, 3, 0xd90a85da9bfa46ca),
        ("fimm_boundary_lift/whole/f64", 18, 5, 1, 0x534f8979cfff09c0),
        ("fdmm_boundary_lift/whole/f64", 73, 8, 1, 0xa5eb1f6fec20700f),
    ];

    /// `(x, out, a)`, all i32, 1-D, with `body`.
    fn i32_kernel(name: &str, body: Vec<KStmt>) -> Kernel {
        Kernel {
            name: name.into(),
            params: vec![
                KernelParam::global_buf("x", ScalarKind::I32),
                KernelParam::global_buf("out", ScalarKind::I32),
                KernelParam::scalar("a", ScalarKind::I32),
            ],
            body,
            work_dim: 1,
        }
    }

    /// Runs an [`i32_kernel`] over 70 items (two full warps and a partial
    /// one) with `a = 5` on the differential engine — the tree oracle never
    /// sees a tape pass, so equal buffers, counters and transaction bytes
    /// (asserted inside) say the pass changed none of them — and returns
    /// the tape and the output.
    fn numbered(k: &Kernel) -> (Compiled, Vec<f64>) {
        let prep = prepare(k).unwrap();
        assert_consistent(&prep);
        let n = 70;
        let x = shadowed((0..n as i32).map(|i| i * 7 - 90).collect::<Vec<_>>());
        let out = shadowed(vec![0i32; 5 * n]);
        let binds = [ArgBind::Buf(&x), ArgBind::Buf(&out), ArgBind::Val(Value::I32(5))];
        for mode in [ExecMode::Fast, ExecMode::Model { sample_stride: 1 }] {
            let rt = crate::Runtime::sanitizing();
            launch(&prep, &binds, &[n], None, mode, 128, Engine::Differential, &rt).unwrap();
        }
        (prep.tape, unsafe { out.data() }.to_f64_vec())
    }

    /// How many ops of `t`'s main tape `hit` selects.
    fn count(t: &Compiled, hit: impl Fn(&Op) -> bool) -> usize {
        t.ops.iter().filter(|op| hit(op)).count()
    }

    fn is_muladd(op: &Op) -> bool {
        matches!(op, Op::MulAdd { .. })
    }

    /// `a·g + b`, which compiles to one multiply-add. (Two literals are two
    /// registers: the scalar `a` keeps the operands equal.)
    fn ag(b: KExpr) -> KExpr {
        KExpr::GlobalId(0) * KExpr::var("a") + b
    }

    fn store_at(idx: KExpr, value: KExpr) -> KStmt {
        KStmt::Store { mem: MemRef::Param(1), idx, value }
    }

    /// `out[g] = (ag + a) · (ag + a)`: the second multiply-add of the block
    /// repeats the first and is dropped; the product reads the first twice.
    #[test]
    fn a_duplicate_in_one_block_is_merged() {
        let v = ag(KExpr::var("a"));
        let (t, out) =
            numbered(&i32_kernel("vn_merge", vec![store_at(KExpr::GlobalId(0), v.clone() * v)]));
        assert_eq!(count(&t, is_muladd), 1, "{:?}", t.ops);
        assert_eq!(out[9], 50.0 * 50.0);
    }

    /// `out[g] = ag + a; if (g > 5) out[g] = (ag + a) · 2`: the arm is a
    /// block of its own, so its multiply-add stays.
    #[test]
    fn no_merge_across_a_block_leader() {
        let body = vec![
            store_at(KExpr::GlobalId(0), ag(KExpr::var("a"))),
            KStmt::If {
                cond: KExpr::bin(BinOp::Gt, KExpr::GlobalId(0), KExpr::int(5)),
                then_: vec![store_at(KExpr::GlobalId(0), ag(KExpr::var("a")) * KExpr::int(2))],
                else_: vec![],
            },
        ];
        let (t, out) = numbered(&i32_kernel("vn_leader", body));
        assert_eq!(count(&t, is_muladd), 2, "{:?}", t.ops);
        assert_eq!(
            count(&t, |op| matches!(op, Op::Jmp { .. })),
            0,
            "an else-less `if`: {:?}",
            t.ops
        );
        assert_eq!((out[5], out[6]), (30.0, 70.0));
    }

    /// `s = a; out[g] = ag + s; s = s + 1; out[g + 70] = ag + s`: the two
    /// multiply-adds read the same registers, but `s` changes in between.
    #[test]
    fn no_merge_when_an_operand_is_rewritten_in_between() {
        let s = || KExpr::var("s");
        let body = vec![
            KStmt::DeclScalar {
                name: "s".into(),
                kind: ScalarKind::I32,
                init: Some(KExpr::var("a")),
            },
            store_at(KExpr::GlobalId(0), ag(s())),
            KStmt::Assign { name: "s".into(), value: s() + KExpr::int(1) },
            store_at(KExpr::GlobalId(0) + KExpr::int(70), ag(s())),
        ];
        let (t, out) = numbered(&i32_kernel("vn_rewritten", body));
        assert_eq!(count(&t, is_muladd), 2, "{:?}", t.ops);
        assert_eq!((out[9], out[79]), (50.0, 51.0));
    }

    /// Two equal stores of `x[g] + g / a + g % a`: their loads and stores
    /// stay, and so do the second `Div` and `Rem`, though they repeat the
    /// first two on the same registers in the same block; so do the equal
    /// `Flops` and loads of a block made by hand.
    #[test]
    fn loads_stores_flops_and_i32_division_are_never_merged() {
        let (g, a) = (|| KExpr::GlobalId(0), || KExpr::var("a"));
        let value =
            KExpr::load(MemRef::Param(0), g()) + g() / a() + KExpr::bin(BinOp::Rem, g(), a());
        let store = store_at(g(), value);
        let (t, out) = numbered(&i32_kernel("vn_impure", vec![store.clone(), store]));
        let loads = count(&t, |op| matches!(op, Op::LdG { .. }));
        let stores = count(&t, |op| matches!(op, Op::StG { .. }));
        let divisions = count(&t, |op| matches!(op, Op::Bin { op: BinOp::Div | BinOp::Rem, .. }));
        assert_eq!((loads, stores, divisions), (2, 2, 4), "{:?}", t.ops);
        assert_eq!(out[21], (57 + 21 / 5 + 21 % 5) as f64);
        let ld = |dst| Op::LdG { dst, buf: 0, base: 1, off: None, site: 0, constant: false };
        let ops = vec![Op::Flops { n: 1 }, Op::Flops { n: 1 }, ld(2), ld(3), Op::Halt];
        let mut c =
            Compiled { ops: ops.clone(), phase_starts: vec![0], nregs: 4, ..Compiled::default() };
        number_values(&mut c, 0);
        assert_eq!(c.ops, ops);
    }

    /// `for (i = 0; i < a; i++) out[ag + i] = (ag + i) · (ag + i)`: the
    /// loop body is one block, whose three equal multiply-adds (the index
    /// and both factors) run as one. The run-time bound keeps the generic
    /// tape's loop rolled.
    #[test]
    fn a_duplicate_inside_a_loop_body_is_merged() {
        let v = || ag(KExpr::var("i"));
        let body = vec![KStmt::For {
            var: "i".into(),
            begin: KExpr::int(0),
            end: KExpr::var("a"),
            step: KExpr::int(1),
            body: vec![store_at(v(), v() * v())],
        }];
        let (t, out) = numbered(&i32_kernel("vn_loop", body));
        assert_eq!(count(&t, is_muladd), 1, "{:?}", t.ops);
        assert_eq!(count(&t, |op| matches!(op, Op::JgeI64 { .. })), 1, "{:?}", t.ops);
        assert_eq!(out[39], 39.0 * 39.0);
    }

    #[test]
    fn a_register_used_at_two_widths_fails_validation() {
        let prep = prepare(&select_kernel("widths")).unwrap();
        let hand = |ops: Vec<Op>, wide: Vec<bool>| {
            let (nregs, joins) = (wide.len(), compute_joins(&ops));
            Compiled { ops, phase_starts: vec![0], nregs, wide, joins, ..Compiled::default() }
        };
        let widen = || vec![Op::AsI64 { dst: 1, src: 0, from: K::I32 }, Op::Halt];
        assert!(validate(&hand(widen(), vec![false, true]), &prep));
        assert!(!validate(&hand(widen(), vec![true, true]), &prep), "an i32 out of a wide row");
        assert!(!validate(&hand(widen(), vec![false, false]), &prep), "an i64 into a packed row");
        assert!(!validate(&hand(widen(), vec![false]), &prep), "a register without a width");
        // r1 is written as an f64 and read as an f32: no width table fits.
        let both = || {
            vec![
                Op::Cast { dst: 1, src: 0, from: K::F32, to: K::F64 },
                Op::Bin { dst: 2, a: 1, b: 0, op: BinOp::Add, k: K::F32 },
                Op::Halt,
            ]
        };
        for w1 in [false, true] {
            assert!(!validate(&hand(both(), vec![false, w1, false]), &prep), "r1 wide: {w1}");
        }
        // The untyped `Mov` moves bits between registers of one width, and a
        // load lands at its buffer's element width (`x` is an f32 buffer).
        let copy = |op: Op, wide: [bool; 3]| hand(vec![op, Op::Halt], wide.to_vec());
        let mov = Op::Mov { dst: 2, src: 1 };
        assert!(validate(&copy(mov, [false, true, true]), &prep));
        assert!(!validate(&copy(mov, [false, true, false]), &prep));
        let ld = Op::LdG { dst: 0, buf: 0, base: 1, off: None, site: 0, constant: false };
        assert!(validate(&copy(ld, [false, true, false]), &prep));
        assert!(validate(&copy(ld, [false, false, false]), &prep), "an i32 index");
        assert!(!validate(&copy(ld, [true, true, false]), &prep));
        // Only an i32 base has an offset, itself an i32.
        let ld =
            Op::LdG { dst: 0, buf: 0, base: 1, off: Some((2, false)), site: 0, constant: false };
        assert!(validate(&copy(ld, [false, false, false]), &prep));
        assert!(!validate(&copy(ld, [false, true, false]), &prep), "an i64 base with an offset");
        assert!(!validate(&copy(ld, [false, false, true]), &prep), "an i64 offset");
        assert!(!validate(&copy(Op::Const { dst: 0, bits: 1 << 32 }, [false; 3]), &prep));
    }

    /// `float s = x[g] * a; double s = s / 3; int s = s + g; out[g] = s`,
    /// with `a` (a launch argument) re-declared `double` on the way: each
    /// variable lives in its slot's register at its first width and in a
    /// twin temporary at the other, and the tape agrees with the oracle.
    #[test]
    fn a_scalar_redeclared_at_another_width_moves_to_a_twin_register() {
        let g = || KExpr::GlobalId(0);
        let decl = |name: &str, kind, init| KStmt::DeclScalar {
            name: name.into(),
            kind,
            init: Some(init),
        };
        let (s, a) = (|| KExpr::var("s"), || KExpr::var("a"));
        let k = Kernel {
            name: "redeclared".into(),
            params: vec![
                KernelParam::global_buf("x", ScalarKind::F32),
                KernelParam::global_buf("out", ScalarKind::F32),
                KernelParam::scalar("a", ScalarKind::F32),
            ],
            body: vec![
                decl("s", ScalarKind::F32, KExpr::load(MemRef::Param(0), g()) * a()),
                decl(
                    "a",
                    ScalarKind::F64,
                    KExpr::cast(ScalarKind::F64, a()) + KExpr::Lit(Lit::f64(0.5)),
                ),
                decl("s", ScalarKind::F64, s() / KExpr::Lit(Lit::f64(3.0)) + a()),
                decl("s", ScalarKind::I32, KExpr::cast(ScalarKind::I32, s()) + g()),
                KStmt::Store { mem: MemRef::Param(1), idx: g(), value: s() },
            ],
            work_dim: 1,
        };
        let prep = prepare(&k).unwrap();
        let t = &prep.tape;
        assert!(t.nregs > prep.nslots && t.wide[..prep.nslots].iter().all(|w| !w), "{:?}", t.wide);
        assert!(all_ops(t).any(|op| matches!(op, Op::Bin { k: K::F64, op: BinOp::Div, .. })));
        let out = run_diff(&k, 70, 1.5);
        let want = |i: f32| ((i * 1.5) as f64 / 3.0 + 2.0) as i32 as f64 + i as f64;
        assert_eq!((out[0], out[7], out[69]), (want(0.0), want(7.0), want(69.0)));
    }

    /// Every width crossing in one kernel over `(xf, xd, xi, of, od, oi, a, n)`:
    /// f32 ↔ f64 ↔ i32 casts, selects over f64 under bool, i32 and f64
    /// conditions, `Neg`/`Not`/logic/`min`/`max`/`sqrt` at each kind, f64 and
    /// f32 private arrays filled and summed by i64 loops (the second of a
    /// lane-dependent trip count), loads and accumulates under the scattered
    /// mask of `i % 3 == 0` and the one-lane mask of `i == 37` — or, `local`,
    /// an f64 and an f32 workgroup array written and read across a barrier.
    fn mixed_width_kernel(local: bool) -> Kernel {
        use ScalarKind::{F32, F64, I32};
        let v = |n: &str| KExpr::var(n);
        let decl =
            |n: &str, kind, init| KStmt::DeclScalar { name: n.into(), kind, init: Some(init) };
        let ld = |p: usize, idx| KExpr::load(MemRef::Param(p), idx);
        let st = |p: usize, idx, value| KStmt::Store { mem: MemRef::Param(p), idx, value };
        let bin = KExpr::bin;
        let call = |i, args: Vec<KExpr>| KExpr::Call(i, args);
        let rem = |a, m| bin(BinOp::Rem, a, KExpr::int(m));
        let i = || v("i");
        let mut body = vec![
            decl("i", I32, KExpr::GlobalId(0) + KExpr::GlobalId(1) * KExpr::GlobalSize(0)),
            KStmt::return_if(bin(BinOp::Ge, i(), v("n"))),
            decl("f", F32, ld(0, i())),
            decl("d", F64, ld(1, i())),
            decl("k", I32, ld(2, i())),
        ];
        if local {
            let lid = || KExpr::LocalId(0);
            let at = |arr: &str, off| {
                KExpr::load(MemRef::Local(arr.into()), rem(lid() + KExpr::int(off), 32))
            };
            let put = |arr: &str, value| KStmt::Store {
                mem: MemRef::Local(arr.into()),
                idx: lid(),
                value,
            };
            body.extend([
                KStmt::DeclLocalArray { name: "ld".into(), kind: F64, len: KExpr::int(32) },
                KStmt::DeclLocalArray { name: "lf".into(), kind: F32, len: KExpr::int(32) },
                put("ld", v("d") * KExpr::cast(F64, v("k"))),
                put("lf", v("d") + v("f")),
                KStmt::Barrier,
                st(4, i(), at("ld", 1) + at("lf", 3)),
                st(3, i(), at("lf", 5) * v("a")),
                st(5, i(), KExpr::cast(I32, at("ld", 7)) + v("k")),
            ]);
            return Kernel {
                name: "mixed_local".into(),
                params: mixed_params(),
                body,
                work_dim: 1,
            };
        }
        let priv_at = |arr: &str, idx| KExpr::load(MemRef::Priv(arr.into()), idx);
        let priv_put =
            |arr: &str, value| KStmt::Store { mem: MemRef::Priv(arr.into()), idx: v("j"), value };
        let looped = |end, body| KStmt::For {
            var: "j".into(),
            begin: KExpr::int(0),
            end,
            step: KExpr::int(1),
            body,
        };
        body.extend([
            decl("id", F64, KExpr::cast(F64, v("k"))),
            decl("kf", F32, KExpr::cast(F32, v("k"))),
            decl("s1", F64, KExpr::select(bin(BinOp::Lt, v("d"), v("id")), v("d"), v("id"))),
            decl("fd", F64, KExpr::cast(F64, v("f")) * v("d")),
            decl("df", F32, KExpr::cast(F32, v("d")) + v("f")),
            decl("di", I32, KExpr::cast(I32, v("d")) + v("k")),
            decl("s2", F64, KExpr::select(v("k") - KExpr::int(4), v("fd"), -v("d"))),
            decl("s3", F32, KExpr::select(v("d"), v("f"), v("kf"))),
            decl("mn", F32, call(Intrinsic::Min, vec![v("f"), v("a")])),
            decl("mx", F64, call(Intrinsic::Max, vec![v("d"), v("id")])),
            decl("mi", I32, call(Intrinsic::Max, vec![v("k"), v("di")])),
            decl("sq", F64, call(Intrinsic::Sqrt, vec![call(Intrinsic::Fabs, vec![v("d")])])),
            decl("sf", F32, call(Intrinsic::Sqrt, vec![call(Intrinsic::Fabs, vec![v("f")])])),
            decl("nt", I32, KExpr::Un(UnOp::Not, Box::new(v("d")))),
            decl("lg", I32, bin(BinOp::And, bin(BinOp::Gt, v("f"), v("a")), v("k"))),
            decl("ng", I32, -bin(BinOp::Gt, v("k"), KExpr::int(2))),
            KStmt::DeclPrivArray { name: "pd".into(), kind: F64, len: KExpr::int(4) },
            KStmt::DeclPrivArray { name: "pf".into(), kind: F32, len: KExpr::int(4) },
            looped(
                KExpr::int(4),
                vec![priv_put("pd", v("d") * v("j")), priv_put("pf", v("d") + v("j"))],
            ),
            decl("acc", F64, KExpr::Lit(Lit::f64(0.0))),
            looped(
                call(Intrinsic::Min, vec![rem(i(), 5), KExpr::int(4)]),
                vec![KStmt::Assign {
                    name: "acc".into(),
                    value: v("acc") + priv_at("pd", v("j")) + priv_at("pf", v("j")),
                }],
            ),
            KStmt::If {
                cond: bin(BinOp::Eq, rem(i(), 3), KExpr::int(0)),
                then_: vec![st(4, i(), v("acc") + ld(1, i())), st(5, i(), v("mi") + ld(2, i()))],
                else_: vec![st(4, i(), v("s1") - ld(1, i())), st(5, i(), ld(2, i()) - v("di"))],
            },
            KStmt::If {
                cond: bin(BinOp::Eq, i(), KExpr::int(37)),
                then_: vec![st(3, i(), KExpr::Lit(Lit::f32(1000.0)) + ld(0, i()))],
                else_: vec![st(3, i(), v("df") + v("kf") + v("s3") + v("mn") + v("sf"))],
            },
            st(4, i() + v("n"), v("fd") + v("s2") + v("mx") + v("sq")),
            st(5, i() + v("n"), v("nt") + v("lg") + v("ng")),
        ]);
        Kernel { name: "mixed".into(), params: mixed_params(), body, work_dim: 2 }
    }

    fn mixed_params() -> Vec<KernelParam> {
        use ScalarKind::{F32, F64, I32};
        vec![
            KernelParam::global_buf("xf", F32),
            KernelParam::global_buf("xd", F64),
            KernelParam::global_buf("xi", I32),
            KernelParam::global_buf("of", F32),
            KernelParam::global_buf("od", F64),
            KernelParam::global_buf("oi", I32),
            KernelParam::scalar("a", F32),
            KernelParam::scalar("n", I32),
        ]
    }

    /// [`mixed_width_kernel`] against the tree-walker, bit for bit (the
    /// differential engine compares buffers, counters and transaction bytes
    /// and fails the launch otherwise): row-coherent warps with a guard-cut
    /// contiguous mask, row-straddling warps, a one-lane final warp and a
    /// grouped launch, with and without a sanitizer shadow on every buffer.
    #[test]
    fn mixed_width_registers_match_the_oracle_under_every_mask() {
        let flat = prepare(&mixed_width_kernel(false)).unwrap();
        let grouped = prepare(&mixed_width_kernel(true)).unwrap();
        let (ops, wide) = (&flat.tape.ops, &flat.tape.wide);
        let wide_dst = |op: &&Op| op_dst(op).is_some_and(|d| wide[d as usize]);
        let has = |f: fn(&Op) -> bool| ops.iter().filter(wide_dst).any(f);
        assert!(has(|op| matches!(op, Op::LdP { .. })) && has(|op| matches!(op, Op::Intr1 { .. })));
        // An f64 select stays a branch whose two arms write one wide
        // register, merged at the join under the diverged masks.
        let merged = (0..ops.len()).filter(|&pc| is_branch(&ops[pc])).any(|pc| {
            let (target, join) = (jump_target(&ops[pc]).unwrap() as usize, flat.tape.joins[pc]);
            let arm = |r: std::ops::Range<usize>| -> Vec<R> {
                ops[r].iter().filter(wide_dst).filter_map(op_dst).collect()
            };
            let (then, other) = (arm(pc + 1..target), arm(target..join as usize));
            then.iter().any(|d| other.contains(d))
        });
        assert!(merged, "{ops:?}");
        assert!(grouped
            .tape
            .ops
            .iter()
            .any(|op| matches!(op, Op::LdL { dst, .. } if grouped.tape.wide[*dst as usize])));
        assert!(grouped
            .tape
            .ops
            .iter()
            .any(|op| matches!(op, Op::LdL { dst, .. } if !grouped.tape.wide[*dst as usize])));
        assert_consistent(&flat);
        assert_consistent(&grouped);

        let shapes: [(&Prepared, &[usize], Option<usize>, usize); 4] = [
            (&flat, &[64, 3], None, 180),
            (&flat, &[20, 9], None, 171),
            (&flat, &[33, 1], None, 33),
            (&grouped, &[96], Some(32), 90),
        ];
        for (prep, global, lsize, n) in shapes {
            let total: usize = global.iter().product();
            for shadow in [false, true] {
                let buf = |data: BufData| SharedBuf::with_shadow(data, shadow, true);
                let xf = buf(BufData::from(
                    (0..total).map(|i| (i % 13) as f32 * 0.37 - 2.0).collect::<Vec<_>>(),
                ));
                let xd = buf(BufData::from(
                    (0..total).map(|i| i as f64 * 0.11 - 7.3).collect::<Vec<_>>(),
                ));
                let xi = buf(BufData::from(
                    (0..total).map(|i| (i * 5 % 17) as i32 - 6).collect::<Vec<_>>(),
                ));
                let of = buf(BufData::from(vec![0.0f32; 2 * total]));
                let od = buf(BufData::from(vec![0.0f64; 2 * total]));
                let oi = buf(BufData::from(vec![0i32; 2 * total]));
                let binds = [
                    ArgBind::Buf(&xf),
                    ArgBind::Buf(&xd),
                    ArgBind::Buf(&xi),
                    ArgBind::Buf(&of),
                    ArgBind::Buf(&od),
                    ArgBind::Buf(&oi),
                    ArgBind::Val(Value::F32(0.25)),
                    ArgBind::Val(Value::I32(n as i32)),
                ];
                for mode in [ExecMode::Fast, ExecMode::Model { sample_stride: 1 }] {
                    let stats = launch(
                        prep,
                        &binds,
                        global,
                        lsize,
                        mode,
                        128,
                        Engine::Differential,
                        &crate::Runtime::sanitizing(),
                    )
                    .unwrap_or_else(|e| panic!("{global:?} shadow {shadow} {mode:?}: {e}"));
                    assert!(stats.divergent_warps > 0, "{global:?}: no warp diverged");
                }
                let (f, d, o) = (
                    unsafe { xf.data() }.to_f64_vec(),
                    unsafe { xd.data() }.to_f64_vec(),
                    unsafe { od.data() }.to_f64_vec(),
                );
                if lsize.is_none() {
                    // 30 % 3 == 0, 30 % 5 == 0: an empty sum plus the load.
                    assert_eq!(o[30], d[30], "{global:?}");
                    let k = unsafe { xi.data() }.to_f64_vec();
                    assert_eq!(o[31], d[31].min(k[31]) - d[31], "{global:?}");
                    assert!(o[n - 1 + n] != 0.0 && (n == total || o[n + n] == 0.0), "guard at n");
                    if n > 37 {
                        assert_eq!(
                            unsafe { of.data() }.to_f64_vec()[37],
                            (1000.0 + f[37] as f32) as f64
                        );
                    }
                } else {
                    let k = unsafe { xi.data() }.to_f64_vec();
                    assert_eq!(o[40], d[41] * k[41] + (d[43] + f[43]) as f32 as f64, "{global:?}");
                }
            }
        }
    }

    #[test]
    fn fusion_windows_stop_at_jump_targets_and_phase_entries() {
        let hand = |ops: Vec<Op>, phase_starts: Vec<u32>| {
            let mut c = Compiled { ops, phase_starts, nregs: 5, ..Compiled::default() };
            crate::compile::fuse(&mut c);
            c
        };
        // t = r1 * r1; r3 = t + r1 — with the add a jump target or not.
        let muladd = |target: u32| {
            vec![
                Op::Jz { cond: 0, k: K::Bool, target },
                Op::Bin { dst: 2, a: 1, b: 1, op: BinOp::Mul, k: K::F32 },
                Op::Bin { dst: 3, a: 2, b: 1, op: BinOp::Add, k: K::F32 },
                Op::Halt,
            ]
        };
        let split = hand(muladd(2), vec![0]);
        assert!(superinstructions(&split).is_empty(), "{:?}", split.ops);
        assert_eq!((split.ops.len(), split.fused_ops), (4, 0));
        let whole = hand(muladd(3), vec![0]);
        assert!(matches!(whole.ops[1], Op::MulAdd { dst: 3, a: 1, b: 1, c: 1, .. }));
        // The jump followed the halt it pointed at.
        assert!(matches!(whole.ops[..], [Op::Jz { target: 2, .. }, _, Op::Halt]));
        assert_eq!(whole.fused_ops, 1);

        // r4 = x[r1 - r2] — with the load a phase entry or not.
        let load = || {
            vec![
                Op::Bin { dst: 3, a: 1, b: 2, op: BinOp::Sub, k: K::I32 },
                Op::LdG { dst: 4, buf: 0, base: 3, off: None, site: 0, constant: false },
                Op::Halt,
            ]
        };
        let split = hand(load(), vec![0, 1]);
        assert!(superinstructions(&split).is_empty(), "{:?}", split.ops);
        let whole = hand(load(), vec![0]);
        let fused =
            Op::LdG { dst: 4, buf: 0, base: 1, off: Some((2, true)), site: 0, constant: false };
        assert_eq!(whole.ops[..], [fused, Op::Halt]);
    }

    /// `out[g] = x[ix]`, or (`store`) `out[ix] = x[g]` for `g ≥ 38` (bool)
    /// or every `g`, its index `ix` of `kind`: `(float)g + 0.25f`,
    /// `(double)g + 0.5` — `g` once truncated — or the bool `g == 39`. No
    /// shipped kernel indexes global memory at these kinds.
    fn indexed_at(kind: ScalarKind, store: bool) -> Kernel {
        let (g, at) = (|| KExpr::GlobalId(0), |i| KExpr::load(MemRef::Param(0), i));
        let ix = match kind {
            ScalarKind::F32 => KExpr::cast(kind, g()) + KExpr::Lit(Lit::f32(0.25)),
            ScalarKind::F64 => KExpr::cast(kind, g()) + KExpr::Lit(Lit::f64(0.5)),
            _ => KExpr::bin(BinOp::Eq, g(), KExpr::int(39)),
        };
        let lo = if store && kind == ScalarKind::Bool { 38 } else { 0 };
        let (idx, value) = if store { (ix, at(g())) } else { (g(), at(ix)) };
        let body = KStmt::If {
            cond: KExpr::bin(BinOp::Ge, g(), KExpr::int(lo)),
            then_: vec![KStmt::Store { mem: MemRef::Param(1), idx, value }],
            else_: vec![],
        };
        Kernel {
            name: format!("index_{kind:?}_{store}"),
            params: vec![
                KernelParam::global_buf("x", ScalarKind::F32),
                KernelParam::global_buf("out", ScalarKind::F32),
            ],
            body: vec![body],
            work_dim: 1,
        }
    }

    /// Global loads and stores at an f32, f64 or bool index read the i64
    /// its `AsI64` makes, as the tree-walker reads the index: over 40 items
    /// in range they agree with the oracle under `Engine::Differential`, and
    /// with the indexed buffer one element short the tape and the oracle
    /// panic with one text.
    #[test]
    fn global_accesses_at_a_float_or_bool_index_match_the_oracle() {
        let n = 40;
        let bufs = |xlen: usize, olen: usize| {
            let x = shadowed((0..xlen).map(|i| 1.0 + i as f32).collect::<Vec<_>>());
            (x, shadowed(vec![-1.0f32; olen]))
        };
        let modes = [ExecMode::Fast, ExecMode::Model { sample_stride: 1 }];
        for kind in [ScalarKind::F32, ScalarKind::F64, ScalarKind::Bool] {
            for store in [false, true] {
                let k = indexed_at(kind, store);
                let prep = prepare(&k).unwrap();
                let t = &prep.tape;
                let widened = |op: &Op| match *op {
                    Op::LdG { base: i, .. } => !store && t.wide[i as usize],
                    Op::StG { idx: i, .. } => store && t.wide[i as usize],
                    _ => false,
                };
                assert!(t.ops.iter().any(widened), "{}: {:?}", k.name, t.ops);
                for mode in modes {
                    let (x, out) = bufs(n, n);
                    let binds = [ArgBind::Buf(&x), ArgBind::Buf(&out)];
                    let rt = crate::Runtime::sanitizing();
                    launch(&prep, &binds, &[n], None, mode, 128, Engine::Differential, &rt)
                        .unwrap();
                    let o = unsafe { out.data() }.to_f64_vec();
                    let want = match (kind, store) {
                        (ScalarKind::Bool, false) => [1.0, 1.0, 2.0],
                        (ScalarKind::Bool, true) => [39.0, 40.0, -1.0],
                        _ => [1.0, 2.0, 40.0],
                    };
                    assert_eq!([o[0], o[1], o[39]], want, "{}", k.name);
                }
                // One past the end of the shortened buffer: item 39's index.
                let short = if kind == ScalarKind::Bool { 1 } else { n - 1 };
                let mut texts = Vec::new();
                for (engine, mode) in
                    [Engine::Tree, Engine::Fast].iter().flat_map(|&e| modes.map(|m| (e, m)))
                {
                    let (x, out) = if store { bufs(n, short) } else { bufs(short, n) };
                    let binds = [ArgBind::Buf(&x), ArgBind::Buf(&out)];
                    let rt = crate::Runtime::new(crate::runtime().settings);
                    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        launch(&prep, &binds, &[n], None, mode, 128, engine, &rt)
                    }))
                    .expect_err("the access past the end must panic");
                    texts.push(panicked.downcast_ref::<String>().cloned().unwrap_or_default());
                }
                let (what, param) = if store { ("store", 1) } else { ("load", 0) };
                let want = format!("{what} out of bounds: param {param}[{short}] (len {short})");
                assert!(texts.iter().all(|t| t.contains(&want) && *t == texts[0]), "{texts:?}");
            }
        }
    }

    /// The tiled stencil of `tests/workgroup_tiling.rs`: a cooperative
    /// staging load into local memory, a barrier, then the window sum out
    /// of the tile. A grouped tape reads its global indices as any other
    /// does: an i32 as it is; its local indices are widened.
    #[test]
    fn a_two_phase_local_memory_tape_matches_the_oracle() {
        use lift::ir::{self, ParamDef};
        use lift::prelude::{Lit, PadKind, Type};
        const N: usize = 256;
        let a = ParamDef::typed("a", Type::array(Type::real(), N));
        let add = lift::funs::add();
        let plain = ir::map_glb(
            ir::slide(5, 1, ir::pad(2, 2, PadKind::Clamp, a.to_expr())),
            "w",
            move |w| {
                ir::reduce_seq(ir::lit(Lit::real(0.0)), w, |acc, x| ir::call(&add, vec![acc, x]))
            },
        );
        let tiled = lift::rewrite::overlapped_tile_1d(&plain, 32).expect("rewrite applies");
        let lk = lift::lower::lower_kernel("tiled", &[a], &tiled, ScalarKind::F32).unwrap();
        let prep = prepare(&lk.kernel).unwrap();
        let t = &prep.tape;
        assert_eq!(t.phases(), 2);
        assert!(t.ops.iter().any(|op| matches!(op, Op::StL { .. })), "{:?}", t.ops);
        assert!(t.ops.iter().any(|op| matches!(op, Op::LdL { .. })), "{:?}", t.ops);
        for op in &t.ops {
            match *op {
                Op::LdG { base: i, .. } | Op::StG { idx: i, .. } => assert!(!t.wide[i as usize]),
                Op::LdL { idx, .. } | Op::StL { idx, .. } => assert!(t.wide[idx as usize]),
                _ => {}
            }
        }
        assert_consistent(&prep);

        let input = shadowed((0..N).map(|i| ((i * 37) % 17) as f32 - 8.0).collect::<Vec<_>>());
        let out = shadowed(vec![0.0f32; N]);
        let binds: Vec<ArgBind<'_>> = lk
            .args
            .iter()
            .map(|spec| match spec {
                lift::lower::ArgSpec::Output(..) => ArgBind::Buf(&out),
                _ => ArgBind::Buf(&input),
            })
            .collect();
        for mode in [ExecMode::Fast, ExecMode::Model { sample_stride: 1 }] {
            launch(
                &prep,
                &binds,
                &[N],
                Some(32),
                mode,
                128,
                Engine::Differential,
                &crate::Runtime::sanitizing(),
            )
            .unwrap();
        }
        let x = unsafe { input.data() }.to_f64_vec();
        let o = unsafe { out.data() }.to_f64_vec();
        assert_eq!(o[100], x[98..103].iter().sum::<f64>());
        assert_eq!(o[0], 3.0 * x[0] + x[1] + x[2], "clamped at the edge");
    }
}
