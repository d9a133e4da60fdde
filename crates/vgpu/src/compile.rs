//! Three passes over a compiled tape ([`Compiled`]): [`fuse`] and
//! [`fuse_sums`], which close `bytecode::compile` around its value
//! numbering, and [`launch_shapes`], run once per launch shape.
//!
//! [`fuse`] rewrites the op sequences the acoustics kernels actually emit —
//! the i32 offset step of a stencil gather's index, `Bin`·`Bin` multiply-add
//! chains, and the compare → `Jz` pairs every `if` compiles to — into one
//! *superinstruction* each, in place. A global access needs no window of its
//! own: codegen emits the form that ships, an `LdG`/`StG` reading its i32
//! index as it is.
//!
//! 1. **Leaders** — phase entries, jump targets and every op after a jump or
//!    terminator. A fusion window never crosses one, so every jump still
//!    lands on the first op of what it targeted.
//! 2. **Use counting** — a register is a fusable *intermediate* only when it
//!    has exactly one reader in the whole tape (main ops + both preludes).
//!    Skipping its write is then unobservable: nothing reads it later, not
//!    on the other side of a divergent branch nor across loop iterations.
//!    That skipped write is the gain: on the SoA register file every elided
//!    intermediate saves a 32-lane column round-trip.
//! 3. **Peephole fusion** — at each pc: a load's offset step (`Bin`·`LdG`,
//!    the i32 `Add`/`Sub` computing the index becomes the load's `off`),
//!    multiply-add (`Bin`·`Bin`) and compare-branch (`Bin`·`Jz`, also
//!    across a `Flops` in between). The window's first op becomes the
//!    superinstruction.
//!
//! 4. **Accumulating loads** ([`fuse_sums`], after value numbering, so no
//!    later pass rewrites a link) — every `Add`/`Sub` that accumulates an
//!    i32-indexed load folds into an `LdGSum`, the one accumulating load; a
//!    chain of them over one buffer is one op: the volume kernel's stencil
//!    sum, its `… − prev[idx]`.
//!
//! Fusion is total: an op no window matches stays as it is, on every tape —
//! multi-phase and local-memory ones included.
//!
//! [`launch_shapes`] classifies every register of the fused tape, per launch
//! shape and warp kind, as uniform, affine or varying across a warp's lanes —
//! what lets the executor treat a unit-stride access as one run of its
//! buffer and read a uniform branch condition off one lane.
//!
//! Bit-identity contract: a superinstruction performs the exact same
//! arithmetic in the exact same operand order as the sequence it replaced —
//! multiply-add stays two roundings (never an FMA), i32 index math wraps
//! like `bin_bits`, compare-branch takes the same side.
//! `Engine::Differential` (tree oracle, then the tape) enforces this.

use crate::bytecode::{
    bin_bits, block_leaders, compact, count_readers, count_writers, is_branch, op_dst, visit_srcs,
    Compiled, Link, Op, Shape, K, R,
};
use lift::prelude::{BinOp, Value};

/// True for the comparison operators (result kind `Bool`).
fn is_cmp(op: BinOp) -> bool {
    matches!(op, BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge)
}

/// True for the accumulate/offset operators fusable into load/mul chains.
fn is_addsub(op: BinOp) -> bool {
    matches!(op, BinOp::Add | BinOp::Sub)
}

/// Rewrites the tape's fusable windows into superinstructions, in place.
/// See the module docs for the pass structure and the legality rule.
pub(crate) fn fuse(c: &mut Compiled) {
    let n = c.ops.len();
    let leader = block_leaders(c);
    let uses = count_readers(c);
    let single = |r: R| uses[r as usize] == 1;
    let mut removed = vec![false; n];
    let (mut pc, mut end) = (0, 0);
    while pc < n {
        // A window may reach up to the next leader.
        if pc == end {
            end = (pc + 1..n).find(|&i| leader[i]).unwrap_or(n);
        }
        // A flop count flushed between a compare and its branch goes ahead of
        // the compare — it touches no register and the mask is the same on
        // either side — so the pair fuses on the next round.
        if pc + 2 < end {
            if let (Op::Bin { op, .. }, Op::Flops { .. }, Op::Jz { .. }) =
                (c.ops[pc], c.ops[pc + 1], c.ops[pc + 2])
            {
                if is_cmp(op) {
                    c.ops.swap(pc, pc + 1);
                }
            }
        }
        let window = try_ldg(c, pc, end, &single)
            .or_else(|| try_muladd(c, pc, end, &single))
            .or_else(|| try_cmp(c, pc, end, &single));
        let width = match window {
            Some((op, width)) => {
                c.ops[pc] = op;
                removed[pc + 1..pc + width].fill(true);
                c.fused_ops += (width - 1) as u32;
                width
            }
            None => 1,
        };
        pc += width;
    }
    compact(c, &removed);
}

/// Folds every `Add`/`Sub` that accumulates a single-use `LdG` of global
/// memory at an i32 index right before it, at the buffer's element kind
/// (`kind(buf)`), into an `LdGSum`: the one accumulating load. Such folds of
/// one buffer in one basic block, each accumulating the sum the one before
/// wrote (which nothing else reads — the use-count rule of [`fuse`]), make
/// one op, headed by a plain load of the buffer when the first fold
/// accumulates that. The links keep their index, site and fold, so the op
/// adds as the chain did; it writes `dst` once, after every link has read
/// its index, so a link may read `dst` or `src` too.
pub(crate) fn fuse_sums(c: &mut Compiled, kind: impl Fn(u16) -> Option<K>) {
    let (leader, uses) = (block_leaders(c), count_readers(c));
    // The load at `q`: its buffer, `dst` and plain link, and the fold right
    // after it, if one accumulates it: (its link, accumulated register, sum).
    let load = |q: usize| {
        let Op::LdG { dst, buf, base, off, site, constant: false } = *c.ops.get(q)? else {
            return None;
        };
        if c.wide[base as usize] {
            return None;
        }
        let link = |sub, rev| Link { base, off, site, sub, rev };
        let fold = match c.ops.get(q + 1) {
            Some(&Op::Bin { dst: sum, a, b, op, k })
                if is_addsub(op)
                    && (a == dst) != (b == dst)
                    && kind(buf) == Some(k)
                    && uses[dst as usize] == 1
                    && !leader[q + 1] =>
            {
                let rev = a == dst;
                Some((link(op == BinOp::Sub, rev), if rev { b } else { a }, sum))
            }
            _ => None,
        };
        Some((buf, dst, link(false, false), fold))
    };
    let (mut sums, mut links, base) = (Vec::new(), Vec::new(), c.links.len());
    let mut pc = 0;
    while pc < c.ops.len() {
        let Some((buf, dst, plain, fold)) = load(pc) else {
            pc += 1;
            continue;
        };
        // A folded head accumulates `src`; a plain one starts the sum.
        let (head, src, mut sum, mut q) = match fold {
            Some((link, acc, s)) => (link, Some(acc), s, pc + 2),
            None => (plain, None, dst, pc + 1),
        };
        let at = links.len();
        links.push(head);
        while let Some((b, _, _, Some((link, acc, s)))) = load(q) {
            if b != buf || leader[q] || acc != sum || uses[sum as usize] != 1 {
                break;
            }
            links.push(link);
            (sum, q) = (s, q + 2);
        }
        if q > pc + 1 {
            let (at, n) = ((base + at) as u32, (links.len() - at) as u32);
            sums.push((pc..q, Op::LdGSum { dst: sum, buf, src, at, n }));
        } else {
            links.truncate(at);
        }
        pc = q;
    }
    c.links.extend(links);
    let mut removed = vec![false; c.ops.len()];
    for (ops, op) in sums {
        c.ops[ops.start] = op;
        c.fused_ops += (ops.len() - 1) as u32;
        removed[ops.start + 1..ops.end].fill(true);
    }
    compact(c, &removed);
}

/// A register's value across one launch's work-items when it is linear:
/// `(c, u)` is the i32 `c·gid + u` (wrapping) or its i64 sign extension, `u`
/// the same in every work-item and known when `Some` — when built from
/// `Const`, `Gsz`, `Gid` and i32 arguments by i32 add, sub, mul and `MulAdd`.
/// [`UNIFORM`] is any value the active lanes of a warp agree on.
pub(crate) type Val = Option<([i32; 3], Option<i32>)>;

const UNIFORM: Val = Some(([0; 3], None));

/// The lane shapes per warp kind (`[row-coherent, straddling]`) of a flat
/// launch of `gsize` with scalar arguments `args`, and where phase 0 starts
/// ([`crate::bytecode::launch_entry`]) — from the tape, `gsize` and the i32
/// arguments alone, what keys a launch shape. A row-coherent warp's lanes
/// share `gid[1]` and `gid[2]`: `(c, u)` is `Affine(c₀)` there, `Uniform` when
/// `c₀ = 0`. A straddling warp's lanes are consecutive items
/// `x + gx·y + gx·gy·z`: `Affine(s)` exactly when `c = s·(1, gx, gx·gy)` (a
/// dimension of size 1 has no `gid` term), `Uniform` when `c = 0`. Per kind,
/// a pass over `pre` → `item_pre` → `ops` runs to a fixpoint: a register
/// with one definition takes its value (write-before-read makes it hold at
/// every read, under any mask); one with several (tape writers, an argument
/// slot's launch value) stays [`UNIFORM`] while every writer's result is
/// uniform and none sits where the warp may be split ([`split_regions`]).
pub(crate) fn launch_shapes(
    c: &Compiled,
    args: &[(usize, Value)],
    gsize: [usize; 3],
) -> ([Vec<Shape>; 2], usize) {
    let mut defs = count_writers(&c.ops, c.nregs);
    let mut seed = vec![UNIFORM; c.nregs];
    for &(slot, v) in args {
        defs[slot] += 1;
        let known = if let Value::I32(x) = v { Some(x) } else { None };
        seed[slot] = if defs[slot] == 1 { Some(([0; 3], known)) } else { UNIFORM };
    }
    let [gx, gy, gz] = gsize.map(|g| g as u64);
    let linear = [(1, gx), (gx, gy), (gx * gy, gz)].map(|(e, g)| if g > 1 { e as i32 } else { 0 });
    let (kinds, preludes) = ([None, Some(linear)], c.pre.len() + c.item_pre.len());
    let vals = kinds.map(|kind| {
        let mut vals = seed.clone();
        loop {
            let prev = vals.clone();
            let split = split_regions(c, &prev.iter().map(|&v| shape(v, kind)).collect::<Vec<_>>());
            for (i, op) in c.pre.iter().chain(&c.item_pre).chain(&c.ops).enumerate() {
                let Some(d) = op_dst(op) else { continue };
                let v = value(op, &vals, gsize, kind);
                if defs[d as usize] <= 1 {
                    vals[d as usize] = v;
                } else if shape(v, kind) != Shape::Uniform || split[i - preludes] {
                    vals[d as usize] = None;
                }
            }
            if vals == prev {
                return vals;
            }
        }
    });
    let table = |k: usize| vals[k].iter().map(|&v| shape(v, kinds[k])).collect();
    ([table(0), table(1)], crate::bytecode::launch_entry(c, &vals[0], gsize))
}

/// The shape of `v` on a row-coherent warp (`straddle` is `None`) or on a
/// straddling one, whose linear item id has `gid` coefficients `straddle`.
fn shape(v: Val, straddle: Option<[i32; 3]>) -> Shape {
    let Some((c, _)) = v else { return Shape::Varying };
    match straddle.is_none_or(|e| c == e.map(|e| e.wrapping_mul(c[0]))) {
        false => Shape::Varying,
        true if c[0] == 0 => Shape::Uniform,
        true => Shape::Affine(c[0]),
    }
}

/// The value `op` writes, given its operands': loads and local or group ids
/// vary, `Gid{d}` is `gid[d]` (0 on a dimension of size 1), the other seeds
/// and i32 add/sub/mul/`MulAdd` are linear ([`lin`]), `Mov` and `AsI64` carry
/// their operand, and any other pure op — or a linear one that is not — is
/// uniform when all its operands are.
fn value(op: &Op, v: &[Val], gsize: [usize; 3], straddle: Option<[i32; 3]>) -> Val {
    use BinOp::{Add, Mul, Sub};
    let at = |r: R| v[r as usize];
    let lin = match *op {
        Op::Lid { .. } | Op::Grp { .. } | Op::LdG { .. } | Op::LdGSum { .. } => return None,
        Op::LdP { .. } | Op::LdL { .. } => return None,
        Op::Gid { dim, .. } => {
            return Some(([0, 1, 2].map(|d| (d == dim && gsize[d as usize] > 1) as i32), Some(0)))
        }
        Op::Const { bits, .. } => Some(([0; 3], Some(bits as i32))),
        Op::Gsz { dim, .. } => Some(([0; 3], Some(gsize[dim as usize] as i32))),
        Op::Mov { src, .. } | Op::AsI64 { src, from: K::I32, .. } => at(src),
        Op::Bin { a, b, op, k: K::I32, .. } if matches!(op, Add | Sub | Mul) => {
            lin(at(a), at(b), op)
        }
        Op::MulAdd { a, b, c, k: K::I32, sub, rev, .. } => {
            let (p, op) = (lin(at(a), at(b), Mul), if sub { Sub } else { Add });
            let (x, y) = if rev { (at(c), p) } else { (p, at(c)) };
            lin(x, y, op)
        }
        _ => None,
    };
    let mut uniform = true;
    visit_srcs(op, &mut |r| uniform &= shape(at(r), straddle) == Shape::Uniform);
    match shape(lin, straddle) {
        Shape::Varying if uniform => UNIFORM,
        _ => lin,
    }
}

/// `x op y` over i32 values (`Add`, `Sub` or `Mul`), wrapping: linear unless
/// a product has no factor of known value free of `gid`.
fn lin(x: Val, y: Val, op: BinOp) -> Val {
    let ((a, u), (b, w)) = (x?, y?);
    let f = |p: i32, q: i32| bin_bits(op, K::I32, p as u32 as u64, q as u32 as u64) as i32;
    let uw = u.zip(w).map(|(u, w)| f(u, w));
    let scale = |c: [i32; 3], k: Option<i32>| Some((c.map(|c| c.wrapping_mul(k.unwrap_or(0))), uw));
    match op {
        BinOp::Mul if a == [0; 3] && (b == [0; 3] || u.is_some()) => scale(b, u),
        BinOp::Mul if b == [0; 3] && w.is_some() => scale(a, w),
        BinOp::Mul => None,
        _ => Some(([0, 1, 2].map(|d| f(a[d], b[d])), uw)),
    }
}

/// `split[pc]`: the op at `pc` may run with the warp split — it lies
/// between a conditional branch whose operands are not all uniform and the
/// branch's join (`validate`'s join rule: the branch jumps forward to at
/// most its join, so that is the span of ops in between). A branch whose
/// sides only meet at the exit (an early-return guard, a `Ret` in a loop)
/// splits the warp for good: each part runs on alone with one shared
/// history — no region.
fn split_regions(c: &Compiled, shapes: &[Shape]) -> Vec<bool> {
    let n = c.ops.len();
    let uniform = |r: R| shapes[r as usize] == Shape::Uniform;
    let mut split = vec![false; n];
    for (pc, op) in c.ops.iter().enumerate() {
        if !is_branch(op) {
            continue;
        }
        // A branch reads its condition's operands and nothing else.
        let mut uniform_cond = true;
        visit_srcs(op, &mut |r| uniform_cond &= uniform(r));
        if uniform_cond {
            continue;
        }
        let join = c.joins[pc] as usize;
        if join < n {
            split[pc + 1..join].fill(true);
        }
    }
    split
}

/// `Bin{t,base,off,±,I32}; LdG{dst,…,t}` with `t` single-use: the load
/// takes the step as its `off`. Neither `base` nor `off` may alias `dst`:
/// the op may interleave its index reads with its writes.
fn try_ldg(
    c: &Compiled,
    pc: usize,
    end: usize,
    single: &impl Fn(R) -> bool,
) -> Option<(Op, usize)> {
    if pc + 1 >= end {
        return None;
    }
    let Op::Bin { dst: t, a, b, op, k: K::I32 } = c.ops[pc] else { return None };
    let Op::LdG { dst, buf, base, off: None, site, constant } = c.ops[pc + 1] else { return None };
    if !is_addsub(op) || !single(t) || base != t || dst == a || dst == b {
        return None;
    }
    let off = Some((b, op == BinOp::Sub));
    Some((Op::LdG { dst, buf, base: a, off, site, constant }, 2))
}

/// `Bin{t,a,b,Mul,k}; Bin{dst,·,·,Add|Sub,k}` with `t` single-use and used
/// by exactly one operand of the second op.
fn try_muladd(
    c: &Compiled,
    pc: usize,
    end: usize,
    single: &impl Fn(R) -> bool,
) -> Option<(Op, usize)> {
    if pc + 1 >= end {
        return None;
    }
    let Op::Bin { dst: t, a, b, op: BinOp::Mul, k } = c.ops[pc] else { return None };
    if !single(t) {
        return None;
    }
    let Op::Bin { dst, a: a2, b: b2, op: op2, k: k2 } = c.ops[pc + 1] else { return None };
    if !is_addsub(op2) || k2 != k || (a2 == t) == (b2 == t) {
        return None;
    }
    let (cc, rev) = if a2 == t { (b2, false) } else { (a2, true) };
    Some((Op::MulAdd { dst, a, b, c: cc, k, sub: op2 == BinOp::Sub, rev }, 2))
}

/// `Bin{t,a,b,cmp,k}` with `t` single-use, feeding the `Jz{t,Bool,target}`
/// that follows it.
fn try_cmp(
    c: &Compiled,
    pc: usize,
    end: usize,
    single: &impl Fn(R) -> bool,
) -> Option<(Op, usize)> {
    if pc + 1 >= end {
        return None;
    }
    let Op::Bin { dst: t, a, b, op, k } = c.ops[pc] else { return None };
    if !is_cmp(op) || !single(t) {
        return None;
    }
    let Op::Jz { cond, k: K::Bool, target } = c.ops[pc + 1] else { return None };
    (cond == t).then_some((Op::CmpJz { a, b, op, k, target }, 2))
}
