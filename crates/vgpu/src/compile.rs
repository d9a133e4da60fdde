//! Two analyses over a compiled tape ([`Compiled`]), run last in
//! `bytecode::compile`.
//!
//! [`fuse`] rewrites the op sequences the acoustics kernels actually emit —
//! index-arithmetic → `AsI64` → `LdG` stencil gathers with a trailing
//! accumulate, `Bin`·`Bin` multiply-add chains, and the compare → `Jz`
//! pairs every `if` compiles to — into one *superinstruction* each, in
//! place:
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
//! 3. **Peephole fusion** — longest match first at each pc: fused global
//!    loads (`Bin`·`AsI64`·`LdG`[·`Bin` accumulate]), fused stores
//!    (`AsI64`·`StG`, the widening first sunk to its store), multiply-add
//!    (`Bin`·`Bin`) and compare-branch (`Bin`·`Jz`, also across a `Flops`
//!    in between). The window's first op becomes the superinstruction.
//!
//! Fusion is total: an op no window matches stays as it is, on every tape —
//! multi-phase and local-memory ones included.
//!
//! [`lane_shapes`] classifies every register of the fused tape as uniform,
//! affine or varying across the lanes of a row-coherent warp — what lets the
//! executor treat a unit-stride access as one run of its buffer and read a
//! uniform branch condition off one lane.
//!
//! Bit-identity contract: a superinstruction performs the exact same
//! arithmetic in the exact same operand order as the sequence it replaced —
//! multiply-add stays two roundings (never an FMA), i32 index math wraps
//! like `bin_bits`, compare-branch takes the same side.
//! `Engine::Differential` (tree oracle, then the tape) enforces this.

use crate::bytecode::{
    block_leaders, compact, count_readers, count_writers, is_branch, op_dst, reads_reg, visit_srcs,
    Acc, Compiled, Op, Shape, K, R,
};
use lift::prelude::BinOp;

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

    // Codegen widens a store's index before it compiles the value: the
    // widening moves down to its store — nothing in between reads it or
    // writes its source — so the pair fuses below. Walking up keeps every
    // widening already moved next to its store.
    for pc in (0..n).rev() {
        let Op::AsI64 { dst, src, from: K::I32 } = c.ops[pc] else { continue };
        let end = (pc + 1..n).find(|&i| leader[i]).unwrap_or(n);
        let st =
            (pc + 1..end).find(|&i| op_dst(&c.ops[i]) == Some(src) || reads_reg(&c.ops[i], dst));
        let store = |st: &usize| matches!(c.ops[*st], Op::StG { idx, .. } if idx == dst);
        if let Some(st) = st.filter(|st| single(dst) && store(st)) {
            c.ops[pc..st].rotate_left(1);
        }
    }
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
            .or_else(|| try_stg(c, pc, end, &single))
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

/// Classifies every tape register by how its value varies across the active
/// lanes of a row-coherent warp (see [`Shape`]): a forward pass over `pre` →
/// `item_pre` → `ops`, repeated to a fixpoint.
///
/// A register with one definition takes the shape of that definition's
/// result ([`result_shape`]); write-before-read (the discipline hoisting
/// relies on) makes it hold at every read, under any mask. A register with
/// several (tape writers, plus the launch value of a scalar argument's
/// slot) is uniform when every writer's result is and no writer sits where
/// the warp may be split ([`split_regions`]) — the active lanes then share
/// one history of writes, as with the counter of a loop of uniform trip
/// count — and varying otherwise. Such registers start uniform and only ever
/// fall to varying, which bounds the iteration.
pub(crate) fn lane_shapes(c: &Compiled, arg_slots: &[Option<usize>]) -> Vec<Shape> {
    let mut defs = count_writers(&c.ops, c.nregs);
    for &slot in arg_slots.iter().flatten() {
        defs[slot] += 1;
    }
    let mut shapes = vec![Shape::Uniform; c.nregs];
    loop {
        let prev = shapes.clone();
        let split = split_regions(c, &prev);
        for op in c.pre.iter().chain(&c.item_pre) {
            if let Some(d) = op_dst(op) {
                shapes[d as usize] = result_shape(op, &shapes);
            }
        }
        for (pc, op) in c.ops.iter().enumerate() {
            let Some(d) = op_dst(op) else { continue };
            let s = result_shape(op, &shapes);
            if defs[d as usize] <= 1 {
                shapes[d as usize] = s;
            } else if s != Shape::Uniform || split[pc] {
                shapes[d as usize] = Shape::Varying;
            }
        }
        if shapes == prev {
            return shapes;
        }
    }
}

/// Shape of the value `op` writes, given its operands' shapes: the seeds
/// (`Gid{0}` counts up along a row; constants, sizes and the other ids of a
/// flat launch are uniform), shape-preserving copies, i32 add/sub of
/// strides, and "all operands uniform ⇒ uniform" for every other pure op.
/// Loaded values are varying.
fn result_shape(op: &Op, shapes: &[Shape]) -> Shape {
    let sh = |r: R| shapes[r as usize];
    match *op {
        Op::Gid { dim: 0, .. } => Shape::Affine(1),
        Op::Lid { .. }
        | Op::Grp { .. }
        | Op::LdG { .. }
        | Op::LdGFused { .. }
        | Op::LdP { .. }
        | Op::LdL { .. } => Shape::Varying,
        Op::Mov { src, .. } => sh(src),
        Op::AsI64 { src, from: K::I32, .. } => match sh(src) {
            Shape::Affine(s) => Shape::Index(s),
            Shape::Uniform => Shape::Uniform,
            _ => Shape::Varying,
        },
        Op::Bin { a, b, op, k: K::I32, .. } if is_addsub(op) => sh(a).add(sh(b), op == BinOp::Sub),
        // The product as any other pure op below, then the i32 add/sub.
        Op::MulAdd { a, b, c, k: K::I32, sub, rev, .. } => {
            let product = match (sh(a), sh(b)) {
                (Shape::Uniform, Shape::Uniform) => Shape::Uniform,
                _ => Shape::Varying,
            };
            if rev {
                sh(c).add(product, sub)
            } else {
                product.add(sh(c), sub)
            }
        }
        _ => {
            let mut uniform = true;
            visit_srcs(op, &mut |r| uniform &= sh(r) == Shape::Uniform);
            match uniform {
                true => Shape::Uniform,
                false => Shape::Varying,
            }
        }
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

/// `[Bin{t1,base,off,±,I32};] AsI64{t2,·,I32}; LdG{dst,…,t2} [; Bin acc]`
/// with every intermediate single-use. Neither `base` nor `off` may alias
/// the fused op's own register writes (`dst`, or the accumulator's
/// destination/source): the op may interleave its index reads with them.
fn try_ldg(
    c: &Compiled,
    pc: usize,
    end: usize,
    single: &impl Fn(R) -> bool,
) -> Option<(Op, usize)> {
    let ops = &c.ops;
    // Optional i32 offset step.
    let (base, off, as_pc) = match ops[pc] {
        Op::Bin { dst, a, b, op, k: K::I32 } if is_addsub(op) && single(dst) && pc + 1 < end => {
            match ops[pc + 1] {
                Op::AsI64 { dst: t2, src, from: K::I32 } if src == dst && single(t2) => {
                    (a, Some((b, op == BinOp::Sub)), pc + 1)
                }
                _ => return None,
            }
        }
        Op::AsI64 { dst: t2, src, from: K::I32 } if single(t2) => (src, None, pc),
        _ => return None,
    };
    let Op::AsI64 { dst: t2, .. } = ops[as_pc] else { return None };
    let ld_pc = as_pc + 1;
    if ld_pc >= end {
        return None;
    }
    let Op::LdG { dst, buf, idx, site, constant } = ops[ld_pc] else { return None };
    if idx != t2 {
        return None;
    }
    if dst == base || off.is_some_and(|(o, _)| dst == o) {
        return None;
    }
    // Optional accumulate tail.
    if ld_pc + 1 < end && single(dst) {
        if let Op::Bin { dst: ad, a, b, op, k } = ops[ld_pc + 1] {
            if is_addsub(op) && (a == dst) != (b == dst) {
                let (src, rev) = if a == dst { (b, true) } else { (a, false) };
                let hazard = ad == base || ad == src || off.is_some_and(|(o, _)| ad == o);
                if !hazard {
                    let acc = Some(Acc { src, k, sub: op == BinOp::Sub, rev });
                    let w = ld_pc + 2 - pc;
                    return Some((
                        Op::LdGFused { dst: ad, buf, base, off, acc, site, constant },
                        w,
                    ));
                }
            }
        }
    }
    let w = ld_pc + 1 - pc;
    Some((Op::LdGFused { dst, buf, base, off, acc: None, site, constant }, w))
}

/// `AsI64{t2,base,I32}; StG{buf,t2,val,vk,site}` with `t2` single-use.
fn try_stg(
    c: &Compiled,
    pc: usize,
    end: usize,
    single: &impl Fn(R) -> bool,
) -> Option<(Op, usize)> {
    if pc + 1 >= end {
        return None;
    }
    let Op::AsI64 { dst: t2, src, from: K::I32 } = c.ops[pc] else { return None };
    if !single(t2) {
        return None;
    }
    let Op::StG { buf, idx, val, vk, site } = c.ops[pc + 1] else { return None };
    if idx != t2 {
        return None;
    }
    Some((Op::StGAt { buf, base: src, val, vk, site }, 2))
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
