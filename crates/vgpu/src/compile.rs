//! Tape → superinstruction lowering for the fused-block executor, the fast
//! path of `Engine::Fast`.
//!
//! [`lower`] re-shapes a validated tape ([`Compiled`]) into basic blocks of
//! fused ops ([`Fused`]), in three steps:
//!
//! 1. **Block discovery** — leaders are the phase entries, every jump
//!    target, and every op after a terminator. Fusion windows never cross a
//!    leader, so jumps always land on a block start.
//! 2. **Use counting** — a register is a fusable *intermediate* only when it
//!    has exactly one reader in the whole tape (main ops + both preludes).
//!    Skipping its write is then unobservable: nothing reads it later, not
//!    even after a divergence hand-off to the warp interpreter or across
//!    loop iterations.
//! 3. **Peephole fusion** — longest-match-first within each block body:
//!    fused global loads (`Bin`·`AsI64`·`LdG`[·`Bin` accumulate]), fused
//!    stores (`AsI64`·`StG`), multiply-add (`Bin`·`Bin`), compare-select
//!    (`Bin`·`Sel`), and compare-branch block terminators (`Bin`·`Jz`).
//!
//! Next to it, [`lane_shapes`] classifies every tape register as uniform,
//! affine or varying across the lanes of a row-coherent warp — what lets the
//! executor treat a unit-stride access as one run of its buffer and read a
//! uniform branch condition off one lane.
//!
//! Lowering is best-effort and total: unmatched ops pass through as
//! [`FOp::Base`]. It *fails* only on structural grounds: local-memory tapes
//! (their launches are grouped, which the flat fused executor never runs)
//! and malformed control flow the validator should have rejected. A flat
//! launch of a tape that failed runs the warp interpreter and counts
//! `vgpu.compiled.fallbacks`.
//!
//! Bit-identity contract: a fused op performs the exact same arithmetic in
//! the exact same operand order as the sequence it replaced — multiply-add
//! stays two roundings (never an FMA), i32 index math wraps like
//! `bin_bits`, compare-select picks the same register.
//! `Engine::Differential` (tree → warp interpreter → fused blocks) enforces
//! this.

use crate::bytecode::{
    op_dst, visit_srcs, Acc, Compiled, FBlock, FOp, FTerm, Fused, Op, Shape, K, NO_JOIN, R,
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

/// Lowers a validated tape into superinstruction basic blocks. See the
/// module docs for the pass structure and the fusion legality rule.
/// `arg_slots` are the registers launch arguments initialise (one entry per
/// kernel parameter, `None` for buffers).
pub(crate) fn lower(c: &Compiled, arg_slots: &[Option<usize>]) -> Result<Fused, String> {
    let n = c.ops.len();
    if n == 0 || c.phase_starts.is_empty() {
        return Err("empty tape".into());
    }
    for op in &c.ops {
        if matches!(op, Op::LdL { .. } | Op::StL { .. } | Op::DeclLocal { .. }) {
            return Err("local-memory ops (grouped launches fall back)".into());
        }
    }

    // -- block discovery --
    let mut leader = vec![false; n];
    leader[0] = true;
    for &p in &c.phase_starts {
        *leader.get_mut(p as usize).ok_or("phase entry out of bounds")? = true;
    }
    for (pc, op) in c.ops.iter().enumerate() {
        let ends_block = match *op {
            Op::Jmp { target } | Op::Jz { target, .. } | Op::JgeI64 { target, .. } => {
                *leader.get_mut(target as usize).ok_or("jump target out of bounds")? = true;
                true
            }
            Op::Ret | Op::Halt => true,
            _ => false,
        };
        if ends_block && pc + 1 < n {
            leader[pc + 1] = true;
        }
    }
    let starts: Vec<usize> = (0..n).filter(|&pc| leader[pc]).collect();
    // pc of a leader → its block index.
    let mut block_of = vec![u32::MAX; n];
    for (bi, &pc) in starts.iter().enumerate() {
        block_of[pc] = bi as u32;
    }
    let blk_at = |pc: usize| -> Result<u32, String> {
        match block_of.get(pc).copied() {
            Some(b) if b != u32::MAX => Ok(b),
            _ => Err(format!("jump to non-leader pc {pc}")),
        }
    };

    // -- use counting --
    let mut uses = vec![0u32; c.nregs];
    for op in c.ops.iter().chain(c.pre.iter()).chain(c.item_pre.iter()) {
        visit_srcs(op, &mut |r| uses[r as usize] += 1);
    }
    let single = |r: R| uses[r as usize] == 1;

    // -- per-block terminator + body fusion --
    let mut blocks = Vec::with_capacity(starts.len());
    let mut fused_ops = 0u32;
    for (bi, &lo) in starts.iter().enumerate() {
        let hi = starts.get(bi + 1).copied().unwrap_or(n);
        let last = &c.ops[hi - 1];
        let (term, mut body_end) = match *last {
            Op::Ret | Op::Halt => (FTerm::Halt, hi - 1),
            Op::Jmp { target } => (FTerm::Jmp { block: blk_at(target as usize)? }, hi - 1),
            Op::Jz { cond, k, target } => {
                if hi == n {
                    return Err("conditional fall-through past end of tape".into());
                }
                (
                    FTerm::Jz {
                        cond,
                        k,
                        on_zero: blk_at(target as usize)?,
                        on_nonzero: blk_at(hi)?,
                        orig_pc: (hi - 1) as u32,
                    },
                    hi - 1,
                )
            }
            Op::JgeI64 { a, b, target } => {
                if hi == n {
                    return Err("conditional fall-through past end of tape".into());
                }
                (
                    FTerm::JgeI64 {
                        a,
                        b,
                        on_ge: blk_at(target as usize)?,
                        on_lt: blk_at(hi)?,
                        orig_pc: (hi - 1) as u32,
                    },
                    hi - 1,
                )
            }
            _ => {
                // Fall-through into the next leader.
                if hi == n {
                    return Err("tape without trailing terminator".into());
                }
                (FTerm::Jmp { block: blk_at(hi)? }, hi)
            }
        };
        // Compare-branch terminator: absorb a single-use `Bin cmp` feeding
        // the `Jz`. Delegation re-runs from the compare (a pure op).
        let term = if let FTerm::Jz { cond, k: K::Bool, on_zero, on_nonzero, .. } = term {
            if body_end > lo {
                if let Op::Bin { dst, a, b, op, k } = c.ops[body_end - 1] {
                    if dst == cond && is_cmp(op) && single(dst) {
                        body_end -= 1;
                        fused_ops += 1;
                        FTerm::CmpJz { a, b, op, k, on_zero, on_nonzero, orig_pc: body_end as u32 }
                    } else {
                        term
                    }
                } else {
                    term
                }
            } else {
                term
            }
        } else {
            term
        };

        let mut ops = Vec::with_capacity(body_end - lo);
        let mut pc = lo;
        while pc < body_end {
            if let Some((fop, w)) = try_ldg(c, pc, body_end, &single) {
                fused_ops += (w - 1) as u32;
                ops.push(fop);
                pc += w;
            } else if let Some((fop, w)) = try_stg(c, pc, body_end, &single) {
                fused_ops += (w - 1) as u32;
                ops.push(fop);
                pc += w;
            } else if let Some((fop, w)) = try_muladd(c, pc, body_end, &single) {
                fused_ops += (w - 1) as u32;
                ops.push(fop);
                pc += w;
            } else if let Some((fop, w)) = try_cmpsel(c, pc, body_end, &single) {
                fused_ops += (w - 1) as u32;
                ops.push(fop);
                pc += w;
            } else {
                ops.push(FOp::Base(c.ops[pc]));
                pc += 1;
            }
        }
        blocks.push(FBlock { ops, term });
    }

    let mut entries = Vec::with_capacity(c.phase_starts.len());
    for &p in &c.phase_starts {
        entries.push(blk_at(p as usize)?);
    }
    let nsites = c
        .ops
        .iter()
        .map(|op| match *op {
            Op::LdG { site, .. } | Op::StG { site, .. } => site + 1,
            _ => 0,
        })
        .max()
        .unwrap_or(0);
    Ok(Fused { blocks, entries, fused_ops, nsites, shapes: lane_shapes(c, arg_slots) })
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
    let mut defs = vec![0u32; c.nregs];
    for &slot in arg_slots.iter().flatten() {
        defs[slot] += 1;
    }
    for d in c.ops.iter().filter_map(op_dst) {
        defs[d as usize] += 1;
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
        Op::Lid { .. } | Op::Grp { .. } | Op::LdG { .. } | Op::LdP { .. } | Op::LdL { .. } => {
            Shape::Varying
        }
        Op::Mov { src, .. } => sh(src),
        Op::AsI64 { src, from: K::I32, .. } => match sh(src) {
            Shape::Affine(s) => Shape::Index(s),
            Shape::Uniform => Shape::Uniform,
            _ => Shape::Varying,
        },
        Op::Bin { a, b, op, k: K::I32, .. } if is_addsub(op) => sh(a).add(sh(b), op == BinOp::Sub),
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
/// branch's join (the structured compiler emits forward branches only, so
/// that is the span of ops in between). A branch whose sides only meet at
/// the exit (an early-return guard, a `Ret` in a loop) splits the warp for
/// good: each part runs on alone with one shared history — no region.
fn split_regions(c: &Compiled, shapes: &[Shape]) -> Vec<bool> {
    let n = c.ops.len();
    let uniform = |r: R| shapes[r as usize] == Shape::Uniform;
    let mut split = vec![false; n];
    for (pc, op) in c.ops.iter().enumerate() {
        let target = match *op {
            Op::Jz { cond, target, .. } if !uniform(cond) => target,
            Op::JgeI64 { a, b, target } if !(uniform(a) && uniform(b)) => target,
            _ => continue,
        };
        let join = c.joins[pc] as usize;
        if c.joins[pc] == NO_JOIN || join <= pc || (target as usize) > join.min(n) {
            // Not a shape the compiler emits: assume nothing.
            return vec![true; n];
        }
        if join < n {
            split[pc + 1..join].fill(true);
        }
    }
    split
}

/// `[Bin{t1,base,off,±,I32};] AsI64{t2,·,I32}; LdG{dst,…,t2} [; Bin acc]`
/// with every intermediate single-use. The executor recomputes indices per
/// 8-lane chunk from `base`/`off`, so neither may alias the fused op's own
/// register writes (`dst`, or the accumulator's destination/source).
fn try_ldg(
    c: &Compiled,
    pc: usize,
    end: usize,
    single: &impl Fn(R) -> bool,
) -> Option<(FOp, usize)> {
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
    // Cross-chunk hazard: the executor writes `dst` before computing the
    // next chunk's indices.
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
                    let acc = Some(Acc { dst: ad, src, k, sub: op == BinOp::Sub, rev });
                    let w = ld_pc + 2 - pc;
                    return Some((FOp::LdGFused { dst, buf, base, off, acc, site, constant }, w));
                }
            }
        }
    }
    let w = ld_pc + 1 - pc;
    Some((FOp::LdGFused { dst, buf, base, off, acc: None, site, constant }, w))
}

/// `AsI64{t2,base,I32}; StG{buf,t2,val,vk,site}` with `t2` single-use.
fn try_stg(
    c: &Compiled,
    pc: usize,
    end: usize,
    single: &impl Fn(R) -> bool,
) -> Option<(FOp, usize)> {
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
    Some((FOp::StGAt { buf, base: src, val, vk, site }, 2))
}

/// `Bin{t,a,b,Mul,k}; Bin{dst,·,·,Add|Sub,k}` with `t` single-use and used
/// by exactly one operand of the second op.
fn try_muladd(
    c: &Compiled,
    pc: usize,
    end: usize,
    single: &impl Fn(R) -> bool,
) -> Option<(FOp, usize)> {
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
    Some((FOp::MulAdd { dst, a, b, c: cc, k, sub: op2 == BinOp::Sub, rev }, 2))
}

/// `Bin{t,a,b,cmp,k}; Sel{dst,t,Bool,tr,fl}` with `t` single-use.
fn try_cmpsel(
    c: &Compiled,
    pc: usize,
    end: usize,
    single: &impl Fn(R) -> bool,
) -> Option<(FOp, usize)> {
    if pc + 1 >= end {
        return None;
    }
    let Op::Bin { dst: t, a, b, op, k } = c.ops[pc] else { return None };
    if !is_cmp(op) || !single(t) {
        return None;
    }
    let Op::Sel { dst, cond, ck: K::Bool, t: tr, f: fl } = c.ops[pc + 1] else { return None };
    if cond != t {
        return None;
    }
    Some((FOp::CmpSel { dst, a, b, op, k, tr, fl }, 2))
}
