//! Static verification passes over compiled bytecode tapes.
//!
//! The tape compiler's structural `validate` (register/target bounds,
//! terminator presence, every branch's join) guarantees the interpreter
//! cannot fault; the passes here check *semantic* hygiene on top of it:
//!
//! * **def-before-use** — a forward definitely-assigned dataflow analysis
//!   over the tape CFG (meet = intersection) that flags any register read
//!   on some path before every possible write. The register file is
//!   zero-initialised at launch, so such a read is deterministic — but it
//!   means the compiled kernel consumes a value no statement produced;
//! * **barrier uniformity** — in a multi-phase (barrier-using) tape, no
//!   work-item early exit (`Ret`) may be reachable under control flow
//!   that can diverge between the work-items of one group: a lane that
//!   exits while its group-mates proceed to the barrier is exactly the
//!   divergent-barrier hazard that hangs real devices. Divergence is
//!   tracked by register taint (global/local ids and loaded values vary
//!   per item; sizes and group ids are group-uniform);
//! * **unreachable ops** — non-jump instructions no phase entry can
//!   reach; their presence signals a compiler bug. Dead `Jmp`s are
//!   tolerated: the structured `If` lowering emits a jump to the join
//!   point even when the branch ends in `Ret`.
//!
//! Findings feed the `vgpu.verify.*` counters and the `lift_verify`
//! driver's diagnostics table.

use crate::bytecode::{is_branch, op_dst, successors, visit_srcs, Compiled, Op};
use crate::exec::Prepared;
use crate::telemetry;
use std::collections::BTreeSet;
use std::collections::VecDeque;
use std::fmt;

/// Which verification pass produced a finding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TapePass {
    /// Definitely-assigned dataflow violation.
    DefBeforeUse,
    /// `Ret` reachable under divergent control flow before a barrier.
    BarrierUniformity,
    /// Instruction unreachable from every phase entry.
    Unreachable,
}

impl fmt::Display for TapePass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TapePass::DefBeforeUse => write!(f, "def-before-use"),
            TapePass::BarrierUniformity => write!(f, "barrier-uniformity"),
            TapePass::Unreachable => write!(f, "unreachable-op"),
        }
    }
}

/// One finding from a tape pass.
#[derive(Clone, Debug)]
pub struct TapeFinding {
    /// Producing pass.
    pub pass: TapePass,
    /// Program counter of the offending op in the main tape (for the
    /// `pre`/`item_pre` streams, the index within that stream).
    pub pc: usize,
    /// Human-readable description.
    pub detail: String,
}

/// Verification result for one compiled tape.
#[derive(Clone, Debug)]
pub struct TapeReport {
    /// Kernel name.
    pub kernel: String,
    /// Number of barrier-delimited phases.
    pub phases: usize,
    /// Total ops checked (main tape + preludes).
    pub ops: usize,
    /// All findings, in pass order.
    pub findings: Vec<TapeFinding>,
}

impl TapeReport {
    /// True when every pass came back empty.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// [`tape_report`] as an `Option` — always `Some`, every [`Prepared`] has a
/// tape; the wrapper is what `benchmark/src/adapter.rs` compiles against.
pub fn verify_prepared(prep: &Prepared) -> Option<TapeReport> {
    Some(tape_report(prep))
}

/// Runs all tape passes over a prepared kernel's compiled tape. Bumps the
/// `vgpu.verify.*` audit counters.
pub(crate) fn tape_report(prep: &Prepared) -> TapeReport {
    let c = &prep.tape;
    let mut findings = Vec::new();
    def_before_use(prep, c, &mut findings);
    barrier_uniformity(c, &mut findings);
    unreachable_ops(c, &mut findings);
    let reg = telemetry::registry();
    reg.counter("vgpu.verify.tapes_checked").inc();
    if !findings.is_empty() {
        reg.counter("vgpu.verify.findings").add(findings.len() as u64);
    }
    for f in &findings {
        let name = match f.pass {
            TapePass::DefBeforeUse => "vgpu.verify.uninit_reads",
            TapePass::BarrierUniformity => "vgpu.verify.divergent_barrier_rets",
            TapePass::Unreachable => "vgpu.verify.unreachable_ops",
        };
        reg.counter(name).inc();
    }
    TapeReport {
        kernel: prep.name.clone(),
        phases: c.phase_starts.len(),
        ops: c.ops.len() + c.pre.len() + c.item_pre.len(),
        findings,
    }
}

/// Dense register bitset.
#[derive(Clone, PartialEq)]
struct BitSet(Vec<u64>);

impl BitSet {
    fn new(n: usize) -> Self {
        BitSet(vec![0; n.div_ceil(64)])
    }

    fn set(&mut self, r: u32) {
        self.0[r as usize / 64] |= 1 << (r % 64);
    }

    fn get(&self, r: u32) -> bool {
        self.0[r as usize / 64] >> (r % 64) & 1 != 0
    }

    /// Intersects in place; reports whether anything changed.
    fn and_with(&mut self, other: &BitSet) -> bool {
        let mut changed = false;
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            let n = *a & b;
            changed |= n != *a;
            *a = n;
        }
        changed
    }
}

/// Zero-based index of the phase containing `pc`.
fn phase_of(c: &Compiled, pc: usize) -> usize {
    c.phase_starts.iter().take_while(|&&s| s as usize <= pc).count().saturating_sub(1)
}

fn def_before_use(prep: &Prepared, c: &Compiled, findings: &mut Vec<TapeFinding>) {
    let mut init = BitSet::new(c.nregs);
    for slot in prep.scalar_slots.iter().flatten() {
        init.set(*slot as u32);
    }
    // The preludes are straight-line and run before any phase, in order:
    // `pre` once per register file, `item_pre` once per item.
    for (stream, label) in [(&c.pre, "pre"), (&c.item_pre, "item_pre")] {
        for (i, op) in stream.iter().enumerate() {
            visit_srcs(op, &mut |r| {
                if !init.get(r) {
                    findings.push(TapeFinding {
                        pass: TapePass::DefBeforeUse,
                        pc: i,
                        detail: format!("{label}[{i}] {op:?} reads r{r} before any write"),
                    });
                }
            });
            if let Some(d) = op_dst(op) {
                init.set(d);
            }
        }
    }
    if c.ops.is_empty() {
        return;
    }
    // Forward must-analysis to fixpoint: in-state per op, meet by
    // intersection at joins; findings are reported in a single pass after
    // convergence so loops don't duplicate them.
    let n = c.ops.len();
    let mut instate: Vec<Option<BitSet>> = vec![None; n];
    let entry = c.phase_starts[0] as usize;
    instate[entry] = Some(init);
    let mut work: VecDeque<usize> = VecDeque::from([entry]);
    while let Some(pc) = work.pop_front() {
        let mut st = instate[pc].clone().expect("queued with a state");
        if let Some(d) = op_dst(&c.ops[pc]) {
            st.set(d);
        }
        // `Ret` leaves the launch for this item; `Halt` of a non-final phase
        // continues (through the barrier) at the next phase entry, with the
        // register file preserved.
        let next_phase = match c.ops[pc] {
            Op::Halt => c.phase_starts.get(phase_of(c, pc) + 1).map(|&s| s as usize),
            _ => None,
        };
        for s in successors(&c.ops[pc], pc).chain(next_phase) {
            let changed = match &mut instate[s] {
                Some(prev) => prev.and_with(&st),
                slot @ None => {
                    *slot = Some(st.clone());
                    true
                }
            };
            if changed {
                work.push_back(s);
            }
        }
    }
    let mut seen: BTreeSet<(usize, u32)> = BTreeSet::new();
    for (pc, slot) in instate.iter().enumerate().take(n) {
        let Some(st) = slot else { continue };
        c.srcs(&c.ops[pc], &mut |r| {
            if !st.get(r) && seen.insert((pc, r)) {
                findings.push(TapeFinding {
                    pass: TapePass::DefBeforeUse,
                    pc,
                    detail: format!("op {pc} {:?} may read r{r} before it is written", c.ops[pc]),
                });
            }
        });
    }
}

fn barrier_uniformity(c: &Compiled, findings: &mut Vec<TapeFinding>) {
    if c.phase_starts.len() <= 1 {
        return; // no barriers, nothing to converge on
    }
    // Flow-insensitive register taint: a register holds an item-varying
    // value when it derives from a per-item id or a loaded value. Sizes
    // and the group id are uniform across one group — the barrier scope.
    let mut taint = vec![false; c.nregs];
    let mut changed = true;
    while changed {
        changed = false;
        for op in c.pre.iter().chain(&c.item_pre).chain(&c.ops) {
            let Some(d) = op_dst(op) else { continue };
            let mut t = matches!(
                op,
                Op::Gid { .. }
                    | Op::Lid { .. }
                    | Op::LdG { .. }
                    | Op::LdGSum { .. }
                    | Op::LdP { .. }
                    | Op::LdL { .. }
            );
            visit_srcs(op, &mut |r| t |= taint[r as usize]);
            if t && !taint[d as usize] {
                taint[d as usize] = true;
                changed = true;
            }
        }
    }
    // A conditional branch on tainted data opens a divergent region that
    // closes at its reconvergence point (`joins`, the warp executor's
    // postdominators, which `validate` put after the branch and at most at
    // the end of the tape).
    let mut divergent = vec![false; c.ops.len()];
    for pc in 0..c.ops.len() {
        if !is_branch(&c.ops[pc]) {
            continue;
        }
        // A branch reads its condition's operands and nothing else.
        let mut tainted = false;
        visit_srcs(&c.ops[pc], &mut |r| tainted |= taint[r as usize]);
        if !tainted {
            continue;
        }
        divergent[pc + 1..c.joins[pc] as usize].fill(true);
    }
    let last_phase = c.phase_starts.len() - 1;
    for (pc, op) in c.ops.iter().enumerate() {
        if matches!(op, Op::Ret) && divergent[pc] && phase_of(c, pc) < last_phase {
            findings.push(TapeFinding {
                pass: TapePass::BarrierUniformity,
                pc,
                detail: format!(
                    "op {pc}: work-item exit under divergent control in phase {} — \
                     group-mates still reach the barrier",
                    phase_of(c, pc)
                ),
            });
        }
    }
}

fn unreachable_ops(c: &Compiled, findings: &mut Vec<TapeFinding>) {
    let n = c.ops.len();
    let mut seen = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    for &s in &c.phase_starts {
        if !seen[s as usize] {
            seen[s as usize] = true;
            stack.push(s as usize);
        }
    }
    while let Some(pc) = stack.pop() {
        for s in successors(&c.ops[pc], pc) {
            if !seen[s] {
                seen[s] = true;
                stack.push(s);
            }
        }
    }
    for (pc, &v) in seen.iter().enumerate() {
        // Dead `Jmp`s are structural padding: the If lowering always emits
        // the then-branch's jump to the join point, which is unreachable
        // whenever the branch ends in `Ret`. They carry no computation, so
        // only dead non-jump ops indicate a compiler bug.
        if !v && !matches!(c.ops[pc], Op::Jmp { .. }) {
            findings.push(TapeFinding {
                pass: TapePass::Unreachable,
                pc,
                detail: format!("op {pc} {:?} is unreachable from every phase entry", c.ops[pc]),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::compute_joins;
    use crate::exec::prepare;
    use lift::kast::{KExpr, KStmt, Kernel, KernelParam, MemRef};
    use lift::scalar::BinOp;
    use lift::types::ScalarKind;

    fn hand_tape(ops: Vec<Op>, phase_starts: Vec<u32>, nregs: usize) -> Compiled {
        let joins = compute_joins(&ops);
        Compiled { ops, phase_starts, nregs, joins, ..Compiled::default() }
    }

    fn hand_prep(c: Compiled) -> Prepared {
        let mut p =
            prepare(&Kernel { name: "hand".into(), params: vec![], body: vec![], work_dim: 1 })
                .unwrap();
        p.tape = c;
        p
    }

    #[test]
    fn uninit_read_is_flagged() {
        // r1 = r0 + r0 with r0 never written.
        let c = hand_tape(vec![Op::AddI64 { dst: 1, a: 0, b: 0 }, Op::Halt], vec![0], 2);
        let rep = verify_prepared(&hand_prep(c)).unwrap();
        assert!(
            rep.findings.iter().any(|f| f.pass == TapePass::DefBeforeUse && f.pc == 0),
            "{rep:?}"
        );
    }

    #[test]
    fn branch_assigned_both_arms_is_clean() {
        // if (r0) r1 = k else r1 = k; use r1 — definitely assigned.
        let c = hand_tape(
            vec![
                Op::Const { dst: 0, bits: 1 },
                Op::Jz { cond: 0, k: crate::bytecode::K::I32, target: 4 },
                Op::Const { dst: 1, bits: 7 },
                Op::Jmp { target: 5 },
                Op::Const { dst: 1, bits: 9 },
                Op::Mov { dst: 2, src: 1 },
                Op::Halt,
            ],
            vec![0],
            3,
        );
        let rep = verify_prepared(&hand_prep(c)).unwrap();
        assert!(rep.is_clean(), "{rep:?}");
    }

    #[test]
    fn a_compare_branch_has_two_successors_and_carries_taint() {
        use crate::bytecode::K;
        // if (r0 < r1) r2 = 7 else r2 = 9; use r2: both sides reached, r2
        // definitely assigned.
        let diamond = hand_tape(
            vec![
                Op::Const { dst: 0, bits: 1 },
                Op::Const { dst: 1, bits: 2 },
                Op::CmpJz { a: 0, b: 1, op: BinOp::Lt, k: K::I32, target: 5 },
                Op::Const { dst: 2, bits: 7 },
                Op::Jmp { target: 6 },
                Op::Const { dst: 2, bits: 9 },
                Op::Mov { dst: 3, src: 2 },
                Op::Halt,
            ],
            vec![0],
            4,
        );
        let rep = verify_prepared(&hand_prep(diamond)).unwrap();
        assert!(rep.is_clean(), "{rep:?}");
        // if (!(id < r1)) goto barrier; return; barrier — an exit before the
        // barrier is a hazard exactly when `id` differs across the group.
        let guard = |id: Op| {
            hand_tape(
                vec![
                    id,
                    Op::Const { dst: 1, bits: 2 },
                    Op::CmpJz { a: 0, b: 1, op: BinOp::Lt, k: K::I32, target: 4 },
                    Op::Ret,
                    Op::Halt,
                    Op::Halt,
                ],
                vec![0, 5],
                2,
            )
        };
        let rep = verify_prepared(&hand_prep(guard(Op::Gid { dst: 0, dim: 0 }))).unwrap();
        assert!(
            rep.findings.iter().any(|f| f.pass == TapePass::BarrierUniformity && f.pc == 3),
            "{rep:?}"
        );
        let rep = verify_prepared(&hand_prep(guard(Op::Gsz { dst: 0, dim: 0 }))).unwrap();
        assert!(rep.is_clean(), "{rep:?}");
    }

    #[test]
    fn divergent_ret_before_barrier_is_flagged() {
        // Real kernel: guard-return on gid, then a barrier.
        let k = Kernel {
            name: "guarded_barrier".into(),
            params: vec![
                KernelParam::global_buf("out", ScalarKind::F32),
                KernelParam::scalar("N", ScalarKind::I32),
            ],
            body: vec![
                KStmt::DeclLocalArray {
                    name: "sh".into(),
                    kind: ScalarKind::F32,
                    len: KExpr::int(4),
                },
                KStmt::return_if(KExpr::bin(BinOp::Ge, KExpr::GlobalId(0), KExpr::var("N"))),
                KStmt::Barrier,
                KStmt::Store {
                    mem: MemRef::Param(0),
                    idx: KExpr::GlobalId(0),
                    value: KExpr::real(0.0),
                },
            ],
            work_dim: 1,
        };
        let prep = prepare(&k.resolve_real(ScalarKind::F32)).unwrap();
        let rep = verify_prepared(&prep).unwrap();
        assert!(rep.findings.iter().any(|f| f.pass == TapePass::BarrierUniformity), "{rep:?}");
    }

    #[test]
    fn uniform_multi_phase_kernel_is_clean() {
        let k = Kernel {
            name: "uniform_barrier".into(),
            params: vec![KernelParam::global_buf("out", ScalarKind::F32)],
            body: vec![
                KStmt::DeclLocalArray {
                    name: "sh".into(),
                    kind: ScalarKind::F32,
                    len: KExpr::int(4),
                },
                KStmt::Store {
                    mem: MemRef::Local("sh".into()),
                    idx: KExpr::LocalId(0),
                    value: KExpr::real(1.0),
                },
                KStmt::Barrier,
                KStmt::Store {
                    mem: MemRef::Param(0),
                    idx: KExpr::GlobalId(0),
                    value: KExpr::load(MemRef::Local("sh".into()), KExpr::LocalId(0)),
                },
            ],
            work_dim: 1,
        };
        let prep = prepare(&k.resolve_real(ScalarKind::F32)).unwrap();
        let rep = verify_prepared(&prep).unwrap();
        assert!(rep.is_clean(), "{rep:?}");
    }

    #[test]
    fn unreachable_op_is_flagged() {
        let c = hand_tape(
            vec![Op::Jmp { target: 2 }, Op::Const { dst: 0, bits: 1 }, Op::Halt],
            vec![0],
            1,
        );
        let rep = verify_prepared(&hand_prep(c)).unwrap();
        assert!(
            rep.findings.iter().any(|f| f.pass == TapePass::Unreachable && f.pc == 1),
            "{rep:?}"
        );
    }
}
