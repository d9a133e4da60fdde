//! `vgpu.compiled.delegated_warps`: warps the fused-block executor hands to
//! the warp interpreter in mid-phase, at a divergent branch whose arms it
//! does not resolve in place. The shipped kernels never take that path; a
//! fixture whose divergent arm spans several blocks takes it once per
//! divergent warp.
//!
//! The counter is process-global and both tests launch kernels, so they
//! take turns on one lock.

use lift::kast::{KExpr, KStmt, Kernel, KernelParam, MemRef};
use lift::prelude::{BinOp, ScalarKind};
use lift_acoustics::{programs, runner, LiftBoundary};
use room_acoustics::{
    handwritten, BoundaryKernel, BoundaryModel, GridDims, KernelSource, MaterialAssignment,
    Precision, RoomShape, SimConfig, SimSetup, Simulation, StepKernel, StepKernels,
};
use std::sync::Mutex;
use vgpu::{Arg, Backend, BufData, Device, Engine, ExecMode};

static LAUNCHES: Mutex<()> = Mutex::new(());

fn delegated() -> u64 {
    vgpu::telemetry::registry().counter("vgpu.compiled.delegated_warps").get()
}

/// The room × kernel-set rows `front_end_golden.rs` pins: hand-written and
/// generated FI / FI-MM / FD-MM kernel sets, both precisions, a 12³ box
/// and a 12³ dome. Every launch resolves its divergent branches in place,
/// except the generated one-kernel FI step.
#[test]
fn shipped_kernels_resolve_divergence_in_place() {
    let _turn = LAUNCHES.lock().unwrap_or_else(|e| e.into_inner());
    let (before, mut seen) = (delegated(), 0);
    let dims = GridDims::cube(12);
    for shape in [RoomShape::Box, RoomShape::Dome] {
        for precision in [Precision::Single, Precision::Double] {
            let real = precision.kind();
            let fi = SimConfig {
                dims,
                shape,
                assignment: MaterialAssignment::Uniform,
                boundary: BoundaryModel::Fi { beta: 0.1 },
            };
            let hand_fi = StepKernel::handwritten(handwritten::fi_single_kernel(), real).unwrap();
            let gen_fi = runner::step_kernel(&programs::fi_single_program(), real).unwrap();
            let rows: [(&str, SimConfig, StepKernels); 7] = [
                ("hand fi", fi.clone(), StepKernels::single(hand_fi)),
                ("gen fi", fi, StepKernels::single(gen_fi)),
                (
                    "hand fimm",
                    SimConfig::fimm(dims, shape),
                    BoundaryKernel::FiMm { beta_constant: false }.step_kernels(real).unwrap(),
                ),
                (
                    "hand fimm_const",
                    SimConfig::fimm(dims, shape),
                    BoundaryKernel::FiMm { beta_constant: true }.step_kernels(real).unwrap(),
                ),
                (
                    "hand fdmm",
                    SimConfig::fdmm(dims, shape),
                    BoundaryKernel::FdMm.step_kernels(real).unwrap(),
                ),
                (
                    "gen fimm",
                    SimConfig::fimm(dims, shape),
                    LiftBoundary::FiMm.step_kernels(real).unwrap(),
                ),
                (
                    "gen fdmm",
                    SimConfig::fdmm(dims, shape),
                    LiftBoundary::FdMm.step_kernels(real).unwrap(),
                ),
            ];
            for (what, cfg, kernels) in rows {
                let mut dev = Device::gtx780();
                dev.set_engine(Engine::Fast);
                let mut sim = Simulation::new(SimSetup::new(&cfg), precision, kernels, vec![dev]);
                sim.impulse(6, 6, 3, 1.0);
                for _ in 0..3 {
                    for (volume, boundary) in sim.step(ExecMode::Fast) {
                        for stats in std::iter::once(volume).chain(boundary) {
                            let what = format!("{what} {precision:?} {shape:?}");
                            assert_eq!(stats.backend, Backend::Compiled, "{what}");
                            assert!(stats.delegated_warps <= stats.divergent_warps, "{what}");
                            // The one shipped kernel that delegates: the
                            // generated FI kernel's boundary-loss arm spans
                            // several blocks (EXPERIMENTS.md, PR 16).
                            if what.starts_with("gen fi ") {
                                seen += stats.delegated_warps;
                            } else {
                                assert_eq!(stats.delegated_warps, 0, "{what}");
                            }
                        }
                    }
                }
            }
        }
    }
    assert_eq!(delegated() - before, seen, "the registry counts what the launches report");
}

/// ```text
/// if (gid % 2 == 0) out[gid] = gid < 40 ? x[gid] : 0; else out[gid] = 1;
/// ```
///
/// The select keeps its branch (an arm that loads is not speculated), so
/// the even arm is several blocks: more than the fused executor runs under
/// a mask of its own.
#[test]
fn a_divergent_arm_of_several_blocks_delegates_each_divergent_warp() {
    let gid = || KExpr::GlobalId(0);
    let even = KExpr::bin(BinOp::Eq, KExpr::bin(BinOp::Rem, gid(), KExpr::int(2)), KExpr::int(0));
    let store = |value| KStmt::Store { mem: MemRef::Param(1), idx: gid(), value };
    let kernel = Kernel {
        name: "dw_nested_select".into(),
        params: vec![
            KernelParam::global_buf("x", ScalarKind::F32),
            KernelParam::global_buf("out", ScalarKind::F32),
        ],
        body: vec![KStmt::If {
            cond: even,
            then_: vec![store(KExpr::select(
                KExpr::bin(BinOp::Lt, gid(), KExpr::int(40)),
                KExpr::load(MemRef::Param(0), gid()),
                KExpr::real(0.0),
            ))],
            else_: vec![store(KExpr::real(1.0))],
        }],
        work_dim: 1,
    }
    .resolve_real(ScalarKind::F32);
    let _turn = LAUNCHES.lock().unwrap_or_else(|e| e.into_inner());
    let run = |engine: Engine| {
        let mut dev = Device::gtx780();
        dev.set_engine(engine);
        let prep = dev.compile(&kernel).unwrap();
        let x = dev.upload(BufData::from((0..96).map(|i| i as f32 + 0.5).collect::<Vec<_>>()));
        let out = dev.upload(BufData::from(vec![-1.0f32; 96]));
        let stats = dev.launch(&prep, &[Arg::Buf(x), Arg::Buf(out)], &[96], ExecMode::Fast);
        (dev.read(out), stats.unwrap())
    };
    let (tree, _) = run(Engine::Tree);
    let before = delegated();
    let (fused, stats) = run(Engine::Fast);
    assert_eq!(fused, tree);
    assert_eq!(stats.backend, Backend::Compiled);
    assert_eq!(stats.divergent_warps, 3, "every warp splits on parity");
    assert_eq!(stats.delegated_warps, 3);
    assert_eq!(delegated() - before, 3);
}
