//! Differential verification of the vgpu bytecode engine.
//!
//! Every kernel this repo generates or hand-writes is run under
//! [`vgpu::Engine::Differential`], which executes the tree-walking oracle
//! and the bytecode tape back-to-back on identical inputs and fails the
//! launch unless the two produced bit-identical buffers, identical
//! [`vgpu::Counters`] and identical modeled transaction bytes. A proptest
//! over randomly generated arithmetic kernels additionally sweeps the
//! promotion/cast/intrinsic space the acoustics kernels don't reach.

use lift::kast::{KExpr, KStmt, Kernel, KernelParam, MemRef};
use lift::prelude::*;
use lift_acoustics::{programs, LiftBoundary, LiftSim};
use proptest::prelude::*;
use room_acoustics::{
    handwritten, BoundaryKernel, BoundaryModel, GridDims, HandwrittenFi, HandwrittenSim,
    KernelSource, MaterialAssignment, Precision, ReferenceSim, RoomShape, SimConfig, SimSetup,
    Simulation,
};
use vgpu::{Arg, Backend, BufData, Device, DeviceProfile, Engine, ExecMode, Runtime};

/// Every generated program and hand-written kernel, at both precisions,
/// must actually compile to a tape — a silent fall-back to the tree-walker
/// would make the differential tests below vacuous.
#[test]
fn all_acoustics_kernels_compile_to_tapes() {
    let dev = Device::gtx780();
    for real in [ScalarKind::F32, ScalarKind::F64] {
        for p in [
            programs::volume_program(),
            programs::fi_single_program(),
            programs::fimm_program(),
            programs::fdmm_program(),
        ] {
            let lowered = p.lower(real).unwrap_or_else(|e| panic!("{}: {e}", p.name));
            let compiled = dev.compile(&lowered.kernel);
            assert!(compiled.is_ok(), "generated `{}` at {real:?}: {:?}", p.name, compiled.err());
        }
        for (name, k) in [
            ("volume", handwritten::volume_kernel()),
            ("fi_single", handwritten::fi_single_kernel()),
            ("fimm", handwritten::fimm_kernel(false)),
            ("fimm_const", handwritten::fimm_kernel(true)),
            ("fdmm", handwritten::fdmm_kernel()),
        ] {
            let compiled = dev.compile(&k.resolve_real(real));
            assert!(compiled.is_ok(), "handwritten `{name}` at {real:?}: {:?}", compiled.err());
        }
    }
}

fn diff_device() -> Device {
    let mut dev = Device::with_runtime(DeviceProfile::gtx780(), Runtime::sanitizing());
    dev.set_engine(Engine::Differential);
    dev
}

fn assert_close(a: &[f64], b: &[f64], tol: f64, what: &str) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!((x - y).abs() <= tol * (1.0 + y.abs()), "{what}: mismatch at {i}: {x} vs {y}");
    }
}

/// Generated FI-MM and FD-MM simulations under the differential engine:
/// every volume + boundary launch runs on both backends, and the result
/// must still match the golden reference.
#[test]
fn lift_sims_run_differentially() {
    for (boundary, shape) in [
        (LiftBoundary::FiMm, RoomShape::LShape),
        (LiftBoundary::FiMm, RoomShape::Box),
        (LiftBoundary::FdMm, RoomShape::LShape),
    ] {
        let dims = GridDims::new(14, 14, 10);
        let cfg = match boundary {
            LiftBoundary::FdMm => SimConfig::fdmm(dims, shape),
            _ => SimConfig::fimm(dims, shape),
        };
        let s = SimSetup::new(&cfg);
        let mut lift = LiftSim::new(s.clone(), Precision::Double, boundary, diff_device());
        let mut rf = ReferenceSim::<f64>::new(s);
        lift.impulse(4, 4, 4, 1.0);
        rf.impulse(4, 4, 4, 1.0);
        lift.run(10);
        rf.run(10);
        assert_close(&lift.read_curr(), &rf.curr, 1e-12, &format!("{boundary:?} {shape:?}"));
    }
}

/// Same for the f32 pipeline: the tape's monomorphised f32 arithmetic must
/// round identically to the tree-walker's `Value`-based evaluation.
#[test]
fn lift_fimm_runs_differentially_f32() {
    let s = SimSetup::new(&SimConfig::fimm(GridDims::new(14, 12, 10), RoomShape::Dome));
    let mut lift = LiftSim::new(s.clone(), Precision::Single, LiftBoundary::FiMm, diff_device());
    let mut rf = ReferenceSim::<f32>::new(s);
    lift.impulse(7, 6, 4, 1.0);
    rf.impulse(7, 6, 4, 1.0);
    lift.run(10);
    rf.run(10);
    let rf_curr: Vec<f64> = rf.curr.iter().map(|&x| x as f64).collect();
    assert_close(&lift.read_curr(), &rf_curr, 1e-5, "FI-MM dome f32 differential");
}

/// Hand-written kernels (including the `__constant`-β FI-MM variant) under
/// the differential engine.
#[test]
fn handwritten_sims_run_differentially() {
    for (boundary, shape) in [
        (BoundaryKernel::FiMm { beta_constant: false }, RoomShape::LShape),
        (BoundaryKernel::FiMm { beta_constant: true }, RoomShape::Box),
        (BoundaryKernel::FdMm, RoomShape::LShape),
    ] {
        let dims = GridDims::new(14, 14, 10);
        let cfg = match boundary {
            BoundaryKernel::FdMm => SimConfig::fdmm(dims, shape),
            _ => SimConfig::fimm(dims, shape),
        };
        let s = SimSetup::new(&cfg);
        let mut hw = HandwrittenSim::new(s.clone(), Precision::Double, boundary, diff_device());
        let mut rf = ReferenceSim::<f64>::new(s);
        hw.impulse(4, 4, 4, 1.0);
        rf.impulse(4, 4, 4, 1.0);
        hw.run(10);
        rf.run(10);
        assert_close(&hw.read_curr(), &rf.curr, 1e-12, &format!("hw {boundary:?} {shape:?}"));
    }
}

/// The differential check must also hold in `Model` mode, where both
/// backends record transaction traces and flop counts.
#[test]
fn differential_holds_in_model_mode() {
    let s = SimSetup::new(&SimConfig::fimm(GridDims::new(14, 12, 10), RoomShape::Box));
    let mut lift = LiftSim::new(s.clone(), Precision::Double, LiftBoundary::FiMm, diff_device());
    lift.impulse(7, 6, 5, 1.0);
    for sample_stride in [1, 1, 1, 4, 4, 4] {
        let (volume, boundary) = lift.step(ExecMode::Model { sample_stride });
        assert!(volume.modeled_s.unwrap() > 0.0 && boundary.modeled_s.unwrap() > 0.0);
    }
}

/// The four kernels the benchmark rooms spend their time in — the
/// hand-written and the generated volume and FD-MM boundary kernels — carry
/// superinstructions, and the oracle, which never saw the fusion pass, counts
/// the same loads, stores, flops and transaction bytes (the differential
/// launch errors otherwise).
#[test]
fn the_hot_kernels_fuse_and_keep_counters_and_transactions() {
    let fused_ops = vgpu::telemetry::registry().counter("vgpu.tape.fused_ops");
    let setup = SimSetup::new(&SimConfig::fdmm(GridDims::new(14, 12, 10), RoomShape::Dome));
    let sets: [&dyn KernelSource; 2] = [&BoundaryKernel::FdMm, &LiftBoundary::FdMm];
    for precision in [Precision::Single, Precision::Double] {
        for source in sets {
            let mut sim = Simulation::new(setup.clone(), precision, source, vec![diff_device()]);
            assert_eq!(sim.kernels().count(), 2, "a volume and a boundary pass");
            for k in sim.kernels() {
                // The counter only ever grows, whatever else compiles meanwhile.
                let before = fused_ops.get();
                vgpu::exec::prepare(&k.kernel).unwrap();
                assert!(fused_ops.get() > before, "`{}` has nothing fused", k.kernel.name);
            }
            sim.impulse(7, 6, 4, 1.0);
            for stride in [1, 1, 4] {
                sim.step(ExecMode::Model { sample_stride: stride });
            }
        }
    }
}

/// The one-kernel FI steps, generated and hand-written (Listing 1), split
/// their warps at the wall arms and reconverge at the arms' joins: every
/// branch stays a branch. On a 12³ box the generated kernel splits 46 of
/// its 54 warps at the boundary-loss arm, which spans several blocks (32 on
/// the dome); the others are all exterior — the eight inside the box's two
/// outer z planes, say — and skip the `nbrs > 0` arm whole. Listing 1 finds
/// its walls from coordinates, so it runs on boxes only, and all 54 of its
/// warps split. The 40×12×10 box has rows wider than a warp, so a warp
/// that starts a row is row-coherent and takes the executor's lane-shape
/// shortcuts — audited lane by lane in debug builds — through Listing 1's
/// wall branches (`gid == 1`, …), which the other FI tests, on rows of at
/// most 16 cells, run only in warps that straddle rows.
/// Plain, sanitized and modeled launches alike, each held to the oracle
/// inside the launch.
#[test]
fn the_generated_fi_step_reconverges_on_every_kind_of_launch() {
    let (cube, rows) = (GridDims::cube(12), GridDims::new(40, 12, 10));
    let (hand, lift): (&dyn KernelSource, &dyn KernelSource) = (&HandwrittenFi, &LiftBoundary::Fi);
    for (source, dims, shape, divergent) in [
        (lift, cube, RoomShape::Box, 46),
        (lift, cube, RoomShape::Dome, 32),
        (lift, rows, RoomShape::Box, 104),
        (hand, cube, RoomShape::Box, 54),
        (hand, rows, RoomShape::Box, 150),
    ] {
        for precision in [Precision::Single, Precision::Double] {
            let cfg = SimConfig {
                dims,
                shape,
                assignment: MaterialAssignment::Uniform,
                boundary: BoundaryModel::Fi { beta: 0.1 },
            };
            for (sanitize, mode) in [
                (false, ExecMode::Fast),
                (true, ExecMode::Fast),
                (true, ExecMode::Model { sample_stride: 1 }),
            ] {
                let rt = if sanitize { Runtime::sanitizing() } else { vgpu::runtime().clone() };
                let mut dev = Device::with_runtime(DeviceProfile::gtx780(), rt);
                dev.set_engine(Engine::Differential);
                let mut sim = Simulation::new(SimSetup::new(&cfg), precision, source, vec![dev]);
                sim.impulse(6, 6, 3, 1.0);
                for _ in 0..3 {
                    for (step, boundary) in sim.step(mode) {
                        let what = format!(
                            "{} {dims:?} {shape:?} {precision:?} {mode:?} sanitize {sanitize}",
                            source.name()
                        );
                        assert!(boundary.is_none(), "{what}: one kernel a step");
                        assert_eq!(step.backend, Backend::Tape, "{what}");
                        assert_eq!(step.divergent_warps, divergent, "{what}");
                    }
                }
            }
        }
    }
}

/// Rooms whose rows are narrower than a warp: every volume warp straddles
/// rows and, on a launch of exactly the grid, runs its stencil loads and
/// stores as spans over masks with a hole at each row's halo cells. Each
/// launch is held to the oracle (values, counters, divergent warps, modeled
/// transaction bytes), plain and modeled, with the debug lane audits on in
/// a debug build. A sanitizing runtime declines the spans — its findings are
/// per element — and must find nothing and agree bit for bit.
#[test]
fn rooms_narrower_than_a_warp_match_the_oracle_in_straddling_warps() {
    for set in lift_acoustics::hostprog::all_sets() {
        let cfg = match set.name() {
            "fi_hand" | "fi_lift" => continue,
            "fdmm_hand" | "fdmm_lift" => SimConfig::fdmm(GridDims::new(9, 9, 10), RoomShape::Dome),
            _ => SimConfig::fimm(GridDims::new(11, 11, 9), RoomShape::Box),
        };
        for precision in [Precision::Single, Precision::Double] {
            let run = |sanitize: bool, mode| {
                let settings = vgpu::Settings { shadow: sanitize, ..vgpu::runtime().settings };
                let rt = Runtime::new(settings);
                let mut dev = Device::with_runtime(DeviceProfile::gtx780(), rt.clone());
                dev.set_engine(Engine::Differential);
                let mut sim = Simulation::new(SimSetup::new(&cfg), precision, set, vec![dev]);
                sim.impulse(4, 4, 4, 1.0);
                let divergent: u64 = (0..4)
                    .flat_map(|_| sim.step(mode))
                    .flat_map(|(volume, boundary)| std::iter::once(volume).chain(boundary))
                    .map(|stats| stats.divergent_warps)
                    .sum();
                assert!(rt.findings.all().is_empty(), "{} {precision:?}", set.name());
                let field: Vec<u64> = sim.read_curr().iter().map(|p| p.to_bits()).collect();
                (field, divergent)
            };
            let plain = run(false, ExecMode::Fast);
            assert!(plain.1 > 0, "{} {precision:?}: the halo cells split warps", set.name());
            for (sanitize, mode) in
                [(true, ExecMode::Fast), (false, ExecMode::Model { sample_stride: 1 })]
            {
                assert_eq!(run(sanitize, mode), plain, "{} {precision:?} {mode:?}", set.name());
            }
        }
    }
}

/// Every shipped kernel set steps a 12³ room in `ExecMode::Profile` on the
/// differential engine, which holds the profiled warp executor to the
/// oracle launch by launch: buffers bit-identical to `Fast`, equal counters,
/// and every launch carries a non-empty op tally (a `Fast` one none).
#[test]
fn every_set_profiles_bit_identically_to_fast() {
    let dims = GridDims::cube(12);
    for set in lift_acoustics::hostprog::all_sets() {
        let cfg = match set.name() {
            "fi_hand" | "fi_lift" => SimConfig {
                dims,
                shape: RoomShape::Box,
                assignment: MaterialAssignment::Uniform,
                boundary: BoundaryModel::Fi { beta: 0.1 },
            },
            "fdmm_hand" | "fdmm_lift" => SimConfig::fdmm(dims, RoomShape::Box),
            _ => SimConfig::fimm(dims, RoomShape::Box),
        };
        for precision in [Precision::Single, Precision::Double] {
            let run = |mode| {
                let setup = SimSetup::new(&cfg);
                let mut sim = Simulation::new(setup, precision, set, vec![diff_device()]);
                sim.impulse(6, 6, 4, 1.0);
                let launches: Vec<vgpu::LaunchStats> = (0..3)
                    .flat_map(|_| sim.step(mode))
                    .flat_map(|(volume, boundary)| std::iter::once(volume).chain(boundary))
                    .collect();
                let field: Vec<u64> = sim.read_curr().iter().map(|p| p.to_bits()).collect();
                (field, sim.energy().to_bits(), launches)
            };
            let what = format!("{} {precision:?}", set.name());
            let (fast, fast_energy, fast_launches) = run(ExecMode::Fast);
            let (profiled, energy, launches) = run(ExecMode::Profile);
            assert_eq!((profiled, energy), (fast, fast_energy), "{what}: profiled field");
            assert_eq!(launches.len(), fast_launches.len(), "{what}");
            for (p, f) in launches.iter().zip(&fast_launches) {
                assert_eq!(p.counters, f.counters, "{what}: counters");
                assert!(f.op_profile.is_none(), "{what}: a fast launch is not profiled");
                let ops = p.op_profile.as_ref().map(|o| o.entries());
                assert!(ops.is_some_and(|o| !o.is_empty()), "{what}: no op tally");
            }
        }
    }
}

// --- random-kernel proptest -------------------------------------------------

/// A random scalar expression over `x[gid]` (real-typed), `gid` (i32) and
/// literals, exercising promotion, casts, intrinsics and selects. Division
/// is excluded (the interpreter faithfully panics on division by zero), as
/// is float `%` (rejected by both backends).
fn expr_strategy() -> impl Strategy<Value = KExpr> {
    let x = || KExpr::load(MemRef::Param(0), KExpr::GlobalId(0));
    let leaf = prop_oneof![
        Just(x()),
        Just(KExpr::GlobalId(0)),
        (-8i32..8).prop_map(KExpr::int),
        (-4.0f64..4.0).prop_map(KExpr::real),
        Just(KExpr::Lit(Lit::f32(0.5))),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (
                inner.clone(),
                inner.clone(),
                prop_oneof![
                    Just(BinOp::Add),
                    Just(BinOp::Sub),
                    Just(BinOp::Mul),
                    Just(BinOp::Lt),
                    Just(BinOp::Ge),
                ]
            )
                .prop_map(|(a, b, op)| KExpr::bin(op, a, b)),
            // Both arms cast to one kind: a select whose arms have
            // *different* kinds has a data-dependent result type, which the
            // tape compiler rejects by design (real OpenCL ternaries are
            // statically typed, so lowered kernels never produce one).
            (
                inner.clone(),
                inner.clone(),
                inner.clone(),
                prop_oneof![Just(ScalarKind::F32), Just(ScalarKind::F64), Just(ScalarKind::I32)]
            )
                .prop_map(|(c, t, f, k)| KExpr::select(
                    KExpr::bin(BinOp::Lt, c, KExpr::real(1.0)),
                    KExpr::cast(k, t),
                    KExpr::cast(k, f),
                )),
            (
                inner.clone(),
                prop_oneof![
                    Just(Intrinsic::Fabs),
                    Just(Intrinsic::Exp),
                    Just(Intrinsic::Sin),
                    Just(Intrinsic::Cos),
                ]
            )
                .prop_map(|(a, i)| KExpr::Call(i, vec![a])),
            inner.clone().prop_map(|a| KExpr::Call(
                Intrinsic::Sqrt,
                vec![KExpr::Call(Intrinsic::Fabs, vec![a])]
            )),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| KExpr::Call(Intrinsic::Min, vec![a, b])),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| KExpr::Call(Intrinsic::Max, vec![a, b])),
            (inner.clone(), inner.clone(), inner.clone())
                .prop_map(|(a, b, c)| KExpr::Call(Intrinsic::Fma, vec![a, b, c])),
            inner
                .clone()
                .prop_map(|a| KExpr::cast(ScalarKind::I32, KExpr::Call(Intrinsic::Fabs, vec![a]))),
            inner.clone().prop_map(|a| KExpr::cast(ScalarKind::F32, a)),
        ]
    })
}

fn random_kernel(expr: KExpr, real: ScalarKind) -> Kernel {
    Kernel {
        name: "randexpr".into(),
        params: vec![
            KernelParam::global_buf("x", ScalarKind::Real),
            KernelParam::global_buf("y", ScalarKind::Real),
            KernelParam::scalar("N", ScalarKind::I32),
        ],
        body: vec![
            KStmt::return_if(KExpr::bin(BinOp::Ge, KExpr::GlobalId(0), KExpr::var("N"))),
            KStmt::Store { mem: MemRef::Param(1), idx: KExpr::GlobalId(0), value: expr },
        ],
        work_dim: 1,
    }
    .resolve_real(real)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random expression kernels, both precisions: a `Differential` launch
    /// asserts bit-identical buffers/counters/bytes internally, so the test
    /// only has to drive it (in `Model` mode so traces are compared too).
    #[test]
    fn random_kernels_match_tree_walker(
        expr in expr_strategy(),
        double in proptest::bool::ANY,
        data in proptest::collection::vec(-100i32..100, 40..70),
    ) {
        let real = if double { ScalarKind::F64 } else { ScalarKind::F32 };
        let k = random_kernel(expr, real);
        let mut dev = diff_device();
        let n = data.len();
        let input: BufData = if double {
            BufData::from(data.iter().map(|&v| v as f64 / 8.0).collect::<Vec<f64>>())
        } else {
            BufData::from(data.iter().map(|&v| v as f32 / 8.0).collect::<Vec<f32>>())
        };
        let x = dev.upload(input);
        let y = dev.create_buffer(real, n);
        let prep = dev.compile(&k).expect("random kernel compiles to a tape");
        dev.launch(
            &prep,
            &[Arg::Buf(x), Arg::Buf(y), Arg::Val(Value::I32(n as i32))],
            &[n.next_multiple_of(32)],
            ExecMode::Model { sample_stride: 1 },
        )
        .expect("differential launch agrees");
    }
}
