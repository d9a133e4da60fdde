//! The two tape executors behind `Engine::Fast`, each against the tree
//! oracle: the fused-block executor on the control-flow shapes it resolves
//! in place (partial final warps, divergent early-return guards,
//! if-converted diamonds), lane-dependent private indexing and the
//! POTENTIAL-site checked path; and the warp interpreter on grouped
//! (barrier / local-memory) launches — ⌈lsize/32⌉ warps per group sharing
//! one local arena, with lanes that returned masked off.
//!
//! Last, the task grain: launches around `exec::GRAIN_ITEMS` match the
//! oracle whether they ran inline or fanned out over the pool, and a lane
//! panic in a launch that did fan out reaches the launching thread with its
//! own message.
//!
//! Assertions read the launch's own `LaunchStats` (or a counter that only
//! this binary's uniquely named kernels can move in the asserted
//! direction, or that only ever grows), never deltas of process-global
//! counters other tests bump.

use lift::kast::{KExpr, KStmt, Kernel, KernelParam, MemRef};
use lift::prelude::{BinOp, Lit, ScalarKind, Value};
use vgpu::{Arg, Backend, BufData, Device, Engine, ExecMode, LaunchStats};

fn gid() -> KExpr {
    KExpr::GlobalId(0)
}

/// Guard + diamond, the acoustics boundary shape: items past `N` return
/// early; survivors split on parity, both arms storing.
///
/// ```text
/// if (gid >= N) return;
/// if (gid % 2 == 0) out[gid] = x[gid] * 2; else out[gid] = x[gid] + 1;
/// ```
fn guard_diamond_kernel() -> Kernel {
    let even = KExpr::bin(BinOp::Eq, KExpr::bin(BinOp::Rem, gid(), KExpr::int(2)), KExpr::int(0));
    let ld = || KExpr::load(MemRef::Param(0), gid());
    Kernel {
        name: "ce_guard_diamond".into(),
        params: vec![
            KernelParam::global_buf("x", ScalarKind::F32),
            KernelParam::global_buf("out", ScalarKind::F32),
            KernelParam::scalar("N", ScalarKind::I32),
        ],
        body: vec![
            KStmt::return_if(KExpr::bin(BinOp::Ge, gid(), KExpr::var("N"))),
            KStmt::If {
                cond: even,
                then_: vec![KStmt::Store {
                    mem: MemRef::Param(1),
                    idx: gid(),
                    value: ld() * KExpr::Lit(Lit::f32(2.0)),
                }],
                else_: vec![KStmt::Store {
                    mem: MemRef::Param(1),
                    idx: gid(),
                    value: ld() + KExpr::Lit(Lit::f32(1.0)),
                }],
            },
        ],
        work_dim: 1,
    }
}

/// Runs `kernel` on a fresh device under `engine` and returns the output
/// buffer plus the launch stats. `x` seeds param 0; params are
/// `(x, out, N)` with `out` zero-filled at `x`'s length. `race_check` on
/// keeps an `Engine::Fast` launch on the warp interpreter.
fn run_guard_diamond(
    engine: Engine,
    race_check: bool,
    n: i32,
    gsize: usize,
    mode: ExecMode,
) -> (BufData, vgpu::LaunchStats) {
    let mut dev = Device::gtx780();
    dev.set_engine(engine);
    dev.set_race_check(race_check);
    let prep = dev.compile(&guard_diamond_kernel()).unwrap();
    let xs: Vec<f32> = (0..gsize).map(|i| i as f32 * 0.25 - 3.0).collect();
    let x = dev.upload(BufData::from(xs));
    let out = dev.upload(BufData::from(vec![0.0f32; gsize]));
    let stats = dev
        .launch(&prep, &[Arg::Buf(x), Arg::Buf(out), Arg::Val(Value::I32(n))], &[gsize], mode)
        .unwrap();
    (dev.read(out), stats)
}

/// A partial final warp (45 items over 2 warps: 32 + 13) with the guard
/// diverging inside the last warp and the diamond diverging in every warp:
/// the fused executor must report the same divergent-warp count as the warp
/// interpreter, and both must produce the oracle's buffers and counters.
#[test]
fn partial_final_warp_and_divergence_bit_identical() {
    let (tree, tstats) = run_guard_diamond(Engine::Tree, false, 45, 64, ExecMode::Fast);
    let (interp, istats) = run_guard_diamond(Engine::Fast, true, 45, 64, ExecMode::Fast);
    let (fused, fstats) = run_guard_diamond(Engine::Fast, false, 45, 64, ExecMode::Fast);
    assert_eq!(fused, tree, "fused buffers must match the tree oracle");
    assert_eq!(fused, interp);
    assert_eq!(fstats.counters, tstats.counters);
    assert_eq!(istats.counters, tstats.counters);
    assert_eq!(fstats.backend, Backend::Compiled, "an eligible launch runs fused");
    assert_eq!(istats.backend, Backend::Vector, "a race-checked launch runs the interpreter");
    // Both warps diverge (warp 0 at the diamond, warp 1 at guard and
    // diamond), and the fused executor's lanes-disagree test must agree
    // with the interpreter's warp for warp.
    assert_eq!(istats.divergent_warps, 2);
    assert_eq!(fstats.divergent_warps, istats.divergent_warps);
}

/// What `Engine::Differential` runs after the oracle, on a partial-warp
/// divergent launch: interpreter then fused block executor when the launch
/// is one `Fast` would run fused, the interpreter alone when modeled
/// (counters + warp transaction bytes cross-checked internally).
#[test]
fn differential_runs_every_executor_that_covers_the_launch() {
    let (_, stats) = run_guard_diamond(Engine::Differential, false, 45, 64, ExecMode::Fast);
    assert_eq!(stats.backend, Backend::Compiled, "last leg of an eligible launch");
    assert!(stats.oracle_wall.is_some());
    let model = ExecMode::Model { sample_stride: 1 };
    let (_, stats) = run_guard_diamond(Engine::Differential, false, 45, 64, model);
    assert_eq!(stats.backend, Backend::Vector, "modeled launches have one tape leg");
    assert!(stats.transaction_bytes.is_some());
}

/// Lane-dependent private indexing: each lane fills a private array in a
/// loop, then reads it back at a lane-dependent index.
///
/// ```text
/// int t[4];
/// for (int i = 0; i < 4; i++) t[i] = gid * 4 + i;
/// out[gid] = t[gid % 4];
/// ```
#[test]
fn lane_dependent_private_indexing_matches_tree() {
    let k = Kernel {
        name: "ce_priv_idx".into(),
        params: vec![KernelParam::global_buf("out", ScalarKind::I32)],
        body: vec![
            KStmt::DeclPrivArray { name: "t".into(), kind: ScalarKind::I32, len: KExpr::int(4) },
            KStmt::For {
                var: "i".into(),
                begin: KExpr::int(0),
                end: KExpr::int(4),
                step: KExpr::int(1),
                body: vec![KStmt::Store {
                    mem: MemRef::Priv("t".into()),
                    idx: KExpr::var("i"),
                    value: gid() * KExpr::int(4) + KExpr::var("i"),
                }],
            },
            KStmt::Store {
                mem: MemRef::Param(0),
                idx: gid(),
                value: KExpr::load(
                    MemRef::Priv("t".into()),
                    KExpr::bin(BinOp::Rem, gid(), KExpr::int(4)),
                ),
            },
        ],
        work_dim: 1,
    };
    let run = |engine: Engine| {
        let mut dev = Device::gtx780();
        dev.set_engine(engine);
        let prep = dev.compile(&k).unwrap();
        let out = dev.upload(BufData::from(vec![0i32; 50]));
        let stats = dev.launch(&prep, &[Arg::Buf(out)], &[50], ExecMode::Fast).unwrap();
        (dev.read(out), stats)
    };
    let (tree, _) = run(Engine::Tree);
    let (comp, cstats) = run(Engine::Fast);
    assert_eq!(comp, tree);
    assert_eq!(cstats.backend, Backend::Compiled, "must not fall back");
    let want: Vec<f64> = (0..50).map(|g| (g * 4 + g % 4) as f64).collect();
    assert_eq!(comp.to_f64_vec(), want);
}

/// A data-dependent gather (`out[gid] = x[t[gid]]`) has no static proof —
/// the table's *values* are unknown to the verifier — so its site must stay
/// on the checked path while results stay bit-identical to the tree oracle.
/// `vgpu.compiled.sites_checked` only ever grows, so "it grew across this
/// launch" holds whatever concurrent tests add to it.
#[test]
fn potential_site_keeps_dynamic_check() {
    let k = Kernel {
        name: "ce_gather".into(),
        params: vec![
            KernelParam::global_buf("t", ScalarKind::I32),
            KernelParam::global_buf("x", ScalarKind::F32),
            KernelParam::global_buf("out", ScalarKind::F32),
        ],
        body: vec![KStmt::Store {
            mem: MemRef::Param(2),
            idx: gid(),
            value: KExpr::load(MemRef::Param(1), KExpr::load(MemRef::Param(0), gid())),
        }],
        work_dim: 1,
    };
    let reg = vgpu::telemetry::registry();
    let checked0 = reg.counter("vgpu.compiled.sites_checked").get();
    let run = |engine: Engine| {
        let mut dev = Device::gtx780();
        dev.set_engine(engine);
        let prep = dev.compile(&k).unwrap();
        let t = dev.upload(BufData::from((0..32).rev().collect::<Vec<i32>>()));
        let x = dev.upload(BufData::from((0..32).map(|i| i as f32 * 1.5).collect::<Vec<f32>>()));
        let out = dev.upload(BufData::from(vec![0.0f32; 32]));
        let stats = dev
            .launch(&prep, &[Arg::Buf(t), Arg::Buf(x), Arg::Buf(out)], &[32], ExecMode::Fast)
            .unwrap();
        (dev.read(out), stats)
    };
    let (tree, _) = run(Engine::Tree);
    let (comp, cstats) = run(Engine::Fast);
    assert_eq!(comp, tree);
    assert_eq!(cstats.backend, Backend::Compiled);
    let checked = reg.counter("vgpu.compiled.sites_checked").get() - checked0;
    assert!(checked > 0, "the value-dependent gather site must stay checked");
}

/// Rotates each group's elements by one through local memory, guarded so
/// the items past `N` return *before* the barrier:
///
/// ```text
/// __local float tile[lsz];
/// if (gid >= N) return;
/// tile[lid] = x[gid];
/// barrier();
/// out[gid] = tile[(lid + 1) % lsz] + grp;
/// ```
///
/// The neighbour a lane reads may live in another warp of its group, and
/// the neighbour of the last surviving lane returned early — its slot reads
/// the arena's zero fill.
fn local_rotate_kernel() -> Kernel {
    let (lid, lsz) = (KExpr::LocalId(0), KExpr::LocalSize(0));
    let tile = || MemRef::Local("tile".into());
    Kernel {
        name: "we_local_rotate".into(),
        params: vec![
            KernelParam::global_buf("x", ScalarKind::F32),
            KernelParam::global_buf("out", ScalarKind::F32),
            KernelParam::scalar("N", ScalarKind::I32),
        ],
        body: vec![
            KStmt::DeclLocalArray { name: "tile".into(), kind: ScalarKind::F32, len: lsz.clone() },
            KStmt::return_if(KExpr::bin(BinOp::Ge, gid(), KExpr::var("N"))),
            KStmt::Store {
                mem: tile(),
                idx: lid.clone(),
                value: KExpr::load(MemRef::Param(0), gid()),
            },
            KStmt::Barrier,
            KStmt::Store {
                mem: MemRef::Param(1),
                idx: gid(),
                value: KExpr::load(tile(), KExpr::bin(BinOp::Rem, lid + KExpr::int(1), lsz))
                    + KExpr::Cast(ScalarKind::F32, Box::new(KExpr::GroupId(0))),
            },
        ],
        work_dim: 1,
    }
}

/// Grouped launches on the warp interpreter against the tree oracle under
/// `Engine::Differential` (buffers, counters and transaction bytes
/// bit-identical, or the launch errors), race check on: workgroup sizes of
/// one warp, one and a half (partial last warp of every group) and two, in
/// `Fast` mode and sampled `Model` mode, with the tail of the last group
/// returning before the barrier.
#[test]
fn grouped_launches_match_the_oracle_across_group_shapes() {
    for lsize in [32usize, 48, 64] {
        let groups = 4;
        let total = groups * lsize;
        // The last group keeps only its first 5 items.
        let n = total - lsize + 5;
        for mode in [ExecMode::Fast, ExecMode::Model { sample_stride: 2 }] {
            let mut dev = Device::gtx780();
            dev.set_engine(Engine::Differential);
            dev.set_race_check(true);
            let prep = dev.compile(&local_rotate_kernel()).unwrap();
            let x = dev.upload(BufData::from((0..total).map(|i| i as f32).collect::<Vec<_>>()));
            let out = dev.upload(BufData::from(vec![-1.0f32; total]));
            let args = [Arg::Buf(x), Arg::Buf(out), Arg::Val(Value::I32(n as i32))];
            let stats = dev
                .launch_wg(&prep, &args, &[total], Some(lsize), mode)
                .unwrap_or_else(|e| panic!("lsize {lsize}, {mode:?}: {e}"));
            assert_eq!(stats.backend, Backend::Vector, "lsize {lsize}: grouped runs on warps");
            assert_eq!(stats.counters.work_items, total as u64, "lsize {lsize}, {mode:?}");
            if mode != ExecMode::Fast {
                // Sampled: groups 0 and 2 ran; the rest keep their fill.
                assert!(stats.transaction_bytes.is_some());
                continue;
            }
            let got = dev.read(out).to_f64_vec();
            let want: Vec<f64> = (0..total)
                .map(|g| {
                    let (grp, lid) = (g / lsize, g % lsize);
                    let nb = grp * lsize + (lid + 1) % lsize;
                    match (g < n, nb < n) {
                        (false, _) => -1.0,
                        (true, true) => (nb + grp) as f64,
                        (true, false) => grp as f64,
                    }
                })
                .collect();
            assert_eq!(got, want, "lsize {lsize}");
        }
    }
}

/// Both barrier phases branch on lane parity with storing arms, so every
/// warp diverges twice — and is counted once: 2 groups × 48 items is four
/// warps (32 + 16 lanes per group).
#[test]
fn a_grouped_warp_that_diverges_in_two_phases_counts_once() {
    let even =
        || KExpr::bin(BinOp::Eq, KExpr::bin(BinOp::Rem, gid(), KExpr::int(2)), KExpr::int(0));
    let ld = || KExpr::load(MemRef::Param(0), gid());
    let st = |value: KExpr| KStmt::Store { mem: MemRef::Param(0), idx: gid(), value };
    let k = Kernel {
        name: "we_grouped_div".into(),
        params: vec![KernelParam::global_buf("out", ScalarKind::I32)],
        body: vec![
            KStmt::If {
                cond: even(),
                then_: vec![st(KExpr::LocalId(0))],
                else_: vec![st(KExpr::LocalId(0) + KExpr::int(100))],
            },
            KStmt::Barrier,
            KStmt::If {
                cond: even(),
                then_: vec![st(ld() * KExpr::int(2))],
                else_: vec![st(ld() + KExpr::int(1))],
            },
        ],
        work_dim: 1,
    };
    let mut dev = Device::gtx780();
    dev.set_engine(Engine::Differential);
    dev.set_race_check(true);
    let prep = dev.compile(&k).unwrap();
    let out = dev.upload(BufData::from(vec![0i32; 96]));
    let stats = dev.launch_wg(&prep, &[Arg::Buf(out)], &[96], Some(48), ExecMode::Fast).unwrap();
    assert_eq!(stats.backend, Backend::Vector);
    assert_eq!(stats.divergent_warps, 4, "one count per warp, not per phase");
    let want: Vec<f64> =
        (0..96).map(|g| if g % 2 == 0 { (g % 48) * 2 } else { g % 48 + 101 } as f64).collect();
    assert_eq!(dev.read(out).to_f64_vec(), want);
}

// ---- the task grain of a launch (`exec::dispatch`) ----
//
// It must never be observable: launches of one warp, exactly one grain, one
// grain plus a warp, and several grains — flat and grouped, fused,
// interpreted, modeled and race-checked — produce the tree oracle's buffers,
// counters, transaction bytes and race reports, whether they ran as one
// inline task or fanned out over the pool. Task counts are read from each
// launch's own `LaunchStats::tasks`.

const WARP: usize = 32;
/// `exec::GRAIN_ITEMS` in warps. The constant is private; the `tasks`
/// assertions below fail if it moves without this file following.
const GRAIN_WARPS: usize = 64;
/// Launch sizes in warps, with the tasks each becomes unsampled.
const SIZES: [(usize, usize); 5] = [
    (1, 1),
    (GRAIN_WARPS, 1),
    (GRAIN_WARPS + 1, 1),
    (3 * GRAIN_WARPS, 3),
    (6 * GRAIN_WARPS + 5, 6),
];
const MODEL: ExecMode = ExecMode::Model { sample_stride: 2 };

/// One launch of `(x, out, N)` over `warps` warps, the last 7 items past
/// `N`; `grouped` selects the local-memory kernel with one warp per group, so a
/// group id and a warp id weigh the same against the grain.
fn run(
    grouped: bool,
    engine: Engine,
    race_check: bool,
    warps: usize,
    mode: ExecMode,
) -> (BufData, LaunchStats) {
    let total = warps * WARP;
    let mut dev = Device::gtx780();
    dev.set_engine(engine);
    dev.set_race_check(race_check);
    let kernel = if grouped { local_rotate_kernel() } else { guard_diamond_kernel() };
    let prep = dev.compile(&kernel).unwrap();
    let x =
        dev.upload(BufData::from((0..total).map(|i| i as f32 * 0.25 - 3.0).collect::<Vec<_>>()));
    let out = dev.upload(BufData::from(vec![-1.0f32; total]));
    let args = [Arg::Buf(x), Arg::Buf(out), Arg::Val(Value::I32(total as i32 - 7))];
    let stats = dev
        .launch_wg(&prep, &args, &[total], grouped.then_some(WARP), mode)
        .unwrap_or_else(|e| panic!("{warps} warps, grouped {grouped}, {engine:?}, {mode:?}: {e}"));
    (dev.read(out), stats)
}

fn assert_same_result(what: &str, got: &(BufData, LaunchStats), oracle: &(BufData, LaunchStats)) {
    assert!(got.0 == oracle.0, "{what}: buffers differ from the tree oracle");
    assert_eq!(got.1.counters, oracle.1.counters, "{what}: counters");
    assert_eq!(got.1.transaction_bytes, oracle.1.transaction_bytes, "{what}: transaction bytes");
    assert_eq!(got.1.tasks, oracle.1.tasks, "{what}: every engine cuts a shape the same way");
}

#[test]
fn launches_around_the_grain_match_the_oracle_on_every_engine() {
    for (warps, tasks) in SIZES {
        for grouped in [false, true] {
            let what = |leg: &str| format!("{warps} warps, grouped {grouped}, {leg}");
            let tree = run(grouped, Engine::Tree, true, warps, ExecMode::Fast);
            assert_eq!(tree.1.tasks, tasks, "{}", what("tree"));

            // `Fast` as shipped: fused for flat launches, warps for grouped.
            let fast = run(grouped, Engine::Fast, false, warps, ExecMode::Fast);
            let backend = if grouped { Backend::Vector } else { Backend::Compiled };
            assert_eq!(fast.1.backend, backend, "{}", what("fast"));
            assert_same_result(&what("fast"), &fast, &tree);
            // The parity diamond splits every flat warp; a grouped warp
            // only diverges where the guard cuts it, in the last one.
            let divergent = if grouped { 1 } else { warps as u64 };
            assert_eq!(fast.1.divergent_warps, divergent, "{}", what("fast"));

            // Race-checked: the warp interpreter, with write records.
            let interp = run(grouped, Engine::Fast, true, warps, ExecMode::Fast);
            assert_eq!(interp.1.backend, Backend::Vector, "{}", what("interpreter"));
            assert_same_result(&what("interpreter"), &interp, &tree);
            assert_eq!(interp.1.divergent_warps, divergent, "{}", what("interpreter"));

            // Modeled at stride 2: half the ids, so half the tasks.
            let tree_model = run(grouped, Engine::Tree, true, warps, MODEL);
            assert_eq!(tree_model.1.tasks, (warps.div_ceil(2) / GRAIN_WARPS).max(1));
            let model = run(grouped, Engine::Fast, true, warps, MODEL);
            assert!(model.1.transaction_bytes.is_some());
            assert_same_result(&what("model"), &model, &tree_model);

            // And the engine that checks all of the above inside the launch.
            for mode in [ExecMode::Fast, MODEL] {
                let diff = run(grouped, Engine::Differential, true, warps, mode);
                assert!(diff.1.oracle_wall.is_some(), "{}", what("differential"));
            }
        }
    }
}

/// `out[gid % H] = gid` with `H` half the launch: items `g` and `g + H`
/// collide on every element, from different tasks once the launch fans out.
/// The report (conflict count, the first conflicts in element order, their
/// sites) must not depend on which engine ran or how the launch was cut.
#[test]
fn race_reports_do_not_depend_on_the_cut() {
    let k = Kernel {
        name: "dg_race".into(),
        params: vec![
            KernelParam::global_buf("out", ScalarKind::I32),
            KernelParam::scalar("H", ScalarKind::I32),
        ],
        body: vec![KStmt::Store {
            mem: MemRef::Param(0),
            idx: KExpr::bin(BinOp::Rem, gid(), KExpr::var("H")),
            value: gid(),
        }],
        work_dim: 1,
    };
    for (warps, tasks) in [(2, 1), (3 * GRAIN_WARPS, 3)] {
        let total = warps * WARP;
        let report = |engine: Engine| {
            let mut dev = Device::gtx780();
            dev.set_engine(engine);
            dev.set_race_check(true);
            let prep = dev.compile(&k).unwrap();
            let out = dev.upload(BufData::from(vec![0i32; total]));
            let args = [Arg::Buf(out), Arg::Val(Value::I32(total as i32 / 2))];
            dev.launch(&prep, &args, &[total], ExecMode::Fast)
                .expect_err("every element is written twice")
                .to_string()
        };
        let tree = report(Engine::Tree);
        assert!(tree.contains("race check failed"), "{tree}");
        assert!(tree.contains(&format!("{} conflicting element(s)", total / 2)), "{tree}");
        assert_eq!(report(Engine::Fast), tree, "{warps} warps ({tasks} tasks)");
    }
}

/// `if (gid >= N) return; out[gid + 1] = 1;` — the last work-item stores
/// one element past the end, on a site the verifier cannot prove, so the
/// fused executor keeps its bounds assert there.
fn overrun_kernel() -> Kernel {
    Kernel {
        name: "dg_overrun".into(),
        params: vec![
            KernelParam::global_buf("out", ScalarKind::F32),
            KernelParam::scalar("N", ScalarKind::I32),
        ],
        body: vec![
            KStmt::return_if(KExpr::bin(BinOp::Ge, gid(), KExpr::var("N"))),
            KStmt::Store {
                mem: MemRef::Param(0),
                idx: gid() + KExpr::int(1),
                value: KExpr::Lit(Lit::f32(1.0)),
            },
        ],
        work_dim: 1,
    }
}

#[test]
fn a_lane_panic_in_a_fanned_out_launch_keeps_its_message_and_the_pool_survives() {
    let total = 3 * GRAIN_WARPS * WARP;
    let mut dev = Device::gtx780();
    dev.set_engine(Engine::Fast);
    let prep = dev.compile(&overrun_kernel()).unwrap();
    let out = dev.upload(BufData::from(vec![0.0f32; total]));
    let args = [Arg::Buf(out), Arg::Val(Value::I32(total as i32))];
    // The overrun is in the last of the launch's three tasks.
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = dev.launch(&prep, &args, &[total], ExecMode::Fast);
    }))
    .expect_err("the overrun must panic on the dynamic check");
    let msg = payload.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("store out of bounds"), "the lane's own message, got: {msg:?}");

    // Same device, same pool: a launch of the same width that stays in
    // bounds (`N` one short) fans out and completes.
    let args = [Arg::Buf(out), Arg::Val(Value::I32(total as i32 - 1))];
    let stats = dev.launch(&prep, &args, &[total], ExecMode::Fast).unwrap();
    assert_eq!(stats.tasks, 3);
    assert_eq!(dev.read(out).to_f64_vec()[total - 1], 1.0);
}

#[test]
fn dispatch_counters_tell_inline_launches_from_fanned_out_ones() {
    let reg = vgpu::telemetry::registry();
    let (tasks, inline) =
        (reg.counter("vgpu.dispatch.tasks"), reg.counter("vgpu.dispatch.inline_launches"));
    let (t0, i0) = (tasks.get(), inline.get());
    let small = run(false, Engine::Fast, false, 1, ExecMode::Fast);
    assert_eq!(small.1.tasks, 1);
    assert!(inline.get() > i0, "a one-task launch counts as inline");
    let t1 = tasks.get();
    assert!(t1 > t0);
    let wide = run(false, Engine::Fast, false, 3 * GRAIN_WARPS, ExecMode::Fast);
    assert_eq!(wide.1.tasks, 3);
    assert!(tasks.get() >= t1 + 3, "a fanned-out launch counts each task");
}

// ---- lane shapes: slice loads/stores, branches decided from end lanes ----

/// `n` small integers, exact in every element kind.
fn ramp(kind: ScalarKind, n: usize) -> BufData {
    let v = |i: usize| (i * 7 % 23) as i32 - 11;
    match kind {
        ScalarKind::F32 => BufData::from((0..n).map(|i| v(i) as f32).collect::<Vec<_>>()),
        ScalarKind::F64 => BufData::from((0..n).map(|i| v(i) as f64).collect::<Vec<_>>()),
        _ => BufData::from((0..n).map(v).collect::<Vec<_>>()),
    }
}

/// The volume kernel's shape: three early-return guards, a linear index
/// `(gid2·H + gid1)·W + gid0`, six neighbour loads at `± 1`, `± W`, `± W·H`
/// and the centre, one store. `x` is padded by a plane on either side.
fn stencil7_kernel(kind: ScalarKind) -> Kernel {
    let (w, h) = (|| KExpr::var("W"), || KExpr::var("H"));
    let guard =
        |d: u8, n: &str| KStmt::return_if(KExpr::bin(BinOp::Ge, KExpr::GlobalId(d), KExpr::var(n)));
    let at = |off: KExpr| KExpr::load(MemRef::Param(0), KExpr::var("c") + off);
    let below = |off: KExpr| KExpr::load(MemRef::Param(0), KExpr::var("c") - off);
    Kernel {
        name: format!("ls_stencil7_{kind:?}"),
        params: vec![
            KernelParam::global_buf("x", kind),
            KernelParam::global_buf("out", kind),
            KernelParam::scalar("W", ScalarKind::I32),
            KernelParam::scalar("H", ScalarKind::I32),
            KernelParam::scalar("N", ScalarKind::I32),
            KernelParam::scalar("D", ScalarKind::I32),
        ],
        body: vec![
            guard(0, "N"),
            guard(1, "H"),
            guard(2, "D"),
            KStmt::DeclScalar {
                name: "idx".into(),
                kind: ScalarKind::I32,
                init: Some((KExpr::GlobalId(2) * h() + KExpr::GlobalId(1)) * w() + gid()),
            },
            KStmt::DeclScalar {
                name: "c".into(),
                kind: ScalarKind::I32,
                init: Some(KExpr::var("idx") + w() * h()),
            },
            KStmt::Store {
                mem: MemRef::Param(1),
                idx: KExpr::var("idx"),
                value: below(KExpr::int(1))
                    + at(KExpr::int(1))
                    + below(w())
                    + at(w())
                    + below(w() * h())
                    + at(w() * h())
                    - KExpr::int(6) * at(KExpr::int(0)),
            },
        ],
        work_dim: 3,
    }
}

/// One launch of the stencil over `w × 5 × 3` with the last two columns of
/// every row guarded off, so rows end inside warps wherever they can.
fn run_stencil7(
    kind: ScalarKind,
    w: usize,
    engine: Engine,
    race_check: bool,
) -> (BufData, LaunchStats) {
    let (h, d) = (5, 3);
    let mut dev = Device::gtx780();
    dev.set_engine(engine);
    dev.set_race_check(race_check);
    let prep = dev.compile(&stencil7_kernel(kind)).unwrap();
    let x = dev.upload(ramp(kind, w * h * (d + 2)));
    let out = dev.upload(ramp(kind, w * h * d));
    let int = |v: usize| Arg::Val(Value::I32(v as i32));
    let args = [Arg::Buf(x), Arg::Buf(out), int(w), int(h), int(w - 2), int(d)];
    let stats = dev
        .launch(&prep, &args, &[w, h, d], ExecMode::Fast)
        .unwrap_or_else(|e| panic!("{kind:?} width {w} under {engine:?}: {e}"));
    (dev.read(out), stats)
}

/// Rows of 13, 31 and 33 make every warp straddle rows (today's per-lane
/// path), 32 and 96 make every warp row-coherent (slice loads and stores,
/// guards decided from the end lanes); 13·5·3 and 31·5·3 end in a partial
/// warp. The differential engine holds the interpreter and the fused
/// executor to the oracle's buffers and counters inside the launch; the
/// interpreter and the fused executor must also agree on how many warps
/// diverged, and every engine cuts the launch into the same tasks.
#[test]
fn stencil_rows_coherent_straddling_and_partial_match_the_oracle() {
    for kind in [ScalarKind::F32, ScalarKind::F64, ScalarKind::I32] {
        for w in [13, 31, 32, 33, 96] {
            let what = format!("{kind:?} width {w}");
            let tree = run_stencil7(kind, w, Engine::Tree, false);
            let diff = run_stencil7(kind, w, Engine::Differential, false);
            let interp = run_stencil7(kind, w, Engine::Fast, true);
            let fused = run_stencil7(kind, w, Engine::Fast, false);
            assert_eq!(fused.1.backend, Backend::Compiled, "{what}");
            assert_eq!(interp.1.backend, Backend::Vector, "{what}");
            for got in [&diff, &interp, &fused] {
                assert_same_result(&what, got, &tree);
            }
            assert_eq!(fused.1.divergent_warps, interp.1.divergent_warps, "{what}: diverged");
            assert_eq!(diff.1.divergent_warps, interp.1.divergent_warps, "{what}: diverged");
            assert_eq!(fused.1.delegated_warps, 0, "{what}: guards resolve in place");
            // Every row loses its last two columns inside some warp.
            assert!(fused.1.divergent_warps > 0, "{what}");
        }
    }
}

/// Unit stride down (`x[M − gid]`), stride 2 (`x[2·gid]`), a negative
/// offset (`x[gid + 64 − 3]`) and a store through `out[gid]` after a guard
/// that retires every third lane — a non-contiguous mask, so the affine
/// sites run lane by lane there:
///
/// ```text
/// if (gid % 3 == 1) return;
/// out[gid] = x[M − gid] + x[2·gid] − x[gid + 61];
/// ```
fn strides_kernel(kind: ScalarKind) -> Kernel {
    let ld = |idx: KExpr| KExpr::load(MemRef::Param(0), idx);
    let third = KExpr::bin(BinOp::Eq, KExpr::bin(BinOp::Rem, gid(), KExpr::int(3)), KExpr::int(1));
    Kernel {
        name: format!("ls_strides_{kind:?}"),
        params: vec![
            KernelParam::global_buf("x", kind),
            KernelParam::global_buf("out", kind),
            KernelParam::scalar("M", ScalarKind::I32),
        ],
        body: vec![
            KStmt::return_if(third),
            KStmt::Store {
                mem: MemRef::Param(1),
                idx: gid(),
                value: ld(KExpr::var("M") - gid()) + ld(KExpr::int(2) * gid())
                    - ld(gid() + KExpr::int(64) - KExpr::int(3)),
            },
        ],
        work_dim: 1,
    }
}

#[test]
fn strided_and_reversed_indices_under_a_non_contiguous_mask_match_the_oracle() {
    let n = 75; // two full warps and a partial one
    for kind in [ScalarKind::F32, ScalarKind::F64, ScalarKind::I32] {
        let run = |engine: Engine, race_check: bool| {
            let mut dev = Device::gtx780();
            dev.set_engine(engine);
            dev.set_race_check(race_check);
            let prep = dev.compile(&strides_kernel(kind)).unwrap();
            let x = dev.upload(ramp(kind, 2 * n + 64));
            let out = dev.upload(ramp(kind, n));
            let args = [Arg::Buf(x), Arg::Buf(out), Arg::Val(Value::I32(n as i32 - 1))];
            let stats = dev.launch(&prep, &args, &[n], ExecMode::Fast).unwrap();
            (dev.read(out), stats)
        };
        let tree = run(Engine::Tree, false);
        let (interp, fused) = (run(Engine::Fast, true), run(Engine::Fast, false));
        for got in [&run(Engine::Differential, false), &interp, &fused] {
            assert_same_result(&format!("{kind:?}"), got, &tree);
        }
        assert_eq!(fused.1.backend, Backend::Compiled);
        assert_eq!((fused.1.divergent_warps, interp.1.divergent_warps), (3, 3));
    }
}

/// `out[gid] = x[gid + 1]` over all of `x`: the last work-item reads one
/// element past the end through a unit-stride site.
fn overread_kernel(name: &str) -> Kernel {
    Kernel {
        name: name.into(),
        params: vec![
            KernelParam::global_buf("x", ScalarKind::F32),
            KernelParam::global_buf("out", ScalarKind::F32),
        ],
        body: vec![KStmt::Store {
            mem: MemRef::Param(1),
            idx: gid(),
            value: KExpr::load(MemRef::Param(0), gid() + KExpr::int(1)),
        }],
        work_dim: 1,
    }
}

fn overread_panic(kernel: &Kernel) -> String {
    let mut dev = Device::gtx780();
    dev.set_engine(Engine::Fast);
    let prep = dev.compile(kernel).unwrap();
    let x = dev.upload(BufData::from(vec![1.0f32; 64]));
    let out = dev.upload(BufData::from(vec![0.0f32; 64]));
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = dev.launch(&prep, &[Arg::Buf(x), Arg::Buf(out)], &[64], ExecMode::Fast);
    }))
    .expect_err("the over-read must panic");
    payload.downcast_ref::<String>().cloned().unwrap_or_default()
}

/// A run that fails its one range check falls back to the per-lane path,
/// so a POTENTIAL site reports the out-of-bounds lane in the words it
/// always has.
#[test]
fn a_unit_stride_site_one_past_the_end_keeps_its_panic_text() {
    let msg = overread_panic(&overread_kernel("ls_overread"));
    assert!(msg.contains("load out of bounds: param 0[64] (len 64)"), "got: {msg:?}");
}

/// The same over-read at a site a (false) launch contract makes PROVEN:
/// release builds elide the check there, debug builds audit the proof — and
/// the slice path's range check, kept at PROVEN sites, sends the run to
/// that audit instead of reading past the end.
#[cfg(debug_assertions)]
#[test]
fn a_proven_unit_stride_site_one_past_the_end_trips_the_debug_audit() {
    use lift::arith::ArithExpr;
    let mut lie = lift::verify::Assumptions::default();
    lie.buffers.insert("x".into(), lift::verify::BufferFacts::sized(ArithExpr::cst(65)));
    vgpu::register_launch_contract("ls_overread_proven", lie);
    let proven0 = vgpu::telemetry::registry().counter("vgpu.compiled.sites_proven").get();
    let msg = overread_panic(&overread_kernel("ls_overread_proven"));
    assert!(msg.contains("load out of bounds: param 0[64] (len 64)"), "got: {msg:?}");
    let proven = vgpu::telemetry::registry().counter("vgpu.compiled.sites_proven").get();
    assert!(proven - proven0 >= 2, "both sites of the kernel were taken as proven");
}
