//! The tape executor against the tree oracle, over every kind of launch:
//! plain, sanitized and modeled (unsampled and sampled), flat and
//! grouped — what decides which of its paths a warp-op takes. One table of
//! kernel shapes — partial final warps, divergent early-return guards,
//! storing diamonds and selects (each stays a branch), arms of several
//! blocks, lane-dependent loops and private indexing, row-coherent and
//! row-straddling stencils, strided and reversed indices, barrier phases
//! over a shared local arena — each held to the oracle's buffers, counters
//! and transaction bytes, to its own divergent warp count, and to
//! `Backend::Tape`. One flat and one grouped shape are also pinned to
//! constants recorded before both executors' flat and grouped runners were
//! merged, since that change rewrote the oracle's loop too.
//!
//! Then the private and local array checks (one panic text per fault), the
//! per-site bounds discipline (the POTENTIAL-site checked path, the
//! one out-of-bounds panic text) and the task grain: launches around
//! `exec::GRAIN_ITEMS` match the oracle whether they ran inline or fanned
//! out over the pool, and a lane panic in a launch that did fan out reaches
//! the launching thread with its own message.
//!
//! Assertions read the launch's own `LaunchStats` (or a counter that only
//! this binary's uniquely named kernels can move in the asserted
//! direction, or that only ever grows), never deltas of process-global
//! counters other tests bump.

use lift::kast::{KExpr, KStmt, Kernel, KernelParam, MemRef};
use lift::prelude::{BinOp, Lit, ScalarKind, Value};
use vgpu::{Arg, Backend, BufData, Device, DeviceProfile, Engine, ExecMode, LaunchStats, Runtime};

fn gid() -> KExpr {
    KExpr::GlobalId(0)
}

// ---- the oracle-equality table ----

/// The kind of launch: what the executor records per lane, and so which of
/// its shortcuts a warp-op may take. `sanitize` launches on a sanitizing
/// runtime, whose shadow checks every element and fails a write race.
#[derive(Clone, Copy, Debug)]
struct Input {
    sanitize: bool,
    mode: ExecMode,
}

const MODEL: ExecMode = ExecMode::Model { sample_stride: 2 };
const INPUTS: [Input; 4] = [
    Input { sanitize: false, mode: ExecMode::Fast },
    Input { sanitize: true, mode: ExecMode::Fast },
    Input { sanitize: true, mode: ExecMode::Model { sample_stride: 1 } },
    Input { sanitize: false, mode: MODEL },
];

/// A device on `engine`, on a fresh sanitizing runtime when `sanitize` (with
/// the default runtime's other settings), else on the default runtime.
fn device(engine: Engine, sanitize: bool) -> Device {
    let mut dev = match sanitize {
        true => Device::with_runtime(DeviceProfile::gtx780(), Runtime::sanitizing()),
        false => Device::gtx780(),
    };
    dev.set_engine(engine);
    dev
}

/// One kernel with its arguments: the buffers in parameter order (the
/// output last), then the scalars.
struct Case {
    what: String,
    kernel: Kernel,
    bufs: Vec<BufData>,
    scalars: Vec<Value>,
    global: Vec<usize>,
    /// Workgroup size of a grouped launch.
    local: Option<usize>,
}

/// Launches the case on a fresh device; returns every buffer and the stats.
fn launch(case: &Case, engine: Engine, input: Input) -> (Vec<BufData>, LaunchStats) {
    let mut dev = device(engine, input.sanitize);
    let prep = dev.compile(&case.kernel).unwrap();
    let ids: Vec<_> = case.bufs.iter().map(|b| dev.upload(b.clone())).collect();
    let args: Vec<Arg> =
        ids.iter().map(|&b| Arg::Buf(b)).chain(case.scalars.iter().map(|&v| Arg::Val(v))).collect();
    let stats = dev
        .launch_wg(&prep, &args, &case.global, case.local, input.mode)
        .unwrap_or_else(|e| panic!("{} under {engine:?}, {input:?}: {e}", case.what));
    (ids.iter().map(|&b| dev.read(b)).collect(), stats)
}

/// Every input of the case on the tape — alone and as the second leg of
/// `Engine::Differential` — against the tree oracle: buffers, counters,
/// transaction bytes, the task cut; `divergent` warps in every unsampled
/// launch; and, when given, the output the kernel is written to produce.
fn assert_matches_oracle(case: &Case, divergent: u64, want: Option<&[f64]>) {
    for input in INPUTS {
        let what = format!("{}, {input:?}", case.what);
        let tree = launch(case, Engine::Tree, input);
        assert_eq!(tree.1.backend, Backend::Tree, "{what}");
        let sampled = input.mode == MODEL;
        if let (Some(want), false) = (want, sampled) {
            assert_eq!(tree.0.last().unwrap().to_f64_vec(), want, "{what}: oracle output");
        }
        for engine in [Engine::Fast, Engine::Differential] {
            let what = format!("{what}, {engine:?}");
            let got = launch(case, engine, input);
            assert_eq!(got.1.backend, Backend::Tape, "{what}");
            assert_eq!(got.1.oracle_wall.is_some(), engine == Engine::Differential, "{what}");
            assert_same_result(&what, &got, &tree);
            assert_eq!(got.1.transaction_bytes.is_some(), input.mode != ExecMode::Fast, "{what}");
            if !sampled {
                assert_eq!(got.1.divergent_warps, divergent, "{what}: divergent warps");
            }
        }
    }
}

fn assert_same_result<B: PartialEq>(what: &str, got: &(B, LaunchStats), oracle: &(B, LaunchStats)) {
    assert!(got.0 == oracle.0, "{what}: buffers differ from the tree oracle");
    assert_eq!(got.1.counters, oracle.1.counters, "{what}: counters");
    assert_eq!(got.1.transaction_bytes, oracle.1.transaction_bytes, "{what}: transaction bytes");
    assert_eq!(got.1.tasks, oracle.1.tasks, "{what}: every engine cuts a shape the same way");
}

/// `(x, out, …)` with `x` a ramp of `n` f32 and `out` zero-filled.
fn x_out(n: usize) -> Vec<BufData> {
    let xs: Vec<f32> = (0..n).map(|i| i as f32 * 0.25 - 3.0).collect();
    vec![BufData::from(xs), BufData::from(vec![0.0f32; n])]
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

/// A partial final warp (45 items over 2 warps: 32 + 13) with the guard
/// diverging inside the last warp and the diamond diverging in every warp.
#[test]
fn partial_final_warp_and_divergence_match_the_oracle() {
    let case = Case {
        what: "guard + diamond".into(),
        kernel: guard_diamond_kernel(),
        bufs: x_out(64),
        scalars: vec![Value::I32(45)],
        global: vec![64],
        local: None,
    };
    // Warp 0 diverges at the diamond, warp 1 at guard and diamond.
    assert_matches_oracle(&case, 2, None);
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
fn lane_dependent_private_indexing_matches_the_oracle() {
    let kernel = Kernel {
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
    let case = Case {
        what: "private indexing".into(),
        kernel,
        bufs: vec![BufData::from(vec![0i32; 50])],
        scalars: vec![],
        global: vec![50],
        local: None,
    };
    let want: Vec<f64> = (0..50).map(|g| (g * 4 + g % 4) as f64).collect();
    assert_matches_oracle(&case, 0, Some(&want));
}

/// The control-flow shapes that need reconvergence at a join further than
/// one block away: a divergent arm of several blocks, and a loop whose trip
/// count depends on the lane.
///
/// ```text
/// if (gid % 2 == 0) out[gid] = gid < 40 ? x[gid] : 0; else out[gid] = 1;
/// ```
///
/// (the select is a branch nested in the even arm) and
///
/// ```text
/// for (i = 0; i < gid % 5; i++) acc += x[gid];
/// out[gid] = acc;
/// ```
#[test]
fn arms_of_several_blocks_and_lane_dependent_trip_counts_match_the_oracle() {
    let even = KExpr::bin(BinOp::Eq, KExpr::bin(BinOp::Rem, gid(), KExpr::int(2)), KExpr::int(0));
    let store = |value| KStmt::Store { mem: MemRef::Param(1), idx: gid(), value };
    let x = || KExpr::load(MemRef::Param(0), gid());
    let params = || {
        vec![
            KernelParam::global_buf("x", ScalarKind::F32),
            KernelParam::global_buf("out", ScalarKind::F32),
        ]
    };
    let nested_select = Kernel {
        name: "we_nested_select".into(),
        params: params(),
        body: vec![KStmt::If {
            cond: even,
            then_: vec![store(KExpr::select(
                KExpr::bin(BinOp::Lt, gid(), KExpr::int(40)),
                x(),
                KExpr::Lit(Lit::f32(0.0)),
            ))],
            else_: vec![store(KExpr::Lit(Lit::f32(1.0)))],
        }],
        work_dim: 1,
    };
    let trip_count = Kernel {
        name: "we_trip_count".into(),
        params: params(),
        body: vec![
            KStmt::DeclScalar {
                name: "acc".into(),
                kind: ScalarKind::F32,
                init: Some(KExpr::Lit(Lit::f32(0.0))),
            },
            KStmt::For {
                var: "i".into(),
                begin: KExpr::int(0),
                end: KExpr::bin(BinOp::Rem, gid(), KExpr::int(5)),
                step: KExpr::int(1),
                body: vec![KStmt::Assign { name: "acc".into(), value: KExpr::var("acc") + x() }],
            },
            store(KExpr::var("acc")),
        ],
        work_dim: 1,
    };
    // Three warps each, the last one partial; every warp splits.
    for (kernel, n) in [(nested_select, 96), (trip_count, 80)] {
        let what = kernel.name.clone();
        let case =
            Case { what, kernel, bufs: x_out(n), scalars: vec![], global: vec![n], local: None };
        assert_matches_oracle(&case, 3, None);
    }
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

/// Grouped launches: workgroup sizes of a quarter warp (a group below one
/// warp), one warp, one and a quarter (a last warp of 8 lanes), one and a
/// half (partial last warp of every group) and two, with the tail of the
/// last group returning before the barrier.
#[test]
fn grouped_launches_match_the_oracle_across_group_shapes() {
    for lsize in [8usize, 32, 40, 48, 64] {
        let groups = 4;
        let total = groups * lsize;
        // The last group keeps only its first 5 items.
        let n = total - lsize + 5;
        let case = Case {
            what: format!("local rotate, lsize {lsize}"),
            kernel: local_rotate_kernel(),
            bufs: vec![
                BufData::from((0..total).map(|i| i as f32).collect::<Vec<_>>()),
                BufData::from(vec![-1.0f32; total]),
            ],
            scalars: vec![Value::I32(n as i32)],
            global: vec![total],
            local: Some(lsize),
        };
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
        // Only the warp the guard cuts diverges.
        assert_matches_oracle(&case, 1, Some(&want));
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
    let kernel = Kernel {
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
    let case = Case {
        what: "two divergent phases".into(),
        kernel,
        bufs: vec![BufData::from(vec![0i32; 96])],
        scalars: vec![],
        global: vec![96],
        local: Some(48),
    };
    let want: Vec<f64> =
        (0..96).map(|g| if g % 2 == 0 { (g % 48) * 2 } else { g % 48 + 101 } as f64).collect();
    assert_matches_oracle(&case, 4, Some(&want));
}

// ---- pinned to the four runners flat and grouped launches once had ----
//
// The table above holds the tape to the tree; these constants hold both to
// what they reported before one loop per executor replaced a flat and a
// grouped runner each — recorded by running the commit before that change.

/// The seven counters, transaction bytes (0 unmodeled), divergent warps and
/// tasks of a launch.
type Pin = [u64; 10];

fn pin_of(s: &LaunchStats) -> Pin {
    let c = &s.counters;
    [
        c.loads_global,
        c.stores_global,
        c.loads_constant,
        c.bytes_loaded,
        c.bytes_stored,
        c.flops,
        c.work_items,
        s.transaction_bytes.unwrap_or(0),
        s.divergent_warps,
        s.tasks as u64,
    ]
}

/// Per case, per mode (`Fast`, `Model { 1 }`, `Model { 3 }`): `[tree, tape]`.
const PARENT_PINS: [[[Pin; 2]; 3]; 2] = [
    [
        [
            [2310, 330, 0, 9240, 1320, 2310, 390, 0, 0, 1],
            [2310, 330, 0, 9240, 1320, 2310, 390, 0, 13, 1],
        ],
        [
            [2310, 330, 0, 9240, 1320, 2310, 390, 22400, 0, 1],
            [2310, 330, 0, 9240, 1320, 2310, 390, 22400, 13, 1],
        ],
        [
            [2323, 332, 0, 9290, 1327, 2323, 390, 23842, 0, 1],
            [2323, 332, 0, 9290, 1327, 2323, 390, 23842, 5, 1],
        ],
    ],
    [
        [[149, 149, 0, 596, 596, 149, 192, 0, 0, 1], [149, 149, 0, 596, 596, 149, 192, 0, 1, 1]],
        [
            [149, 149, 0, 596, 596, 149, 192, 2048, 0, 1],
            [149, 149, 0, 596, 596, 149, 192, 2048, 1, 1],
        ],
        [
            [106, 106, 0, 424, 424, 106, 192, 1536, 0, 1],
            [106, 106, 0, 424, 424, 106, 192, 1536, 1, 1],
        ],
    ],
];

/// A flat 13 × 6 × 5 NDRange — every warp straddles rows, the last has 6
/// lanes, stride 3 samples it — and a grouped launch of four 48-item groups
/// whose last group returns after 5 items, stride 3 sampling groups 0 and 3.
#[test]
fn flat_and_grouped_launches_report_what_the_four_runners_did() {
    let (w, h, d) = (13, 6, 5);
    let int = |v: usize| Value::I32(v as i32);
    let (lsize, total) = (48, 4 * 48);
    let cases = [
        Case {
            what: "stencil over 13×6×5".into(),
            kernel: stencil7_kernel(ScalarKind::F32),
            bufs: vec![ramp(ScalarKind::F32, w * h * (d + 2)), ramp(ScalarKind::F32, w * h * d)],
            scalars: vec![int(w), int(h), int(w - 2), int(d)],
            global: vec![w, h, d],
            local: None,
        },
        Case {
            what: "local rotate, lsize 48".into(),
            kernel: local_rotate_kernel(),
            bufs: vec![
                BufData::from((0..total).map(|i| i as f32).collect::<Vec<_>>()),
                BufData::from(vec![-1.0f32; total]),
            ],
            scalars: vec![int(total - lsize + 5)],
            global: vec![total],
            local: Some(lsize),
        },
    ];
    let model = |sample_stride| ExecMode::Model { sample_stride };
    let modes = [ExecMode::Fast, model(1), model(3)];
    for (case, pins) in cases.iter().zip(PARENT_PINS) {
        for (mode, want) in modes.into_iter().zip(pins) {
            let input = Input { sanitize: true, mode };
            for (engine, want) in [Engine::Tree, Engine::Fast].into_iter().zip(want) {
                let got = pin_of(&launch(case, engine, input).1);
                assert_eq!(got, want, "{}, {mode:?}, {engine:?}", case.what);
            }
        }
    }
}

// ---- private arrays: lane-minor rows, one row per uniform index ----
//
// Every case runs 75 items (two full warps and a partial one of 11 lanes)
// on a 1-D NDRange, where warps are row-coherent, and — `id` being the
// linear work-item — 13 × 6 items in 2-D, where every warp straddles rows.
// Either way a uniform index moves one row and any other goes lane by lane.

/// The linear work-item id, whatever the NDRange's shape.
fn id() -> KExpr {
    KExpr::GlobalId(1) * KExpr::GlobalSize(0) + gid()
}

fn priv_t() -> MemRef {
    MemRef::Priv("t".into())
}

fn t_at(i: KExpr) -> KExpr {
    KExpr::load(priv_t(), i)
}

fn t_set(idx: KExpr, value: KExpr) -> KStmt {
    KStmt::Store { mem: priv_t(), idx, value }
}

fn decl_t(kind: ScalarKind, len: KExpr) -> KStmt {
    KStmt::DeclPrivArray { name: "t".into(), kind, len }
}

fn for_to(var: &str, end: KExpr, body: Vec<KStmt>) -> KStmt {
    KStmt::For { var: var.into(), begin: KExpr::int(0), end, step: KExpr::int(1), body }
}

fn rem(a: KExpr, n: i32) -> KExpr {
    KExpr::bin(BinOp::Rem, a, KExpr::int(n))
}

/// `kernel(x, out)` over the two NDRange shapes of this section, `x` and
/// `out` of `kind`; `want(id)` is what the kernel is written to store and
/// `divergent` how many of the three warps split.
fn assert_private_case(
    kernel: Kernel,
    kind: ScalarKind,
    divergent: u64,
    want: impl Fn(usize) -> f64,
) {
    for global in [vec![75, 1], vec![13, 6]] {
        let n = global[0] * global[1];
        let case = Case {
            what: format!("{} over {global:?}", kernel.name),
            kernel: kernel.clone(),
            bufs: vec![ramp(kind, n), ramp(kind, n)],
            scalars: vec![],
            global,
            local: None,
        };
        let want: Vec<f64> = (0..n).map(&want).collect();
        assert_matches_oracle(&case, divergent, Some(&want));
    }
}

fn x_out_params(kind: ScalarKind) -> Vec<KernelParam> {
    vec![KernelParam::global_buf("x", kind), KernelParam::global_buf("out", kind)]
}

/// Loads and stores through the loop counter and through constants, before
/// and inside a branch that only `cond` lanes take:
///
/// ```text
/// float t[3];
/// for (i = 0; i < 3; i++) t[i] = x[id] + i;
/// if (cond) {
///     t[1] = t[2] * 2;                         // a constant is uniform under any mask
///     for (j = 0; j < 3; j++) t[j] = t[j] + 1; // a counter written by a split warp is not
/// }
/// out[id] = t[0] + t[1] + t[2];
/// ```
#[test]
fn private_rows_under_full_contiguous_scattered_and_one_lane_masks_match_the_oracle() {
    let lane = || rem(id(), 32);
    let masks = [
        ("full", KExpr::bin(BinOp::Ge, id(), KExpr::int(0)), 0),
        ("contiguous", KExpr::bin(BinOp::Eq, lane() / KExpr::int(8), KExpr::int(1)), 3),
        ("scattered", KExpr::bin(BinOp::Eq, rem(id(), 3), KExpr::int(1)), 3),
        ("one lane", KExpr::bin(BinOp::Eq, lane(), KExpr::int(7)), 3),
    ];
    let x = || KExpr::load(MemRef::Param(0), id());
    let f = |v: f32| KExpr::Lit(Lit::f32(v));
    for (what, cond, divergent) in masks {
        let taken = |i: usize| match what {
            "full" => true,
            "contiguous" => i % 32 / 8 == 1,
            "scattered" => i % 3 == 1,
            _ => i % 32 == 7,
        };
        let kernel = Kernel {
            name: format!("pr_masks_{}", what.replace(' ', "_")),
            params: x_out_params(ScalarKind::F32),
            body: vec![
                decl_t(ScalarKind::F32, KExpr::int(3)),
                for_to(
                    "i",
                    KExpr::int(3),
                    vec![t_set(
                        KExpr::var("i"),
                        x() + KExpr::cast(ScalarKind::F32, KExpr::var("i")),
                    )],
                ),
                KStmt::If {
                    cond,
                    then_: vec![
                        t_set(KExpr::int(1), t_at(KExpr::int(2)) * f(2.0)),
                        for_to(
                            "j",
                            KExpr::int(3),
                            vec![t_set(KExpr::var("j"), t_at(KExpr::var("j")) + f(1.0))],
                        ),
                    ],
                    else_: vec![],
                },
                KStmt::Store {
                    mem: MemRef::Param(1),
                    idx: id(),
                    value: t_at(KExpr::int(0)) + t_at(KExpr::int(1)) + t_at(KExpr::int(2)),
                },
            ],
            work_dim: 2,
        };
        let x_of = |i: usize| ramp_at(i) as f64;
        assert_private_case(kernel, ScalarKind::F32, divergent, |i| match taken(i) {
            true => 4.0 * x_of(i) + 9.0,
            false => 3.0 * x_of(i) + 3.0,
        });
    }
}

/// A declared length that depends on the lane, each lane staying inside its
/// own:
///
/// ```text
/// int t[id % 4 + 1];
/// for (i = 0; i < id % 4 + 1; i++) t[i] = id + i;
/// for (i = 0; i < id % 4 + 1; i++) acc += t[i];
/// out[id] = acc;
/// ```
#[test]
fn lane_dependent_private_lengths_match_the_oracle() {
    let len = || rem(id(), 4) + KExpr::int(1);
    let kernel = Kernel {
        name: "pr_lane_len".into(),
        params: x_out_params(ScalarKind::I32),
        body: vec![
            decl_t(ScalarKind::I32, len()),
            KStmt::DeclScalar {
                name: "acc".into(),
                kind: ScalarKind::I32,
                init: Some(KExpr::int(0)),
            },
            for_to("i", len(), vec![t_set(KExpr::var("i"), id() + KExpr::var("i"))]),
            for_to(
                "i",
                len(),
                vec![KStmt::Assign {
                    name: "acc".into(),
                    value: KExpr::var("acc") + t_at(KExpr::var("i")),
                }],
            ),
            KStmt::Store { mem: MemRef::Param(1), idx: id(), value: KExpr::var("acc") },
        ],
        work_dim: 2,
    };
    assert_private_case(kernel, ScalarKind::I32, 3, |i| {
        let m = i % 4 + 1;
        (m * i + m * (m - 1) / 2) as f64
    });
}

/// A declaration in a loop the lanes leave at different times: each round
/// re-zeroes the array of the lanes still looping and of no other — a lane
/// that left keeps what it stored last.
///
/// ```text
/// for (r = 0; r < id % 3 + 1; r++) {
///     int t[2];
///     acc = acc * 10 + t[1];   // zero, every round
///     t[1] = id + r + 1;
/// }
/// out[id] = acc * 1000 + t[1];
/// ```
#[test]
fn a_private_redeclaration_zeroes_the_redeclaring_lanes_only() {
    let kernel = Kernel {
        name: "pr_redeclare".into(),
        params: x_out_params(ScalarKind::I32),
        body: vec![
            KStmt::DeclScalar {
                name: "acc".into(),
                kind: ScalarKind::I32,
                init: Some(KExpr::int(0)),
            },
            for_to(
                "r",
                rem(id(), 3) + KExpr::int(1),
                vec![
                    decl_t(ScalarKind::I32, KExpr::int(2)),
                    KStmt::Assign {
                        name: "acc".into(),
                        value: KExpr::var("acc") * KExpr::int(10) + t_at(KExpr::int(1)),
                    },
                    t_set(KExpr::int(1), id() + KExpr::var("r") + KExpr::int(1)),
                ],
            ),
            KStmt::Store {
                mem: MemRef::Param(1),
                idx: id(),
                value: KExpr::var("acc") * KExpr::int(1000) + t_at(KExpr::int(1)),
            },
        ],
        work_dim: 2,
    };
    assert_private_case(kernel, ScalarKind::I32, 3, |i| (i + i % 3 + 1) as f64);
}

/// Arrays of every element kind, stored to from their own kind and from
/// another (`StP` casts like `Value::cast`: an i32 into a float array, a
/// float — truncated — into an i32 array):
///
/// ```text
/// K t[2];
/// t[0] = x[id];
/// t[1] = (other kind) id * 1.5;
/// out[id] = t[0] + t[1];
/// ```
#[test]
fn private_arrays_of_every_kind_take_mixed_kind_stores() {
    for kind in [ScalarKind::F32, ScalarKind::F64, ScalarKind::I32] {
        let other = match kind {
            ScalarKind::I32 => KExpr::cast(ScalarKind::F32, id()) * KExpr::Lit(Lit::f32(1.5)),
            _ => id() * KExpr::int(3),
        };
        let kernel = Kernel {
            name: format!("pr_kinds_{kind:?}"),
            params: x_out_params(kind),
            body: vec![
                decl_t(kind, KExpr::int(2)),
                t_set(KExpr::int(0), KExpr::load(MemRef::Param(0), id())),
                t_set(KExpr::int(1), other),
                KStmt::Store {
                    mem: MemRef::Param(1),
                    idx: id(),
                    value: t_at(KExpr::int(0)) + t_at(KExpr::int(1)),
                },
            ],
            work_dim: 2,
        };
        assert_private_case(kernel, kind, 0, |i| {
            let x = ramp_at(i) as f64;
            x + if kind == ScalarKind::I32 { (i as f64 * 1.5).trunc() } else { i as f64 * 3.0 }
        });
    }
}

/// A private array written before a barrier and read after it: the rows
/// outlive the phase, in groups of one warp and of one and a half.
///
/// ```text
/// __local float tile[lsz];
/// float t[2];
/// t[0] = x[gid]; t[1] = lid;
/// tile[lid] = x[gid];
/// barrier();
/// out[gid] = t[0] + t[1] + tile[(lid + 1) % lsz];
/// ```
#[test]
fn private_rows_live_across_the_barrier_phases_of_a_grouped_launch() {
    let (lid, lsz) = (KExpr::LocalId(0), KExpr::LocalSize(0));
    let tile = || MemRef::Local("tile".into());
    let x = || KExpr::load(MemRef::Param(0), gid());
    let kernel = Kernel {
        name: "pr_barrier".into(),
        params: x_out_params(ScalarKind::F32),
        body: vec![
            KStmt::DeclLocalArray { name: "tile".into(), kind: ScalarKind::F32, len: lsz.clone() },
            decl_t(ScalarKind::F32, KExpr::int(2)),
            t_set(KExpr::int(0), x()),
            t_set(KExpr::int(1), lid.clone()),
            KStmt::Store { mem: tile(), idx: lid.clone(), value: x() },
            KStmt::Barrier,
            KStmt::Store {
                mem: MemRef::Param(1),
                idx: gid(),
                value: t_at(KExpr::int(0))
                    + t_at(KExpr::int(1))
                    + KExpr::load(tile(), KExpr::bin(BinOp::Rem, lid + KExpr::int(1), lsz)),
            },
        ],
        work_dim: 1,
    };
    for lsize in [32usize, 48] {
        let total = 3 * lsize;
        let case = Case {
            what: format!("private across a barrier, lsize {lsize}"),
            kernel: kernel.clone(),
            bufs: vec![ramp(ScalarKind::F32, total), ramp(ScalarKind::F32, total)],
            scalars: vec![],
            global: vec![total],
            local: Some(lsize),
        };
        let x_of = |i: usize| ramp_at(i) as f64;
        let want: Vec<f64> = (0..total)
            .map(|g| {
                let (grp, lid) = (g / lsize, g % lsize);
                x_of(g) + lid as f64 + x_of(grp * lsize + (lid + 1) % lsize)
            })
            .collect();
        assert_matches_oracle(&case, 0, Some(&want));
    }
}

// ---- private arrays: the length and index checks ----

/// `int t[L]; out[gid] = t[I (+ gid % 2)];` over one warp: the index is the
/// scalar argument — uniform, one row — or lane-dependent.
fn launch_private_access(engine: Engine, len: i32, idx: i32, per_lane: bool) {
    let idx_expr = match per_lane {
        true => KExpr::var("I") + rem(gid(), 2),
        false => KExpr::var("I"),
    };
    let case = Case {
        what: "private bounds".into(),
        kernel: Kernel {
            name: format!("pr_bounds_{per_lane}"),
            params: vec![
                KernelParam::global_buf("out", ScalarKind::I32),
                KernelParam::scalar("L", ScalarKind::I32),
                KernelParam::scalar("I", ScalarKind::I32),
            ],
            body: vec![
                decl_t(ScalarKind::I32, KExpr::var("L")),
                KStmt::Store { mem: MemRef::Param(0), idx: gid(), value: t_at(idx_expr) },
            ],
            work_dim: 1,
        },
        bufs: vec![BufData::from(vec![0i32; 32])],
        scalars: vec![Value::I32(len), Value::I32(idx)],
        global: vec![32],
        local: None,
    };
    launch(&case, engine, INPUTS[0]);
}

#[test]
#[should_panic(expected = "private array #0: length -1 outside 0..=65536")]
fn a_negative_private_length_is_one_clean_panic_on_the_tape() {
    launch_private_access(Engine::Fast, -1, 0, false);
}

#[test]
#[should_panic(expected = "private array #0: length -1 outside 0..=65536")]
fn a_negative_private_length_is_one_clean_panic_on_the_oracle() {
    launch_private_access(Engine::Tree, -1, 0, false);
}

/// 2³¹ − 1 elements × 32 lanes would abort the process in the allocator.
#[test]
#[should_panic(expected = "private array #0: length 2147483647 outside 0..=65536")]
fn a_huge_private_length_is_one_clean_panic_on_the_tape() {
    launch_private_access(Engine::Fast, i32::MAX, 0, false);
}

#[test]
#[should_panic(expected = "private array #0: length 2147483647 outside 0..=65536")]
fn a_huge_private_length_is_one_clean_panic_on_the_oracle() {
    launch_private_access(Engine::Tree, i32::MAX, 0, false);
}

#[test]
#[should_panic(expected = "private array #0: index 5 out of bounds (len 3)")]
fn a_private_index_past_the_end_names_array_index_and_length_on_the_tape() {
    launch_private_access(Engine::Fast, 3, 5, false);
}

#[test]
#[should_panic(expected = "private array #0: index 5 out of bounds (len 3)")]
fn a_private_index_past_the_end_names_array_index_and_length_on_the_oracle() {
    launch_private_access(Engine::Tree, 3, 5, false);
}

/// The one text, whoever finds the index: the oracle, the tape's row check,
/// its lane-by-lane path (lane 1 reads `t[3]`), or both under
/// `Engine::Differential`; a negative index reads as itself.
#[test]
fn a_private_index_out_of_range_reads_the_same_on_every_engine_and_path() {
    let text = |engine, idx, per_lane| {
        let payload = std::panic::catch_unwind(|| launch_private_access(engine, 3, idx, per_lane))
            .expect_err("the out-of-range index must panic");
        payload.downcast_ref::<String>().cloned().unwrap_or_default()
    };
    for engine in [Engine::Tree, Engine::Fast, Engine::Differential] {
        for (idx, per_lane, want) in [
            (3, false, "private array #0: index 3 out of bounds (len 3)"),
            (2, true, "private array #0: index 3 out of bounds (len 3)"),
            (-1, false, "private array #0: index -1 out of bounds (len 3)"),
            (-2, true, "private array #0: index -2 out of bounds (len 3)"),
        ] {
            let got = text(engine, idx, per_lane);
            assert!(got.contains(want), "{engine:?}, I = {idx}, per lane {per_lane}: got {got:?}");
        }
    }
}

// ---- local arrays: the same length and index checks ----

/// `__local int tile[L]; tile[s] = gid; out[gid] = tile[r];` over one group
/// of one warp, `(s, r)` = `(I, lid)` when `at_store`, else `(lid, I)`.
fn launch_local_access(engine: Engine, len: i32, idx: i32, at_store: bool) {
    let tile = || MemRef::Local("tile".into());
    let (i, lid) = (|| KExpr::var("I"), || KExpr::LocalId(0));
    let (store_at, load_at) = if at_store { (i(), lid()) } else { (lid(), i()) };
    let case = Case {
        what: "local bounds".into(),
        kernel: Kernel {
            name: format!("we_local_bounds_{at_store}"),
            params: vec![
                KernelParam::global_buf("out", ScalarKind::I32),
                KernelParam::scalar("L", ScalarKind::I32),
                KernelParam::scalar("I", ScalarKind::I32),
            ],
            body: vec![
                KStmt::DeclLocalArray {
                    name: "tile".into(),
                    kind: ScalarKind::I32,
                    len: KExpr::var("L"),
                },
                KStmt::Store { mem: tile(), idx: store_at, value: gid() },
                KStmt::Store {
                    mem: MemRef::Param(0),
                    idx: gid(),
                    value: KExpr::load(tile(), load_at),
                },
            ],
            work_dim: 1,
        },
        bufs: vec![BufData::from(vec![0i32; 32])],
        scalars: vec![Value::I32(len), Value::I32(idx)],
        global: vec![32],
        local: Some(32),
    };
    launch(&case, engine, INPUTS[0]);
}

#[test]
#[should_panic(expected = "local array #0: length -1 outside 0..=65536")]
fn a_negative_local_length_is_one_clean_panic_on_the_tape() {
    launch_local_access(Engine::Fast, -1, 0, false);
}

#[test]
#[should_panic(expected = "local array #0: length -1 outside 0..=65536")]
fn a_negative_local_length_is_one_clean_panic_on_the_oracle() {
    launch_local_access(Engine::Tree, -1, 0, false);
}

#[test]
#[should_panic(expected = "local array #0: index -1 out of bounds (len 32)")]
fn a_negative_local_index_names_array_index_and_length_on_the_tape() {
    launch_local_access(Engine::Fast, 32, -1, false);
}

#[test]
#[should_panic(expected = "local array #0: index -1 out of bounds (len 32)")]
fn a_negative_local_index_names_array_index_and_length_on_the_oracle() {
    launch_local_access(Engine::Tree, 32, -1, false);
}

/// One text per fault, whoever finds it — the oracle, the tape, or both
/// under `Engine::Differential` — at the load and at the store; a length
/// of 2³¹ − 1 is refused before anything is allocated.
#[test]
fn a_local_array_fault_reads_the_same_on_every_engine_and_op() {
    let text = |engine, len, idx, at_store| {
        let run = || launch_local_access(engine, len, idx, at_store);
        let payload = std::panic::catch_unwind(run).expect_err("the fault must panic");
        payload.downcast_ref::<String>().cloned().unwrap_or_default()
    };
    for engine in [Engine::Tree, Engine::Fast, Engine::Differential] {
        for at_store in [false, true] {
            for (len, idx, want) in [
                (32, 32, "local array #0: index 32 out of bounds (len 32)"),
                (32, -1, "local array #0: index -1 out of bounds (len 32)"),
                (i32::MAX, 0, "local array #0: length 2147483647 outside 0..=65536"),
            ] {
                let got = text(engine, len, idx, at_store);
                assert!(got.contains(want), "{engine:?}, L = {len}, I = {idx}: got {got:?}");
            }
        }
    }
}

// ---- lane shapes: slice loads/stores, guards decided by the launch ----

/// Element `i` of [`ramp`].
fn ramp_at(i: usize) -> i32 {
    (i * 7 % 23) as i32 - 11
}

/// `n` small integers, exact in every element kind.
fn ramp(kind: ScalarKind, n: usize) -> BufData {
    let v = ramp_at;
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

/// The stencil over `w × 5 × 3` with the last two columns of every row
/// guarded off, so rows end inside warps wherever they can. Rows of 13, 31
/// and 33 make every warp straddle rows, 32 and 96 make every warp
/// row-coherent; either way the stencil's index is the launch's linear item
/// id, so loads and stores run as spans over the guarded masks — unless the
/// launch records per-lane accesses. The launch decides the `H` and `D` guards
/// before any warp runs; the lane loop decides `N = W − 2`'s. 13·5·3 and
/// 31·5·3 end in a partial warp. Every row loses its last two columns
/// inside some warp.
#[test]
fn stencil_rows_coherent_straddling_and_partial_match_the_oracle() {
    let (h, d) = (5, 3);
    for kind in [ScalarKind::F32, ScalarKind::F64, ScalarKind::I32] {
        for (w, divergent) in [(13, 7), (31, 15), (32, 15), (33, 16), (96, 15)] {
            let int = |v: usize| Value::I32(v as i32);
            let case = Case {
                what: format!("stencil {kind:?} width {w}"),
                kernel: stencil7_kernel(kind),
                bufs: vec![ramp(kind, w * h * (d + 2)), ramp(kind, w * h * d)],
                scalars: vec![int(w), int(h), int(w - 2), int(d)],
                global: vec![w, h, d],
                local: None,
            };
            assert_matches_oracle(&case, divergent, None);
        }
    }
}

/// Unit stride down (`x[M − gid]`), stride 2 (`x[2·gid]`), a negative
/// offset (`x[gid + 64 − 3]`) and a store through `out[gid]` after a guard
/// that retires every third lane — a mask with holes, which the unit-stride
/// sites span and the others run lane by lane:
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
        let case = Case {
            what: format!("strides {kind:?}"),
            kernel: strides_kernel(kind),
            bufs: vec![ramp(kind, 2 * n + 64), ramp(kind, n)],
            scalars: vec![Value::I32(n as i32 - 1)],
            global: vec![n],
            local: None,
        };
        assert_matches_oracle(&case, 3, None);
    }
}

// ---- the per-site bounds discipline ----

/// A data-dependent gather (`out[gid] = x[t[gid]]`) has no static proof —
/// the table's *values* are unknown to the verifier — so its site must stay
/// on the checked path while results stay bit-identical to the tree oracle.
/// `vgpu.tape.sites_checked` only ever grows, so "it grew across this
/// launch" holds whatever concurrent tests add to it.
#[test]
fn potential_site_keeps_dynamic_check() {
    let kernel = Kernel {
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
    let case = Case {
        what: "gather".into(),
        kernel,
        bufs: vec![
            BufData::from((0..32).rev().collect::<Vec<i32>>()),
            BufData::from((0..32).map(|i| i as f32 * 1.5).collect::<Vec<f32>>()),
            BufData::from(vec![0.0f32; 32]),
        ],
        scalars: vec![],
        global: vec![32],
        local: None,
    };
    let checked = vgpu::telemetry::registry().counter("vgpu.tape.sites_checked");
    let checked0 = checked.get();
    assert_matches_oracle(&case, 0, None);
    assert!(checked.get() > checked0, "the value-dependent gather site must stay checked");
}

/// `out[id + store_off] = x[id + load_off]` over 64 elements each, `id` the
/// global id — spelled through the group and local ids when `grouped`, which
/// makes the launch a grouped one.
fn offsets_kernel(name: &str, grouped: bool, load_off: i32, store_off: i32) -> Kernel {
    let id = || match grouped {
        true => KExpr::GroupId(0) * KExpr::LocalSize(0) + KExpr::LocalId(0),
        false => gid(),
    };
    Kernel {
        name: name.into(),
        params: vec![
            KernelParam::global_buf("x", ScalarKind::F32),
            KernelParam::global_buf("out", ScalarKind::F32),
        ],
        body: vec![KStmt::Store {
            mem: MemRef::Param(1),
            idx: id() + KExpr::int(store_off),
            value: KExpr::load(MemRef::Param(0), id() + KExpr::int(load_off)),
        }],
        work_dim: 1,
    }
}

/// The panic message of launching `kernel` over 64 items on the tape.
fn out_of_bounds_panic(kernel: &Kernel, input: Input, local: Option<usize>) -> String {
    let prep = Device::gtx780().compile(kernel).unwrap();
    out_of_bounds_panic_of(&prep, input, local)
}

fn out_of_bounds_panic_of(prep: &vgpu::Prepared, input: Input, local: Option<usize>) -> String {
    let mut dev = device(Engine::Fast, input.sanitize);
    let x = dev.upload(BufData::from(vec![1.0f32; 64]));
    let out = dev.upload(BufData::from(vec![0.0f32; 64]));
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = dev.launch_wg(prep, &[Arg::Buf(x), Arg::Buf(out)], &[64], local, input.mode);
    }))
    .expect_err("the out-of-bounds access must panic");
    payload.downcast_ref::<String>().cloned().unwrap_or_default()
}

/// One element past the end through a unit-stride load site, through a
/// store site, and one before the start: a run that fails its one range
/// check falls back to the per-lane path, and every launch — plain,
/// sanitized, modeled, grouped; debug or release build — reports the
/// out-of-bounds lane in the same words.
#[test]
fn a_unit_stride_site_one_past_the_end_keeps_its_panic_text() {
    let cases = [
        ((1, 0), "load out of bounds: param 0[64] (len 64)"),
        ((0, 1), "store out of bounds: param 1[64] (len 64)"),
        ((-1, 0), "load out of bounds: param 0[-1] (len 64)"),
    ];
    for ((load_off, store_off), text) in cases {
        // Unsampled inputs: the out-of-bounds lane sits in the last warp.
        let flat = INPUTS[..3].iter().map(|&i| (i, false));
        for (input, grouped) in flat.chain([(INPUTS[0], true)]) {
            let kernel = offsets_kernel("ls_off_by_one", grouped, load_off, store_off);
            let msg = out_of_bounds_panic(&kernel, input, grouped.then_some(32));
            assert!(msg.contains(text), "{input:?}, grouped {grouped}: got {msg:?}");
        }
    }
}

/// The same over-read at a site a (false) launch contract makes PROVEN:
/// release builds elide the check there, debug builds audit the proof — and
/// the slice path's range check, kept at PROVEN sites, sends the run to
/// that audit instead of reading past the end.
#[cfg(debug_assertions)]
#[test]
fn a_proven_unit_stride_site_one_past_the_end_trips_the_debug_audit() {
    use lift::arith::ArithExpr;
    // A length the launch can evaluate would be checked against the bound
    // buffer; one over a size variable no argument binds is trusted.
    let mut lie = lift::verify::Assumptions::default();
    lie.buffers.insert("x".into(), lift::verify::BufferFacts::sized(ArithExpr::var("M")));
    lie.size_bounds.push(("M".into(), 65));
    let proven = vgpu::telemetry::registry().counter("vgpu.tape.sites_proven");
    let proven0 = proven.get();
    let kernel = offsets_kernel("ls_overread_proven", false, 1, 0);
    let prep = vgpu::compile_cached_under(&kernel, &lie).unwrap();
    let msg = out_of_bounds_panic_of(&prep, INPUTS[0], None);
    assert!(msg.contains("load out of bounds: param 0[64] (len 64)"), "got: {msg:?}");
    assert!(proven.get() - proven0 >= 2, "both sites of the kernel were taken as proven");
}

// ---- the task grain of a launch (`exec::dispatch`) ----
//
// It must never be observable: launches of one warp, exactly one grain, one
// grain plus a warp, and several grains — flat and grouped, plain, modeled
// and sanitized — produce the tree oracle's buffers, counters,
// transaction bytes and race reports, whether they ran as one inline task
// or fanned out over the pool. Task counts are read from each launch's own
// `LaunchStats::tasks`.

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

/// `(x, out, N)` over `warps` warps, the last 7 items past `N`; `grouped`
/// selects the local-memory kernel with one warp per group, so a group id
/// and a warp id weigh the same against the grain.
fn grain_case(grouped: bool, warps: usize) -> Case {
    let total = warps * WARP;
    Case {
        what: format!("{warps} warps, grouped {grouped}"),
        kernel: if grouped { local_rotate_kernel() } else { guard_diamond_kernel() },
        bufs: vec![x_out(total).swap_remove(0), BufData::from(vec![-1.0f32; total])],
        scalars: vec![Value::I32(total as i32 - 7)],
        global: vec![total],
        local: grouped.then_some(WARP),
    }
}

#[test]
fn launches_around_the_grain_match_the_oracle_on_every_input() {
    for (warps, tasks) in SIZES {
        for grouped in [false, true] {
            let case = grain_case(grouped, warps);
            let plain = launch(&case, Engine::Tree, INPUTS[0]);
            assert_eq!(plain.1.tasks, tasks, "{}", case.what);
            // Modeled at stride 2: half the ids, so half the tasks.
            let sampled = launch(&case, Engine::Tree, INPUTS[3]);
            assert_eq!(sampled.1.tasks, (warps.div_ceil(2) / GRAIN_WARPS).max(1), "{}", case.what);
            // The parity diamond splits every flat warp; a grouped warp
            // only diverges where the guard cuts it, in the last one.
            assert_matches_oracle(&case, if grouped { 1 } else { warps as u64 }, None);
        }
    }
}

/// `out[gid % H] = gid` with `H` half the launch: items `g` and `g + H`
/// collide on every element, from different tasks once the launch fans out.
/// The report (kernel, site, buffer, the lowest racing element, the races
/// counted) must not depend on which engine ran or how the launch was cut.
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
            let mut dev = device(engine, true);
            let prep = dev.compile(&k).unwrap();
            let out = dev.upload(BufData::from(vec![0i32; total]));
            let args = [Arg::Buf(out), Arg::Val(Value::I32(total as i32 / 2))];
            let msg = dev
                .launch(&prep, &args, &[total], ExecMode::Fast)
                .expect_err("every element is written twice")
                .to_string();
            let races = dev.runtime().registry.counter("vgpu.sanitize.write_races").get();
            (msg.replace(engine_label(engine), "…"), races)
        };
        let tree = report(Engine::Tree);
        let first = "1 finding(s) in the launch of `dg_race`: write-race in `dg_race` site 0: \
                     buffer `out` element 0";
        assert!(tree.0.contains(first), "{}", tree.0);
        assert_eq!(tree.1, total as u64 / 2, "one of each element's two stores races");
        assert_eq!(report(Engine::Fast), tree, "{warps} warps ({tasks} tasks)");
        assert_eq!(report(Engine::Differential), tree, "{warps} warps ({tasks} tasks)");
    }
}

/// The engine label a finding of the first leg `engine` runs carries.
fn engine_label(engine: Engine) -> &'static str {
    match engine {
        Engine::Fast => "(tape engine)",
        _ => "(tree engine)",
    }
}

/// An out-of-bounds gather panics with the tape's text on the oracle too —
/// under `Engine::Tree`, and in the oracle leg of `Engine::Differential`,
/// which runs first — in every build.
#[test]
fn an_out_of_bounds_gather_reads_alike_on_every_engine() {
    let k = Kernel {
        name: "dg_gather_oob".into(),
        params: vec![
            KernelParam::global_buf("out", ScalarKind::F32),
            KernelParam::global_buf("src", ScalarKind::F32),
        ],
        body: vec![KStmt::Store {
            mem: MemRef::Param(0),
            idx: gid(),
            value: KExpr::load(MemRef::Param(1), gid()),
        }],
        work_dim: 1,
    };
    for engine in [Engine::Tree, Engine::Differential, Engine::Fast] {
        let mut dev = device(engine, false);
        let prep = dev.compile(&k).unwrap();
        let out = dev.upload(BufData::from(vec![0.0f32; 4]));
        let src = dev.upload(BufData::from(vec![1.0f32; 3]));
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = dev.launch(&prep, &[Arg::Buf(out), Arg::Buf(src)], &[4], ExecMode::Fast);
        }))
        .expect_err("the out-of-bounds gather must panic");
        let msg = payload.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("load out of bounds: param 1[3] (len 3)"), "{engine:?}: {msg:?}");
    }
}

/// `if (gid >= N) return; out[gid + 1] = 1;` — the last work-item stores
/// one element past the end, on a site the verifier cannot prove, so the
/// executor keeps its bounds assert there.
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
    let small = launch(&grain_case(false, 1), Engine::Fast, INPUTS[0]);
    assert_eq!(small.1.tasks, 1);
    assert!(inline.get() > i0, "a one-task launch counts as inline");
    let t1 = tasks.get();
    assert!(t1 > t0);
    let wide = launch(&grain_case(false, 3 * GRAIN_WARPS), Engine::Fast, INPUTS[0]);
    assert_eq!(wide.1.tasks, 3);
    assert!(tasks.get() >= t1 + 3, "a fanned-out launch counts each task");
}
