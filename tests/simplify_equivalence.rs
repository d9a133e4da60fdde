//! The index and guard simplification pass (`lift::simplify`) against its
//! own input.
//!
//! `lower_kernel_raw` is lowering up to, but not including, the pass: the
//! collapsed views as the view system emits them. Every test here runs or
//! inspects that form and the shipped form of the same program side by
//! side — nothing else in the repository executes the raw form.

use lift::funs;
use lift::ir::{self, ParamDef};
use lift::lower::{lower_kernel, lower_kernel_raw, ArgSpec, LoweredKernel};
use lift::prelude::*;
use lift_acoustics::programs::{self, Program};
use proptest::prelude::*;
use room_acoustics::handwritten;
use std::collections::HashMap;
use std::rc::Rc;
use vgpu::{Arg, BufData, Device, Engine, ExecMode};

/// A small deterministic generator for buffer contents.
fn lcg(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *state >> 33
}

/// Integer table contents by buffer name and length; `None` draws
/// neighbour counts.
type Tables<'a> = &'a dyn Fn(&str, usize) -> Option<Vec<i32>>;

/// Runs `kernel` (a form of `lk`'s kernel with the same parameter list) on
/// the tree-walker over seeded inputs and returns every buffer afterwards,
/// in argument order, with the launch's global loads and stores. Integer
/// buffers hold what `tables` gives, or neighbour counts drawn from `nbrs`
/// (a sub-range of `0..=6`); with `off_halo` those are 0 on the six faces
/// of the `Nx × Ny × Nz` grid, as the interior-mask fact of a launch
/// contract says.
#[allow(clippy::too_many_arguments)]
fn run_on_oracle(
    kernel: &Kernel,
    lk: &LoweredKernel,
    params: &[Rc<ParamDef>],
    sizes: &HashMap<&str, i64>,
    global: &[usize],
    nbrs: &std::ops::RangeInclusive<i32>,
    off_halo: bool,
    tables: Tables,
    seed: u64,
) -> (Vec<BufData>, u64, u64) {
    let mut dev = Device::gtx780();
    dev.set_engine(Engine::Tree);
    let prep = dev.compile(kernel).expect("kernel prepares");
    let eval = |a: ArithExpr| a.eval(&|n| sizes.get(n).copied()).expect("size bound") as usize;
    let mut state = seed;
    let mut bufs = Vec::new();
    let args: Vec<Arg> = lk
        .args
        .iter()
        .zip(&kernel.params)
        .map(|(spec, kp)| match spec {
            ArgSpec::Input(_, name) if kp.is_buffer => {
                let ty = params.iter().find(|p| p.name == *name).and_then(|p| p.ty.clone());
                let len = eval(ty.expect("typed input").scalar_count());
                let data = match kp.kind {
                    ScalarKind::I32 if tables(name, len).is_some() => {
                        BufData::from(tables(name, len).expect("a table"))
                    }
                    ScalarKind::I32 => {
                        let span = (nbrs.end() - nbrs.start() + 1) as u64;
                        let [nx, ny, nz] =
                            ["Nx", "Ny", "Nz"].map(|n| sizes.get(n).map_or(1, |&v| v as usize));
                        let on_halo = |i: usize| {
                            let (x, y, z) = (i % nx, i / nx % ny, i / (nx * ny));
                            x % (nx - 1).max(1) == 0
                                || y % (ny - 1).max(1) == 0
                                || z % (nz - 1).max(1) == 0
                        };
                        let draw = |i| {
                            let n = nbrs.start() + (lcg(&mut state) % span) as i32;
                            if off_halo && on_halo(i) {
                                0
                            } else {
                                n
                            }
                        };
                        BufData::from((0..len).map(draw).collect::<Vec<_>>())
                    }
                    _ => BufData::from(
                        (0..len)
                            .map(|_| (lcg(&mut state) % 64) as f32 / 8.0 - 4.0)
                            .collect::<Vec<_>>(),
                    ),
                };
                let id = dev.upload(data);
                bufs.push(id);
                Arg::Buf(id)
            }
            ArgSpec::Input(..) => Arg::Val(Value::F32(0.25 + (lcg(&mut state) % 4) as f32 / 16.0)),
            ArgSpec::Size(n) => Arg::Val(Value::I32(sizes[n.as_str()] as i32)),
            ArgSpec::Output(_, ty) => {
                let id = dev.create_buffer_zeroed(kp.kind, eval(ty.scalar_count()));
                bufs.push(id);
                Arg::Buf(id)
            }
        })
        .collect();
    let c = dev.launch(&prep, &args, global, ExecMode::Fast).expect("launch").counters;
    (bufs.into_iter().map(|b| dev.read(b)).collect(), c.loads_global, c.stores_global)
}

/// Lowers `p` both ways, applies `place` to both kernels, and checks the
/// two forms leave bit-identical buffers behind, store as often, and the
/// shipped one never loads more — over mixed, all-exterior and all-interior
/// neighbour counts, the three ways a sunk `nbrs > 0` arm can go.
fn assert_forms_agree(
    name: &str,
    params: &[Rc<ParamDef>],
    body: &ExprRef,
    sizes: &HashMap<&str, i64>,
    global: &[usize],
    place: impl Fn(&Kernel) -> Kernel,
    seed: u64,
) {
    let raw = lower_kernel_raw(name, params, body, ScalarKind::F32).expect("lowers");
    let shipped = lower_kernel(name, params, body, ScalarKind::F32).expect("lowers");
    assert_eq!(raw.args, shipped.args);
    for nbrs in [0..=6, 0..=0, 1..=6] {
        let what = format!("{name} @ {sizes:?}, nbrs in {nbrs:?}");
        let run = |lk: &LoweredKernel| {
            run_on_oracle(
                &place(&lk.kernel),
                lk,
                params,
                sizes,
                global,
                &nbrs,
                false,
                &no_tables,
                seed,
            )
        };
        let ((a, raw_loads, raw_stores), (b, loads, stores)) = (run(&raw), run(&shipped));
        assert_eq!(a, b, "{what}: simplified form diverges from its input");
        assert_eq!(stores, raw_stores, "{what}: stores");
        assert!(loads <= raw_loads, "{what}: {loads} loads, its input {raw_loads}");
    }
}

/// Lowers `p` raw, simplified without a contract (`lower_kernel`) and
/// folded under its launch contract (`Program::lower`), applies `place` to
/// each, and checks all three leave bit-identical buffers behind on grids
/// whose `nbrs` is positive only off the halo and whose output starts zeroed
/// — the rooms and allocations the contract describes — with the folded
/// kernel loading exactly as often as the simplified one and storing only
/// where `nbrs` is positive: the exterior-zero fact drops the store of `0`.
/// Work-item `(x, y, z)` indexes cell `(x, y, z + z_offset)`.
fn assert_fold_agrees(
    p: &Program,
    sizes: &HashMap<&str, i64>,
    global: &[usize],
    place: impl Fn(&Kernel) -> Kernel,
    z_offset: usize,
    seed: u64,
) {
    let (name, params, body) = (p.name, &p.params, &p.body);
    let raw = lower_kernel_raw(name, params, body, ScalarKind::F32).expect("lowers");
    let simplified = lower_kernel(name, params, body, ScalarKind::F32).expect("lowers");
    let folded = p.lower(ScalarKind::F32).expect("lowers");
    for nbrs in [0..=6, 1..=6] {
        let what = format!("{name} @ {sizes:?}, nbrs in {nbrs:?} off the halo");
        let run = |lk: &LoweredKernel| {
            run_on_oracle(
                &place(&lk.kernel),
                lk,
                params,
                sizes,
                global,
                &nbrs,
                true,
                &no_tables,
                seed,
            )
        };
        let (a, _, _) = run(&raw);
        let (b, loads, stores) = run(&simplified);
        let (c, folded_loads, folded_stores) = run(&folded);
        assert_eq!(a, b, "{what}: simplified form diverges from its input");
        assert_eq!(b, c, "{what}: folded form diverges from the simplified one");
        let mask = b.iter().find(|d| d.kind() == ScalarKind::I32).expect("an nbrs buffer");
        let [nx, ny] = ["Nx", "Ny"].map(|n| sizes[n] as usize);
        let interior = (0..global.iter().product::<usize>())
            .filter(|i| {
                let (x, y, z) =
                    (i % global[0], i / global[0] % global[1], i / (global[0] * global[1]));
                mask.get(x + nx * (y + ny * (z + z_offset))).as_f64() > 0.0
            })
            .count() as u64;
        assert_eq!(stores, global.iter().product::<usize>() as u64, "{what}: one store per item");
        assert_eq!((folded_loads, folded_stores), (loads, interior), "{what}: loads, stores");
    }
}

fn no_tables(_: &str, _: usize) -> Option<Vec<i32>> {
    None
}

/// Lowers a boundary program raw and under its launch contract and checks
/// both leave bit-identical buffers behind on tables the contract describes
/// — distinct boundary cells, material ids below `NM` — storing as often,
/// the shipped one never loading more.
fn assert_boundary_forms_agree(p: &Program, num_b: usize, mb: usize, nm: usize, seed: u64) {
    let n = 2 * num_b + 3;
    let sizes: HashMap<&str, i64> =
        [("numB", num_b), ("N", n), ("NM", nm), ("MB", mb), ("MBM", nm * mb), ("S", mb * num_b)]
            .map(|(k, v)| (k, v as i64))
            .into();
    let tables = |name: &str, len: usize| -> Option<Vec<i32>> {
        let cells = |f: &dyn Fn(usize) -> usize| (0..len).map(|i| f(i) as i32).collect();
        match name {
            "boundaryIndices" => Some(cells(&|i| (2 * i + 1 + seed as usize) % n)),
            "material" => Some(cells(&|i| (i + seed as usize) % nm)),
            _ => None,
        }
    };
    let raw = lower_kernel_raw(p.name, &p.params, &p.body, ScalarKind::F32).expect("lowers");
    let shipped = p.lower(ScalarKind::F32).expect("lowers");
    let run = |lk: &LoweredKernel| {
        let (ps, s) = (&p.params, &sizes);
        run_on_oracle(&lk.kernel, lk, ps, s, &[num_b], &(0..=6), false, &tables, seed)
    };
    let ((a, raw_loads, raw_stores), (b, loads, stores)) = (run(&raw), run(&shipped));
    let what = format!("{} over {num_b} points, MB {mb}, NM {nm}", p.name);
    assert_eq!(a, b, "{what}: shipped form diverges from its input");
    assert_eq!(stores, raw_stores, "{what}: stores");
    assert!(loads <= raw_loads, "{what}: {loads} loads, its input {raw_loads}");
}

fn grid_sizes(nx: usize, ny: usize, nz: usize) -> HashMap<&'static str, i64> {
    [("Nx", nx as i64), ("Ny", ny as i64), ("Nz", nz as i64)].into()
}

/// The 2-D shapes of `tests/patterns_2d.rs`: a 3×3 box blur over a clamped
/// pad, and a two-field zip.
fn blur2d() -> (Vec<Rc<ParamDef>>, ExprRef) {
    let img = ParamDef::typed("img", Type::array2(Type::real(), "Nx", "Ny"));
    let add = funs::add();
    let body =
        ir::map2_glb(ir::slide2(3, 1, ir::pad2(1, PadKind::Clamp, img.to_expr())), "w", move |w| {
            let row_sums = ir::map_seq(w, "row", {
                let add = add.clone();
                move |row| {
                    ir::reduce_seq(ir::lit(Lit::real(0.0)), row, |acc, x| {
                        ir::call(&add, vec![acc, x])
                    })
                }
            });
            ir::reduce_seq(ir::lit(Lit::real(0.0)), ir::to_private(row_sums), |acc, x| {
                ir::call(&add, vec![acc, x])
            })
        });
    (vec![img], body)
}

fn zip2d() -> (Vec<Rc<ParamDef>>, ExprRef) {
    let a = ParamDef::typed("a", Type::array2(Type::real(), "Nx", "Ny"));
    let b = ParamDef::typed("b", Type::array2(Type::real(), "Nx", "Ny"));
    let sub = funs::sub();
    let body = ir::map2_glb(ir::zip2(vec![a.to_expr(), b.to_expr()]), "t", move |t| {
        ir::call(&sub, vec![ir::get(t.clone(), 0), ir::get(t, 1)])
    });
    (vec![a, b], body)
}

/// A 1-D three-point sum over a clamped pad of width 2 (the clamp index
/// `min(max(i − 2, 0), N − 1)` must survive canonicalisation).
fn clamp1d() -> (Vec<Rc<ParamDef>>, ExprRef) {
    let a = ParamDef::typed("a", Type::array(Type::real(), "Nx"));
    let add = funs::add();
    let body = ir::map_glb(ir::slide(3, 1, ir::pad(2, 2, PadKind::Clamp, a.to_expr())), "w", {
        move |w| ir::reduce_seq(ir::lit(Lit::real(0.0)), w, |acc, x| ir::call(&add, vec![acc, x]))
    });
    (vec![a], body)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn stencil_programs_agree_with_their_raw_form(
        nx in 1usize..7, ny in 1usize..7, nz in 1usize..6, seed in 0u64..1000,
    ) {
        let sizes = grid_sizes(nx, ny, nz);
        for p in [programs::volume_program(), programs::fi_single_program()] {
            let global = [nx, ny, nz];
            assert_forms_agree(p.name, &p.params, &p.body, &sizes, &global, Kernel::clone, seed);
            assert_fold_agrees(&p, &sizes, &global, Kernel::clone, 0, seed);
        }
    }

    #[test]
    fn planar_and_clamped_shapes_agree_with_their_raw_form(
        nx in 1usize..9, ny in 1usize..7, seed in 0u64..1000,
    ) {
        let sizes = grid_sizes(nx, ny, 1);
        let (params, body) = blur2d();
        assert_forms_agree("blur2d", &params, &body, &sizes, &[nx, ny], Kernel::clone, seed);
        let (params, body) = zip2d();
        assert_forms_agree("diff2d", &params, &body, &sizes, &[nx, ny], Kernel::clone, seed);
        let (params, body) = clamp1d();
        // pad(2,2) then slide(3,1): Nx + 2 windows.
        assert_forms_agree("clamp1d", &params, &body, &sizes, &[nx + 2], Kernel::clone, seed);
    }

    /// The boundary kernels, loops fused, copies and `vsNew` scalars and
    /// loads forwarded, against their raw lowering.
    #[test]
    fn boundary_programs_agree_with_their_raw_form(
        num_b in 1usize..40, mb in 1usize..4, nm in 1usize..4, seed in 0u64..1000,
    ) {
        for p in [programs::fimm_program(), programs::fdmm_program()] {
            assert_boundary_forms_agree(&p, num_b, mb, nm, seed);
        }
    }

    /// `StepKernel::slab_placed` shifts the *folded* volume kernel
    /// (`shift_gid(2, 1)`) and re-binds `Nz` to the slab's local plane
    /// count: `owned` work-item planes over `owned + 2` allocated ones.
    #[test]
    fn slab_placed_volume_kernel_agrees_with_its_raw_form(
        nx in 1usize..7, ny in 1usize..7, owned in 1usize..5, seed in 0u64..1000,
    ) {
        let sizes = grid_sizes(nx, ny, owned + 2);
        let p = programs::volume_program();
        let (global, slab) = ([nx, ny, owned], |k: &Kernel| k.shift_gid(2, 1, "_slab"));
        assert_forms_agree(p.name, &p.params, &p.body, &sizes, &global, slab, seed);
        assert_fold_agrees(&p, &sizes, &global, slab, 1, seed);
    }
}

/// The paper's parity claim as a structural fact about the generated volume
/// kernel: all seven stencil loads under `nbrs > 0`, as Listing 2 has them,
/// with no guard left — the interior-mask fact of the launch contract folds
/// the six one-sided pad guards — no exterior arm — the exterior-zero fact
/// drops its store of `0` — and, its loads forwarded into their consumers,
/// a tape as long as the hand-written kernel's in either precision: the
/// tapes as they run, after superinstruction fusion (26 ops each; the
/// contract-free lowering is 58, the unsimplified one 249).
#[test]
fn generated_volume_kernel_has_hand_written_shape() {
    for real in [ScalarKind::F32, ScalarKind::F64] {
        let lk = programs::volume_program().lower(real).unwrap();
        let curr = lk.kernel.param_index("curr").unwrap();
        let is_curr_load =
            |e: &KExpr| matches!(e, KExpr::Load { mem: MemRef::Param(p), .. } if *p == curr);
        let (mut selects, mut loads) = (0, 0);
        for s in &lk.kernel.body {
            s.for_each_expr(&mut |e| {
                e.visit(&mut |n| {
                    loads += is_curr_load(n) as usize;
                    selects += matches!(n, KExpr::Select(..)) as usize;
                })
            });
        }
        assert_eq!(loads, 7, "six neighbours and the centre");
        assert_eq!(selects, 0, "a pad guard is left: {}", opencl::emit_kernel(&lk.kernel));
        let Some(KStmt::If { cond, then_, else_ }) = lk.kernel.body.last() else {
            panic!("the kernel ends in {:?}", lk.kernel.body.last());
        };
        assert!(matches!(cond, KExpr::Bin(BinOp::Gt, ..)), "{cond:?}");
        let mut under_guard = 0;
        then_.iter().for_each(|s| {
            assert!(!matches!(s, KStmt::If { .. }), "a branch inside the arm: {s:?}");
            s.for_each_expr(&mut |e| e.visit(&mut |n| under_guard += is_curr_load(n) as usize))
        });
        assert_eq!(under_guard, 7);
        assert!(else_.is_empty(), "an exterior arm: {else_:?}");

        let tape = |k: &Kernel| vgpu::exec::prepare(k).expect("compiles to a tape").tape_len();
        let (gen, hand) =
            (tape(&lk.kernel), tape(&handwritten::volume_kernel().resolve_real(real)));
        assert_eq!(gen, hand, "{real:?}: generated tape {gen} ops vs hand-written {hand}");
    }
}

/// Sinking is the identity where nothing can sink: every change it makes
/// leaves an `if` with a live arm behind, and the generated boundary
/// kernels — in-place gathers and loops, no select-valued store — ship with
/// no branch but their NDRange guard, in either precision.
#[test]
fn boundary_kernels_ship_without_a_split_store() {
    fn live_branches(block: &[KStmt]) -> usize {
        block
            .iter()
            .map(|s| match s {
                KStmt::If { then_, else_, .. } => {
                    !s.is_return_guard() as usize + live_branches(then_) + live_branches(else_)
                }
                KStmt::For { body, .. } => live_branches(body),
                _ => 0,
            })
            .sum()
    }
    for real in [ScalarKind::F32, ScalarKind::F64] {
        for p in [programs::fimm_program(), programs::fdmm_program()] {
            let k = p.lower(real).unwrap().kernel;
            assert_eq!(live_branches(&k.body), 0, "{}", opencl::emit_kernel(&k));
        }
        let volume = programs::volume_program().lower(real).unwrap().kernel;
        assert_eq!(live_branches(&volume.body), 1, "the `nbrs > 0` split");
    }
}

/// Hoisted names come from a counter and no ordering depends on hashing:
/// lowering twice prints the same bytes.
#[test]
fn lowering_twice_emits_identical_opencl() {
    for real in [ScalarKind::F32, ScalarKind::F64] {
        let emit = || -> Vec<String> {
            programs::all_programs()
                .iter()
                .map(|p| opencl::emit_kernel(&p.lower(real).unwrap().kernel))
                .collect()
        };
        assert_eq!(emit(), emit());
    }
}
