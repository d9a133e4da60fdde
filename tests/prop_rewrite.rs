//! Property test: the rewrite rules are semantics-preserving and *enable
//! lowering* — exactly their role in LIFT.
//!
//! Random pattern chains of layout ops (split/join, nested pads, aliasing
//! lets) composed with chains of element-wise maps are not directly
//! lowerable (a map feeding a map must be fused first). After
//! [`lift::rewrite::optimize`] the program must lower, execute, and agree
//! with a host-side oracle of the same pattern semantics.

use lift::funs;
use lift::ir::{self, ExprKind, ExprRef, ParamDef};
use lift::lower::lower_kernel;
use lift::prelude::*;
use lift::rewrite::optimize;
use proptest::prelude::*;
use vgpu::{Arg, BufData, Device, ExecMode};

#[derive(Debug, Clone)]
enum Layout {
    SplitJoin { chunk: usize },
    PadPair { l1: usize, l2: usize },
    LetTrivial,
}

fn layout_strategy() -> impl Strategy<Value = Layout> {
    prop_oneof![
        prop_oneof![Just(2usize), Just(3), Just(4)].prop_map(|chunk| Layout::SplitJoin { chunk }),
        (1usize..3, 1usize..3).prop_map(|(l1, l2)| Layout::PadPair { l1, l2 }),
        Just(Layout::LetTrivial),
    ]
}

fn apply_layout(w: &Layout, e: ExprRef, data: Vec<f32>) -> (ExprRef, Vec<f32>) {
    match w {
        Layout::SplitJoin { chunk } => {
            if data.len().is_multiple_of(*chunk) && !data.is_empty() {
                (ir::join(ir::split(*chunk, e)), data)
            } else {
                (e, data)
            }
        }
        Layout::PadPair { l1, l2 } => {
            let e = ir::pad(
                *l1 as i64,
                *l1 as i64,
                PadKind::Clamp,
                ir::pad(*l2 as i64, *l2 as i64, PadKind::Clamp, e),
            );
            // oracle: clamp-pad twice == clamp-pad by l1+l2 on each side
            let l = l1 + l2;
            let mut out = Vec::with_capacity(data.len() + 2 * l);
            for _ in 0..l {
                out.push(*data.first().unwrap());
            }
            out.extend_from_slice(&data);
            for _ in 0..l {
                out.push(*data.last().unwrap());
            }
            (e, out)
        }
        Layout::LetTrivial => (ir::let_in("alias", e, |v| v), data),
    }
}

fn run(params: &[std::rc::Rc<ParamDef>], prog: &ExprRef, data: &[f32], out_len: usize) -> Vec<f32> {
    let lk = lower_kernel("rw", params, prog, ScalarKind::F32).expect("optimised program lowers");
    let mut dev = Device::gtx780();
    let prep = dev.compile(&lk.kernel).expect("prepares");
    let input = dev.upload(BufData::from(data.to_vec()));
    let out = dev.create_buffer(ScalarKind::F32, out_len);
    let args: Vec<Arg> = lk
        .args
        .iter()
        .map(|spec| match spec {
            lift::lower::ArgSpec::Input(_, _) => Arg::Buf(input),
            lift::lower::ArgSpec::Size(_) => unreachable!(),
            lift::lower::ArgSpec::Output(_, _) => Arg::Buf(out),
        })
        .collect();
    let global: Vec<usize> =
        lk.global_size.iter().map(|g| g.eval(&|_| None).expect("concrete") as usize).collect();
    dev.launch(&prep, &args, &global, ExecMode::Fast).expect("runs");
    match dev.read(out) {
        BufData::F32(v) => v,
        other => panic!("unexpected {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn optimize_enables_lowering_and_preserves_semantics(
        layouts in prop::collection::vec(layout_strategy(), 0..4),
        adds in prop::collection::vec(-5i32..6, 1..4),
        data in prop::collection::vec(-8i32..8, 6..16),
    ) {
        let data: Vec<f32> = data.into_iter().map(|v| v as f32).collect();
        let a = ParamDef::typed("a", Type::array(Type::real(), data.len()));
        let mut e = a.to_expr();
        let mut oracle = data.clone();
        for w in &layouts {
            let (ne, no) = apply_layout(w, e, oracle);
            e = ne;
            oracle = no;
        }
        // element-wise maps stacked on top (innermost applies first)
        let add = funs::add();
        for (j, k) in adds.iter().enumerate() {
            let kk = *k as f64;
            let addf = add.clone();
            e = ir::map_seq(e, "x", move |x| ir::call(&addf, vec![x, ir::lit(Lit::real(kk))]));
            for v in oracle.iter_mut() {
                *v += *k as f32;
            }
            let _ = j;
        }
        // the outermost map is the parallel one
        let id = funs::id_real();
        let prog = ir::map_glb(e, "x", move |x| ir::call(&id, vec![x]));

        // the raw program generally does NOT lower (maps feeding maps):
        // after optimisation it must.
        let opt = optimize(&prog);
        let opt = match &opt.kind {
            ExprKind::Param(_) => {
                let id = funs::id_real();
                ir::map_glb(opt, "x", move |x| ir::call(&id, vec![x]))
            }
            _ => opt,
        };
        let got = run(&[a], &opt, &data, oracle.len());
        prop_assert_eq!(got, oracle, "layouts {:?}, adds {:?}", layouts, adds);
    }
}

/// A rank-2 or rank-3 grid of reals, x innermost.
fn grid(dims: &[usize]) -> Type {
    dims.iter().fold(Type::real(), |t, &n| Type::array(t, n))
}

/// `map2_glb` / `map3_glb` of `f`.
fn map_n(rank: usize, input: ExprRef, f: impl FnOnce(ExprRef) -> ExprRef) -> ExprRef {
    if rank == 2 {
        ir::map2_glb(input, "x", f)
    } else {
        ir::map3_glb(input, "x", f)
    }
}

/// `pad2` / `pad3` by `amount`.
fn pad_n(rank: usize, amount: i64, kind: PadKind, input: ExprRef) -> ExprRef {
    if rank == 2 {
        ir::pad2(amount, kind, input)
    } else {
        ir::pad3(amount, kind, input)
    }
}

/// True when no `map` reads another `map` anywhere in `e`: every map chain
/// is fused.
fn fused(e: &ExprRef) -> bool {
    let mut ok = true;
    if let ExprKind::Map { input, .. } = &e.kind {
        ok = !matches!(input.kind, ExprKind::Map { .. });
    }
    e.kind.for_each_child(|c| ok &= fused(c));
    ok
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Rules on 2-D and 3-D grids, where a pattern is a nest of 1-D ones —
    /// pad-pad (for both pad kinds, after pad-map brings the two pads'
    /// levels together), map-fusion and map-id: the rewritten program
    /// lowers and computes the same grid as the original one (or, where the
    /// original feeds a map into a map and cannot lower, as a host oracle).
    #[test]
    fn rank_2_and_3_rewrites_preserve_semantics(
        rank in 2usize..4,
        dims in (2usize..6, 2usize..5, 2usize..4),
        amounts in (1i64..3, 1i64..3),
        fill in -3i32..4,
        scale in -2i32..3,
        seed in 0usize..17,
    ) {
        let dims = [dims.0, dims.1, dims.2][..rank].to_vec();
        let (l1, l2) = amounts;
        let cells: usize = dims.iter().product();
        let data: Vec<f32> = (0..cells).map(|i| ((i * 7 + seed) % 17) as f32 - 8.0).collect();
        let a = ParamDef::typed("a", grid(&dims));
        let id = funs::id_real();
        let call_id = |x| ir::call(&id, vec![x]);

        // pad-pad: pad l1 (pad l2 x) → pad (l1 + l2) x, at the grid's rank
        for kind in [PadKind::Clamp, PadKind::Constant(Lit::real(fill as f64))] {
            let inner = pad_n(rank, l2, kind, a.to_expr());
            let prog = map_n(rank, pad_n(rank, l1, kind, inner), call_id);
            let opt = optimize(&prog);
            let ExprKind::Map { input, .. } = &opt.kind else { panic!("{:?}", opt.kind) };
            let merged = matches!(&input.kind,
                ExprKind::Pad { left, right, input: x, .. }
                    if *left == l1 + l2 && *right == l1 + l2
                        && matches!(x.kind, ExprKind::Param(_)));
            prop_assert!(merged, "pad-pad did not fire at rank {}: {:?}", rank, input.kind);
            let padded: usize = dims.iter().map(|n| n + 2 * (l1 + l2) as usize).product();
            let want = run(std::slice::from_ref(&a), &prog, &data, padded);
            let got = run(std::slice::from_ref(&a), &opt, &data, padded);
            prop_assert_eq!(got, want, "pad-pad ({:?}) at rank {}", kind, rank);
        }

        // map-fusion: map (+ 1) (map (× scale) x) → map ((× scale) then (+ 1)) x
        let (add, mult) = (funs::add(), funs::mult());
        let k = ir::lit(Lit::real(scale as f64));
        let scaled = map_n(rank, a.to_expr(), |x| ir::call(&mult, vec![x, k]));
        let prog = map_n(rank, scaled, |y| ir::call(&add, vec![y, ir::lit(Lit::real(1.0))]));
        let opt = optimize(&prog);
        prop_assert!(fused(&opt), "map-fusion did not fire at rank {}: {:?}", rank, opt.kind);
        let want: Vec<f32> = data.iter().map(|x| x * scale as f32 + 1.0).collect();
        prop_assert_eq!(run(std::slice::from_ref(&a), &opt, &data, cells), want);

        // map-id: map id x → x, re-wrapped in a copying map to run it
        let prog = map_n(rank, a.to_expr(), |x| x);
        let opt = optimize(&prog);
        prop_assert!(matches!(opt.kind, ExprKind::Param(_)), "{:?}", opt.kind);
        let opt = map_n(rank, opt, call_id);
        let want = run(std::slice::from_ref(&a), &prog, &data, cells);
        prop_assert_eq!(&want, &data);
        prop_assert_eq!(run(std::slice::from_ref(&a), &opt, &data, cells), want);
    }
}
