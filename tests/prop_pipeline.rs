//! Property tests across the whole pipeline: random pattern programs are
//! lowered by the code generator, executed on the virtual GPU, and compared
//! against a direct semantic evaluation of the patterns on host vectors.
//!
//! This is the strongest check of the view system: every slide/pad/split/
//! join/zip/gather composition must collapse to index expressions that
//! reproduce the pattern semantics exactly.

use lift::funs;
use lift::ir::{self, ExprRef, ParamDef};
use lift::lower::lower_kernel;
use lift::prelude::*;
use proptest::prelude::*;
use vgpu::{Arg, BufData, Device, DeviceProfile, ExecMode, Runtime};

/// One random 1-D layout stage applied between the input and the map.
#[derive(Debug, Clone)]
enum Stage {
    SlideSum { size: usize, step: usize },
    PadClampSlideSum { pad: usize, size: usize },
    PadConstSlideSum { pad: usize, size: usize, c: i32 },
    SplitSum { chunk: usize },
    Reverse, // gather via At over iota-like reversed indexing
}

fn stage_strategy() -> impl Strategy<Value = Stage> {
    prop_oneof![
        (2usize..5, 1usize..3).prop_map(|(size, step)| Stage::SlideSum { size, step }),
        (1usize..3, 2usize..5).prop_map(|(pad, size)| Stage::PadClampSlideSum { pad, size }),
        (1usize..3, 2usize..5, -4i32..5).prop_map(|(pad, size, c)| Stage::PadConstSlideSum {
            pad,
            size,
            c
        }),
        prop_oneof![Just(2usize), Just(4usize)].prop_map(|chunk| Stage::SplitSum { chunk }),
        Just(Stage::Reverse),
    ]
}

/// Builds the LIFT program for a stage and computes its expected output on
/// the host. Inputs are i32-valued but flow through `Real` arithmetic.
fn apply_stage(stage: &Stage, n: usize, data: &[f32]) -> Option<(ExprRef, Vec<Rc>, Vec<f32>)> {
    let a = ParamDef::typed("a", Type::array(Type::real(), n));
    let add = funs::add();
    let sum_window = |w: ExprRef| {
        ir::reduce_seq(ir::lit(Lit::real(0.0)), w, |acc, x| ir::call(&add, vec![acc, x]))
    };
    match stage {
        Stage::SlideSum { size, step } => {
            if n < *size {
                return None;
            }
            let windows = (n - size) / step + 1;
            let prog =
                ir::map_glb(ir::slide(*size as i64, *step as i64, a.to_expr()), "w", sum_window);
            let expected: Vec<f32> = (0..windows)
                .map(|w| {
                    let mut acc = 0.0f32;
                    for j in 0..*size {
                        acc += data[w * step + j];
                    }
                    acc
                })
                .collect();
            Some((prog, vec![a], expected))
        }
        Stage::PadClampSlideSum { pad, size } => {
            let padded = n + 2 * pad;
            if padded < *size {
                return None;
            }
            let windows = padded - size + 1;
            let prog = ir::map_glb(
                ir::slide(
                    *size as i64,
                    1,
                    ir::pad(*pad as i64, *pad as i64, PadKind::Clamp, a.to_expr()),
                ),
                "w",
                sum_window,
            );
            let at = |i: i64| {
                let idx = (i - *pad as i64).clamp(0, n as i64 - 1) as usize;
                data[idx]
            };
            let expected: Vec<f32> = (0..windows)
                .map(|w| (0..*size).map(|j| at((w + j) as i64)).fold(0.0f32, |a, b| a + b))
                .collect();
            Some((prog, vec![a], expected))
        }
        Stage::PadConstSlideSum { pad, size, c } => {
            let padded = n + 2 * pad;
            if padded < *size {
                return None;
            }
            let windows = padded - size + 1;
            let prog = ir::map_glb(
                ir::slide(
                    *size as i64,
                    1,
                    ir::pad(
                        *pad as i64,
                        *pad as i64,
                        PadKind::Constant(Lit::real(*c as f64)),
                        a.to_expr(),
                    ),
                ),
                "w",
                sum_window,
            );
            let at = |i: i64| {
                let idx = i - *pad as i64;
                if idx < 0 || idx >= n as i64 {
                    *c as f32
                } else {
                    data[idx as usize]
                }
            };
            let expected: Vec<f32> = (0..windows)
                .map(|w| (0..*size).map(|j| at((w + j) as i64)).fold(0.0f32, |a, b| a + b))
                .collect();
            Some((prog, vec![a], expected))
        }
        Stage::SplitSum { chunk } => {
            if !n.is_multiple_of(*chunk) {
                return None;
            }
            let prog = ir::map_glb(ir::split(*chunk, a.to_expr()), "chunkv", sum_window);
            let expected: Vec<f32> =
                data.chunks(*chunk).map(|c| c.iter().fold(0.0f32, |x, y| x + y)).collect();
            Some((prog, vec![a], expected))
        }
        Stage::Reverse => {
            // out[i] = a[N-1-i] via the gather primitive
            let a2 = a.clone();
            let prog = ir::map_glb(ir::iota(n), "i", move |i| {
                ir::at(a2.to_expr(), ir::call(&funs::restlen(), vec![ir::size_val(n), i]))
            });
            let expected: Vec<f32> = data.iter().rev().copied().collect();
            Some((prog, vec![a], expected))
        }
    }
}

type Rc = std::rc::Rc<ParamDef>;

fn run_program(prog: &ExprRef, params: &[Rc], data: &[f32], out_len: usize) -> Vec<f32> {
    let lk = lower_kernel("prop", params, prog, ScalarKind::F32).expect("lowers");
    let mut dev = Device::with_runtime(DeviceProfile::gtx780(), Runtime::sanitizing());
    let prep = dev.compile(&lk.kernel).expect("prepares");
    let input = dev.upload(BufData::from(data.to_vec()));
    let out = dev.create_buffer(ScalarKind::F32, out_len);
    let args: Vec<Arg> = lk
        .args
        .iter()
        .map(|spec| match spec {
            lift::lower::ArgSpec::Input(_, _) => Arg::Buf(input),
            lift::lower::ArgSpec::Size(_) => unreachable!("sizes are concrete"),
            lift::lower::ArgSpec::Output(_, _) => Arg::Buf(out),
        })
        .collect();
    let global: Vec<usize> =
        lk.global_size.iter().map(|g| g.eval(&|_| None).expect("concrete") as usize).collect();
    dev.launch(&prep, &args, &global, ExecMode::Fast).expect("launches");
    match dev.read(out) {
        BufData::F32(v) => v,
        other => panic!("unexpected buffer {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Generated code computes the pattern semantics for every random
    /// layout stage and input.
    #[test]
    fn generated_code_matches_pattern_semantics(
        stage in stage_strategy(),
        data in prop::collection::vec(-8i32..8, 4..24),
    ) {
        let data: Vec<f32> = data.into_iter().map(|v| v as f32).collect();
        let n = data.len();
        if let Some((prog, params, expected)) = apply_stage(&stage, n, &data) {
            let got = run_program(&prog, &params, &data, expected.len());
            prop_assert_eq!(got, expected, "stage {:?}", stage);
        }
    }

    /// The in-place `Concat(Skip, ArrayCons, Skip)` idiom writes exactly
    /// the gathered positions and nothing else.
    #[test]
    fn in_place_scatter_touches_only_targets(
        n in 8usize..40,
        picks in prop::collection::btree_set(0usize..40, 1..8),
    ) {
        let picks: Vec<i32> = picks.into_iter().filter(|&i| i < n).map(|i| i as i32).collect();
        prop_assume!(!picks.is_empty());
        let num_b = picks.len();
        let indices = ParamDef::typed("indices", Type::array(Type::i32(), num_b));
        let data = ParamDef::typed("data", Type::array(Type::real(), n));
        let d2 = data.clone();
        let add = funs::add();
        let prog = ir::map_glb(indices.to_expr(), "idx", move |idx| {
            let upd = ir::call(&add, vec![ir::at(d2.to_expr(), idx.clone()), ir::lit(Lit::real(100.0))]);
            ir::write_to(
                d2.to_expr(),
                ir::concat(vec![
                    ir::skip(idx.clone(), Type::real()),
                    ir::array_cons(upd, 1usize),
                    ir::skip(ir::call(&funs::restlen(), vec![ir::size_val(n), idx]), Type::real()),
                ]),
            )
        });
        let lk = lower_kernel("scatter", &[indices, data], &prog, ScalarKind::F32).unwrap();
        let mut dev = Device::with_runtime(DeviceProfile::gtx780(), Runtime::sanitizing());
        let prep = dev.compile(&lk.kernel).unwrap();
        let idx_buf = dev.upload(BufData::from(picks.clone()));
        let base: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let data_buf = dev.upload(BufData::from(base.clone()));
        let args: Vec<Arg> = lk.args.iter().map(|spec| match spec {
            lift::lower::ArgSpec::Input(_, name) if name == "indices" => Arg::Buf(idx_buf),
            lift::lower::ArgSpec::Input(_, _) => Arg::Buf(data_buf),
            lift::lower::ArgSpec::Size(_) => unreachable!(),
            lift::lower::ArgSpec::Output(_, _) => unreachable!("in-place"),
        }).collect();
        dev.launch(&prep, &args, &[num_b], ExecMode::Fast).unwrap();
        let got = dev.read(data_buf).to_f64_vec();
        for (i, v) in got.iter().enumerate() {
            let expected = if picks.contains(&(i as i32)) { i as f64 + 100.0 } else { i as f64 };
            prop_assert_eq!(*v, expected, "at {}", i);
        }
    }
}
