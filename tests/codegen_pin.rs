//! What the generator prints, pinned across commits.
//!
//! Each row is an FNV-1a over the text a program generates: the OpenCL of
//! its kernel (`opencl::emit_kernel`), its launch arguments, global and
//! local size, or, for a step host program, the C of `emit_host_c` followed
//! by the OpenCL of every kernel it launches. The rows cover every
//! `programs::all_programs()` kernel in its raw (`lower_kernel_raw`) and
//! shipped (`Program::lower`) form, the host program of every
//! `hostprog::all_sets()` kernel set, and the 1-, 2- and 3-D programs of
//! `tests/patterns_2d.rs`, `tests/dsl_end_to_end.rs` and a few more DSL
//! forms, each at f32 and f64.
//!
//! The constants were recorded on commit ecb27ea, before the pattern IR's
//! per-rank `map`/`zip`/`slide`/`pad` variants became one variant each with
//! a `rank` field, and held when the n-D patterns became nests of 1-D ones.
//! A changed constant means the generated code changed: a refactor of the
//! front end must leave every row as it is. Two row pairs moved on purpose:
//! `dsl:interior3d/raw` since `crop` is a strided view, which writes the
//! shifted index `gid + 1` as `1 + gid * 1` before simplification (its
//! shipped form is unchanged), and `fimm_hand_constant_beta/host` since its
//! hand-written kernel is named `fimm_boundary_hand_cbeta`, which its host C
//! and OpenCL print (with the old name substituted back, both texts hash to
//! the old pins). Every `shipped` row but `dsl:scatter` and `dsl:blur1d`,
//! and the generated sets' `host` rows, moved when the simplifier learned
//! load forwarding, loop fusion with scalar replacement, and — under the
//! exterior-zero fact of the generated grid kernels' contract — to drop
//! the store of `0` to exterior cells (the generated host programs then
//! also zero-fill the volume kernel's output); every `raw` and every
//! hand-written `host` row held.

use lift::dsl::parse_kernel;
use lift::funs;
use lift::ir::{self, ExprRef, ParamDef};
use lift::lower::{lower_kernel, lower_kernel_raw, ArgSpec, LoweredKernel};
use lift::prelude::*;
use lift_acoustics::hostprog::all_sets;
use lift_acoustics::programs;
use std::fmt::Write;
use std::rc::Rc;

#[rustfmt::skip]
const PINS: &[(&str, u64)] = &[
    ("volume_handling_lift/raw/f32", 0x2845118f8d484d6f),
    ("volume_handling_lift/shipped/f32", 0xefc9308fb63a5416),
    ("fi_single_lift/raw/f32", 0x5b2175fe696db7bc),
    ("fi_single_lift/shipped/f32", 0xde21090a688f931b),
    ("fimm_boundary_lift/raw/f32", 0x235f86756bc1a4d7),
    ("fimm_boundary_lift/shipped/f32", 0x6f416b7e69d8f171),
    ("fdmm_boundary_lift/raw/f32", 0xb6b0b3145391cbff),
    ("fdmm_boundary_lift/shipped/f32", 0x8484ad8d07474d94),
    ("fi_hand/host/f32", 0x443c9319bc856d63),
    ("fimm_hand/host/f32", 0x8145daa27c9a535b),
    ("fimm_hand_constant_beta/host/f32", 0x88b18cd9cafa477f),
    ("fdmm_hand/host/f32", 0x3cdf4c40624ac427),
    ("fi_lift/host/f32", 0xe7290a1ef705fa72),
    ("fimm_lift/host/f32", 0x9cd9637d2c87c826),
    ("fdmm_lift/host/f32", 0x7d2d380aa5423e6c),
    ("blur2d/raw/f32", 0xdb1b228040e179d7),
    ("blur2d/shipped/f32", 0x2bc2376fc0802496),
    ("diff2d/raw/f32", 0x7e5cbd282595d9c8),
    ("diff2d/shipped/f32", 0x6331a5b3e0aa3fe3),
    ("dsl:edge/raw/f32", 0x8b2dfed04f601100),
    ("dsl:edge/shipped/f32", 0x218ee5fc90ef7e10),
    ("dsl:saxpy/raw/f32", 0xc57ef2f9135f9471),
    ("dsl:saxpy/shipped/f32", 0xfe847bb02124cb3b),
    ("dsl:scatter/raw/f32", 0x85e029033429f66d),
    ("dsl:scatter/shipped/f32", 0x3055b3eb724a0427),
    ("dsl:tiled/raw/f32", 0xd0595974caf80e5f),
    ("dsl:tiled/shipped/f32", 0xb459cf96d4872b17),
    ("dsl:bh/raw/f32", 0x941cacda402392d7),
    ("dsl:bh/shipped/f32", 0xa0a154a04125538d),
    ("dsl:blur1d/raw/f32", 0x2d834e2e1a3dd19f),
    ("dsl:blur1d/shipped/f32", 0x727e685aac7cc006),
    ("dsl:stencil3d/raw/f32", 0x7ceda55a8c15d1ea),
    ("dsl:stencil3d/shipped/f32", 0xef394edb41f523b5),
    ("dsl:interior3d/raw/f32", 0x5d7dad11250a5214),
    ("dsl:interior3d/shipped/f32", 0xebaf4efb59ab7b16),
    ("volume_handling_lift/raw/f64", 0x6aa34468115f78b9),
    ("volume_handling_lift/shipped/f64", 0x677aa7a5afa48ad6),
    ("fi_single_lift/raw/f64", 0x122a97e246d4c719),
    ("fi_single_lift/shipped/f64", 0x48ea9e6cb1ebecb8),
    ("fimm_boundary_lift/raw/f64", 0x119828d27e70020f),
    ("fimm_boundary_lift/shipped/f64", 0xe0b3a4db3e5175ed),
    ("fdmm_boundary_lift/raw/f64", 0x454c3a09a5141d5f),
    ("fdmm_boundary_lift/shipped/f64", 0x717c8791e3665698),
    ("fi_hand/host/f64", 0x07d66c631b19b813),
    ("fimm_hand/host/f64", 0xf945f09bca5e7d0b),
    ("fimm_hand_constant_beta/host/f64", 0x73890a8862480e8d),
    ("fdmm_hand/host/f64", 0x87016835a23e73a3),
    ("fi_lift/host/f64", 0x06a21d21e47ec63a),
    ("fimm_lift/host/f64", 0x82367a3ba75e53cc),
    ("fdmm_lift/host/f64", 0xe120f37f5e00f1ec),
    ("blur2d/raw/f64", 0x5794f6a6bf9e8df4),
    ("blur2d/shipped/f64", 0x03e2d69deded7b4c),
    ("diff2d/raw/f64", 0xe644667322d2682f),
    ("diff2d/shipped/f64", 0x30db1bd6828c424c),
    ("dsl:edge/raw/f64", 0x3f72f9066f7b4cfd),
    ("dsl:edge/shipped/f64", 0xad1f21b82c0b3f00),
    ("dsl:saxpy/raw/f64", 0xca9668db89743ebb),
    ("dsl:saxpy/shipped/f64", 0x701ba35b236c91cf),
    ("dsl:scatter/raw/f64", 0x83431286fa1ce0fb),
    ("dsl:scatter/shipped/f64", 0x56f583f67f95a7b1),
    ("dsl:tiled/raw/f64", 0x4629484d0f6a4686),
    ("dsl:tiled/shipped/f64", 0xa0e2884872d00f01),
    ("dsl:bh/raw/f64", 0x7c83d8ebc14a36ef),
    ("dsl:bh/shipped/f64", 0x82ea8a4d792f2d65),
    ("dsl:blur1d/raw/f64", 0x114cf73b39b013c3),
    ("dsl:blur1d/shipped/f64", 0x5a096b8788023606),
    ("dsl:stencil3d/raw/f64", 0xf97ef646dd7d7fed),
    ("dsl:stencil3d/shipped/f64", 0x6d25602ee432ac91),
    ("dsl:interior3d/raw/f64", 0xfcc548ca9f131f40),
    ("dsl:interior3d/shipped/f64", 0xfb03eb2c9a9aea27),
];

fn fnv(text: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in text.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100000001b3);
    }
    h
}

/// A lowered kernel as text: its OpenCL, then what its launch needs.
fn kernel_text(lk: &LoweredKernel) -> String {
    let mut s = opencl::emit_kernel(&lk.kernel);
    for a in &lk.args {
        match a {
            ArgSpec::Input(_, name) => writeln!(s, "input {name}"),
            ArgSpec::Size(name) => writeln!(s, "size {name}"),
            ArgSpec::Output(name, ty) => writeln!(s, "output {name}: {ty}"),
        }
        .unwrap();
    }
    let global: Vec<String> = lk.global_size.iter().map(|g| g.to_string()).collect();
    writeln!(s, "global [{}]", global.join(", ")).unwrap();
    if let Some(l) = &lk.local_size {
        writeln!(s, "local {l}").unwrap();
    }
    s
}

const REALS: [(ScalarKind, &str); 2] = [(ScalarKind::F32, "f32"), (ScalarKind::F64, "f64")];

/// `tests/patterns_2d.rs`'s 3×3 clamped box blur.
fn box_blur_2d() -> (Vec<Rc<ParamDef>>, ExprRef) {
    let img = ParamDef::typed("img", Type::array2(Type::real(), "Nx", "Ny"));
    let add = funs::add();
    let prog =
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
    (vec![img], prog)
}

/// `tests/patterns_2d.rs`'s two-field difference.
fn diff_2d() -> (Vec<Rc<ParamDef>>, ExprRef) {
    let a = ParamDef::typed("a", Type::array2(Type::real(), "Nx", "Ny"));
    let b = ParamDef::typed("b", Type::array2(Type::real(), "Nx", "Ny"));
    let sub = funs::sub();
    let prog = ir::map2_glb(ir::zip2(vec![a.to_expr(), b.to_expr()]), "t", move |t| {
        ir::call(&sub, vec![ir::get(t.clone(), 0), ir::get(t, 1)])
    });
    (vec![a, b], prog)
}

/// DSL programs: those of `tests/patterns_2d.rs` and
/// `tests/dsl_end_to_end.rs`, plus the 3-D forms.
const DSL: [(&str, &str); 8] = [
    (
        "edge",
        "(kernel edge
           (params (img (array (array real Nx) Ny)))
           (map2-glb (slide2 3 1 (pad2 1 clamp img)) (w)
             (- (* 9.0 (at (at w 1) 1))
                (reduce (acc row)
                        (+ acc (reduce (a2 x) (+ a2 x) 0.0 row))
                        0.0 w))))",
    ),
    (
        "saxpy",
        "(kernel saxpy
           (params (x (array real N)) (y (array real N)))
           (map-glb (zip x y) (t) (+ (* 2.0 (get t 0)) (get t 1))))",
    ),
    (
        "scatter",
        "(kernel scatter
           (params (indices (array int numB)) (data (array real N)))
           (map-glb indices (idx)
             (write-to data
               (concat (skip idx real)
                       (array-cons (* (at data idx) 10.0) 1)
                       (skip (- (- (size-val N) idx) 1) real)))))",
    ),
    (
        "tiled",
        "(kernel tiled
           (params (a (array real 128)))
           (map-wrg (slide 34 32 (pad 1 1 clamp a)) (tile)
             (map-lcl (slide 3 1 (to-local tile)) (w)
               (reduce (acc x) (+ acc x) 0.0 w))))",
    ),
    (
        "bh",
        "(kernel bh
           (params (bidx (array int numB)) (bnbrs (array int numB))
                   (next (array real N)) (prev (array real N)) (l real))
           (map-glb (zip bidx bnbrs) (t)
             (let (idx (get t 0))
               (let (cf (* (* (* 0.5 l) (real (- 6 (get t 1)))) 0.04))
                 (write-to (at next idx)
                   (/ (+ (at next idx) (* cf (at prev idx))) (+ 1.0 cf)))))))",
    ),
    (
        "blur1d",
        "(kernel blur1d
           (params (a (array real N)))
           (map-glb (slide 3 2 (pad 2 1 0.0 a)) (w)
             (reduce (acc x) (+ acc x) 0.0 w)))",
    ),
    (
        "stencil3d",
        "(kernel stencil3d
           (params (c (array3 real Nx Ny Nz)) (p (array3 real Nx Ny Nz)))
           (map3-glb (zip3 p (slide3 3 1 (pad3 1 0.0 c))) (m)
             (- (+ (at (at (at (get m 1) 1) 1) 0) (at (at (at (get m 1) 2) 1) 1))
                (get m 0))))",
    ),
    (
        "interior3d",
        "(kernel interior3d
           (params (g (array3 real Nx Ny Nz)))
           (write-to (crop3 1 g)
             (map3-glb (slide3 3 1 g) (w) (* 0.5 (at (at (at w 1) 1) 1)))))",
    ),
];

/// Every pinned text, named `program/form/precision`.
fn texts() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for (real, r) in REALS {
        for p in programs::all_programs() {
            let raw = lower_kernel_raw(p.name, &p.params, &p.body, real).unwrap();
            out.push((format!("{}/raw/{r}", p.name), kernel_text(&raw)));
            out.push((format!("{}/shipped/{r}", p.name), kernel_text(&p.lower(real).unwrap())));
        }
        for set in all_sets() {
            let prog = set.host_program(real).unwrap();
            let mut s = lift::host::emit_host_c(&prog);
            for k in &prog.kernels {
                s.push_str(&opencl::emit_kernel(&k.kernel));
            }
            out.push((format!("{}/host/{r}", set.name()), s));
        }
        for (name, build) in [("blur2d", box_blur_2d as fn() -> _), ("diff2d", diff_2d)] {
            let (params, body) = build();
            let raw = lower_kernel_raw(name, &params, &body, real).unwrap();
            out.push((format!("{name}/raw/{r}"), kernel_text(&raw)));
            let lk = lower_kernel(name, &params, &body, real).unwrap();
            out.push((format!("{name}/shipped/{r}"), kernel_text(&lk)));
        }
        for (name, src) in DSL {
            let k = parse_kernel(src).unwrap();
            let raw = lower_kernel_raw(&k.name, &k.params, &k.body, real).unwrap();
            out.push((format!("dsl:{name}/raw/{r}"), kernel_text(&raw)));
            out.push((format!("dsl:{name}/shipped/{r}"), kernel_text(&k.lower(real).unwrap())));
        }
    }
    out
}

#[test]
fn generated_code_is_byte_identical_to_the_recorded_pins() {
    let got: Vec<(String, u64)> = texts().into_iter().map(|(n, t)| (n, fnv(&t))).collect();
    let table: String = got.iter().map(|(n, h)| format!("    (\"{n}\", {h:#018x}),\n")).collect();
    let names: Vec<&str> = got.iter().map(|(n, _)| n.as_str()).collect();
    let pinned: Vec<&str> = PINS.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, pinned, "the pinned programs changed; now:\n{table}");
    for ((name, h), (_, want)) in got.iter().zip(PINS) {
        assert_eq!(h, want, "{name} prints different code; now:\n{table}");
    }
}
