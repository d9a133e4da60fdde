//! Golden tests for Table I: each new primitive's "Generated code" column.
//!
//! The paper's Table I gives, for every added primitive, a LIFT example and
//! the code the extended generator must produce. These tests build each
//! example through the public API and check the emitted OpenCL/host C has
//! the table's structure.

use lift::funs;
use lift::host::{self, KernelDef};
use lift::ir::{self, ParamDef};
use lift::prelude::*;

fn emit(name: &str, params: Vec<std::rc::Rc<ParamDef>>, body: ExprRef) -> String {
    let lk = lower_kernel(name, &params, &body, ScalarKind::F32).expect("lowers");
    opencl::emit_kernel(&lk.kernel)
}

/// Table I row `WriteTo`: `WriteTo(in, Map(add2, in))` →
/// `for (...) in[i] = add2(in[i]);`
#[test]
fn writeto_row() {
    let a = ParamDef::typed("in", Type::array(Type::real(), "N"));
    let a2 = a.clone();
    let add2 = UserFun::new(
        "add2",
        vec![("x", ScalarKind::Real)],
        ScalarKind::Real,
        SExpr::p(0) + SExpr::real(2.0),
    );
    let body =
        ir::write_to(a2.to_expr(), ir::map_glb(a2.to_expr(), "x", |x| ir::call(&add2, vec![x])));
    let src = emit("wt", vec![a], body);
    // in-place: a single buffer parameter, stores back into `in`
    assert!(src.contains("__global float* in"), "{src}");
    assert!(!src.contains("* out"), "{src}");
    // the load is forwarded into the store back in place: the table's
    // `in[i] = add2(in[i])`
    assert!(src.contains("in[get_global_id(0)] = (in[get_global_id(0)] + 2.0f);"), "{src}");
}

/// Table I row `Concat`: `Concat(Map(add2, A), Map(mul3, B))` → two loops
/// writing `out[i0]` and `out[i1 + N1]`.
#[test]
fn concat_row() {
    let a = ParamDef::typed("A", Type::array(Type::real(), "N1"));
    let b = ParamDef::typed("B", Type::array(Type::real(), "N2"));
    let (a2, b2) = (a.clone(), b.clone());
    let add2 = UserFun::new(
        "add2",
        vec![("x", ScalarKind::Real)],
        ScalarKind::Real,
        SExpr::p(0) + SExpr::real(2.0),
    );
    let mul3 = UserFun::new(
        "mul3",
        vec![("x", ScalarKind::Real)],
        ScalarKind::Real,
        SExpr::p(0) * SExpr::real(3.0),
    );
    // Wrap in a trivial outer map so the kernel has its canonical top-level
    // parallel map; the concat is materialised sequentially per Table I.
    let body = ir::map_glb(ir::iota(1usize), "t", move |_| {
        ir::write_to(
            ir::slice(out_param().to_expr(), ir::lit(Lit::i32(0)), 1usize, "N1 + N2 aliased"),
            ir::lit(Lit::real(0.0)),
        )
    });
    let _ = body; // the canonical form below is clearer:
                  // Sequential maps inside one work-item write both halves.
    let out = ParamDef::typed(
        "out",
        Type::array(Type::real(), ArithExpr::var("N1") + ArithExpr::var("N2")),
    );
    let o2 = out.clone();
    let body = ir::map_glb(ir::iota(1usize), "t", move |_| {
        ir::write_to(
            o2.to_expr(),
            ir::concat(vec![
                ir::map_seq(a2.to_expr(), "x", |x| ir::call(&add2, vec![x])),
                ir::map_seq(b2.to_expr(), "y", |y| ir::call(&mul3, vec![y])),
            ]),
        )
    });
    let src = emit("cc", vec![a, b, out], body);
    // two loops; second loop's store offset by N1
    assert_eq!(src.matches("for (").count(), 2, "{src}");
    assert!(src.contains("out["), "{src}");
    assert!(src.contains("out[(N1 + "), "{src}");
    assert!(src.contains("* 3.0f"), "{src}");
}

fn out_param() -> std::rc::Rc<ParamDef> {
    ParamDef::typed("out_alias", Type::array(Type::real(), "NA"))
}

/// Table I row `ArrayCons`: `Map(id, ArrayCons(6, 3))` →
/// `for (int i = 0; i < 3; i++) out[i] = 6;`
#[test]
fn arraycons_row() {
    let out = ParamDef::typed("out", Type::array(Type::real(), 3usize));
    let o2 = out.clone();
    let id = funs::id_real();
    let body = ir::map_glb(ir::iota(1usize), "t", move |_| {
        ir::write_to(
            o2.to_expr(),
            ir::map_seq(ir::array_cons(ir::lit(Lit::real(6.0)), 3usize), "x", |x| {
                ir::call(&id, vec![x])
            }),
        )
    });
    let src = emit("ac", vec![out], body);
    assert!(src.contains("for (int"), "{src}");
    assert!(src.contains("< 3"), "{src}");
    assert!(src.contains("] = 6.0f") || src.contains("= 6.0f"), "{src}");
}

/// Table I row `Skip`: `Concat(Skip<int>(n), Array(1,2,3))` → writes at
/// `out[n]`, `out[n + 1]`, `out[n + 2]` and no code for the skip.
#[test]
fn skip_row() {
    let out = ParamDef::typed("out", Type::array(Type::real(), "M"));
    let nv = ParamDef::typed("n", Type::i32());
    let (o2, n2) = (out.clone(), nv.clone());
    let body = ir::map_glb(ir::iota(1usize), "t", move |_| {
        ir::write_to(
            o2.to_expr(),
            ir::concat(vec![
                ir::skip(n2.to_expr(), Type::real()),
                ir::array_cons(ir::lit(Lit::real(1.0)), 1usize),
                ir::array_cons(ir::lit(Lit::real(2.0)), 1usize),
                ir::array_cons(ir::lit(Lit::real(3.0)), 1usize),
            ]),
        )
    });
    let lk = lower_kernel("sk", &[out, nv], &body, ScalarKind::F32).expect("lowers");
    let src = opencl::emit_kernel(&lk.kernel);
    assert!(src.contains("out[n]") || src.contains("out[(n"), "{src}");
    // The inner concat-of-array-cons needs a private staging array or three
    // direct stores; in all cases exactly three values reach `out`.
    assert!(src.contains("1.0f") && src.contains("2.0f") && src.contains("3.0f"), "{src}");
}

/// Table I host rows: `OclKernel` → `clSetKernelArg` +
/// `clEnqueueNDRangeKernel`; `ToGPU` → `clEnqueueWriteBuffer`; `ToHost` →
/// `clEnqueueReadBuffer`.
#[test]
fn host_rows() {
    let a = ParamDef::typed("a", Type::array(Type::real(), "N"));
    let kbody = ir::map_glb(a.to_expr(), "x", |x| x);
    let k = KernelDef::new("kern", vec![a], kbody);
    let input = ParamDef::typed("in_h", Type::array(Type::real(), "N"));
    let prog = host::to_host(host::ocl_kernel(&k, vec![host::to_gpu(host::input(&input))]));
    let hp = host::compile_host(&prog, ScalarKind::F32).expect("compiles");
    let src = host::emit_host_c(&hp);
    assert!(src.contains("clEnqueueWriteBuffer(queue, d_in_h"), "{src}");
    assert!(src.contains("clSetKernelArg(kern, 0, sizeof(cl_mem)"), "{src}");
    assert!(src.contains("clEnqueueNDRangeKernel(queue, kern, 1"), "{src}");
    assert!(src.contains("clEnqueueReadBuffer"), "{src}");
}

/// The canonical §IV-B listing: the generated in-place loop writes a single
/// element per iteration at the runtime offset, with no code for either
/// `Skip`.
#[test]
fn section4b_canonical_listing() {
    let indices = ParamDef::typed("indices", Type::array(Type::i32(), "numI"));
    let input = ParamDef::typed("input", Type::array(Type::real(), "N"));
    let i2 = input.clone();
    let f = UserFun::new(
        "f",
        vec![("x", ScalarKind::Real)],
        ScalarKind::Real,
        SExpr::p(0) * SExpr::real(2.0),
    );
    let body = ir::map_glb(indices.to_expr(), "idx", move |idx| {
        ir::write_to(
            i2.to_expr(),
            ir::concat(vec![
                ir::skip(idx.clone(), Type::real()),
                ir::array_cons(ir::call(&f, vec![ir::at(i2.to_expr(), idx.clone())]), 1usize),
                ir::skip(ir::call(&funs::restlen(), vec![ir::size_val("N"), idx]), Type::real()),
            ]),
        )
    });
    let src = emit("canon", vec![indices, input], body);
    // one read of input at the gathered index, one write back
    assert!(src.contains("input[indices[get_global_id(0)]]") || src.contains("input[idx"), "{src}");
    let stores = src.lines().filter(|l| l.trim_start().starts_with("input[")).count();
    assert_eq!(stores, 1, "exactly one in-place store:\n{src}");
}
