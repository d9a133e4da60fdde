//! The room-acoustics kernels expressed in LIFT (§V, Listings 6–8).
//!
//! Each function builds the pattern-IR program for one kernel. Scalar
//! formulas live in `UserFun`s whose bodies reproduce the operation order of
//! the hand-written C listings exactly, so LIFT-generated kernels agree with
//! the golden reference bit-for-bit at either precision.
//!
//! Size-variable conventions: 3-D kernels use `Nx`/`Ny`/`Nz` (grid with
//! halo); boundary kernels view the grids as flat arrays of length `N` and
//! use `numB` boundary points, `MB` branches and `MBM = num_materials·MB`
//! coefficient entries.

use lift::funs;
use lift::ir::{self, ExprRef, ParamDef};
use lift::prelude::*;
use std::rc::Rc;

fn p0(i: usize) -> SExpr {
    SExpr::p(i)
}

fn real(v: f64) -> SExpr {
    SExpr::real(v)
}

fn to_real(e: SExpr) -> SExpr {
    SExpr::cast(ScalarKind::Real, e)
}

/// `volUpdate(prev, curr, s, nbr, l2) =
///    nbr > 0 ? (2 − l2·nbr)·curr + l2·s − prev : 0`
/// — Listing 2 kernel 1's element formula (association matches the C).
pub fn vol_update_fun() -> Rc<UserFun> {
    let (prev, curr, s, nbr, l2) = (0, 1, 2, 3, 4);
    let nbr_f = to_real(p0(nbr));
    let interior = (real(2.0) - p0(l2) * nbr_f) * p0(curr) + p0(l2) * p0(s) - p0(prev);
    UserFun::new(
        "volUpdate",
        vec![
            ("prev", ScalarKind::Real),
            ("curr", ScalarKind::Real),
            ("s", ScalarKind::Real),
            ("nbr", ScalarKind::I32),
            ("l2", ScalarKind::Real),
        ],
        ScalarKind::Real,
        SExpr::select(SExpr::cmp(BinOp::Gt, p0(nbr), SExpr::int(0)), interior, real(0.0)),
    )
}

/// Listing 1's full element formula for the naive one-kernel FI simulation:
/// interior update, with the wall loss folded in at points with `nbr < 6`.
pub fn fi_full_update_fun() -> Rc<UserFun> {
    let (prev, curr, s, nbr, l, l2, beta) = (0, 1, 2, 3, 4, 5, 6);
    let nbr_f = to_real(p0(nbr));
    let interior = (real(2.0) - p0(l2) * nbr_f.clone()) * p0(curr) + p0(l2) * p0(s) - p0(prev);
    let cf = real(0.5) * p0(l) * to_real(SExpr::int(6) - p0(nbr)) * p0(beta);
    let at_wall = ((real(2.0) - p0(l2) * nbr_f) * p0(curr)
        + p0(l2) * p0(s)
        + (cf.clone() - real(1.0)) * p0(prev))
        / (real(1.0) + cf);
    UserFun::new(
        "fiUpdate",
        vec![
            ("prev", ScalarKind::Real),
            ("curr", ScalarKind::Real),
            ("s", ScalarKind::Real),
            ("nbr", ScalarKind::I32),
            ("l", ScalarKind::Real),
            ("l2", ScalarKind::Real),
            ("beta", ScalarKind::Real),
        ],
        ScalarKind::Real,
        SExpr::select(
            SExpr::cmp(BinOp::Gt, p0(nbr), SExpr::int(0)),
            SExpr::select(SExpr::cmp(BinOp::Lt, p0(nbr), SExpr::int(6)), at_wall, interior),
            real(0.0),
        ),
    )
}

/// `cf(l, nbr, beta) = ((0.5·l)·(6−nbr))·beta` — the boundary loss
/// coefficient, associated as in Listing 3.
pub fn cf_fun() -> Rc<UserFun> {
    UserFun::new(
        "cfFun",
        vec![("l", ScalarKind::Real), ("nbr", ScalarKind::I32), ("beta", ScalarKind::Real)],
        ScalarKind::Real,
        real(0.5) * p0(0) * to_real(SExpr::int(6) - p0(1)) * p0(2),
    )
}

/// `boundaryHandle(next, prev, cf) = (next + cf·prev)/(1 + cf)` —
/// Listing 3's in-place update.
pub fn boundary_handle_fun() -> Rc<UserFun> {
    UserFun::new(
        "boundaryHandle",
        vec![("next", ScalarKind::Real), ("prev", ScalarKind::Real), ("cf", ScalarKind::Real)],
        ScalarKind::Real,
        (p0(0) + p0(2) * p0(1)) / (real(1.0) + p0(2)),
    )
}

/// The six-neighbour sum over a 3×3×3 window view, in the C listings'
/// order: −x, +x, −y, +y, −z, +z (left-associated).
fn window_sum(w: &ExprRef) -> ExprRef {
    let rd = |dz: i32, dy: i32, dx: i32| {
        ir::at(
            ir::at(ir::at(w.clone(), ir::lit(Lit::i32(dz))), ir::lit(Lit::i32(dy))),
            ir::lit(Lit::i32(dx)),
        )
    };
    let add = funs::add();
    let mut acc = rd(1, 1, 0);
    for term in [rd(1, 1, 2), rd(1, 0, 1), rd(1, 2, 1), rd(0, 1, 1), rd(2, 1, 1)] {
        acc = ir::call(&add, vec![acc, term]);
    }
    acc
}

/// A built LIFT kernel program: inputs + body, ready for
/// [`Program::lower`] or [`lift::host::KernelDef`].
pub struct Program {
    /// Kernel name.
    pub name: &'static str,
    /// Kernel inputs in order.
    pub params: Vec<Rc<ParamDef>>,
    /// Kernel body.
    pub body: ExprRef,
}

impl Program {
    /// Lowers at the given precision, simplified under the kernel's
    /// [`launch_assumptions`]: what every consumer runs, prints and proves.
    pub fn lower(&self, real: ScalarKind) -> Result<LoweredKernel, lift::lower::LowerError> {
        let lowered =
            lift::lower::lower_kernel_under(self.name, &self.params, &self.body, real, &contract);
        lowered.map(|(lowered, _)| lowered)
    }

    /// This program as an `OclKernel` operand of a host expression.
    pub fn def(self) -> Rc<lift::host::KernelDef> {
        lift::host::KernelDef::new(self.name, self.params, self.body)
    }
}

/// Derives the contract a generated kernel is launched under from its
/// lowering: the launch global size, one `≥ 1` bound per size argument,
/// buffer lengths from the source program's parameter types (inputs) and
/// the lowered output type, and the facts the hand-written contracts share
/// layered on top ([`room_acoustics::contracts::boundary_table_facts`],
/// [`room_acoustics::contracts::interior_mask_facts`],
/// [`room_acoustics::contracts::exterior_zero_facts`] on the output, and
/// distinct buffers).
///
/// The verify suite audits every generated kernel under exactly this
/// contract, and a step program ([`crate::hostprog`]) lowers, launches and
/// slab-places it under the same one — one definition, every consumer.
pub fn launch_assumptions(p: &Program, lowered: &LoweredKernel) -> lift::verify::Assumptions {
    contract(&p.params, lowered)
}

/// [`launch_assumptions`] of the program with inputs `params`.
pub(crate) fn contract(
    params: &[Rc<ParamDef>],
    lowered: &LoweredKernel,
) -> lift::verify::Assumptions {
    use lift::lower::ArgSpec;
    use lift::verify::{Assumptions, BufferFacts};
    let mut asm = Assumptions {
        global_size: lowered.global_size.iter().cloned().map(Some).collect(),
        // `Simulation` binds every buffer role to a buffer of its own.
        distinct_buffers: true,
        ..Assumptions::default()
    };
    let mut outputs = Vec::new();
    for (param, spec) in lowered.kernel.params.iter().zip(&lowered.args) {
        match spec {
            ArgSpec::Size(n) => asm.size_bounds.push((n.clone(), 1)),
            ArgSpec::Input(pid, _) if param.is_buffer => {
                let ty = params.iter().find(|d| d.id == *pid).and_then(|d| d.ty.clone());
                if let Some(ty) = ty {
                    asm.buffers.insert(param.name.clone(), BufferFacts::sized(ty.scalar_count()));
                }
            }
            ArgSpec::Output(_, ty) => {
                asm.buffers.insert(param.name.clone(), BufferFacts::sized(ty.scalar_count()));
                outputs.push(param.name.as_str());
            }
            _ => {}
        }
    }
    room_acoustics::contracts::boundary_table_facts(&mut asm);
    room_acoustics::contracts::interior_mask_facts(&mut asm);
    for out in outputs {
        room_acoustics::contracts::exterior_zero_facts(&mut asm, out);
    }
    asm
}

/// `map3(m → f(prev, centre, Σ neighbours, nbr, scalars…), zip3(prev,
/// slide3(pad3(curr)), nbrs))` over inputs `curr, prev, nbrs : [[[ ]]]` and
/// the real `scalars`: the shape of Listing 2's kernel 1 and of Listing 6.
fn stencil_program(name: &'static str, scalars: &[&str], f: Rc<UserFun>) -> Program {
    let grid3 = |elem| Type::array3(elem, "Nx", "Ny", "Nz");
    let curr = ParamDef::typed("curr", grid3(Type::real()));
    let prev = ParamDef::typed("prev", grid3(Type::real()));
    let nbrs = ParamDef::typed("nbrs", grid3(Type::i32()));
    let scalars: Vec<_> = scalars.iter().map(|&n| ParamDef::typed(n, Type::real())).collect();
    let values: Vec<ExprRef> = scalars.iter().map(|p| p.to_expr()).collect();
    let body = ir::map3_glb(
        ir::zip3(vec![
            prev.to_expr(),
            ir::slide3(3, 1, ir::pad3(1, PadKind::Constant(Lit::real(0.0)), curr.to_expr())),
            nbrs.to_expr(),
        ]),
        "m",
        move |m| {
            let s = window_sum(&ir::get(m.clone(), 1));
            let one = || ir::lit(Lit::i32(1));
            let center = ir::at(ir::at(ir::at(ir::get(m.clone(), 1), one()), one()), one());
            let args = [ir::get(m.clone(), 0), center, s, ir::get(m, 2)].into_iter().chain(values);
            ir::call(&f, args.collect())
        },
    );
    Program { name, params: [curr, prev, nbrs].into_iter().chain(scalars).collect(), body }
}

/// Listing 2 kernel 1 in LIFT: the volume pass, `f = volUpdate`, its
/// output allocated by the system (the host binds it to the `next` grid).
/// Scalar input: `l2`.
pub fn volume_program() -> Program {
    stencil_program("volume_handling_lift", &["l2"], vol_update_fun())
}

/// Listing 6 in LIFT: the naive one-kernel FI simulation (stencil +
/// uniform-β boundary in one kernel). Scalar inputs: `l, l2, beta`.
pub fn fi_single_program() -> Program {
    stencil_program("fi_single_lift", &["l", "l2", "beta"], fi_full_update_fun())
}

/// Listing 7 in LIFT: FI-MM boundary handling with the
/// `Concat(Skip, ArrayCons, Skip)` in-place idiom.
///
/// Inputs: `boundaryIndices, bnbrs, material : [numB]`, `beta : [NM]`,
/// `next, prev : [N]` (flat grids), `l : Real`.
pub fn fimm_program() -> Program {
    let list = |name| ParamDef::typed(name, Type::array(Type::i32(), "numB"));
    let table = |name, len| ParamDef::typed(name, Type::array(Type::real(), len));
    let (bidx, bnbrs, material) = (list("boundaryIndices"), list("bnbrs"), list("material"));
    let (beta, next, prev) = (table("beta", "NM"), table("next", "N"), table("prev", "N"));
    let l = ParamDef::typed("l", Type::real());
    let (cf_f, bh_f, id_f) = (cf_fun(), boundary_handle_fun(), funs::id_real());
    let (le, restlen) = (l.to_expr(), funs::restlen());
    let input = ir::zip(vec![bidx.to_expr(), bnbrs.to_expr(), material.to_expr()]);
    let body = ir::map_glb(input, "tup", |tup| {
        let lets = ["idx", "nbr", "m"].map(ParamDef::untyped);
        let [idx, nbr, m] = lets.each_ref().map(|p| p.to_expr());
        let cf = ir::call(&cf_f, vec![le, nbr, ir::at(beta.to_expr(), m)]);
        let (next_val, prev_val) =
            (ir::at(next.to_expr(), idx.clone()), ir::at(prev.to_expr(), idx.clone()));
        let update = ir::call(&bh_f, vec![next_val, prev_val, cf]);
        let written =
            ir::map_seq(ir::array_cons(update, 1usize), "x", |x| ir::call(&id_f, vec![x]));
        let rest = ir::call(&restlen, vec![ir::size_val("N"), idx.clone()]);
        let parts = vec![ir::skip(idx, Type::real()), written, ir::skip(rest, Type::real())];
        let out = ir::write_to(next.to_expr(), ir::concat(parts));
        let values = [ir::get(tup.clone(), 0), ir::get(tup.clone(), 1), ir::get(tup, 2)];
        lets.iter().zip(values).rev().fold(out, |body, (p, value)| let_in(p, value, body))
    });
    Program {
        name: "fimm_boundary_lift",
        params: vec![bidx, bnbrs, material, beta, next, prev, l],
        body,
    }
}

/// `cf1(l, nbr) = l·(6−nbr)`.
pub fn cf1_fun() -> Rc<UserFun> {
    UserFun::new(
        "cf1Fun",
        vec![("l", ScalarKind::Real), ("nbr", ScalarKind::I32)],
        ScalarKind::Real,
        p0(0) * to_real(SExpr::int(6) - p0(1)),
    )
}

/// `cfOf(cf1, beta) = (0.5·cf1)·beta`.
pub fn cf_of_cf1_fun() -> Rc<UserFun> {
    UserFun::new(
        "cfOfCf1",
        vec![("cf1", ScalarKind::Real), ("beta", ScalarKind::Real)],
        ScalarKind::Real,
        real(0.5) * p0(0) * p0(1),
    )
}

/// `branchCorrect(acc, cf1, bi, d, g, v) = acc − (cf1·bi)·((2·d)·v − f·g)`
/// — one term of Listing 4's first branch loop. (Parameter 5 is `f`.)
pub fn branch_correct_fun() -> Rc<UserFun> {
    let (acc, cf1, bi, d, g, v, f) = (0, 1, 2, 3, 4, 5, 6);
    UserFun::new(
        "branchCorrect",
        vec![
            ("acc", ScalarKind::Real),
            ("cf1", ScalarKind::Real),
            ("bi", ScalarKind::Real),
            ("d", ScalarKind::Real),
            ("g", ScalarKind::Real),
            ("v", ScalarKind::Real),
            ("f", ScalarKind::Real),
        ],
        ScalarKind::Real,
        p0(acc) - p0(cf1) * p0(bi) * (real(2.0) * p0(d) * p0(v) - p0(f) * p0(g)),
    )
}

/// `v1New(bi, next, prev, di, v, f, g) = bi·(next − prev + di·v − (2·f)·g)`
/// — Listing 4's second branch loop (velocity update).
pub fn v1_new_fun() -> Rc<UserFun> {
    let (bi, next, prev, di, v, f, g) = (0, 1, 2, 3, 4, 5, 6);
    UserFun::new(
        "v1New",
        vec![
            ("bi", ScalarKind::Real),
            ("next", ScalarKind::Real),
            ("prev", ScalarKind::Real),
            ("di", ScalarKind::Real),
            ("v", ScalarKind::Real),
            ("f", ScalarKind::Real),
            ("g", ScalarKind::Real),
        ],
        ScalarKind::Real,
        p0(bi) * (p0(next) - p0(prev) + p0(di) * p0(v) - real(2.0) * p0(f) * p0(g)),
    )
}

/// `g1New(v1, g, v2) = g + 0.5·(v1 + v2)` — the boundary-state trapezoid.
pub fn g1_new_fun() -> Rc<UserFun> {
    UserFun::new(
        "g1New",
        vec![("v1", ScalarKind::Real), ("g", ScalarKind::Real), ("v2", ScalarKind::Real)],
        ScalarKind::Real,
        p0(1) + real(0.5) * (p0(0) + p0(2)),
    )
}

/// Listing 8 in LIFT: FD-MM boundary handling — three in-place outputs
/// (`next`, `g1`, `v1`) via a tuple of `WriteTo`s, with the per-branch state
/// gathered through strided `Slice` views into private memory.
///
/// Inputs: `boundaryIndices, bnbrs, material : [numB]`; `beta : [NM]`;
/// `BI, D, DI, F : [MBM]`; `next, prev : [N]`; `g1, v1, v2 : [S]`
/// (`S = MB·numB`); `l : Real`.
pub fn fdmm_program() -> Program {
    let list = |name| ParamDef::typed(name, Type::array(Type::i32(), "numB"));
    let table = |name, len| ParamDef::typed(name, Type::array(Type::real(), len));
    let (bidx, bnbrs, material) = (list("boundaryIndices"), list("bnbrs"), list("material"));
    let beta = table("beta", "NM");
    let [bi_p, d_p, di_p, f_p] = ["BI", "D", "DI", "F"].map(|n| table(n, "MBM"));
    let (next, prev) = (table("next", "N"), table("prev", "N"));
    let [g1_p, v1_p, v2_p] = ["g1", "v1", "v2"].map(|n| table(n, "S"));
    let l = ParamDef::typed("l", Type::real());
    let (cf1_f, cf_f, bc_f, v1_f) =
        (cf1_fun(), cf_of_cf1_fun(), branch_correct_fun(), v1_new_fun());
    let (g1_f, bh_f, id_f, madi) =
        (g1_new_fun(), boundary_handle_fun(), funs::id_real(), funs::mad_i32());
    let le = l.to_expr();
    let input =
        ir::zip(vec![ir::iota("numB"), bidx.to_expr(), bnbrs.to_expr(), material.to_expr()]);
    let body = ir::map_glb(input, "tup", |tup| {
        let names = ["i", "idx", "nbr", "mi", "_next0", "_prev", "gs", "vs", "cf1", "cf"];
        let lets = names.map(ParamDef::untyped);
        let [i, idx, nbr, mi, n0, pv, gs, vs, cf1, cf] = lets.each_ref().map(|p| p.to_expr());
        // Point `i`'s state per branch, and branch `b`'s coefficient index.
        let state = |p: &Rc<ParamDef>| ir::slice(p.to_expr(), i.clone(), "numB", "MB");
        let mc = |b| ir::call(&madi, vec![mi.clone(), ir::size_val("MB"), b]);
        let at_mc = |p: &Rc<ParamDef>, mc: &ExprRef| ir::at(p.to_expr(), mc.clone());
        let values = [
            ir::get(tup.clone(), 0),
            ir::get(tup.clone(), 1),
            ir::get(tup.clone(), 2),
            ir::get(tup, 3),
            ir::at(next.to_expr(), idx.clone()),
            ir::at(prev.to_expr(), idx.clone()),
            ir::to_private(state(&g1_p)),
            ir::to_private(state(&v2_p)),
            ir::call(&cf1_f, vec![le, nbr]),
            ir::call(&cf_f, vec![cf1.clone(), ir::at(beta.to_expr(), mi.clone())]),
        ];
        // first branch loop: correct `_next`
        let branches = ir::zip(vec![ir::iota("MB"), gs.clone(), vs.clone()]);
        let corrected = ir::reduce_seq(n0, branches, |acc, t| {
            ir::let_in("mc", mc(ir::get(t.clone(), 0)), |m| {
                let (g, v) = (ir::get(t.clone(), 1), ir::get(t, 2));
                let args = vec![acc, cf1, at_mc(&bi_p, &m), at_mc(&d_p, &m), g, v, at_mc(&f_p, &m)];
                ir::call(&bc_f, args)
            })
        });
        let new_next = ir::call(&bh_f, vec![corrected, pv.clone(), cf]);
        // second branch loop: new velocities
        let nn_p = ParamDef::untyped("_next");
        let nn = nn_p.to_expr();
        let branches = ir::zip(vec![ir::iota("MB"), gs.clone(), vs.clone()]);
        let vs_new_src = ir::map_seq(branches, "t2", |t2| {
            ir::let_in("mc2", mc(ir::get(t2.clone(), 0)), |m| {
                let (g, v) = (ir::get(t2.clone(), 1), ir::get(t2, 2));
                let (bi, di, f) = (at_mc(&bi_p, &m), at_mc(&di_p, &m), at_mc(&f_p, &m));
                ir::call(&v1_f, vec![bi, nn.clone(), pv, di, v, f, g])
            })
        });
        let vs_new_p = ParamDef::untyped("vsNew");
        let vs_new = vs_new_p.to_expr();
        let g1_out = ir::map_seq(ir::zip(vec![vs_new.clone(), gs, vs]), "t3", |t3| {
            ir::call(&g1_f, vec![ir::get(t3.clone(), 0), ir::get(t3.clone(), 1), ir::get(t3, 2)])
        });
        let v1_out = ir::map_seq(vs_new, "x", |x| ir::call(&id_f, vec![x]));
        let outputs = ir::tuple(vec![
            ir::write_to(ir::at(next.to_expr(), idx), nn),
            ir::write_to(state(&g1_p), g1_out),
            ir::write_to(state(&v1_p), v1_out),
        ]);
        let body = let_in(&nn_p, new_next, let_in(&vs_new_p, ir::to_private(vs_new_src), outputs));
        lets.iter().zip(values).rev().fold(body, |body, (p, value)| let_in(p, value, body))
    });
    Program {
        name: "fdmm_boundary_lift",
        params: vec![
            bidx, bnbrs, material, beta, bi_p, d_p, di_p, f_p, next, prev, g1_p, v1_p, v2_p, l,
        ],
        body,
    }
}

/// `let p = value in body` over a binder made beforehand.
fn let_in(p: &Rc<ParamDef>, value: ExprRef, body: ExprRef) -> ExprRef {
    ir::Expr::new(ir::ExprKind::Let { param: p.clone(), value, body })
}

/// Every generated LIFT program of the repro suite — the enumeration the
/// `lift_verify` driver lowers and audits.
pub fn all_programs() -> Vec<Program> {
    vec![volume_program(), fi_single_program(), fimm_program(), fdmm_program()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_programs_type_check() {
        for p in [volume_program(), fi_single_program(), fimm_program(), fdmm_program()] {
            lift::typecheck::check(&p.body).unwrap_or_else(|e| panic!("{}: {e}", p.name));
        }
    }

    #[test]
    fn all_programs_lower_at_both_precisions() {
        for p in [volume_program(), fi_single_program(), fimm_program(), fdmm_program()] {
            for real in [ScalarKind::F32, ScalarKind::F64] {
                p.lower(real).unwrap_or_else(|e| panic!("{} @ {real:?}: {e}", p.name));
            }
        }
    }

    #[test]
    fn volume_program_allocates_output() {
        let lk = volume_program().lower(ScalarKind::F32).unwrap();
        assert!(lk.args.iter().any(|a| matches!(a, lift::lower::ArgSpec::Output(_, _))));
        assert_eq!(lk.kernel.work_dim, 3);
    }

    #[test]
    fn fimm_program_is_in_place() {
        let lk = fimm_program().lower(ScalarKind::F64).unwrap();
        assert!(lk.args.iter().all(|a| !matches!(a, lift::lower::ArgSpec::Output(_, _))));
        assert_eq!(lk.kernel.work_dim, 1);
    }

    #[test]
    fn fdmm_program_has_three_store_targets() {
        let lk = fdmm_program().lower(ScalarKind::F64).unwrap();
        let src = lift::opencl::emit_kernel(&lk.kernel);
        // stores into next, g1 and v1
        assert!(src.contains("next["), "{src}");
        assert!(src.contains("g1["), "{src}");
        assert!(src.contains("v1["), "{src}");
    }

    #[test]
    fn emitted_fimm_contains_single_offset_store() {
        use lift::kast::{KStmt, MemRef};
        fn stores(block: &[KStmt], buf: usize) -> usize {
            block
                .iter()
                .map(|s| match s {
                    KStmt::Store { mem: MemRef::Param(p), .. } => usize::from(*p == buf),
                    KStmt::For { body, .. } => stores(body, buf),
                    KStmt::If { then_, else_, .. } => stores(then_, buf) + stores(else_, buf),
                    _ => 0,
                })
                .sum()
        }
        let lk = fimm_program().lower(ScalarKind::F32).unwrap();
        let next = lk.kernel.param_index("next").unwrap();
        // exactly one store into the in-place buffer
        let src = lift::opencl::emit_kernel(&lk.kernel);
        assert_eq!(stores(&lk.kernel.body, next), 1, "{src}");
    }
}
