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
/// [`lift::lower::lower_kernel`] or [`lift::host::KernelDef`].
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
        let mut lowered = lift::lower::lower_kernel_raw(self.name, &self.params, &self.body, real)?;
        let contract = launch_assumptions(self, &lowered);
        lowered.kernel = lift::simplify::simplify_kernel(&lowered.kernel, &contract);
        Ok(lowered)
    }
}

/// Derives the contract a generated kernel is launched under from its
/// lowering: the launch global size, one `≥ 1` bound per size argument,
/// buffer lengths from the source program's parameter types (inputs) and
/// the lowered output type, and the facts the hand-written contracts share
/// layered on top ([`room_acoustics::contracts::boundary_table_facts`],
/// [`room_acoustics::contracts::interior_mask_facts`]).
///
/// The verify suite audits every generated kernel under exactly this
/// contract, and [`crate::runner::step_kernel`] launches (and slab-places)
/// it under the same one — one definition, both consumers.
pub fn launch_assumptions(p: &Program, lowered: &LoweredKernel) -> lift::verify::Assumptions {
    use lift::lower::ArgSpec;
    use lift::verify::{Assumptions, BufferFacts};
    let mut asm = Assumptions {
        global_size: lowered.global_size.iter().cloned().map(Some).collect(),
        ..Assumptions::default()
    };
    for (param, spec) in lowered.kernel.params.iter().zip(&lowered.args) {
        match spec {
            ArgSpec::Size(n) => asm.size_bounds.push((n.clone(), 1)),
            ArgSpec::Input(pid, _) if param.is_buffer => {
                let ty = p.params.iter().find(|d| d.id == *pid).and_then(|d| d.ty.clone());
                if let Some(ty) = ty {
                    asm.buffers.insert(param.name.clone(), BufferFacts::sized(ty.scalar_count()));
                }
            }
            ArgSpec::Output(_, ty) => {
                asm.buffers.insert(param.name.clone(), BufferFacts::sized(ty.scalar_count()));
            }
            _ => {}
        }
    }
    room_acoustics::contracts::boundary_table_facts(&mut asm);
    room_acoustics::contracts::interior_mask_facts(&mut asm);
    asm
}

/// Listing 2 kernel 1 in LIFT: the volume pass.
///
/// `map3(m → volUpdate(m), zip3(prev, slide3(pad3(curr)), nbrs))`, output
/// allocated by the system (the host binds it to the `next` grid).
/// Inputs: `curr, prev, nbrs : [[[ ]]]`, `l2 : Real`.
pub fn volume_program() -> Program {
    let grid3 = Type::array3(Type::real(), "Nx", "Ny", "Nz");
    let nbrs3 = Type::array3(Type::i32(), "Nx", "Ny", "Nz");
    let curr = ParamDef::typed("curr", grid3.clone());
    let prev = ParamDef::typed("prev", grid3);
    let nbrs = ParamDef::typed("nbrs", nbrs3);
    let l2 = ParamDef::typed("l2", Type::real());
    let f = vol_update_fun();
    let l2e = l2.to_expr();
    let body = ir::map3_glb(
        ir::zip3(vec![
            prev.to_expr(),
            ir::slide3(3, 1, ir::pad3(1, PadKind::Constant(Lit::real(0.0)), curr.to_expr())),
            nbrs.to_expr(),
        ]),
        "m",
        move |m| {
            let w = ir::get(m.clone(), 1);
            let s = window_sum(&w);
            let center = ir::at(
                ir::at(ir::at(ir::get(m.clone(), 1), ir::lit(Lit::i32(1))), ir::lit(Lit::i32(1))),
                ir::lit(Lit::i32(1)),
            );
            ir::call(&f, vec![ir::get(m.clone(), 0), center, s, ir::get(m, 2), l2e])
        },
    );
    Program { name: "volume_handling_lift", params: vec![curr, prev, nbrs, l2], body }
}

/// Listing 6 in LIFT: the naive one-kernel FI simulation (stencil +
/// uniform-β boundary in one kernel). Inputs: `curr, prev, nbrs` (3-D),
/// `l, l2, beta` scalars.
pub fn fi_single_program() -> Program {
    let grid3 = Type::array3(Type::real(), "Nx", "Ny", "Nz");
    let nbrs3 = Type::array3(Type::i32(), "Nx", "Ny", "Nz");
    let curr = ParamDef::typed("curr", grid3.clone());
    let prev = ParamDef::typed("prev", grid3);
    let nbrs = ParamDef::typed("nbrs", nbrs3);
    let l = ParamDef::typed("l", Type::real());
    let l2 = ParamDef::typed("l2", Type::real());
    let beta = ParamDef::typed("beta", Type::real());
    let f = fi_full_update_fun();
    let (le, l2e, be) = (l.to_expr(), l2.to_expr(), beta.to_expr());
    let body = ir::map3_glb(
        ir::zip3(vec![
            prev.to_expr(),
            ir::slide3(3, 1, ir::pad3(1, PadKind::Constant(Lit::real(0.0)), curr.to_expr())),
            nbrs.to_expr(),
        ]),
        "m",
        move |m| {
            let w = ir::get(m.clone(), 1);
            let s = window_sum(&w);
            let center = ir::at(
                ir::at(ir::at(ir::get(m.clone(), 1), ir::lit(Lit::i32(1))), ir::lit(Lit::i32(1))),
                ir::lit(Lit::i32(1)),
            );
            ir::call(&f, vec![ir::get(m.clone(), 0), center, s, ir::get(m, 2), le, l2e, be])
        },
    );
    Program { name: "fi_single_lift", params: vec![curr, prev, nbrs, l, l2, beta], body }
}

/// Listing 7 in LIFT: FI-MM boundary handling with the
/// `Concat(Skip, ArrayCons, Skip)` in-place idiom.
///
/// Inputs: `boundaryIndices, bnbrs, material : [numB]`, `beta : [NM]`,
/// `next, prev : [N]` (flat grids), `l : Real`.
pub fn fimm_program() -> Program {
    let bidx = ParamDef::typed("boundaryIndices", Type::array(Type::i32(), "numB"));
    let bnbrs = ParamDef::typed("bnbrs", Type::array(Type::i32(), "numB"));
    let material = ParamDef::typed("material", Type::array(Type::i32(), "numB"));
    let beta = ParamDef::typed("beta", Type::array(Type::real(), "NM"));
    let next = ParamDef::typed("next", Type::array(Type::real(), "N"));
    let prev = ParamDef::typed("prev", Type::array(Type::real(), "N"));
    let l = ParamDef::typed("l", Type::real());
    let (cf_f, bh_f, id_f) = (cf_fun(), boundary_handle_fun(), funs::id_real());
    let (betae, nexte, preve, le) = (beta.clone(), next.clone(), prev.clone(), l.to_expr());
    let restlen = funs::restlen();
    let body = ir::map_glb(
        ir::zip(vec![bidx.to_expr(), bnbrs.to_expr(), material.to_expr()]),
        "tup",
        move |tup| {
            ir::let_in("idx", ir::get(tup.clone(), 0), |idx| {
                ir::let_in("nbr", ir::get(tup.clone(), 1), |nbr| {
                    ir::let_in("m", ir::get(tup, 2), |m| {
                        let beta_val = ir::at(betae.to_expr(), m);
                        let next_val = ir::at(nexte.to_expr(), idx.clone());
                        let prev_val = ir::at(preve.to_expr(), idx.clone());
                        let cf = ir::call(&cf_f, vec![le, nbr, beta_val]);
                        let update = ir::call(&bh_f, vec![next_val, prev_val, cf]);
                        ir::write_to(
                            nexte.to_expr(),
                            ir::concat(vec![
                                ir::skip(idx.clone(), Type::real()),
                                ir::map_seq(ir::array_cons(update, 1usize), "x", |x| {
                                    ir::call(&id_f, vec![x])
                                }),
                                ir::skip(
                                    ir::call(&restlen, vec![ir::size_val("N"), idx]),
                                    Type::real(),
                                ),
                            ]),
                        )
                    })
                })
            })
        },
    );
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
    let bidx = ParamDef::typed("boundaryIndices", Type::array(Type::i32(), "numB"));
    let bnbrs = ParamDef::typed("bnbrs", Type::array(Type::i32(), "numB"));
    let material = ParamDef::typed("material", Type::array(Type::i32(), "numB"));
    let beta = ParamDef::typed("beta", Type::array(Type::real(), "NM"));
    let bi_p = ParamDef::typed("BI", Type::array(Type::real(), "MBM"));
    let d_p = ParamDef::typed("D", Type::array(Type::real(), "MBM"));
    let di_p = ParamDef::typed("DI", Type::array(Type::real(), "MBM"));
    let f_p = ParamDef::typed("F", Type::array(Type::real(), "MBM"));
    let next = ParamDef::typed("next", Type::array(Type::real(), "N"));
    let prev = ParamDef::typed("prev", Type::array(Type::real(), "N"));
    let g1_p = ParamDef::typed("g1", Type::array(Type::real(), "S"));
    let v1_p = ParamDef::typed("v1", Type::array(Type::real(), "S"));
    let v2_p = ParamDef::typed("v2", Type::array(Type::real(), "S"));
    let l = ParamDef::typed("l", Type::real());

    let cf1_f = cf1_fun();
    let cf_f = cf_of_cf1_fun();
    let bc_f = branch_correct_fun();
    let v1_f = v1_new_fun();
    let g1_f = g1_new_fun();
    let bh_f = boundary_handle_fun();
    let id_f = funs::id_real();
    let madi = funs::mad_i32();

    let caps = (
        beta.clone(),
        bi_p.clone(),
        d_p.clone(),
        di_p.clone(),
        f_p.clone(),
        next.clone(),
        prev.clone(),
        g1_p.clone(),
        v1_p.clone(),
        v2_p.clone(),
        l.to_expr(),
    );
    let body = ir::map_glb(
        ir::zip(vec![ir::iota("numB"), bidx.to_expr(), bnbrs.to_expr(), material.to_expr()]),
        "tup",
        move |tup| {
            let (beta, bi_p, d_p, di_p, f_p, next, prev, g1_p, v1_p, v2_p, le) = caps;
            // coefficient index mc = mi*MB + b
            let mc = {
                let madi = madi.clone();
                move |mi: ExprRef, b: ExprRef| ir::call(&madi, vec![mi, ir::size_val("MB"), b])
            };
            ir::let_in("i", ir::get(tup.clone(), 0), move |i| {
                ir::let_in("idx", ir::get(tup.clone(), 1), move |idx| {
                    ir::let_in("nbr", ir::get(tup.clone(), 2), move |nbr| {
                        ir::let_in("mi", ir::get(tup, 3), move |mi| {
                            let next_val = ir::at(next.to_expr(), idx.clone());
                            let prev_val = ir::at(prev.to_expr(), idx.clone());
                            ir::let_in("_next0", next_val, move |n0| {
                                ir::let_in("_prev", prev_val, move |pv| {
                                    let gs_src = ir::slice(g1_p.to_expr(), i.clone(), "numB", "MB");
                                    let vs_src = ir::slice(v2_p.to_expr(), i.clone(), "numB", "MB");
                                    ir::let_in("gs", ir::to_private(gs_src), move |gs| {
                                        ir::let_in("vs", ir::to_private(vs_src), move |vs| {
                                            let cf1 =
                                                ir::call(&cf1_f, vec![le.clone(), nbr.clone()]);
                                            ir::let_in("cf1", cf1, move |cf1| {
                                                let cf = ir::call(
                                                    &cf_f,
                                                    vec![
                                                        cf1.clone(),
                                                        ir::at(beta.to_expr(), mi.clone()),
                                                    ],
                                                );
                                                ir::let_in("cf", cf, move |cf| {
                                                    // first branch loop: correct _next
                                                    let corrected = ir::reduce_seq(
                                                        n0,
                                                        ir::zip(vec![
                                                            ir::iota("MB"),
                                                            gs.clone(),
                                                            vs.clone(),
                                                        ]),
                                                        {
                                                            let (bc_f, bi_p, d_p, f_p, mi, cf1, mc) = (
                                                                bc_f.clone(),
                                                                bi_p.clone(),
                                                                d_p.clone(),
                                                                f_p.clone(),
                                                                mi.clone(),
                                                                cf1.clone(),
                                                                mc.clone(),
                                                            );
                                                            move |acc, t| {
                                                                let b = ir::get(t.clone(), 0);
                                                                let g = ir::get(t.clone(), 1);
                                                                let v = ir::get(t, 2);
                                                                let mce = mc(mi, b);
                                                                ir::let_in("mc", mce, move |mce| {
                                                                    ir::call(
                                                                        &bc_f,
                                                                        vec![
                                                                            acc,
                                                                            cf1,
                                                                            ir::at(
                                                                                bi_p.to_expr(),
                                                                                mce.clone(),
                                                                            ),
                                                                            ir::at(
                                                                                d_p.to_expr(),
                                                                                mce.clone(),
                                                                            ),
                                                                            g,
                                                                            v,
                                                                            ir::at(
                                                                                f_p.to_expr(),
                                                                                mce,
                                                                            ),
                                                                        ],
                                                                    )
                                                                })
                                                            }
                                                        },
                                                    );
                                                    let new_next = ir::call(
                                                        &bh_f,
                                                        vec![corrected, pv.clone(), cf],
                                                    );
                                                    ir::let_in("_next", new_next, move |nn| {
                                                        // second branch loop: new velocities
                                                        let vs_new_src = ir::map_seq(
                                                            ir::zip(vec![
                                                                ir::iota("MB"),
                                                                gs.clone(),
                                                                vs.clone(),
                                                            ]),
                                                            "t2",
                                                            {
                                                                let (
                                                                    v1_f,
                                                                    bi_p,
                                                                    di_p,
                                                                    f_p,
                                                                    mi,
                                                                    nn,
                                                                    pv,
                                                                    mc,
                                                                ) = (
                                                                    v1_f.clone(),
                                                                    bi_p.clone(),
                                                                    di_p.clone(),
                                                                    f_p.clone(),
                                                                    mi.clone(),
                                                                    nn.clone(),
                                                                    pv.clone(),
                                                                    mc.clone(),
                                                                );
                                                                move |t2| {
                                                                    let b = ir::get(t2.clone(), 0);
                                                                    let g = ir::get(t2.clone(), 1);
                                                                    let v = ir::get(t2, 2);
                                                                    let mce = mc(mi, b);
                                                                    ir::let_in(
                                                                        "mc2",
                                                                        mce,
                                                                        move |mce| {
                                                                            ir::call(
                                                                            &v1_f,
                                                                            vec![
                                                                                ir::at(bi_p.to_expr(), mce.clone()),
                                                                                nn,
                                                                                pv,
                                                                                ir::at(di_p.to_expr(), mce.clone()),
                                                                                v,
                                                                                ir::at(f_p.to_expr(), mce),
                                                                                g,
                                                                            ],
                                                                        )
                                                                        },
                                                                    )
                                                                }
                                                            },
                                                        );
                                                        ir::let_in(
                                                            "vsNew",
                                                            ir::to_private(vs_new_src),
                                                            move |vs_new| {
                                                                let g1_out = ir::map_seq(
                                                                    ir::zip(vec![
                                                                        vs_new.clone(),
                                                                        gs,
                                                                        vs,
                                                                    ]),
                                                                    "t3",
                                                                    {
                                                                        let g1_f = g1_f.clone();
                                                                        move |t3| {
                                                                            ir::call(
                                                                                &g1_f,
                                                                                vec![
                                                                                    ir::get(
                                                                                        t3.clone(),
                                                                                        0,
                                                                                    ),
                                                                                    ir::get(
                                                                                        t3.clone(),
                                                                                        1,
                                                                                    ),
                                                                                    ir::get(t3, 2),
                                                                                ],
                                                                            )
                                                                        }
                                                                    },
                                                                );
                                                                let v1_out =
                                                                    ir::map_seq(vs_new, "x", {
                                                                        let id_f = id_f.clone();
                                                                        move |x| {
                                                                            ir::call(&id_f, vec![x])
                                                                        }
                                                                    });
                                                                ir::tuple(vec![
                                                                    ir::write_to(
                                                                        ir::at(next.to_expr(), idx),
                                                                        nn,
                                                                    ),
                                                                    ir::write_to(
                                                                        ir::slice(
                                                                            g1_p.to_expr(),
                                                                            i.clone(),
                                                                            "numB",
                                                                            "MB",
                                                                        ),
                                                                        g1_out,
                                                                    ),
                                                                    ir::write_to(
                                                                        ir::slice(
                                                                            v1_p.to_expr(),
                                                                            i,
                                                                            "numB",
                                                                            "MB",
                                                                        ),
                                                                        v1_out,
                                                                    ),
                                                                ])
                                                            },
                                                        )
                                                    })
                                                })
                                            })
                                        })
                                    })
                                })
                            })
                        })
                    })
                })
            })
        },
    );
    Program {
        name: "fdmm_boundary_lift",
        params: vec![
            bidx, bnbrs, material, beta, bi_p, d_p, di_p, f_p, next, prev, g1_p, v1_p, v2_p, l,
        ],
        body,
    }
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
        let lk = fimm_program().lower(ScalarKind::F32).unwrap();
        let src = lift::opencl::emit_kernel(&lk.kernel);
        // exactly one store into the in-place buffer
        assert_eq!(src.matches("next[").count() - src.matches("= next[").count(), 1, "{src}");
    }
}
