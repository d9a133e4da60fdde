//! Hand-written baseline kernels (the paper's tuned OpenCL comparators).
//!
//! These are direct kernel-AST transcriptions of Listings 1–4 — the
//! hand-optimised codes of Webb \[10\] and Hamilton et al. \[11\] that the
//! LIFT-generated kernels are compared against in Figures 4–6. Authoring
//! them in the same AST the code generator targets makes the comparison
//! apples-to-apples on the `vgpu` substrate: both run through the identical
//! interpreter and transaction model, so throughput differences come from
//! the *code*, exactly as on real hardware.
//!
//! All kernels are precision-generic (`Real`); resolve with
//! [`lift::kast::Kernel::resolve_real`] before use.
//!
//! §VII-B1 of the paper notes the hand-tuned FI-MM kernel keeps its β table
//! in private/constant memory ("a hard-coded array of values in private
//! memory") while the LIFT version passes it as a global buffer — the cause
//! of the NVIDIA double-precision gap in Figure 5. [`fimm_kernel`] takes a
//! flag selecting that variant.

use lift::kast::{KExpr, KStmt, Kernel, KernelParam, MemRef};
use lift::prelude::{BinOp, ScalarKind};

fn gid(d: u8) -> KExpr {
    KExpr::GlobalId(d)
}

fn v(name: &str) -> KExpr {
    KExpr::var(name)
}

fn ld(p: usize, idx: KExpr) -> KExpr {
    KExpr::load(MemRef::Param(p), idx)
}

fn to_real(e: KExpr) -> KExpr {
    KExpr::cast(ScalarKind::Real, e)
}

/// Listing 2, kernel 1 — the volume (air) pass over the full grid.
///
/// Parameters: `next, curr, prev, nbrs, l2, Nx, Ny, Nz`.
pub fn volume_kernel() -> Kernel {
    // param indices
    let (next, curr, prev, nbrs) = (0usize, 1usize, 2usize, 3usize);
    let plane = v("Nx") * v("Ny");
    let idx = gid(2) * plane.clone() + gid(1) * v("Nx") + gid(0);
    let body = vec![
        KStmt::return_if(KExpr::bin(BinOp::Ge, gid(0), v("Nx"))),
        KStmt::return_if(KExpr::bin(BinOp::Ge, gid(1), v("Ny"))),
        KStmt::return_if(KExpr::bin(BinOp::Ge, gid(2), v("Nz"))),
        KStmt::DeclScalar { name: "idx".into(), kind: ScalarKind::I32, init: Some(idx) },
        KStmt::DeclScalar {
            name: "nbr".into(),
            kind: ScalarKind::I32,
            init: Some(ld(nbrs, v("idx"))),
        },
        KStmt::If {
            cond: KExpr::bin(BinOp::Gt, v("nbr"), KExpr::int(0)),
            then_: vec![
                KStmt::DeclScalar {
                    name: "s".into(),
                    kind: ScalarKind::Real,
                    init: Some(
                        ld(curr, v("idx") - KExpr::int(1))
                            + ld(curr, v("idx") + KExpr::int(1))
                            + ld(curr, v("idx") - v("Nx"))
                            + ld(curr, v("idx") + v("Nx"))
                            + ld(curr, v("idx") - plane.clone())
                            + ld(curr, v("idx") + plane),
                    ),
                },
                KStmt::Store {
                    mem: MemRef::Param(next),
                    idx: v("idx"),
                    value: (KExpr::real(2.0) - v("l2") * to_real(v("nbr"))) * ld(curr, v("idx"))
                        + v("l2") * v("s")
                        - ld(prev, v("idx")),
                },
            ],
            else_: vec![],
        },
    ];
    Kernel {
        name: "volume_handling_hand".into(),
        params: vec![
            KernelParam::global_buf("next", ScalarKind::Real),
            KernelParam::global_buf("curr", ScalarKind::Real),
            KernelParam::global_buf("prev", ScalarKind::Real),
            KernelParam::global_buf("nbrs", ScalarKind::I32),
            KernelParam::scalar("l2", ScalarKind::Real),
            KernelParam::scalar("Nx", ScalarKind::I32),
            KernelParam::scalar("Ny", ScalarKind::I32),
            KernelParam::scalar("Nz", ScalarKind::I32),
        ],
        body,
        work_dim: 3,
    }
}

/// [`volume_kernel`] placed on a Z-slab for domain sharding (the kernel of
/// [`crate::contracts::slab_placed`]): what the verifier suite and the
/// compile sweep enumerate; simulations derive it from their volume kernel.
pub fn volume_slab_kernel() -> Kernel {
    volume_kernel().shift_gid(2, 1, "_slab")
}

/// Listing 1 — the naive one-kernel FI simulation (stencil + uniform-β
/// boundary, box rooms, `nbr` computed from coordinates).
///
/// Parameters: `next, curr, prev, l, l2, beta, Nx, Ny, Nz`.
pub fn fi_single_kernel() -> Kernel {
    let (next, curr, prev) = (0usize, 1usize, 2usize);
    let plane = v("Nx") * v("Ny");
    let idx = gid(2) * plane.clone() + gid(1) * v("Nx") + gid(0);
    let one_if = |c: KExpr| KExpr::select(c, KExpr::int(0), KExpr::int(1));
    let nbr_init = one_if(KExpr::bin(BinOp::Eq, gid(0), KExpr::int(1)))
        + one_if(KExpr::bin(BinOp::Eq, gid(1), KExpr::int(1)))
        + one_if(KExpr::bin(BinOp::Eq, gid(2), KExpr::int(1)))
        + one_if(KExpr::bin(BinOp::Eq, gid(0), v("Nx") - KExpr::int(2)))
        + one_if(KExpr::bin(BinOp::Eq, gid(1), v("Ny") - KExpr::int(2)))
        + one_if(KExpr::bin(BinOp::Eq, gid(2), v("Nz") - KExpr::int(2)));
    let on_halo = KExpr::bin(
        BinOp::Or,
        KExpr::bin(
            BinOp::Or,
            KExpr::bin(
                BinOp::Or,
                KExpr::bin(BinOp::Eq, gid(0), KExpr::int(0)),
                KExpr::bin(BinOp::Eq, gid(1), KExpr::int(0)),
            ),
            KExpr::bin(
                BinOp::Or,
                KExpr::bin(BinOp::Eq, gid(2), KExpr::int(0)),
                KExpr::bin(BinOp::Eq, gid(0), v("Nx") - KExpr::int(1)),
            ),
        ),
        KExpr::bin(
            BinOp::Or,
            KExpr::bin(BinOp::Eq, gid(1), v("Ny") - KExpr::int(1)),
            KExpr::bin(BinOp::Eq, gid(2), v("Nz") - KExpr::int(1)),
        ),
    );
    let body = vec![
        KStmt::return_if(KExpr::bin(BinOp::Ge, gid(0), v("Nx"))),
        KStmt::return_if(KExpr::bin(BinOp::Ge, gid(1), v("Ny"))),
        KStmt::return_if(KExpr::bin(BinOp::Ge, gid(2), v("Nz"))),
        KStmt::DeclScalar { name: "idx".into(), kind: ScalarKind::I32, init: Some(idx) },
        KStmt::DeclScalar { name: "nbr".into(), kind: ScalarKind::I32, init: Some(nbr_init) },
        KStmt::If {
            cond: on_halo,
            then_: vec![KStmt::Assign { name: "nbr".into(), value: KExpr::int(0) }],
            else_: vec![],
        },
        KStmt::If {
            cond: KExpr::bin(BinOp::Gt, v("nbr"), KExpr::int(0)),
            then_: vec![
                KStmt::DeclScalar {
                    name: "s".into(),
                    kind: ScalarKind::Real,
                    init: Some(
                        ld(curr, v("idx") - KExpr::int(1))
                            + ld(curr, v("idx") + KExpr::int(1))
                            + ld(curr, v("idx") - v("Nx"))
                            + ld(curr, v("idx") + v("Nx"))
                            + ld(curr, v("idx") - plane.clone())
                            + ld(curr, v("idx") + plane),
                    ),
                },
                KStmt::If {
                    cond: KExpr::bin(BinOp::Lt, v("nbr"), KExpr::int(6)),
                    then_: vec![
                        KStmt::DeclScalar {
                            name: "cf".into(),
                            kind: ScalarKind::Real,
                            init: Some(
                                KExpr::real(0.5)
                                    * v("l")
                                    * to_real(KExpr::int(6) - v("nbr"))
                                    * v("beta"),
                            ),
                        },
                        KStmt::Store {
                            mem: MemRef::Param(next),
                            idx: v("idx"),
                            value: ((KExpr::real(2.0) - v("l2") * to_real(v("nbr")))
                                * ld(curr, v("idx"))
                                + v("l2") * v("s")
                                + (v("cf") - KExpr::real(1.0)) * ld(prev, v("idx")))
                                / (KExpr::real(1.0) + v("cf")),
                        },
                    ],
                    else_: vec![KStmt::Store {
                        mem: MemRef::Param(next),
                        idx: v("idx"),
                        value: (KExpr::real(2.0) - v("l2") * to_real(v("nbr")))
                            * ld(curr, v("idx"))
                            + v("l2") * v("s")
                            - ld(prev, v("idx")),
                    }],
                },
            ],
            else_: vec![],
        },
    ];
    Kernel {
        name: "fi_single_hand".into(),
        params: vec![
            KernelParam::global_buf("next", ScalarKind::Real),
            KernelParam::global_buf("curr", ScalarKind::Real),
            KernelParam::global_buf("prev", ScalarKind::Real),
            KernelParam::scalar("l", ScalarKind::Real),
            KernelParam::scalar("l2", ScalarKind::Real),
            KernelParam::scalar("beta", ScalarKind::Real),
            KernelParam::scalar("Nx", ScalarKind::I32),
            KernelParam::scalar("Ny", ScalarKind::I32),
            KernelParam::scalar("Nz", ScalarKind::I32),
        ],
        body,
        work_dim: 3,
    }
}

/// Listing 3 — FI-MM boundary handling.
///
/// Parameters: `boundaryIndices, nbrs, material, beta, next, prev, l, numB`.
/// With `beta_in_constant_memory` the β table lives in `__constant` space
/// (the hand-tuned private-memory trick of §VII-B1), and the kernel is
/// `fimm_boundary_hand_cbeta` — a kernel of its own, so its accounts and
/// verifier rows are too.
pub fn fimm_kernel(beta_in_constant_memory: bool) -> Kernel {
    let (bidx, nbrs, material, beta, next, prev) = (0usize, 1, 2, 3, 4, 5);
    let body = vec![
        KStmt::return_if(KExpr::bin(BinOp::Ge, gid(0), v("numB"))),
        KStmt::DeclScalar {
            name: "idx".into(),
            kind: ScalarKind::I32,
            init: Some(ld(bidx, gid(0))),
        },
        KStmt::DeclScalar {
            name: "nbr".into(),
            kind: ScalarKind::I32,
            init: Some(ld(nbrs, v("idx"))),
        },
        KStmt::DeclScalar {
            name: "mi".into(),
            kind: ScalarKind::I32,
            init: Some(ld(material, gid(0))),
        },
        KStmt::DeclScalar {
            name: "cf".into(),
            kind: ScalarKind::Real,
            init: Some(
                KExpr::real(0.5) * v("l") * to_real(KExpr::int(6) - v("nbr")) * ld(beta, v("mi")),
            ),
        },
        KStmt::Store {
            mem: MemRef::Param(next),
            idx: v("idx"),
            value: (ld(next, v("idx")) + v("cf") * ld(prev, v("idx")))
                / (KExpr::real(1.0) + v("cf")),
        },
    ];
    let (name, beta_param) = if beta_in_constant_memory {
        ("fimm_boundary_hand_cbeta", KernelParam::constant_buf("beta", ScalarKind::Real))
    } else {
        ("fimm_boundary_hand", KernelParam::global_buf("beta", ScalarKind::Real))
    };
    Kernel {
        name: name.into(),
        params: vec![
            KernelParam::global_buf("boundaryIndices", ScalarKind::I32),
            KernelParam::global_buf("nbrs", ScalarKind::I32),
            KernelParam::global_buf("material", ScalarKind::I32),
            beta_param,
            KernelParam::global_buf("next", ScalarKind::Real),
            KernelParam::global_buf("prev", ScalarKind::Real),
            KernelParam::scalar("l", ScalarKind::Real),
            KernelParam::scalar("numB", ScalarKind::I32),
        ],
        body,
        work_dim: 1,
    }
}

/// Listing 4 — FD-MM boundary handling with `MB` ODE branches.
///
/// Parameters: `boundaryIndices, nbrs, material, beta, BI, D, DI, F, next,
/// prev, g1, v1, v2, l, numB, MB`. Coefficient tables are indexed
/// `[mi*MB + b]`; state arrays `[b*numB + i]`.
pub fn fdmm_kernel() -> Kernel {
    let (bidx, nbrs, material, beta, bi, dd, di, ff, next, prev, g1, v1, v2) =
        (0usize, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12);
    let mc = || v("mi") * v("MB") + v("b");
    let ci = || v("b") * v("numB") + gid(0);
    let body = vec![
        KStmt::return_if(KExpr::bin(BinOp::Ge, gid(0), v("numB"))),
        KStmt::DeclPrivArray { name: "_g1".into(), kind: ScalarKind::Real, len: v("MB") },
        KStmt::DeclPrivArray { name: "_v2".into(), kind: ScalarKind::Real, len: v("MB") },
        KStmt::DeclScalar {
            name: "idx".into(),
            kind: ScalarKind::I32,
            init: Some(ld(bidx, gid(0))),
        },
        KStmt::DeclScalar {
            name: "nbr".into(),
            kind: ScalarKind::I32,
            init: Some(ld(nbrs, v("idx"))),
        },
        KStmt::DeclScalar {
            name: "mi".into(),
            kind: ScalarKind::I32,
            init: Some(ld(material, gid(0))),
        },
        KStmt::DeclScalar {
            name: "cf1".into(),
            kind: ScalarKind::Real,
            init: Some(v("l") * to_real(KExpr::int(6) - v("nbr"))),
        },
        KStmt::DeclScalar {
            name: "cf".into(),
            kind: ScalarKind::Real,
            init: Some(KExpr::real(0.5) * v("cf1") * ld(beta, v("mi"))),
        },
        KStmt::DeclScalar {
            name: "_next".into(),
            kind: ScalarKind::Real,
            init: Some(ld(next, v("idx"))),
        },
        KStmt::DeclScalar {
            name: "_prev".into(),
            kind: ScalarKind::Real,
            init: Some(ld(prev, v("idx"))),
        },
        // for each ODE branch: gather state and subtract the branch flux
        KStmt::For {
            var: "b".into(),
            begin: KExpr::int(0),
            end: v("MB"),
            step: KExpr::int(1),
            body: vec![
                KStmt::Store { mem: MemRef::Priv("_g1".into()), idx: v("b"), value: ld(g1, ci()) },
                KStmt::Store { mem: MemRef::Priv("_v2".into()), idx: v("b"), value: ld(v2, ci()) },
                KStmt::Assign {
                    name: "_next".into(),
                    value: v("_next")
                        - v("cf1")
                            * ld(bi, mc())
                            * (KExpr::real(2.0)
                                * ld(dd, mc())
                                * KExpr::load(MemRef::Priv("_v2".into()), v("b"))
                                - ld(ff, mc()) * KExpr::load(MemRef::Priv("_g1".into()), v("b"))),
                },
            ],
        },
        KStmt::Assign {
            name: "_next".into(),
            value: (v("_next") + v("cf") * v("_prev")) / (KExpr::real(1.0) + v("cf")),
        },
        KStmt::Store { mem: MemRef::Param(next), idx: v("idx"), value: v("_next") },
        // for each ODE branch: update the boundary state
        KStmt::For {
            var: "b".into(),
            begin: KExpr::int(0),
            end: v("MB"),
            step: KExpr::int(1),
            body: vec![
                KStmt::DeclScalar {
                    name: "_v1".into(),
                    kind: ScalarKind::Real,
                    init: Some(
                        ld(bi, mc())
                            * (v("_next") - v("_prev")
                                + ld(di, mc()) * KExpr::load(MemRef::Priv("_v2".into()), v("b"))
                                - KExpr::real(2.0)
                                    * ld(ff, mc())
                                    * KExpr::load(MemRef::Priv("_g1".into()), v("b"))),
                    ),
                },
                KStmt::Store {
                    mem: MemRef::Param(g1),
                    idx: ci(),
                    value: KExpr::load(MemRef::Priv("_g1".into()), v("b"))
                        + KExpr::real(0.5)
                            * (v("_v1") + KExpr::load(MemRef::Priv("_v2".into()), v("b"))),
                },
                KStmt::Store { mem: MemRef::Param(v1), idx: ci(), value: v("_v1") },
            ],
        },
    ];
    Kernel {
        name: "fdmm_boundary_hand".into(),
        params: vec![
            KernelParam::global_buf("boundaryIndices", ScalarKind::I32),
            KernelParam::global_buf("nbrs", ScalarKind::I32),
            KernelParam::global_buf("material", ScalarKind::I32),
            KernelParam::global_buf("beta", ScalarKind::Real),
            KernelParam::global_buf("BI", ScalarKind::Real),
            KernelParam::global_buf("D", ScalarKind::Real),
            KernelParam::global_buf("DI", ScalarKind::Real),
            KernelParam::global_buf("F", ScalarKind::Real),
            KernelParam::global_buf("next", ScalarKind::Real),
            KernelParam::global_buf("prev", ScalarKind::Real),
            KernelParam::global_buf("g1", ScalarKind::Real),
            KernelParam::global_buf("v1", ScalarKind::Real),
            KernelParam::global_buf("v2", ScalarKind::Real),
            KernelParam::scalar("l", ScalarKind::Real),
            KernelParam::scalar("numB", ScalarKind::I32),
            KernelParam::scalar("MB", ScalarKind::I32),
        ],
        body,
        work_dim: 1,
    }
}

/// Every hand-written reference kernel of the repro suite (both β-placement
/// variants of FI-MM), precision-generic — the enumeration the `lift_verify`
/// driver audits.
pub fn all_kernels() -> Vec<Kernel> {
    vec![
        volume_kernel(),
        volume_slab_kernel(),
        fi_single_kernel(),
        fimm_kernel(false),
        fimm_kernel(true),
        fdmm_kernel(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use lift::opencl;

    #[test]
    fn kernels_prepare_for_execution() {
        for k in [volume_kernel(), fi_single_kernel(), fimm_kernel(false), fdmm_kernel()] {
            let r = k.resolve_real(ScalarKind::F32);
            vgpu::exec::prepare(&r).unwrap();
            let r64 = k.resolve_real(ScalarKind::F64);
            vgpu::exec::prepare(&r64).unwrap();
        }
    }

    #[test]
    fn emitted_source_matches_listing_structure() {
        let src = opencl::emit_kernel(&fimm_kernel(false).resolve_real(ScalarKind::F64));
        assert!(src.contains("int idx = boundaryIndices[get_global_id(0)];"), "{src}");
        assert!(
            src.contains("next[idx] = ((next[idx] + (cf * prev[idx])) / (1.0 + cf));"),
            "{src}"
        );
    }

    #[test]
    fn every_kernel_has_a_name_of_its_own() {
        let names: Vec<String> = all_kernels().into_iter().map(|k| k.name).collect();
        for (i, name) in names.iter().enumerate() {
            assert!(!names[..i].contains(name), "two hand-written kernels are named `{name}`");
        }
    }

    #[test]
    fn constant_beta_variant_uses_constant_space() {
        let src = opencl::emit_kernel(&fimm_kernel(true).resolve_real(ScalarKind::F32));
        assert!(src.contains("__constant float* beta"), "{src}");
    }

    #[test]
    fn fdmm_has_two_branch_loops_and_private_state() {
        let src = opencl::emit_kernel(&fdmm_kernel().resolve_real(ScalarKind::F64));
        assert_eq!(src.matches("for (int b = 0; b < MB;").count(), 2, "{src}");
        assert!(src.contains("double _g1[MB];"), "{src}");
    }
}
