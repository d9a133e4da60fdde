//! Deliberately broken fixture kernels.
//!
//! These never ship in a simulation; the `lift_verify` driver runs them
//! to prove the verifier still *finds* defects — a static-analysis
//! equivalent of a failing-test canary. One kernel carries a definite
//! cross-item write-race, the other an off-the-end store; each is clean
//! with respect to the other analysis so the flagged defect is exactly
//! the seeded one.

use crate::SuiteEntry;
use lift::arith::ArithExpr;
use lift::host::{HostCmd, HostKernel, HostProgram, LaunchArg};
use lift::prelude::*;
use lift::scalar::BinOp;
use lift::verify::{Assumptions, BufferFacts};

/// Every work-item stores to `out[3]`: in-bounds under the launch
/// contract (`N ≥ 4`), but a definite write-race on element 3 as soon as
/// two work-items run.
pub fn racy_kernel() -> Kernel {
    Kernel {
        name: "fixture_racy".into(),
        params: vec![
            KernelParam::global_buf("out", ScalarKind::Real),
            KernelParam::scalar("N", ScalarKind::I32),
        ],
        body: vec![
            KStmt::return_if(KExpr::bin(BinOp::Ge, KExpr::GlobalId(0), KExpr::var("N"))),
            KStmt::Store { mem: MemRef::Param(0), idx: KExpr::int(3), value: KExpr::real(1.0) },
        ],
        work_dim: 1,
    }
}

/// The contract [`racy_kernel`] is audited (and dynamically launched)
/// under: `out` has `N ≥ 4` elements, so the defect is purely the race.
pub fn racy_assumptions() -> Assumptions {
    let mut asm = Assumptions { global_size: vec![None], ..Assumptions::default() };
    asm.size_bounds.push(("N".into(), 4));
    asm.buffers.insert("out".into(), BufferFacts::sized(ArithExpr::var("N")));
    asm
}

/// Each work-item stores to `out[gid0 + 1]` with `out` allocated at `N`
/// elements and `gid0` ranging to `N − 1`: the map is injective (no
/// race) but the last work-item writes one element past the end.
pub fn oob_kernel() -> Kernel {
    Kernel {
        name: "fixture_oob".into(),
        params: vec![
            KernelParam::global_buf("out", ScalarKind::Real),
            KernelParam::scalar("N", ScalarKind::I32),
        ],
        body: vec![
            KStmt::return_if(KExpr::bin(BinOp::Ge, KExpr::GlobalId(0), KExpr::var("N"))),
            KStmt::Store {
                mem: MemRef::Param(0),
                idx: KExpr::GlobalId(0) + KExpr::int(1),
                value: KExpr::real(1.0),
            },
        ],
        work_dim: 1,
    }
}

/// The contract [`oob_kernel`] is audited under.
pub fn oob_assumptions() -> Assumptions {
    let mut asm = Assumptions { global_size: vec![None], ..Assumptions::default() };
    asm.size_bounds.push(("N".into(), 1));
    asm.buffers.insert("out".into(), BufferFacts::sized(ArithExpr::var("N")));
    asm
}

/// A slab-placed 5-point z stencil (`curr[idx ± 2·Nx·Ny]`) whose shard
/// placement (`gid_offsets = [0, 0, 1]`, i.e. one halo plane per side)
/// cannot cover its proven two-plane reach. Bounds and races are clean —
/// the seeded defect is exactly the halo shortfall the footprint pass
/// must flag.
pub fn stale_halo_kernel() -> Kernel {
    let plane = KExpr::var("Nx") * KExpr::var("Ny");
    // The slab-placed z coordinate, as `Kernel::shift_gid(2, 1)` writes it.
    let z = KExpr::GlobalId(2) + KExpr::int(1);
    let idx =
        z.clone() * plane.clone() + KExpr::GlobalId(1) * KExpr::var("Nx") + KExpr::GlobalId(0);
    let at = |off: KExpr| KExpr::load(MemRef::Param(1), off);
    Kernel {
        name: "fixture_stale_halo".into(),
        params: vec![
            KernelParam::global_buf("next", ScalarKind::Real),
            KernelParam::global_buf("curr", ScalarKind::Real),
            KernelParam::scalar("Nx", ScalarKind::I32),
            KernelParam::scalar("Ny", ScalarKind::I32),
            KernelParam::scalar("Nz", ScalarKind::I32),
        ],
        body: vec![
            KStmt::return_if(KExpr::bin(BinOp::Ge, KExpr::GlobalId(0), KExpr::var("Nx"))),
            KStmt::return_if(KExpr::bin(BinOp::Ge, KExpr::GlobalId(1), KExpr::var("Ny"))),
            KStmt::return_if(KExpr::bin(BinOp::Lt, z.clone(), KExpr::int(2))),
            KStmt::return_if(KExpr::bin(BinOp::Gt, z, KExpr::var("Nz") - KExpr::int(3))),
            KStmt::Store {
                mem: MemRef::Param(0),
                idx: idx.clone(),
                value: at(idx.clone() - (plane.clone() + plane.clone()))
                    + at(idx + (plane.clone() + plane)),
            },
        ],
        work_dim: 3,
    }
}

/// The slab contract [`stale_halo_kernel`] is audited under: local grid
/// of `Nz` planes, one-plane halo placement.
pub fn stale_halo_assumptions() -> Assumptions {
    let n3 = ArithExpr::var("Nx") * ArithExpr::var("Ny") * ArithExpr::var("Nz");
    let mut asm = Assumptions { global_size: vec![None; 3], ..Assumptions::default() };
    for d in ["Nx", "Ny", "Nz"] {
        asm.size_bounds.push((d.into(), 1));
    }
    asm.buffers.insert("next".into(), BufferFacts::sized(n3.clone()));
    asm.buffers.insert("curr".into(), BufferFacts::sized(n3));
    // Grid geometry for the footprint pass (strides 1, Nx, Nx·Ny) and the
    // slab placement the halo gate compares the proven reach against.
    asm.interior_dims = vec![ArithExpr::var("Nx"), ArithExpr::var("Ny"), ArithExpr::var("Nz")];
    asm.gid_offsets = vec![0, 0, 1];
    asm
}

/// Copies `src` into `out` — clean in isolation; the defect lives in
/// [`uninit_host_program`], which launches it without ever initializing
/// `src`.
pub fn uninit_read_kernel() -> Kernel {
    Kernel {
        name: "fixture_uninit_read".into(),
        params: vec![
            KernelParam::global_buf("out", ScalarKind::Real),
            KernelParam::global_buf("src", ScalarKind::Real),
            KernelParam::scalar("N", ScalarKind::I32),
        ],
        body: vec![
            KStmt::return_if(KExpr::bin(BinOp::Ge, KExpr::GlobalId(0), KExpr::var("N"))),
            KStmt::Store {
                mem: MemRef::Param(0),
                idx: KExpr::GlobalId(0),
                value: KExpr::load(MemRef::Param(1), KExpr::GlobalId(0)),
            },
        ],
        work_dim: 1,
    }
}

/// A host program that allocates `src` and launches
/// [`uninit_read_kernel`] without any initializing upload: the
/// read-before-write pass (`lift::footprint::check_host_init`) must flag
/// the launch's read of `src`.
pub fn uninit_host_program() -> HostProgram {
    let ty = Type::array(Type::real(), "N");
    let kernel = uninit_read_kernel().resolve_real(ScalarKind::F32);
    HostProgram {
        kernels: vec![HostKernel { kernel, contract: Assumptions::default() }],
        cmds: vec![
            HostCmd::Alloc { dev: "src".into(), ty: ty.clone(), zeroed: false },
            HostCmd::Alloc { dev: "out".into(), ty: ty.clone(), zeroed: false },
            HostCmd::Launch {
                kernel: 0,
                args: vec![
                    LaunchArg::Buf("out".into()),
                    LaunchArg::Buf("src".into()),
                    LaunchArg::SizeVar("N".into()),
                ],
                global_size: vec![ArithExpr::var("N")],
            },
            HostCmd::CopyOut { dev: "out".into(), host: "result".into(), ty },
        ],
        result: "result".into(),
    }
}

/// All fixtures as suite entries (F32-resolved, marked `fixture`).
pub fn entries() -> Vec<SuiteEntry> {
    [
        (racy_kernel(), racy_assumptions()),
        (oob_kernel(), oob_assumptions()),
        (stale_halo_kernel(), stale_halo_assumptions()),
    ]
    .into_iter()
    .map(|(k, assumptions)| SuiteEntry {
        kernel: k.resolve_real(ScalarKind::F32),
        precision: ScalarKind::F32,
        assumptions,
        fixture: true,
    })
    .collect()
}
