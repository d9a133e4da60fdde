//! Ablation studies for the design choices DESIGN.md calls out (§II of the
//! paper motivates them qualitatively; here they are measured):
//!
//! 1. **two-kernel split vs fused one-kernel** (§II-C) — the FI simulation
//!    as Listing 1 (stencil + boundary fused, branchy) vs Listing 2
//!    (volume kernel + gathered boundary kernel);
//! 2. **gather-list vs full-grid boundary scan** — boundary handling over
//!    `boundaryIndices` vs a full-grid kernel that tests `0 < nbr < 6`
//!    everywhere;
//! 3. **FD-MM branch count** — traffic per update as `MB` sweeps 1–5;
//! 4. **sanitizer overhead** — interpreter wall time with the shadow
//!    sanitizer (uninit and stale-halo reads, write races) on/off.
//!
//! `REPRO_QUICK=1` shrinks the rooms.

use bench::table;
use lift::arith::ArithExpr;
use lift::host::{self, HostProgram, KernelDef};
use lift::kast::{KExpr, KStmt, Kernel, KernelParam, MemRef};
use lift::lower::LowerError;
use lift::prelude::{BinOp, ScalarKind};
use room_acoustics::{
    step_input, BoundaryKernel, BoundaryModel, GridDims, HandwrittenSim, KernelSource, Material,
    MaterialAssignment, Precision, RoomShape, SimConfig, SimSetup, Simulation,
};
use serde::Serialize;
use vgpu::{Device, DeviceProfile, ExecMode, ModelInput, Runtime};

fn modeled_ms(txn: u64, flops: u64, double: bool) -> f64 {
    vgpu::modeled_time_s(
        &ModelInput { transaction_bytes: txn, flops, double_precision: double, halo_bytes: 0 },
        &DeviceProfile::gtx780(),
    ) * 1e3
}

/// Full-grid boundary kernel: visits every grid point and updates only
/// `0 < nbr < 6` (the alternative §II-C argues against).
fn fullscan_boundary_kernel() -> Kernel {
    let (nbrs, next, prev) = (0usize, 1, 2);
    let v = |n: &str| KExpr::var(n);
    let plane = v("Nx") * v("Ny");
    let idx = KExpr::GlobalId(2) * plane + KExpr::GlobalId(1) * v("Nx") + KExpr::GlobalId(0);
    Kernel {
        name: "boundary_fullscan".into(),
        params: vec![
            KernelParam::global_buf("nbrs", ScalarKind::I32),
            KernelParam::global_buf("next", ScalarKind::Real),
            KernelParam::global_buf("prev", ScalarKind::Real),
            KernelParam::scalar("l", ScalarKind::Real),
            KernelParam::scalar("beta", ScalarKind::Real),
            KernelParam::scalar("Nx", ScalarKind::I32),
            KernelParam::scalar("Ny", ScalarKind::I32),
            KernelParam::scalar("Nz", ScalarKind::I32),
        ],
        body: vec![
            KStmt::return_if(KExpr::bin(BinOp::Ge, KExpr::GlobalId(0), v("Nx"))),
            KStmt::return_if(KExpr::bin(BinOp::Ge, KExpr::GlobalId(1), v("Ny"))),
            KStmt::return_if(KExpr::bin(BinOp::Ge, KExpr::GlobalId(2), v("Nz"))),
            KStmt::DeclScalar { name: "idx".into(), kind: ScalarKind::I32, init: Some(idx) },
            KStmt::DeclScalar {
                name: "nbr".into(),
                kind: ScalarKind::I32,
                init: Some(KExpr::load(MemRef::Param(nbrs), v("idx"))),
            },
            KStmt::If {
                cond: KExpr::bin(
                    BinOp::And,
                    KExpr::bin(BinOp::Gt, v("nbr"), KExpr::int(0)),
                    KExpr::bin(BinOp::Lt, v("nbr"), KExpr::int(6)),
                ),
                then_: vec![
                    KStmt::DeclScalar {
                        name: "cf".into(),
                        kind: ScalarKind::Real,
                        init: Some(
                            KExpr::real(0.5)
                                * v("l")
                                * KExpr::cast(ScalarKind::Real, KExpr::int(6) - v("nbr"))
                                * v("beta"),
                        ),
                    },
                    KStmt::Store {
                        mem: MemRef::Param(next),
                        idx: v("idx"),
                        value: (KExpr::load(MemRef::Param(next), v("idx"))
                            + v("cf") * KExpr::load(MemRef::Param(prev), v("idx")))
                            / (KExpr::real(1.0) + v("cf")),
                    },
                ],
                else_: vec![],
            },
        ],
        work_dim: 3,
    }
}

/// [`fullscan_boundary_kernel`] as a one-kernel step under no contract
/// (its `beta` scalar binds to the setup's first material).
struct FullScan;

impl KernelSource for FullScan {
    fn name(&self) -> &'static str {
        "boundary_fullscan"
    }

    fn host_program(&self, real: ScalarKind) -> Result<HostProgram, LowerError> {
        let grid = ["Nx", "Ny", "Nz"].map(ArithExpr::var).to_vec();
        let scan = KernelDef::kast(fullscan_boundary_kernel(), grid, Default::default());
        let args = ["nbrs_h", "next_h", "prev_h", "l", "beta"].map(step_input).into();
        let step = host::host_write_to(step_input("next_h"), host::ocl_kernel(&scan, args));
        host::compile_host(&host::to_host(step), real)
    }
}

#[derive(Serialize)]
struct AblationRow {
    study: &'static str,
    variant: String,
    metric: String,
    value: f64,
}

fn main() {
    let quick = std::env::var("REPRO_QUICK").as_deref() == Ok("1");
    let dims = if quick { GridDims::new(77, 52, 40) } else { GridDims::new(302, 202, 152) };
    let mut out: Vec<AblationRow> = Vec::new();
    let mut trows: Vec<Vec<String>> = Vec::new();
    let stride = (dims.total() / 1_000_000).max(1);

    // ---------------- 1. two-kernel vs fused one-kernel (FI) -------------
    {
        eprintln!("ablation 1: kernel split…");
        let cfg = SimConfig {
            dims,
            shape: RoomShape::Box,
            assignment: MaterialAssignment::Uniform,
            boundary: BoundaryModel::Fi { beta: 0.1 },
        };
        let setup = SimSetup::new(&cfg);
        // fused (Listing 1)
        let mut fused_sim = Simulation::new(
            setup.clone(),
            Precision::Single,
            bench::measure::fi_single_kernels(bench::measure::Impl::OpenCl),
            vec![Device::gtx780()],
        );
        let (fused, _) = fused_sim.step(ExecMode::Model { sample_stride: stride }).remove(0);
        let fused_ms = modeled_ms(fused.transaction_bytes.unwrap(), fused.counters.flops, false);
        // split (Listing 2): volume + gathered boundary
        let mut sim = HandwrittenSim::new(
            setup,
            Precision::Single,
            BoundaryKernel::FiMm { beta_constant: true },
            Device::gtx780(),
        );
        let (v, _) = sim.step(ExecMode::Model { sample_stride: stride });
        let b = sim.boundary_step_only(ExecMode::Model { sample_stride: 1 });
        let split_ms = modeled_ms(v.transaction_bytes.unwrap(), v.counters.flops, false)
            + modeled_ms(b.transaction_bytes.unwrap(), b.counters.flops, false);
        for (variant, ms) in
            [("fused one-kernel (Listing 1)", fused_ms), ("two-kernel split (Listing 2)", split_ms)]
        {
            trows.push(vec!["kernel split".into(), variant.into(), format!("{ms:.3} ms/step")]);
            out.push(AblationRow {
                study: "kernel_split",
                variant: variant.into(),
                metric: "ms_per_step".into(),
                value: ms,
            });
        }
    }

    // ---------------- 2. gather list vs full-grid scan -------------------
    {
        eprintln!("ablation 2: boundary iteration strategy…");
        let setup = SimSetup::new(&SimConfig::fimm(dims, RoomShape::Dome));
        // gathered
        let mut sim = HandwrittenSim::new(
            setup.clone(),
            Precision::Single,
            BoundaryKernel::FiMm { beta_constant: true },
            Device::gtx780(),
        );
        let g = sim.boundary_step_only(ExecMode::Model { sample_stride: 1 });
        let g_ms = modeled_ms(g.transaction_bytes.unwrap(), g.counters.flops, false);
        // full scan: a one-kernel "step" over the whole grid
        let mut scan = Simulation::new(setup, Precision::Single, FullScan, vec![Device::gtx780()]);
        let (f, _) = scan.step(ExecMode::Model { sample_stride: stride }).remove(0);
        let f_ms = modeled_ms(f.transaction_bytes.unwrap(), f.counters.flops, false);
        for (variant, ms) in [("gathered boundaryIndices", g_ms), ("full-grid scan + mask", f_ms)] {
            trows.push(vec!["boundary iteration".into(), variant.into(), format!("{ms:.3} ms")]);
            out.push(AblationRow {
                study: "boundary_iteration",
                variant: variant.into(),
                metric: "ms_per_step".into(),
                value: ms,
            });
        }
        let speedup = f_ms / g_ms;
        trows.push(vec![
            "boundary iteration".into(),
            "gather speedup".into(),
            format!("{speedup:.1}×"),
        ]);
    }

    // ---------------- 3. FD-MM branch count sweep ------------------------
    {
        eprintln!("ablation 3: MB sweep…");
        let small = if quick { GridDims::new(77, 52, 40) } else { GridDims::new(152, 102, 77) };
        for mb in [1usize, 2, 3, 4, 5] {
            let cfg = SimConfig {
                dims: small,
                shape: RoomShape::Box,
                assignment: MaterialAssignment::FloorWallsCeiling,
                boundary: BoundaryModel::FdMm { materials: Material::default_set(), mb },
            };
            let setup = SimSetup::new(&cfg);
            let nb = setup.num_b() as f64;
            let mut sim = HandwrittenSim::new(
                setup,
                Precision::Double,
                BoundaryKernel::FdMm,
                Device::gtx780(),
            );
            let s = sim.boundary_step_only(ExecMode::Model { sample_stride: 1 });
            let per_update = (s.counters.loads_global + s.counters.stores_global) as f64 / nb;
            let ms = modeled_ms(s.transaction_bytes.unwrap(), s.counters.flops, true);
            trows.push(vec![
                "FD-MM branches".into(),
                format!("MB = {mb}"),
                format!("{per_update:.0} accesses/update, {ms:.3} ms"),
            ]);
            out.push(AblationRow {
                study: "mb_sweep",
                variant: format!("MB{mb}"),
                metric: "ms".into(),
                value: ms,
            });
        }
    }

    // ---------------- 4. sanitizer overhead ------------------------------
    {
        eprintln!("ablation 4: sanitizer overhead…");
        let small = GridDims::new(64, 48, 40);
        let setup = SimSetup::new(&SimConfig::fdmm(small, RoomShape::Box));
        let mut sim = HandwrittenSim::new(
            setup.clone(),
            Precision::Double,
            BoundaryKernel::FdMm,
            Device::gtx780(),
        );
        let t0 = std::time::Instant::now();
        for _ in 0..5 {
            sim.boundary_step_only(ExecMode::Fast);
        }
        let off = t0.elapsed().as_secs_f64() / 5.0;
        let dev = Device::with_runtime(DeviceProfile::gtx780(), Runtime::sanitizing());
        let mut sim2 = HandwrittenSim::new(setup, Precision::Double, BoundaryKernel::FdMm, dev);
        let t0 = std::time::Instant::now();
        for _ in 0..5 {
            sim2.boundary_step_only(ExecMode::Fast);
        }
        let on = t0.elapsed().as_secs_f64() / 5.0;
        trows.push(vec![
            "sanitizer".into(),
            "overhead".into(),
            format!("{:.2}× ({:.1} ms → {:.1} ms interpreter wall)", on / off, off * 1e3, on * 1e3),
        ]);
        out.push(AblationRow {
            study: "sanitizer",
            variant: "ratio".into(),
            metric: "x".into(),
            value: on / off,
        });
    }

    println!("== Ablations ==\n");
    println!("{}", table::render(&["study", "variant", "result"], &trows));
    println!("notes:");
    println!("- §II-C's two-kernel split costs a little extra boundary traffic but removes");
    println!("  the per-point branching of the fused kernel; on a traffic model the two are");
    println!("  close — the split's real-world win (divergence) is architectural.");
    println!("- the gathered boundary list beats a full-grid scan by the surface/volume");
    println!("  ratio: the scan pays one nbrs load per grid point.");
    println!("- FD-MM cost grows linearly with MB (state + coefficient traffic).");
    match table::write_json("ablations", &out) {
        Ok(p) => eprintln!("wrote {p}"),
        Err(e) => eprintln!("could not write results: {e}"),
    }
    bench::trace::finish(vgpu::runtime(), "ablations");
}
