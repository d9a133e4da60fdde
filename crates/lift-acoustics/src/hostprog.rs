//! Listing 5: host-side orchestration of the two-kernel simulation.
//!
//! Builds the paper's host expression —
//!
//! ```text
//! val prev2_g = ToGPU(prev2_h)
//! val next_g  = OclKernel(volume_handling_kernel, ToGPU(prev1_h), prev2_g, …)
//! ToHost(WriteTo(next_g,
//!        OclKernel(boundary_handling_kernel, ToGPU(boundaries), …, next_g, prev2_g)))
//! ```
//!
//! — compiles it with [`lift::host::compile_host`] (which lowers both
//! kernels, inserts the transfers, allocates the volume kernel's output and
//! routes the boundary kernel's in-place writes), and runs it on the
//! virtual device via [`vgpu::run_host_program`]. Like the paper's, the
//! program schedules one GPU; `tests/lift_vs_reference.rs` pins it to the
//! step [`room_acoustics::Simulation`] ships.

use crate::programs;
use lift::host::{self, HostExpr, HostProgram, KernelDef};
use lift::lower::LowerError;
use lift::types::ScalarKind;
use room_acoustics::sim::SimSetup;
use room_acoustics::Precision;
use vgpu::{BufData, Device, ExecMode, HostEnv};

/// Builds the Listing 5 host expression for one FI-MM simulation step.
///
/// Host inputs: `curr_h`, `prev_h` (flattened 3-D grids — the same memory
/// viewed as `[[[T]]]` by the volume kernel and `[T; N]` by the boundary
/// kernel), `nbrs_h`, `boundaries_h`, `bnbrs_h`, `material_h`, `beta_h`,
/// and scalars `l2`, `l`.
pub fn fimm_step_host_expr() -> HostExpr {
    let vol = programs::volume_program();
    let bnd = programs::fimm_program();
    let volume_kernel = KernelDef::new(vol.name, vol.params, vol.body);
    let boundary_kernel = KernelDef::new(bnd.name, bnd.params, bnd.body);

    let curr_h = lift::ir::ParamDef::typed(
        "curr_h",
        lift::types::Type::array3(lift::types::Type::real(), "Nx", "Ny", "Nz"),
    );
    let prev_h = lift::ir::ParamDef::typed(
        "prev_h",
        lift::types::Type::array3(lift::types::Type::real(), "Nx", "Ny", "Nz"),
    );
    let nbrs_h = lift::ir::ParamDef::typed(
        "nbrs_h",
        lift::types::Type::array3(lift::types::Type::i32(), "Nx", "Ny", "Nz"),
    );
    let l2_h = lift::ir::ParamDef::typed("l2", lift::types::Type::real());
    let boundaries_h = lift::ir::ParamDef::typed(
        "boundaries_h",
        lift::types::Type::array(lift::types::Type::i32(), "numB"),
    );
    let bnbrs_h = lift::ir::ParamDef::typed(
        "bnbrs_h",
        lift::types::Type::array(lift::types::Type::i32(), "numB"),
    );
    let material_h = lift::ir::ParamDef::typed(
        "material_h",
        lift::types::Type::array(lift::types::Type::i32(), "numB"),
    );
    let beta_h = lift::ir::ParamDef::typed(
        "beta_h",
        lift::types::Type::array(lift::types::Type::real(), "NM"),
    );
    let l_h = lift::ir::ParamDef::typed("l", lift::types::Type::real());

    // NOTE on types: the volume kernel's output has the 3-D grid type; the
    // boundary kernel's `next`/`prev` are the same buffers viewed flat. The
    // host layer identifies buffers by slot, not by type, exactly as OpenCL
    // `cl_mem`s are untyped — so passing `next_g` to the flat-typed
    // parameter is the paper's own reinterpretation.
    host::host_let("prev2_g", host::to_gpu(host::input(&prev_h)), move |prev2_g| {
        host::host_let(
            "next_g",
            host::ocl_kernel(
                &volume_kernel,
                vec![
                    host::to_gpu(host::input(&curr_h)),
                    prev2_g.clone(),
                    host::to_gpu(host::input(&nbrs_h)),
                    host::input(&l2_h),
                ],
            ),
            move |next_g| {
                host::to_host(host::host_write_to(
                    next_g.clone(),
                    host::ocl_kernel(
                        &boundary_kernel,
                        vec![
                            host::to_gpu(host::input(&boundaries_h)),
                            host::to_gpu(host::input(&bnbrs_h)),
                            host::to_gpu(host::input(&material_h)),
                            host::to_gpu(host::input(&beta_h)),
                            next_g,
                            prev2_g,
                            host::input(&l_h),
                        ],
                    ),
                ))
            },
        )
    })
}

/// Compiles the Listing 5 host program at the given precision.
pub fn fimm_step_host_program(real: ScalarKind) -> Result<HostProgram, LowerError> {
    host::compile_host(&fimm_step_host_expr(), real)
}

/// Runs one FI-MM step through the compiled host program and returns the
/// updated pressure grid (flattened).
///
/// This exercises the complete §IV-A pipeline — transfers, the generated
/// volume kernel, the in-place boundary kernel, and the final read-back —
/// in one shot. Iterating it with rotated host arrays reproduces the full
/// simulation (the drivers in [`crate::runner`] keep buffers device-
/// resident instead, as a real application would).
pub fn run_fimm_step(
    setup: &SimSetup,
    precision: Precision,
    curr: &[f64],
    prev: &[f64],
    device: &mut Device,
    mode: ExecMode,
) -> Result<Vec<f64>, vgpu::ExecError> {
    let real = precision.kind();
    let prog = fimm_step_host_program(real).map_err(|e| vgpu::ExecError(e.to_string()))?;
    let env = fimm_step_env(setup, precision, curr, prev);
    let run = vgpu::run_host_program(&prog, &env, device, real, mode)?;
    let out = run
        .outputs
        .get(&run.result)
        .ok_or_else(|| vgpu::ExecError("host program produced no result".into()))?;
    Ok(out.to_f64_vec())
}

/// The host inputs of the FI-MM step program.
fn fimm_step_env(setup: &SimSetup, precision: Precision, curr: &[f64], prev: &[f64]) -> HostEnv {
    let dims = setup.dims();
    HostEnv::new()
        .array("curr_h", precision.buf(curr))
        .array("prev_h", precision.buf(prev))
        .array("nbrs_h", BufData::from(setup.room.nbrs.clone()))
        .array("boundaries_h", BufData::from(setup.room.boundary_indices.clone()))
        .array("bnbrs_h", BufData::from(setup.room.boundary_nbrs()))
        .array("material_h", BufData::from(setup.room.material.clone()))
        .array("beta_h", precision.buf(&setup.betas))
        .scalar("l2", precision.val(setup.l2))
        .scalar("l", precision.val(setup.l))
        .size("Nx", dims.nx as i64)
        .size("Ny", dims.ny as i64)
        .size("Nz", dims.nz as i64)
        .size("N", dims.total() as i64)
        .size("numB", setup.num_b() as i64)
        .size("NM", setup.betas.len() as i64)
}

/// The generated host C source (Table I's host rows) for the FI-MM step.
pub fn fimm_step_host_source(real: ScalarKind) -> Result<String, LowerError> {
    Ok(host::emit_host_c(&fimm_step_host_program(real)?))
}
