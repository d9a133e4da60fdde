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
//! virtual device via [`vgpu::run_host_program`].

use crate::programs;
use lift::arith::ArithExpr;
use lift::host::{self, BufRange, HostCmd, HostExpr, HostProgram, KernelDef, LaunchArg};
use lift::lower::LowerError;
use lift::types::{ScalarKind, Type};
use room_acoustics::partition::{boundary_cuts, checked_boundary_cuts};
use room_acoustics::sim::SimSetup;
use room_acoustics::Precision;
use vgpu::{BufData, Device, ExecMode, HostEnv, SlabPartition};

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
#[allow(clippy::too_many_arguments)]
pub fn run_fimm_step(
    setup: &SimSetup,
    precision: Precision,
    curr: &[f64],
    prev: &[f64],
    device: &mut Device,
    mode: ExecMode,
) -> Result<Vec<f64>, vgpu::ExecError> {
    run_fimm_step_traced(setup, precision, curr, prev, device, mode).map(|(out, _)| out)
}

/// [`run_fimm_step`] but also returns the run's host-transfer totals, for
/// comparison against the sharded program's accounting.
pub fn run_fimm_step_traced(
    setup: &SimSetup,
    precision: Precision,
    curr: &[f64],
    prev: &[f64],
    device: &mut Device,
    mode: ExecMode,
) -> Result<(Vec<f64>, vgpu::TransferTotals), vgpu::ExecError> {
    let real = precision.kind();
    let prog = fimm_step_host_program(real).map_err(|e| vgpu::ExecError(e.to_string()))?;
    let env = fimm_step_env(setup, precision, curr, prev)
        .array("boundaries_h", BufData::from(setup.room.boundary_indices.clone()));
    let run = vgpu::run_host_program(&prog, &env, device, real, mode)?;
    let out = run
        .outputs
        .get(&run.result)
        .ok_or_else(|| vgpu::ExecError("host program produced no result".into()))?;
    Ok((out.to_f64_vec(), run.transfers))
}

/// The host inputs shared by the single-device and sharded FI-MM step
/// programs (everything except the boundary-index list, whose sharded form
/// is rebased per device).
fn fimm_step_env(setup: &SimSetup, precision: Precision, curr: &[f64], prev: &[f64]) -> HostEnv {
    let dims = setup.dims();
    HostEnv::new()
        .array("curr_h", precision.buf(curr))
        .array("prev_h", precision.buf(prev))
        .array("nbrs_h", BufData::from(setup.room.nbrs.clone()))
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

// ---------------------------------------------------------------------------
// Domain-sharded host code generation (DESIGN.md §12)
// ---------------------------------------------------------------------------

/// Per-device size-variable names introduced by the sharding transform.
fn nzl_var(d: usize) -> String {
    format!("Nzl@d{d}")
}
fn owned_var(d: usize) -> String {
    format!("owned@d{d}")
}
fn numb_var(d: usize) -> String {
    format!("numB@d{d}")
}
fn nl_var(d: usize) -> String {
    format!("N@d{d}")
}
/// Host-input name of device `d`'s localized boundary-index list.
fn local_bidx_name(d: usize) -> String {
    format!("boundaries_h@d{d}")
}

/// The lowered volume kernel placed on a slab
/// ([`room_acoustics::contracts::slab_placed`], under the volume program's
/// launch contract [`programs::launch_assumptions`]), once its z-reach is
/// proven to fit the `halo` planes the sharding transform allocates and
/// exchanges.
fn slab_halo_proof(
    lk: &lift::lower::LoweredKernel,
    halo: (usize, usize),
) -> Result<lift::lower::LoweredKernel, LowerError> {
    use room_acoustics::contracts;
    let asm = programs::launch_assumptions(&programs::volume_program(), lk);
    let (kernel, asm) = contracts::slab_placed(&lk.kernel, &asm);
    contracts::grid_halo(&kernel, &asm)
        .and_then(|reach| contracts::check_slab_halo(&kernel.name, reach, halo))
        .map_err(LowerError)?;
    Ok(lift::lower::LoweredKernel { kernel, ..lk.clone() })
}

/// Proves the boundary kernel's z-reach on the grid buffers (a pure
/// per-node gather proves `(0, 0)`), used to validate the boundary-list
/// split at the partition's cut planes.
fn boundary_halo_proof(lk: &lift::lower::LoweredKernel) -> Result<(usize, usize), LowerError> {
    let p = programs::fimm_program();
    let asm = programs::launch_assumptions(&p, lk);
    room_acoustics::contracts::grid_halo(&lk.kernel, &asm).map_err(LowerError)
}

fn plane_expr() -> ArithExpr {
    ArithExpr::var("Nx") * ArithExpr::var("Ny")
}

fn planes(n: usize) -> ArithExpr {
    ArithExpr::Cst(n as i64) * plane_expr()
}

/// Transforms the compiled single-device FI-MM step program
/// ([`fimm_step_host_program`]) into a Z-slab sharded program over the
/// partition's devices:
///
/// * grid arrays (`curr_h`, `prev_h`, `nbrs_h` and the volume output) get a
///   per-device local buffer of `owned + 2` planes (one halo plane each
///   side), filled by *region* `CopyIn`s of the owned planes — so
///   host→device byte totals equal the unsharded program's;
/// * `curr_h`'s seam planes are exchanged with explicit [`HostCmd::DevCopy`]
///   commands (accounted under `vgpu.halo.*` on the destination device);
/// * the volume launch becomes one launch of the gid-shifted slab kernel
///   per device over `[Nx, Ny, owned]` work-items;
/// * boundary lists are sliced at the partition's boundary cuts; the
///   boundary-index values themselves are rebased into each slab's local
///   index space, which needs a per-device host input
///   ([`local_bidx_name`]) that [`shard_env`] provides;
/// * the replicated `beta_h` table is accounted once (device 0) with
///   replica uploads flagged for `vgpu.halo.replicate.*` accounting;
/// * per-device `CopyOut`s of the owned planes assemble the result into
///   the original output name (byte total again equal).
pub fn fimm_step_sharded_host_program(
    real: ScalarKind,
    setup: &SimSetup,
    part: &SlabPartition,
) -> Result<HostProgram, LowerError> {
    let mut prog = fimm_step_host_program(real)?;
    let ndev = part.device_count();
    let plane = setup.dims().nx * setup.dims().ny;
    // The slab volume kernel: the lowered volume kernel with every
    // get_global_id(2) shifted by +1. Its `Nz` size argument is re-bound to
    // the local plane count (owned + 2), after which the shifted bounds and
    // pad guards never fire for the launched range.
    let volume_idx = prog
        .cmds
        .iter()
        .find_map(|c| match c {
            HostCmd::Launch { kernel, global_size, .. } if global_size.len() == 3 => Some(*kernel),
            _ => None,
        })
        .expect("volume launch in step program");
    // The transform allocates one halo plane per side and exchanges one
    // seam plane per step — license that width from the kernel's proven
    // access footprint instead of assuming it (a wider stencil would
    // silently read stale or foreign data).
    let slab_lk = slab_halo_proof(&prog.kernels[volume_idx], (1, 1))?;
    let boundary_reach = prog
        .kernels
        .iter()
        .find(|lk| lk.kernel.work_dim == 1)
        .map(boundary_halo_proof)
        .transpose()?
        .unwrap_or((0, 0));
    let bcuts =
        checked_boundary_cuts(part, plane, &setup.room.boundary_indices, boundary_reach, (1, 1))
            .map_err(LowerError)?;
    let slab_idx = prog.kernels.len();
    prog.kernels.push(slab_lk);

    let grid_elem = |host: &str| if host == "nbrs_h" { Type::i32() } else { Type::real() };
    let local_grid_ty =
        |host: &str, d: usize| Type::array3(grid_elem(host), "Nx", "Ny", nzl_var(d).as_str());
    let mut cmds = Vec::new();
    for cmd in &prog.cmds {
        match cmd {
            HostCmd::CopyIn { host, dev, ty, .. } => match host.as_str() {
                // Grid arrays: Alloc a local slab (halo planes zeroed) and
                // region-write the owned planes; Σ bytes = unsharded copy.
                "curr_h" | "prev_h" | "nbrs_h" => {
                    for d in 0..ndev {
                        cmds.push(HostCmd::Alloc {
                            dev: dev.clone(),
                            ty: local_grid_ty(host, d),
                            device: d,
                        });
                        cmds.push(HostCmd::CopyIn {
                            host: host.clone(),
                            dev: dev.clone(),
                            ty: ty.clone(),
                            device: d,
                            src: Some(BufRange {
                                off: planes(part.first_owned(d)),
                                len: ArithExpr::var(owned_var(d).as_str()) * plane_expr(),
                            }),
                            dst_off: Some(plane_expr()),
                            replica: false,
                        });
                    }
                    if host == "curr_h" {
                        // Halo exchange: each seam swaps one plane in each
                        // direction, before any volume launch reads it.
                        for d in 0..ndev - 1 {
                            cmds.push(HostCmd::DevCopy {
                                src_device: d,
                                src: dev.clone(),
                                src_off: planes(part.owned(d)),
                                dst_device: d + 1,
                                dst: dev.clone(),
                                dst_off: ArithExpr::Cst(0),
                                len: plane_expr(),
                            });
                            cmds.push(HostCmd::DevCopy {
                                src_device: d + 1,
                                src: dev.clone(),
                                src_off: plane_expr(),
                                dst_device: d,
                                dst: dev.clone(),
                                dst_off: planes(part.owned(d) + 1),
                                len: plane_expr(),
                            });
                        }
                    }
                }
                // Boundary indices are rebased into local coordinates —
                // value translation the host runtime provides as separate
                // per-device inputs (see `sharded_env`).
                "boundaries_h" => {
                    for d in 0..ndev {
                        if bcuts[d + 1] > bcuts[d] {
                            cmds.push(HostCmd::CopyIn {
                                host: local_bidx_name(d),
                                dev: dev.clone(),
                                ty: Type::array(Type::i32(), numb_var(d).as_str()),
                                device: d,
                                src: None,
                                dst_off: None,
                                replica: false,
                            });
                        }
                    }
                }
                // List-positional arrays: plain slices of the host input.
                "bnbrs_h" | "material_h" => {
                    for d in 0..ndev {
                        if bcuts[d + 1] > bcuts[d] {
                            cmds.push(HostCmd::CopyIn {
                                host: host.clone(),
                                dev: dev.clone(),
                                ty: ty.clone(),
                                device: d,
                                src: Some(BufRange {
                                    off: ArithExpr::Cst(bcuts[d] as i64),
                                    len: ArithExpr::var(numb_var(d).as_str()),
                                }),
                                dst_off: None,
                                replica: false,
                            });
                        }
                    }
                }
                // Replicated coefficient table: exactly-once accounting —
                // the first upload is a regular transfer, the rest are
                // replicas (vgpu.halo.replicate.*).
                "beta_h" => {
                    for d in 0..ndev {
                        if d == 0 || bcuts[d + 1] > bcuts[d] {
                            cmds.push(HostCmd::CopyIn {
                                host: host.clone(),
                                dev: dev.clone(),
                                ty: ty.clone(),
                                device: d,
                                src: None,
                                dst_off: None,
                                replica: d != 0,
                            });
                        }
                    }
                }
                other => panic!("unexpected host input `{other}` in FI-MM step program"),
            },
            // The volume kernel's output allocation becomes one local slab
            // per device.
            HostCmd::Alloc { dev, .. } => {
                for d in 0..ndev {
                    cmds.push(HostCmd::Alloc {
                        dev: dev.clone(),
                        ty: local_grid_ty("out", d),
                        device: d,
                    });
                }
            }
            HostCmd::Launch { kernel, args, global_size, .. } => {
                if global_size.len() == 3 {
                    for d in 0..ndev {
                        let args = args
                            .iter()
                            .map(|a| match a {
                                LaunchArg::SizeVar(n) if n == "Nz" => {
                                    LaunchArg::SizeVar(nzl_var(d))
                                }
                                a => a.clone(),
                            })
                            .collect();
                        cmds.push(HostCmd::Launch {
                            kernel: slab_idx,
                            args,
                            global_size: vec![
                                ArithExpr::var("Nx"),
                                ArithExpr::var("Ny"),
                                ArithExpr::var(owned_var(d).as_str()),
                            ],
                            device: d,
                        });
                    }
                } else {
                    for d in 0..ndev {
                        if bcuts[d + 1] == bcuts[d] {
                            continue; // no boundary points in this slab
                        }
                        // `N` is the length of the slab-local `next`/`prev`
                        // the kernel indexes, as its launch contract states
                        // (`programs::launch_assumptions`).
                        let args = args
                            .iter()
                            .map(|a| match a {
                                LaunchArg::SizeVar(n) if n == "numB" => {
                                    LaunchArg::SizeVar(numb_var(d))
                                }
                                LaunchArg::SizeVar(n) if n == "N" => LaunchArg::SizeVar(nl_var(d)),
                                a => a.clone(),
                            })
                            .collect();
                        cmds.push(HostCmd::Launch {
                            kernel: *kernel,
                            args,
                            global_size: vec![ArithExpr::var(numb_var(d).as_str())],
                            device: d,
                        });
                    }
                }
            }
            // Owned planes of every slab assemble into the original host
            // output; Σ bytes = the unsharded read-back.
            HostCmd::CopyOut { dev, host, ty, .. } => {
                for d in 0..ndev {
                    cmds.push(HostCmd::CopyOut {
                        dev: dev.clone(),
                        host: host.clone(),
                        ty: ty.clone(),
                        device: d,
                        src: Some(BufRange {
                            off: plane_expr(),
                            len: ArithExpr::var(owned_var(d).as_str()) * plane_expr(),
                        }),
                        dst_off: Some(planes(part.first_owned(d))),
                        host_len: Some(ArithExpr::var("N")),
                    });
                }
            }
            HostCmd::DevCopy { .. } => unreachable!("single-device program has no DevCopy"),
        }
    }
    prog.cmds = cmds;
    Ok(prog)
}

/// Extends a [`HostEnv`] with the sharding transform's per-device inputs:
/// the localized boundary-index lists and the per-device size bindings.
fn shard_env(env: HostEnv, setup: &SimSetup, part: &SlabPartition) -> HostEnv {
    let plane = setup.dims().nx * setup.dims().ny;
    let bcuts = boundary_cuts(part, plane, &setup.room.boundary_indices);
    let mut env = env;
    for d in 0..part.device_count() {
        let shift = part.elem_shift(d, plane);
        let local: Vec<i32> = setup.room.boundary_indices[bcuts[d]..bcuts[d + 1]]
            .iter()
            .map(|&i| (i as isize - shift) as i32)
            .collect();
        env = env
            .size(&nzl_var(d), part.local_planes(d) as i64)
            .size(&nl_var(d), (part.local_planes(d) * plane) as i64)
            .size(&owned_var(d), part.owned(d) as i64)
            .size(&numb_var(d), (bcuts[d + 1] - bcuts[d]) as i64)
            .array(&local_bidx_name(d), BufData::from(local));
    }
    env
}

/// Runs one FI-MM step through the sharded host program across `devices`
/// (Z-slab balanced partition) and returns the updated pressure grid plus
/// the run's transfer totals. Bit-identical to [`run_fimm_step`]; host
/// transfer *byte* totals are equal too, with halo and replica traffic
/// reported separately.
pub fn run_fimm_step_sharded(
    setup: &SimSetup,
    precision: Precision,
    curr: &[f64],
    prev: &[f64],
    devices: &mut [Device],
    mode: ExecMode,
) -> Result<(Vec<f64>, vgpu::TransferTotals), vgpu::ExecError> {
    let real = precision.kind();
    let part = SlabPartition::balanced(setup.dims().nz, devices.len());
    let prog = fimm_step_sharded_host_program(real, setup, &part)
        .map_err(|e| vgpu::ExecError(e.to_string()))?;
    let env = shard_env(fimm_step_env(setup, precision, curr, prev), setup, &part);
    let run = vgpu::run_host_program_on(&prog, &env, devices, real, mode)?;
    let out = run
        .outputs
        .get(&run.result)
        .ok_or_else(|| vgpu::ExecError("sharded host program produced no result".into()))?;
    Ok((out.to_f64_vec(), run.transfers))
}

#[cfg(test)]
mod tests {
    use super::*;
    use room_acoustics::{GridDims, RoomShape, SimConfig};

    #[test]
    fn sharded_host_source_emits_multi_queue_code() {
        let s = SimSetup::new(&SimConfig::fimm(GridDims::new(12, 10, 9), RoomShape::Box));
        let part = SlabPartition::balanced(s.dims().nz, 3);
        let prog = fimm_step_sharded_host_program(ScalarKind::F32, &s, &part).unwrap();
        let src = host::emit_host_c(&prog);
        // Per-device queues, halo copies, and the gid-shifted slab kernel
        // all surface in the generated host C.
        assert!(src.contains("queues[1]"), "missing per-device queue:\n{src}");
        assert!(src.contains("queues[2]"), "missing third queue:\n{src}");
        assert!(src.contains("clEnqueueCopyBuffer"), "missing halo copy:\n{src}");
        assert!(src.contains("_slab"), "missing slab kernel reference:\n{src}");
    }
}
