//! Executes LIFT host programs (§IV-A) on the virtual device.
//!
//! A [`lift::host::HostProgram`] is the compiled form of the paper's host
//! primitives (`ToGPU`, `OclKernel`, `WriteTo`, `ToHost`). This module plays
//! the OpenCL runtime: it allocates buffers, performs the transfers, and
//! launches each kernel in order, returning the host-side outputs.

use crate::buffer::BufData;
use crate::device::{Arg, BufId, Device};
use crate::exec::{ExecError, ExecMode};
use crate::telemetry::{self, HOST_TRACK};
use lift::arith::ArithExpr;
use lift::host::{BufRange, HostCmd, HostProgram, LaunchArg};
use lift::prelude::{ScalarKind, Value};
use lift::types::Type;
use std::collections::HashMap;

/// Inputs to a host-program run.
#[derive(Default)]
pub struct HostEnv {
    /// Host arrays by program input name.
    pub arrays: HashMap<String, BufData>,
    /// Host scalars by program input name.
    pub scalars: HashMap<String, Value>,
    /// Bindings for symbolic sizes (`N`, `Nx`, `numB`, …).
    pub sizes: HashMap<String, i64>,
}

impl HostEnv {
    /// Empty environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a host array.
    pub fn array(mut self, name: &str, data: impl Into<BufData>) -> Self {
        self.arrays.insert(name.into(), data.into());
        self
    }

    /// Adds a host scalar.
    pub fn scalar(mut self, name: &str, v: Value) -> Self {
        self.scalars.insert(name.into(), v);
        self
    }

    /// Binds a symbolic size.
    pub fn size(mut self, name: &str, v: i64) -> Self {
        self.sizes.insert(name.into(), v);
        self
    }
}

/// Host⇄device traffic of one host-program run, counted exactly once per
/// transfer command (`ToGPU` at `CopyIn`, `ToHost` at `CopyOut`). The
/// inspection snapshot in [`HostRun::device_slots`] is *not* included — it
/// is taken with [`Device::peek`], which performs no transfer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransferTotals {
    /// Bytes moved host → device.
    pub to_gpu_bytes: u64,
    /// Number of host → device transfers.
    pub to_gpu_transfers: u64,
    /// Bytes moved device → host.
    pub to_host_bytes: u64,
    /// Number of device → host transfers.
    pub to_host_transfers: u64,
    /// Bytes moved device → device ([`HostCmd::DevCopy`] halo exchanges).
    /// Counted separately from the host-transfer totals so a sharded run's
    /// `to_gpu`/`to_host` bytes stay comparable with the unsharded run.
    pub halo_bytes: u64,
    /// Number of device → device copies.
    pub halo_copies: u64,
    /// Bytes of replicated uploads (coefficient tables re-sent to extra
    /// devices; the first upload counts under `to_gpu_bytes`).
    pub replicate_bytes: u64,
    /// Number of replicated uploads.
    pub replicate_transfers: u64,
}

/// Result of a host-program run.
pub struct HostRun {
    /// Host outputs produced by `ToHost`, by name.
    pub outputs: HashMap<String, BufData>,
    /// Name of the program's final result within `outputs` (or a device slot
    /// if the program never copied back).
    pub result: String,
    /// Final state of every device slot (for inspection/in-place results).
    pub device_slots: HashMap<String, BufData>,
    /// Transfer traffic of this run, exactly once per transfer command.
    pub transfers: TransferTotals,
}

fn eval_len(ty: &Type, sizes: &HashMap<String, i64>) -> Result<usize, ExecError> {
    let count: ArithExpr = ty.scalar_count();
    count
        .eval(&|n| sizes.get(n).copied())
        .map(|v| v as usize)
        .map_err(|e| ExecError(format!("cannot size buffer of type {ty}: {e}")))
}

fn eval_arith(e: &ArithExpr, sizes: &HashMap<String, i64>, what: &str) -> Result<usize, ExecError> {
    e.eval(&|n| sizes.get(n).copied())
        .map(|v| v as usize)
        .map_err(|e| ExecError(format!("cannot evaluate {what}: {e}")))
}

fn eval_range(r: &BufRange, sizes: &HashMap<String, i64>) -> Result<(usize, usize), ExecError> {
    Ok((eval_arith(&r.off, sizes, "range offset")?, eval_arith(&r.len, sizes, "range length")?))
}

/// Runs a host program. `real` must match the precision the program was
/// compiled with; `mode` selects fast or modeled kernel execution.
/// Single-device shorthand for [`run_host_program_on`].
pub fn run_host_program(
    prog: &HostProgram,
    env: &HostEnv,
    device: &mut Device,
    real: ScalarKind,
    mode: ExecMode,
) -> Result<HostRun, ExecError> {
    run_host_program_on(prog, env, std::slice::from_mut(device), real, mode)
}

/// Runs a host program across a set of devices: every command executes on
/// the device its `device` placement names (slot names are scoped per
/// device), and [`HostCmd::DevCopy`] commands move halo regions between
/// devices with `vgpu.halo.*` accounting on the destination. A program
/// emitted by the single-device generator places everything on device 0,
/// so `run_host_program_on(p, e, &mut [dev], …)` is exactly the old
/// single-device semantics.
pub fn run_host_program_on(
    prog: &HostProgram,
    env: &HostEnv,
    devices: &mut [Device],
    real: ScalarKind,
    mode: ExecMode,
) -> Result<HostRun, ExecError> {
    let mut slots: HashMap<(usize, String), BufId> = HashMap::new();
    let mut outputs: HashMap<String, BufData> = HashMap::new();
    let mut transfers = TransferTotals::default();
    let mut prepared = Vec::with_capacity(prog.kernels.len());
    let ndev = devices.len();
    let check_dev = move |d: usize| {
        if d < ndev {
            Ok(d)
        } else {
            Err(ExecError(format!("command placed on device {d} but only {ndev} exist")))
        }
    };
    {
        // Kernel artifacts are device-independent; compile once and launch
        // everywhere (the same sharing the artifact cache provides).
        let _s = telemetry::span(HOST_TRACK, "compile_kernels");
        for lk in &prog.kernels {
            prepared.push(devices[0].compile(&lk.kernel)?);
        }
    }
    for cmd in &prog.cmds {
        match cmd {
            HostCmd::CopyIn { host, dev, ty, device, src, dst_off, replica } => {
                let d = check_dev(*device)?;
                let _s = telemetry::span_with(HOST_TRACK, || format!("ToGPU({dev})"));
                let data = env
                    .arrays
                    .get(host)
                    .ok_or_else(|| ExecError(format!("missing host input array `{host}`")))?;
                let data = match src {
                    None => {
                        let want = eval_len(&ty.resolve_real(real), &env.sizes)?;
                        if data.len() != want {
                            return Err(ExecError(format!(
                                "host array `{host}` has {} elements, expected {want}",
                                data.len()
                            )));
                        }
                        data.clone()
                    }
                    Some(r) => {
                        let (off, len) = eval_range(r, &env.sizes)?;
                        if off + len > data.len() {
                            return Err(ExecError(format!(
                                "range {off}+{len} outside host array `{host}` of {} elements",
                                data.len()
                            )));
                        }
                        data.slice(off, len)
                    }
                };
                let bytes = (data.len() * data.elem_bytes()) as u64;
                if *replica {
                    transfers.replicate_bytes += bytes;
                    transfers.replicate_transfers += 1;
                } else {
                    transfers.to_gpu_bytes += bytes;
                    transfers.to_gpu_transfers += 1;
                }
                match dst_off {
                    None => {
                        let id = if *replica {
                            devices[d].upload_replica(data)
                        } else {
                            devices[d].upload(data)
                        };
                        slots.insert((d, dev.clone()), id);
                    }
                    Some(off) => {
                        let off = eval_arith(off, &env.sizes, "device offset")?;
                        let id = *slots.get(&(d, dev.clone())).ok_or_else(|| {
                            ExecError(format!("region CopyIn into unallocated slot `{dev}`"))
                        })?;
                        if *replica {
                            return Err(ExecError(format!(
                                "replica CopyIn into region of `{dev}` is not supported"
                            )));
                        }
                        devices[d].write_region(id, off, data);
                    }
                }
            }
            HostCmd::Alloc { dev, ty, device } => {
                let d = check_dev(*device)?;
                let _s = telemetry::span_with(HOST_TRACK, || format!("Alloc({dev})"));
                let rty = ty.resolve_real(real);
                let kind = rty
                    .scalar_kind()
                    .ok_or_else(|| ExecError(format!("cannot allocate non-uniform type {ty}")))?;
                let len = eval_len(&rty, &env.sizes)?;
                // A slot the program fills piecewise is a slab: the owned
                // planes arrive by region `CopyIn`, the seam planes by
                // `DevCopy`, and the outermost halo planes are never
                // written — the sharded rewrite promises them zero-filled,
                // and the slab kernel reads them. A slot no host command
                // writes into stays unpromised: reading it before a kernel
                // has stored to it is the bug `check_host_init` predicts.
                let slab = prog.cmds.iter().any(|c| {
                    matches!(c, HostCmd::CopyIn { dev: s, device: sd, dst_off: Some(_), .. }
                        if s == dev && sd == device)
                });
                let id = if slab {
                    devices[d].create_buffer_zeroed(kind, len)
                } else {
                    devices[d].create_buffer(kind, len)
                };
                slots.insert((d, dev.clone()), id);
            }
            HostCmd::Launch { kernel, args, global_size, device } => {
                let d = check_dev(*device)?;
                let _s = telemetry::span_with(HOST_TRACK, || {
                    format!("OclKernel({})", prepared[*kernel].name)
                });
                let mut largs = Vec::with_capacity(args.len());
                for a in args {
                    match a {
                        LaunchArg::Buf(slot) => {
                            let id = slots.get(&(d, slot.clone())).ok_or_else(|| {
                                ExecError(format!("unknown device slot `{slot}` on device {d}"))
                            })?;
                            largs.push(Arg::Buf(*id));
                        }
                        LaunchArg::ScalarInput(name) => {
                            let v = env.scalars.get(name).ok_or_else(|| {
                                ExecError(format!("missing host scalar `{name}`"))
                            })?;
                            largs.push(Arg::Val(*v));
                        }
                        LaunchArg::SizeVar(name) => {
                            let v = env
                                .sizes
                                .get(name)
                                .ok_or_else(|| ExecError(format!("unbound size `{name}`")))?;
                            largs.push(Arg::Val(Value::I32(*v as i32)));
                        }
                    }
                }
                let global: Result<Vec<usize>, ExecError> =
                    global_size.iter().map(|g| eval_arith(g, &env.sizes, "global size")).collect();
                devices[d].launch(&prepared[*kernel], &largs, &global?, mode)?;
            }
            HostCmd::CopyOut { dev, host, device, src, dst_off, host_len, .. } => {
                let d = check_dev(*device)?;
                let _s = telemetry::span_with(HOST_TRACK, || format!("ToHost({host})"));
                let id = *slots
                    .get(&(d, dev.clone()))
                    .ok_or_else(|| ExecError(format!("unknown device slot `{dev}`")))?;
                let data = match src {
                    None => devices[d].read(id),
                    Some(r) => {
                        let (off, len) = eval_range(r, &env.sizes)?;
                        devices[d].read_region(id, off, len)
                    }
                };
                transfers.to_host_bytes += (data.len() * data.elem_bytes()) as u64;
                transfers.to_host_transfers += 1;
                match dst_off {
                    None => {
                        outputs.insert(host.clone(), data);
                    }
                    Some(off) => {
                        let off = eval_arith(off, &env.sizes, "host offset")?;
                        let total = eval_arith(
                            host_len.as_ref().ok_or_else(|| {
                                ExecError(format!(
                                    "assembling CopyOut into `{host}` needs host_len"
                                ))
                            })?,
                            &env.sizes,
                            "host output length",
                        )?;
                        let out = outputs
                            .entry(host.clone())
                            .or_insert_with(|| BufData::zeros(data.kind(), total));
                        out.copy_from(off, &data);
                    }
                }
            }
            HostCmd::DevCopy { src_device, src, src_off, dst_device, dst, dst_off, len } => {
                let sd = check_dev(*src_device)?;
                let dd = check_dev(*dst_device)?;
                let _s = telemetry::span_with(HOST_TRACK, || format!("DevCopy({src}->{dst})"));
                let so = eval_arith(src_off, &env.sizes, "DevCopy source offset")?;
                let do_ = eval_arith(dst_off, &env.sizes, "DevCopy destination offset")?;
                let n = eval_arith(len, &env.sizes, "DevCopy length")?;
                let sid = *slots.get(&(sd, src.clone())).ok_or_else(|| {
                    ExecError(format!("unknown DevCopy source slot `{src}` on device {sd}"))
                })?;
                let did = *slots.get(&(dd, dst.clone())).ok_or_else(|| {
                    ExecError(format!("unknown DevCopy destination slot `{dst}` on device {dd}"))
                })?;
                let data = devices[sd].peek_region(sid, so, n);
                transfers.halo_bytes += (data.len() * data.elem_bytes()) as u64;
                transfers.halo_copies += 1;
                let prov = devices[sd].halo_provenance(sid);
                devices[dd].write_halo_region_tagged(did, do_, data, prov);
            }
        }
    }
    // Inspection snapshot, not a modeled transfer: use `peek` so it does not
    // inflate the `ToHost` accounting. Slot names are qualified with their
    // device index when more than one device is in play.
    let device_slots = slots
        .iter()
        .map(|((d, name), id)| {
            let key = if devices.len() > 1 { format!("{name}@{d}") } else { name.clone() };
            (key, devices[*d].peek(*id))
        })
        .collect();
    Ok(HostRun { outputs, result: prog.result.clone(), device_slots, transfers })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lift::funs;
    use lift::host::{self, KernelDef};
    use lift::ir::{self, ParamDef};
    use lift::prelude::*;

    #[test]
    fn two_kernel_pipeline_with_in_place_second_stage() {
        // k1: out[i] = a[i] + 2    (allocated output)
        // k2: for idx in indices: out[idx] = out[idx] * 3  (in-place)
        let a = ParamDef::typed("a", Type::array(Type::real(), "N"));
        let k1body = ir::map_glb(a.to_expr(), "x", |x| {
            ir::call(&funs::add(), vec![x, ir::lit(Lit::real(2.0))])
        });
        let k1 = KernelDef::new("add2k", vec![a], k1body);

        let idxs = ParamDef::typed("indices", Type::array(Type::i32(), "numB"));
        let data = ParamDef::typed("data", Type::array(Type::real(), "N"));
        let d2 = data.clone();
        let k2body = ir::map_glb(idxs.to_expr(), "idx", move |idx| {
            let v = ir::call(
                &funs::mult(),
                vec![ir::at(d2.to_expr(), idx.clone()), ir::lit(Lit::real(3.0))],
            );
            ir::write_to(ir::at(d2.to_expr(), idx), v)
        });
        let k2 = KernelDef::new("scale3", vec![idxs, data], k2body);

        let a_h = ParamDef::typed("a_h", Type::array(Type::real(), "N"));
        let idx_h = ParamDef::typed("idx_h", Type::array(Type::i32(), "numB"));
        let prog_expr = host::host_let(
            "mid",
            host::ocl_kernel(&k1, vec![host::to_gpu(host::input(&a_h))]),
            |mid| {
                host::to_host(host::host_write_to(
                    mid.clone(),
                    host::ocl_kernel(&k2, vec![host::to_gpu(host::input(&idx_h)), mid]),
                ))
            },
        );
        let prog = host::compile_host(&prog_expr, ScalarKind::F32).unwrap();

        let env = HostEnv::new()
            .array("a_h", vec![1.0f32, 2.0, 3.0, 4.0])
            .array("idx_h", vec![1i32, 3])
            .size("N", 4)
            .size("numB", 2);
        let mut dev = Device::gtx780();
        dev.set_race_check(true);
        let run = run_host_program(&prog, &env, &mut dev, ScalarKind::F32, ExecMode::Fast).unwrap();
        let out = run.outputs.get(&run.result).expect("result on host");
        // a+2 = [3,4,5,6]; ×3 at idx 1 and 3 → [3,12,5,18]
        assert_eq!(*out, BufData::from(vec![3.0f32, 12.0, 5.0, 18.0]));
        // Exactly-once transfer accounting: two ToGPU copies (a_h: 4×f32,
        // idx_h: 2×i32) and one ToHost copy (4×f32). The device_slots
        // inspection snapshot must not count.
        assert_eq!(
            run.transfers,
            TransferTotals {
                to_gpu_bytes: 4 * 4 + 2 * 4,
                to_gpu_transfers: 2,
                to_host_bytes: 4 * 4,
                to_host_transfers: 1,
                ..TransferTotals::default()
            }
        );
    }

    #[test]
    fn transfer_counters_match_run_totals() {
        // The registry counters are process-global (shared across tests), so
        // assert on the *delta* across one run.
        let reg = telemetry::registry();
        let before_gpu = reg.counter("vgpu.xfer.to_gpu.bytes").get();
        let before_host = reg.counter("vgpu.xfer.to_host.bytes").get();

        let a = ParamDef::typed("a", Type::array(Type::real(), "N"));
        let body = ir::map_glb(a.to_expr(), "x", |x| x);
        let k = KernelDef::new("idk2", vec![a], body);
        let a_h = ParamDef::typed("a_h", Type::array(Type::real(), "N"));
        let prog_expr = host::to_host(host::ocl_kernel(&k, vec![host::to_gpu(host::input(&a_h))]));
        let prog = host::compile_host(&prog_expr, ScalarKind::F32).unwrap();
        let env = HostEnv::new().array("a_h", vec![0.0f32; 8]).size("N", 8);
        let mut dev = Device::gtx780();
        let run = run_host_program(&prog, &env, &mut dev, ScalarKind::F32, ExecMode::Fast).unwrap();

        assert_eq!(run.transfers.to_gpu_bytes, 32);
        assert_eq!(run.transfers.to_host_bytes, 32);
        // The Device-layer counters moved by at least this run's traffic
        // (other tests may run concurrently, so ≥, not ==).
        assert!(reg.counter("vgpu.xfer.to_gpu.bytes").get() >= before_gpu + 32);
        assert!(reg.counter("vgpu.xfer.to_host.bytes").get() >= before_host + 32);
    }

    #[test]
    fn missing_size_binding_is_reported() {
        let a = ParamDef::typed("a", Type::array(Type::real(), "N"));
        let body = ir::map_glb(a.to_expr(), "x", |x| x);
        let k = KernelDef::new("idk", vec![a], body);
        let a_h = ParamDef::typed("a_h", Type::array(Type::real(), "N"));
        let prog_expr = host::to_host(host::ocl_kernel(&k, vec![host::to_gpu(host::input(&a_h))]));
        let prog = host::compile_host(&prog_expr, ScalarKind::F32).unwrap();
        let env = HostEnv::new().array("a_h", vec![0.0f32; 4]);
        let mut dev = Device::gtx780();
        let r = run_host_program(&prog, &env, &mut dev, ScalarKind::F32, ExecMode::Fast);
        assert!(r.is_err());
    }
}
