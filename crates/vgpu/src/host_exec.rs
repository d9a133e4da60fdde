//! Executes LIFT host programs (§IV-A) on the virtual device.
//!
//! A [`lift::host::HostProgram`] is the compiled form of the paper's host
//! primitives (`ToGPU`, `OclKernel`, `WriteTo`, `ToHost`). This module plays
//! the OpenCL runtime: it allocates buffers, performs the transfers, and
//! launches each kernel in order, returning the host-side outputs.

use crate::buffer::BufData;
use crate::device::{Arg, BufId, Device};
use crate::exec::{ExecError, ExecMode};
use crate::telemetry::HOST_TRACK;
use lift::arith::ArithExpr;
use lift::host::{HostCmd, HostProgram, LaunchArg};
use lift::prelude::{ScalarKind, Value};
use lift::types::Type;
use std::collections::HashMap;
use std::sync::Arc;

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
/// transfer command (`ToGPU` at `CopyIn`, `ToHost` at `CopyOut`).
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
}

/// Result of a host-program run.
pub struct HostRun {
    /// Host outputs produced by `ToHost`, by name.
    pub outputs: HashMap<String, BufData>,
    /// Name of the program's final result within `outputs` (or a device slot
    /// if the program never copied back).
    pub result: String,
    /// Transfer traffic of this run, exactly once per transfer command.
    pub transfers: TransferTotals,
}

/// Evaluates a size expression under the environment's bindings. A negative
/// value is reported, not cast: `as usize` would turn it into an allocation
/// that aborts the caller.
fn eval_arith(e: &ArithExpr, sizes: &HashMap<String, i64>, what: &str) -> Result<usize, ExecError> {
    let v = e
        .eval(&|n| sizes.get(n).copied())
        .map_err(|err| ExecError(format!("cannot evaluate {what} `{e}`: {err}")))?;
    usize::try_from(v).map_err(|_| ExecError(format!("{what} `{e}` evaluates to {v}")))
}

fn eval_len(ty: &Type, sizes: &HashMap<String, i64>) -> Result<usize, ExecError> {
    eval_arith(&ty.scalar_count(), sizes, &format!("length of buffer type {ty}"))
}

/// Binds the arguments of one [`HostCmd::Launch`]: a buffer to the device
/// buffer in its slot, a scalar to its host input, a size to its `int`
/// value. The one launch binder: [`run_host_program`] calls it per launch,
/// `room_acoustics::Simulation` once per slab and buffer rotation.
pub fn bind_launch(
    args: &[LaunchArg],
    slots: &HashMap<&str, BufId>,
    env: &HostEnv,
) -> Result<Vec<Arg>, ExecError> {
    args.iter()
        .map(|a| match a {
            LaunchArg::Buf(name) => slots
                .get(name.as_str())
                .map(|&b| Arg::Buf(b))
                .ok_or_else(|| ExecError(format!("unknown device slot `{name}`"))),
            LaunchArg::ScalarInput(name) => env
                .scalars
                .get(name)
                .map(|&v| Arg::Val(v))
                .ok_or_else(|| ExecError(format!("missing host scalar `{name}`"))),
            LaunchArg::SizeVar(name) => {
                let v = *env
                    .sizes
                    .get(name)
                    .ok_or_else(|| ExecError(format!("unbound size `{name}`")))?;
                let v = i32::try_from(v).map_err(|_| {
                    ExecError(format!("size `{name}` = {v} does not fit the kernel's int argument"))
                })?;
                Ok(Arg::Val(Value::I32(v)))
            }
        })
        .collect()
}

/// Runs a host program. `real` must match the precision the program was
/// compiled with; `mode` selects fast or modeled kernel execution.
pub fn run_host_program(
    prog: &HostProgram,
    env: &HostEnv,
    device: &mut Device,
    real: ScalarKind,
    mode: ExecMode,
) -> Result<HostRun, ExecError> {
    let mut slots: HashMap<&str, BufId> = HashMap::new();
    let mut outputs: HashMap<String, BufData> = HashMap::new();
    let mut transfers = TransferTotals::default();
    let mut prepared = Vec::with_capacity(prog.kernels.len());
    let rt = Arc::clone(device.runtime());
    let trace = &rt.trace;
    {
        let _s = trace.span(HOST_TRACK, "compile_kernels");
        for lk in &prog.kernels {
            prepared.push(device.compile(&lk.kernel)?);
        }
    }
    for cmd in &prog.cmds {
        match cmd {
            HostCmd::CopyIn { host, dev, ty } => {
                let _s = trace.span_with(HOST_TRACK, || format!("ToGPU({dev})"));
                let data = env
                    .arrays
                    .get(host)
                    .ok_or_else(|| ExecError(format!("missing host input array `{host}`")))?;
                let want = eval_len(&ty.resolve_real(real), &env.sizes)?;
                if data.len() != want {
                    return Err(ExecError(format!(
                        "host array `{host}` has {} elements, expected {want}",
                        data.len()
                    )));
                }
                transfers.to_gpu_bytes += (data.len() * data.elem_bytes()) as u64;
                transfers.to_gpu_transfers += 1;
                slots.insert(dev, device.upload(data.clone()));
            }
            HostCmd::Alloc { dev, ty } => {
                let _s = trace.span_with(HOST_TRACK, || format!("Alloc({dev})"));
                let rty = ty.resolve_real(real);
                let kind = rty
                    .scalar_kind()
                    .ok_or_else(|| ExecError(format!("cannot allocate non-uniform type {ty}")))?;
                // Unpromised contents: reading the slot before a kernel has
                // stored to it is the bug `check_host_init` predicts.
                slots.insert(dev, device.create_buffer(kind, eval_len(&rty, &env.sizes)?));
            }
            HostCmd::Launch { kernel, args, global_size } => {
                let _s = trace
                    .span_with(HOST_TRACK, || format!("OclKernel({})", prepared[*kernel].name));
                let largs = bind_launch(args, &slots, env)?;
                let global: Result<Vec<usize>, ExecError> =
                    global_size.iter().map(|g| eval_arith(g, &env.sizes, "global size")).collect();
                device.launch(&prepared[*kernel], &largs, &global?, mode)?;
            }
            HostCmd::CopyOut { dev, host, .. } => {
                let _s = trace.span_with(HOST_TRACK, || format!("ToHost({host})"));
                let buf = slots.get(dev.as_str()).copied();
                let data = device
                    .read(buf.ok_or_else(|| ExecError(format!("unknown device slot `{dev}`")))?);
                transfers.to_host_bytes += (data.len() * data.elem_bytes()) as u64;
                transfers.to_host_transfers += 1;
                outputs.insert(host.clone(), data);
            }
        }
    }
    Ok(HostRun { outputs, result: prog.result.clone(), transfers })
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
        // idx_h: 2×i32) and one ToHost copy (4×f32).
        assert_eq!(
            run.transfers,
            TransferTotals {
                to_gpu_bytes: 4 * 4 + 2 * 4,
                to_gpu_transfers: 2,
                to_host_bytes: 4 * 4,
                to_host_transfers: 1,
            }
        );
    }

    #[test]
    fn transfer_counters_match_run_totals() {
        let rt = crate::runtime::Runtime::new(crate::runtime().settings);

        let a = ParamDef::typed("a", Type::array(Type::real(), "N"));
        let body = ir::map_glb(a.to_expr(), "x", |x| x);
        let k = KernelDef::new("idk2", vec![a], body);
        let a_h = ParamDef::typed("a_h", Type::array(Type::real(), "N"));
        let prog_expr = host::to_host(host::ocl_kernel(&k, vec![host::to_gpu(host::input(&a_h))]));
        let prog = host::compile_host(&prog_expr, ScalarKind::F32).unwrap();
        let env = HostEnv::new().array("a_h", vec![0.0f32; 8]).size("N", 8);
        let mut dev = Device::with_runtime(crate::DeviceProfile::gtx780(), rt.clone());
        let run = run_host_program(&prog, &env, &mut dev, ScalarKind::F32, ExecMode::Fast).unwrap();

        assert_eq!(run.transfers.to_gpu_bytes, 32);
        assert_eq!(run.transfers.to_host_bytes, 32);
        // The device's runtime counted exactly this run's traffic.
        let reg = &rt.registry;
        assert_eq!(reg.counter("vgpu.xfer.to_gpu.bytes").get(), 32);
        assert_eq!(reg.counter("vgpu.xfer.to_host.bytes").get(), 32);
    }

    #[test]
    fn missing_size_binding_is_reported() {
        let a = ParamDef::typed("a", Type::array(Type::real(), "N"));
        let body = ir::map_glb(a.to_expr(), "x", |x| x);
        let k = KernelDef::new("idk", vec![a], body);
        let a_h = ParamDef::typed("a_h", Type::array(Type::real(), "N"));
        let prog_expr = host::to_host(host::ocl_kernel(&k, vec![host::to_gpu(host::input(&a_h))]));
        let mut prog = host::compile_host(&prog_expr, ScalarKind::F32).unwrap();
        let mut dev = Device::gtx780();
        let mut err = |prog: &HostProgram, env: HostEnv| {
            run_host_program(prog, &env, &mut dev, ScalarKind::F32, ExecMode::Fast)
                .err()
                .expect("a bad size binding is an error")
                .0
        };
        err(&prog, HostEnv::new().array("a_h", vec![0.0f32; 4]));
        // A negative size is an error naming the expression and its value,
        // not an `as usize` cast into a `capacity overflow` abort.
        let alloc_only = HostProgram {
            kernels: Vec::new(),
            cmds: vec![HostCmd::Alloc { dev: "x".into(), ty: Type::array(Type::real(), "N") }],
            result: "x".into(),
        };
        let e = err(&alloc_only, HostEnv::new().size("N", -4));
        assert!(e.contains("`N`") && e.contains("-4"), "{e}");
        // A size past `int` is an error, not a truncated kernel argument:
        // buffers of `M` elements, so the launch's `N` argument is reached.
        let m = Type::array(Type::real(), "M");
        for cmd in &mut prog.cmds {
            match cmd {
                HostCmd::CopyIn { ty, .. } | HostCmd::Alloc { ty, .. } => *ty = m.clone(),
                HostCmd::Launch { global_size, .. } => *global_size = vec![ArithExpr::var("M")],
                HostCmd::CopyOut { .. } => {}
            }
        }
        let env = HostEnv::new().array("a_h", vec![0.0f32; 4]).size("M", 4).size("N", 1 << 31);
        let e = err(&prog, env);
        assert!(e.contains("`N`") && e.contains("2147483648"), "{e}");
    }
}
