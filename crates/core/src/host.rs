//! Host-side primitives and host-code generation (§IV-A, Table I).
//!
//! The paper adds four primitives for orchestrating multi-kernel
//! applications from within LIFT: `OclKernel` wraps a device kernel,
//! `ToGPU`/`ToHost` move data, and `WriteTo` declares that a kernel's result
//! lives in one of its input buffers (in-place). This module provides those
//! primitives as a small host expression language, a compiler from host
//! expressions to a flat command list (`HostProgram`), and an emitter that
//! prints the equivalent OpenCL host C code.
//!
//! The command list is executed by the `vgpu` crate's host runtime; the
//! printed C is the inspectable artifact (Table I's host rows).

use crate::arith::ArithExpr;
use crate::ir::{ExprRef, ParamDef, ParamId};
use crate::lower::{lower_kernel, ArgSpec, LowerError, LoweredKernel};
use crate::opencl;
use crate::types::{ScalarKind, Type};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::rc::Rc;

/// A device-kernel definition wrapped by `OclKernel`.
#[derive(Debug)]
pub struct KernelDef {
    /// Kernel name.
    pub name: String,
    /// Kernel inputs (typed).
    pub params: Vec<Rc<ParamDef>>,
    /// Kernel body (a top-level parallel map, see [`crate::lower`]).
    pub body: ExprRef,
}

impl KernelDef {
    /// Creates a kernel definition.
    pub fn new(name: impl Into<String>, params: Vec<Rc<ParamDef>>, body: ExprRef) -> Rc<Self> {
        Rc::new(KernelDef { name: name.into(), params, body })
    }
}

/// Host expressions.
#[derive(Debug, Clone)]
pub enum HostExpr {
    /// A host-memory input (by its program parameter).
    Input(Rc<ParamDef>),
    /// Reference to a `Let`-bound host value.
    Ref(Rc<ParamDef>),
    /// Transfer host → device (identity semantics; emits a write-buffer
    /// call).
    ToGpu(Box<HostExpr>),
    /// Transfer device → host (identity semantics; emits a read-buffer
    /// call).
    ToHost(Box<HostExpr>),
    /// Launch a kernel with the given arguments (`OclKernel` in the paper).
    Launch {
        /// Kernel to launch.
        kernel: Rc<KernelDef>,
        /// Arguments, one per kernel input, in order.
        args: Vec<HostExpr>,
    },
    /// Declares that `value` (a kernel launch) writes its result into
    /// `dest`; the expression's result is `dest`.
    WriteTo {
        /// Destination device value.
        dest: Box<HostExpr>,
        /// The computation writing into it.
        value: Box<HostExpr>,
    },
    /// `val p = value; body`.
    Let {
        /// Binder.
        param: Rc<ParamDef>,
        /// Bound host expression.
        value: Box<HostExpr>,
        /// Body.
        body: Box<HostExpr>,
    },
}

/// Host input.
pub fn input(p: &Rc<ParamDef>) -> HostExpr {
    HostExpr::Input(p.clone())
}

/// `ToGPU(e)`.
pub fn to_gpu(e: HostExpr) -> HostExpr {
    HostExpr::ToGpu(Box::new(e))
}

/// `ToHost(e)`.
pub fn to_host(e: HostExpr) -> HostExpr {
    HostExpr::ToHost(Box::new(e))
}

/// `OclKernel(kernel, args…)`.
pub fn ocl_kernel(kernel: &Rc<KernelDef>, args: Vec<HostExpr>) -> HostExpr {
    HostExpr::Launch { kernel: kernel.clone(), args }
}

/// Host-level `WriteTo(dest, value)`.
pub fn host_write_to(dest: HostExpr, value: HostExpr) -> HostExpr {
    HostExpr::WriteTo { dest: Box::new(dest), value: Box::new(value) }
}

/// `val name = value; body(name)`.
pub fn host_let(name: &str, value: HostExpr, body: impl FnOnce(HostExpr) -> HostExpr) -> HostExpr {
    let p = ParamDef::untyped(name);
    let b = body(HostExpr::Ref(p.clone()));
    HostExpr::Let { param: p, value: Box::new(value), body: Box::new(b) }
}

/// One argument of a kernel launch command.
#[derive(Debug, Clone, PartialEq)]
pub enum LaunchArg {
    /// A device buffer slot.
    Buf(String),
    /// A scalar taken from the host input with this name.
    ScalarInput(String),
    /// A symbolic size variable resolved from the launch environment.
    SizeVar(String),
}

/// Flat host commands (what `clEnqueue*` calls the generator emits), all on
/// one in-order queue — the paper's host primitives schedule one GPU.
#[derive(Debug, Clone, PartialEq)]
pub enum HostCmd {
    /// Allocate a device buffer.
    Alloc {
        /// Device slot name.
        dev: String,
        /// Buffer type (symbolic length).
        ty: Type,
    },
    /// `enqueueWriteBuffer`: copy a host input to a device slot.
    CopyIn {
        /// Host input name.
        host: String,
        /// Device slot.
        dev: String,
        /// Buffer type.
        ty: Type,
    },
    /// `enqueueNDRangeKernel` (with an implicit dependency on previous
    /// commands touching the same buffers — the in-order queue of OpenCL).
    Launch {
        /// Index into [`HostProgram::kernels`].
        kernel: usize,
        /// Arguments in kernel-parameter order.
        args: Vec<LaunchArg>,
        /// Global size per dimension (innermost first).
        global_size: Vec<ArithExpr>,
    },
    /// `enqueueReadBuffer`: copy a device slot back to a host output name.
    CopyOut {
        /// Device slot.
        dev: String,
        /// Host output name.
        host: String,
        /// Buffer type.
        ty: Type,
    },
}

/// A compiled host program.
#[derive(Debug)]
pub struct HostProgram {
    /// All lowered kernels, indexed by [`HostCmd::Launch::kernel`].
    pub kernels: Vec<LoweredKernel>,
    /// Commands in execution order (in-order queue semantics).
    pub cmds: Vec<HostCmd>,
    /// Name of the host value the program's result ends up in.
    pub result: String,
}

#[derive(Clone, Debug)]
enum HVal {
    Host { name: String, ty: Option<Type> },
    Dev { slot: String, ty: Type },
    Unit,
}

struct HostCtx {
    kernels: Vec<LoweredKernel>,
    cmds: Vec<HostCmd>,
    bindings: HashMap<ParamId, HVal>,
    copied: HashMap<String, HVal>,
    counter: usize,
    real: ScalarKind,
}

impl HostCtx {
    fn fresh(&mut self, prefix: &str) -> String {
        let n = self.counter;
        self.counter += 1;
        format!("{prefix}{n}")
    }

    fn eval(&mut self, e: &HostExpr) -> Result<HVal, LowerError> {
        match e {
            HostExpr::Input(p) => Ok(HVal::Host { name: p.name.clone(), ty: p.ty.clone() }),
            HostExpr::Ref(p) => self
                .bindings
                .get(&p.id)
                .cloned()
                .ok_or_else(|| LowerError(format!("unbound host value `{}`", p.name))),
            HostExpr::Let { param, value, body } => {
                let v = self.eval(value)?;
                self.bindings.insert(param.id, v);
                self.eval(body)
            }
            HostExpr::ToGpu(inner) => {
                let v = self.eval(inner)?;
                match v {
                    HVal::Host { name, ty } => {
                        if let Some(existing) = self.copied.get(&name) {
                            return Ok(existing.clone());
                        }
                        let ty = ty.ok_or_else(|| {
                            LowerError(format!("host input `{name}` has no declared type"))
                        })?;
                        if matches!(ty, Type::Scalar(_)) {
                            return Err(LowerError(format!(
                                "ToGPU of scalar `{name}` — scalars are passed as kernel arguments"
                            )));
                        }
                        let dev = format!("d_{name}");
                        self.cmds.push(HostCmd::CopyIn {
                            host: name.clone(),
                            dev: dev.clone(),
                            ty: ty.clone(),
                        });
                        let hv = HVal::Dev { slot: dev, ty };
                        self.copied.insert(name, hv.clone());
                        Ok(hv)
                    }
                    HVal::Dev { .. } => Ok(v), // already on the device: identity
                    HVal::Unit => Err(LowerError("ToGPU of a unit value".into())),
                }
            }
            HostExpr::ToHost(inner) => {
                let v = self.eval(inner)?;
                match v {
                    HVal::Dev { slot, ty } => {
                        let host = format!("h_{slot}");
                        self.cmds.push(HostCmd::CopyOut {
                            dev: slot,
                            host: host.clone(),
                            ty: ty.clone(),
                        });
                        Ok(HVal::Host { name: host, ty: Some(ty) })
                    }
                    HVal::Host { .. } => Ok(v),
                    HVal::Unit => Err(LowerError("ToHost of a unit value".into())),
                }
            }
            HostExpr::WriteTo { dest, value } => {
                let d = self.eval(dest)?;
                let _ = self.eval(value)?;
                Ok(d)
            }
            HostExpr::Launch { kernel, args } => {
                if args.len() != kernel.params.len() {
                    return Err(LowerError(format!(
                        "kernel `{}` expects {} arguments, got {}",
                        kernel.name,
                        kernel.params.len(),
                        args.len()
                    )));
                }
                let lowered = lower_kernel(&kernel.name, &kernel.params, &kernel.body, self.real)?;
                let mut launch_args = Vec::with_capacity(lowered.args.len());
                let mut out_val = HVal::Unit;
                let vals: Result<Vec<HVal>, LowerError> =
                    args.iter().map(|a| self.eval(a)).collect();
                let vals = vals?;
                for spec in &lowered.args {
                    match spec {
                        ArgSpec::Input(pid, pname) => {
                            let pos =
                                kernel.params.iter().position(|p| p.id == *pid).ok_or_else(
                                    || LowerError(format!("lost parameter `{pname}`")),
                                )?;
                            match &vals[pos] {
                                HVal::Dev { slot, .. } => launch_args.push(LaunchArg::Buf(slot.clone())),
                                HVal::Host { name, ty: Some(Type::Scalar(_)) } => {
                                    launch_args.push(LaunchArg::ScalarInput(name.clone()))
                                }
                                HVal::Host { name, .. } => {
                                    return Err(LowerError(format!(
                                        "argument `{name}` of kernel `{}` is in host memory; wrap it in ToGPU",
                                        kernel.name
                                    )))
                                }
                                HVal::Unit => {
                                    return Err(LowerError(format!(
                                        "argument {pos} of kernel `{}` produced no value; \
                                         wrap the producing launch in WriteTo to name its output",
                                        kernel.name
                                    )))
                                }
                            }
                        }
                        ArgSpec::Size(n) => launch_args.push(LaunchArg::SizeVar(n.clone())),
                        ArgSpec::Output(_, ty) => {
                            let slot = self.fresh("d_out");
                            self.cmds.push(HostCmd::Alloc { dev: slot.clone(), ty: ty.clone() });
                            launch_args.push(LaunchArg::Buf(slot.clone()));
                            out_val = HVal::Dev { slot, ty: ty.clone() };
                        }
                    }
                }
                let kid = self.kernels.len();
                self.kernels.push(lowered.clone());
                self.cmds.push(HostCmd::Launch {
                    kernel: kid,
                    args: launch_args,
                    global_size: lowered.global_size.clone(),
                });
                Ok(out_val)
            }
        }
    }
}

/// Compiles a host expression into a flat host program.
///
/// `real` selects the floating-point precision of all generated kernels.
pub fn compile_host(e: &HostExpr, real: ScalarKind) -> Result<HostProgram, LowerError> {
    let mut ctx = HostCtx {
        kernels: Vec::new(),
        cmds: Vec::new(),
        bindings: HashMap::new(),
        copied: HashMap::new(),
        counter: 0,
        real,
    };
    let result = ctx.eval(e)?;
    let result = match result {
        HVal::Host { name, .. } => name,
        HVal::Dev { slot, .. } => slot,
        HVal::Unit => String::from("(unit)"),
    };
    Ok(HostProgram { kernels: ctx.kernels, cmds: ctx.cmds, result })
}

fn bytes_expr(ty: &Type) -> String {
    let kind = ty.scalar_kind().map(|k| k.c_name()).unwrap_or("char");
    format!("{} * sizeof({kind})", ty.scalar_count())
}

/// Prints the host program as OpenCL host C code (plus all kernel sources),
/// mirroring the "Generated code" column of Table I. Single-queue by design:
/// a multi-device step is `room_acoustics::Simulation`'s, not a host program.
pub fn emit_host_c(p: &HostProgram) -> String {
    let mut out = String::new();
    out.push_str("// ---- device kernels ----\n");
    for lk in &p.kernels {
        out.push_str(&opencl::emit_kernel(&lk.kernel));
        out.push('\n');
    }
    out.push_str("// ---- host code ----\n");
    for cmd in &p.cmds {
        match cmd {
            HostCmd::Alloc { dev, ty } => {
                let _ = writeln!(
                    out,
                    "cl_mem {dev} = clCreateBuffer(ctx, CL_MEM_READ_WRITE, {}, NULL, &err);",
                    bytes_expr(ty)
                );
            }
            HostCmd::CopyIn { host, dev, ty } => {
                let sz = bytes_expr(ty);
                let _ = writeln!(
                    out,
                    "cl_mem {dev} = clCreateBuffer(ctx, CL_MEM_READ_WRITE, {sz}, NULL, &err);",
                );
                let _ = writeln!(
                    out,
                    "clEnqueueWriteBuffer(queue, {dev}, CL_TRUE, 0, {sz}, {host}, 0, NULL, NULL);",
                );
            }
            HostCmd::Launch { kernel, args, global_size } => {
                let name = &p.kernels[*kernel].kernel.name;
                for (i, a) in args.iter().enumerate() {
                    match a {
                        LaunchArg::Buf(b) => {
                            let _ =
                                writeln!(out, "clSetKernelArg({name}, {i}, sizeof(cl_mem), &{b});");
                        }
                        LaunchArg::ScalarInput(s) => {
                            let _ =
                                writeln!(out, "clSetKernelArg({name}, {i}, sizeof({s}), &{s});");
                        }
                        LaunchArg::SizeVar(s) => {
                            let _ =
                                writeln!(out, "clSetKernelArg({name}, {i}, sizeof(int), &{s});");
                        }
                    }
                }
                let dims = global_size.len();
                let gs: Vec<String> = global_size.iter().map(|g| g.to_string()).collect();
                let _ = writeln!(out, "size_t global_{name}[{dims}] = {{{}}};", gs.join(", "));
                let _ = writeln!(
                    out,
                    "clEnqueueNDRangeKernel(queue, {name}, {dims}, NULL, global_{name}, NULL, 0, NULL, NULL);",
                );
            }
            HostCmd::CopyOut { dev, host, ty } => {
                let _ = writeln!(
                    out,
                    "clEnqueueReadBuffer(queue, {dev}, CL_TRUE, 0, {}, {host}, 0, NULL, NULL);",
                    bytes_expr(ty)
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::funs;
    use crate::ir::{self, ParamDef};
    use crate::types::Type;

    fn add2_kernel() -> Rc<KernelDef> {
        let a = ParamDef::typed("a", Type::array(Type::real(), "N"));
        let body = ir::map_glb(a.to_expr(), "x", |x| {
            ir::call(&funs::add(), vec![x, ir::lit(crate::scalar::Lit::real(2.0))])
        });
        KernelDef::new("add2k", vec![a], body)
    }

    #[test]
    fn single_kernel_roundtrip() {
        let k = add2_kernel();
        let input = ParamDef::typed("a_h", Type::array(Type::real(), "N"));
        let prog = to_host(ocl_kernel(&k, vec![to_gpu(HostExpr::Input(input))]));
        let hp = compile_host(&prog, ScalarKind::F32).unwrap();
        assert_eq!(hp.kernels.len(), 1);
        // CopyIn, Alloc(out), Launch, CopyOut
        assert!(matches!(hp.cmds[0], HostCmd::CopyIn { .. }));
        assert!(matches!(hp.cmds[1], HostCmd::Alloc { .. }));
        assert!(matches!(hp.cmds[2], HostCmd::Launch { .. }));
        assert!(matches!(hp.cmds[3], HostCmd::CopyOut { .. }));
    }

    #[test]
    fn togpu_is_deduplicated() {
        let k = add2_kernel();
        let input = ParamDef::typed("a_h", Type::array(Type::real(), "N"));
        let prog = host_let("x", to_gpu(HostExpr::Input(input.clone())), |_x| {
            to_host(ocl_kernel(&k, vec![to_gpu(HostExpr::Input(input))]))
        });
        let hp = compile_host(&prog, ScalarKind::F32).unwrap();
        let copies = hp.cmds.iter().filter(|c| matches!(c, HostCmd::CopyIn { .. })).count();
        assert_eq!(copies, 1);
    }

    #[test]
    fn missing_togpu_is_an_error() {
        let k = add2_kernel();
        let input = ParamDef::typed("a_h", Type::array(Type::real(), "N"));
        let prog = ocl_kernel(&k, vec![HostExpr::Input(input)]);
        assert!(compile_host(&prog, ScalarKind::F32).is_err());
    }

    #[test]
    fn emitted_host_c_mentions_opencl_calls() {
        let k = add2_kernel();
        let input = ParamDef::typed("a_h", Type::array(Type::real(), "N"));
        let prog = to_host(ocl_kernel(&k, vec![to_gpu(HostExpr::Input(input))]));
        let hp = compile_host(&prog, ScalarKind::F32).unwrap();
        let src = emit_host_c(&hp);
        assert!(src.contains("clEnqueueWriteBuffer"), "{src}");
        assert!(src.contains("clEnqueueNDRangeKernel"), "{src}");
        assert!(src.contains("clEnqueueReadBuffer"), "{src}");
        assert!(src.contains("clSetKernelArg"), "{src}");
    }
}
