//! Host-side primitives and host-code generation (§IV-A, Table I).
//!
//! The paper adds four primitives for orchestrating multi-kernel
//! applications from within LIFT: `OclKernel` wraps a device kernel,
//! `ToGPU`/`ToHost` move data, and `WriteTo` declares that a kernel's result
//! lives in one of its input buffers (in-place). This module provides those
//! primitives as a small host expression language, a compiler from host
//! expressions to a flat command list (`HostProgram`), and an emitter that
//! prints the equivalent OpenCL host C code. `OclKernel` wraps a LIFT
//! program or a kernel AST ([`KernelDef`]), so hand-written baselines take
//! part in a schedule as generated kernels do; each kernel carries the
//! launch contract it is compiled under.
//!
//! `room_acoustics::Simulation` runs a compiled step program resident (its
//! transfers hoisted out of the time loop); the `vgpu` crate's host runtime
//! executes any command list as written; the printed C is the inspectable
//! artifact (Table I's host rows).

use crate::arith::ArithExpr;
use crate::ir::{ExprRef, ParamDef, ParamId};
use crate::kast::Kernel;
use crate::lower::{self, lower_kernel_under, ArgSpec, ContractFn, LowerError};
use crate::opencl;
use crate::types::{ScalarKind, Type};
use crate::verify::Assumptions;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::rc::Rc;

/// A device kernel wrapped by `OclKernel`.
#[derive(Debug)]
pub enum KernelDef {
    /// A LIFT program, lowered by [`compile_host_under`].
    Lift {
        /// Kernel name.
        name: String,
        /// Kernel inputs (typed), one `OclKernel` argument each.
        params: Vec<Rc<ParamDef>>,
        /// Kernel body (a top-level parallel map, see [`crate::lower`]).
        body: ExprRef,
    },
    /// A precision-generic kernel AST (a hand-written baseline), launched
    /// over `global_size` under `contract`. Its `i32` scalar parameters bind
    /// to the size variables of their names; every other parameter takes the
    /// next `OclKernel` argument.
    Kast {
        /// The kernel.
        kernel: Kernel,
        /// Global size per dimension (innermost first).
        global_size: Vec<ArithExpr>,
        /// The contract every launch satisfies.
        contract: Box<Assumptions>,
    },
}

impl KernelDef {
    /// A LIFT program.
    pub fn new(name: impl Into<String>, params: Vec<Rc<ParamDef>>, body: ExprRef) -> Rc<Self> {
        Rc::new(KernelDef::Lift { name: name.into(), params, body })
    }

    /// A kernel AST launched over `global_size` under `contract`.
    pub fn kast(kernel: Kernel, global_size: Vec<ArithExpr>, contract: Assumptions) -> Rc<Self> {
        Rc::new(KernelDef::Kast { kernel, global_size, contract: Box::new(contract) })
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
        /// Filled with zeros (`clEnqueueFillBuffer`): the kernel writing it
        /// is compiled under an exterior-zero fact about it
        /// ([`crate::verify::BufferFacts::exterior_zero`]) and stores only
        /// the cells the fact leaves open.
        zeroed: bool,
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

/// A kernel a host program launches, at the program's precision.
#[derive(Debug, Clone)]
pub struct HostKernel {
    /// The kernel (a LIFT program simplified under `contract`).
    pub kernel: Kernel,
    /// The contract every launch of it satisfies.
    pub contract: Assumptions,
}

/// A compiled host program.
#[derive(Debug)]
pub struct HostProgram {
    /// All kernels, indexed by [`HostCmd::Launch::kernel`].
    pub kernels: Vec<HostKernel>,
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

struct HostCtx<'a> {
    kernels: Vec<HostKernel>,
    cmds: Vec<HostCmd>,
    bindings: HashMap<ParamId, HVal>,
    copied: HashMap<String, HVal>,
    counter: usize,
    real: ScalarKind,
    contract: ContractFn<'a>,
}

/// A launch argument for kernel parameter `pos` of `kernel`.
fn launch_arg(v: &HVal, kernel: &str, pos: usize) -> Result<LaunchArg, LowerError> {
    match v {
        HVal::Dev { slot, .. } => Ok(LaunchArg::Buf(slot.clone())),
        HVal::Host { name, ty: Some(Type::Scalar(_)) } => Ok(LaunchArg::ScalarInput(name.clone())),
        HVal::Host { name, .. } => Err(LowerError(format!(
            "argument `{name}` of kernel `{kernel}` is in host memory; wrap it in ToGPU"
        ))),
        HVal::Unit => Err(LowerError(format!(
            "argument {pos} of kernel `{kernel}` produced no value; \
             wrap the producing launch in WriteTo to name its output"
        ))),
    }
}

impl HostCtx<'_> {
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
                let (name, arity) = match &**kernel {
                    KernelDef::Lift { name, params, .. } => (name, params.len()),
                    KernelDef::Kast { kernel, .. } => {
                        (&kernel.name, kernel.params.iter().filter(|p| !is_size(p)).count())
                    }
                };
                if args.len() != arity {
                    return Err(LowerError(format!(
                        "kernel `{name}` expects {arity} arguments, got {}",
                        args.len()
                    )));
                }
                let vals = args.iter().map(|a| self.eval(a)).collect::<Result<Vec<_>, _>>()?;
                let mut out_val = HVal::Unit;
                let (launched, launch_args, global_size) = match &**kernel {
                    KernelDef::Lift { name, params, body } => {
                        let (lowered, contract) =
                            lower_kernel_under(name, params, body, self.real, self.contract)?;
                        let mut launch_args = Vec::with_capacity(lowered.args.len());
                        for (param, spec) in lowered.kernel.params.iter().zip(&lowered.args) {
                            launch_args.push(match spec {
                                ArgSpec::Input(pid, pname) => {
                                    let pos = params.iter().position(|p| p.id == *pid).ok_or_else(
                                        || LowerError(format!("lost parameter `{pname}`")),
                                    )?;
                                    launch_arg(&vals[pos], name, pos)?
                                }
                                ArgSpec::Size(n) => LaunchArg::SizeVar(n.clone()),
                                ArgSpec::Output(_, ty) => {
                                    let slot = self.fresh("d_out");
                                    let facts = contract.buffers.get(&param.name);
                                    let zeroed = facts.is_some_and(|f| f.exterior_zero);
                                    let alloc = HostCmd::Alloc {
                                        dev: slot.clone(),
                                        ty: ty.clone(),
                                        zeroed,
                                    };
                                    self.cmds.push(alloc);
                                    out_val = HVal::Dev { slot: slot.clone(), ty: ty.clone() };
                                    LaunchArg::Buf(slot)
                                }
                            });
                        }
                        let launched = HostKernel { kernel: lowered.kernel, contract };
                        (launched, launch_args, lowered.global_size)
                    }
                    KernelDef::Kast { kernel, global_size, contract } => {
                        let mut vals = vals.iter().enumerate();
                        let mut launch_args = Vec::with_capacity(kernel.params.len());
                        for p in &kernel.params {
                            if is_size(p) {
                                launch_args.push(LaunchArg::SizeVar(p.name.clone()));
                                continue;
                            }
                            let (pos, v) = vals.next().expect("arity checked above");
                            let arg = launch_arg(v, name, pos)?;
                            if p.is_buffer != matches!(arg, LaunchArg::Buf(_)) {
                                return Err(LowerError(format!(
                                    "argument {pos} of kernel `{name}` does not fit parameter `{}`",
                                    p.name
                                )));
                            }
                            launch_args.push(arg);
                        }
                        let kernel = kernel.resolve_real(self.real);
                        (
                            HostKernel { kernel, contract: Assumptions::clone(contract) },
                            launch_args,
                            global_size.clone(),
                        )
                    }
                };
                self.kernels.push(launched);
                self.cmds.push(HostCmd::Launch {
                    kernel: self.kernels.len() - 1,
                    args: launch_args,
                    global_size,
                });
                Ok(out_val)
            }
        }
    }
}

/// An `i32` scalar parameter of a kernel AST: bound by name to a size.
fn is_size(p: &crate::kast::KernelParam) -> bool {
    !p.is_buffer && p.kind == ScalarKind::I32
}

/// Compiles a host expression into a flat host program, each LIFT kernel
/// simplified under `≥ 1` size bounds only ([`lower::size_bounds`]).
///
/// `real` selects the floating-point precision of all kernels.
pub fn compile_host(e: &HostExpr, real: ScalarKind) -> Result<HostProgram, LowerError> {
    compile_host_under(e, real, &lower::size_bounds)
}

/// [`compile_host`] with each LIFT kernel lowered under the launch contract
/// `contract` derives ([`lower::lower_kernel_under`]): what the program's
/// launches satisfy, so what its kernels may be simplified and compiled
/// under.
pub fn compile_host_under(
    e: &HostExpr,
    real: ScalarKind,
    contract: ContractFn,
) -> Result<HostProgram, LowerError> {
    let mut ctx = HostCtx {
        kernels: Vec::new(),
        cmds: Vec::new(),
        bindings: HashMap::new(),
        copied: HashMap::new(),
        counter: 0,
        real,
        contract,
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
            HostCmd::Alloc { dev, ty, zeroed } => {
                let sz = bytes_expr(ty);
                let _ = writeln!(
                    out,
                    "cl_mem {dev} = clCreateBuffer(ctx, CL_MEM_READ_WRITE, {sz}, NULL, &err);",
                );
                if *zeroed {
                    let kind = ty.scalar_kind().map(|k| k.c_name()).unwrap_or("char");
                    let _ = writeln!(
                        out,
                        "{{ const {kind} zero = 0; clEnqueueFillBuffer(queue, {dev}, &zero, \
                         sizeof(zero), 0, {sz}, 0, NULL, NULL); }}",
                    );
                }
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

    /// An output whose contract says its exterior already holds zero is
    /// allocated zero-filled, in the printed C and for the host audit; any
    /// other output is not.
    #[test]
    fn an_exterior_zero_output_is_zero_filled() {
        use crate::lower::LoweredKernel;
        use crate::verify::BufferFacts;
        let input = ParamDef::typed("a_h", Type::array(Type::real(), "N"));
        let prog = to_host(ocl_kernel(&add2_kernel(), vec![to_gpu(HostExpr::Input(input))]));
        let contract = |exterior_zero: bool| {
            move |_: &[Rc<ParamDef>], lk: &LoweredKernel| {
                let mut asm = Assumptions::default();
                for p in lk.kernel.params.iter().filter(|p| p.is_buffer) {
                    let mut facts = BufferFacts::sized(ArithExpr::var("N"));
                    facts.exterior_zero = exterior_zero && p.name != "a";
                    asm.buffers.insert(p.name.clone(), facts);
                }
                asm
            }
        };
        for zero in [false, true] {
            let hp = compile_host_under(&prog, ScalarKind::F32, &contract(zero)).unwrap();
            assert!(matches!(hp.cmds[1], HostCmd::Alloc { zeroed, .. } if zeroed == zero));
            assert_eq!(emit_host_c(&hp).contains("clEnqueueFillBuffer"), zero);
        }
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

    /// `out[gid] = a[gid] * s` as a kernel AST with its size in the middle
    /// of its parameters.
    fn scale_kast() -> Rc<KernelDef> {
        use crate::kast::{KExpr, KStmt, KernelParam, MemRef};
        let gid = || KExpr::GlobalId(0);
        let kernel = Kernel {
            name: "scale".into(),
            params: vec![
                KernelParam::global_buf("out", ScalarKind::Real),
                KernelParam::scalar("N", ScalarKind::I32),
                KernelParam::global_buf("a", ScalarKind::Real),
                KernelParam::scalar("s", ScalarKind::Real),
            ],
            body: vec![KStmt::Store {
                mem: MemRef::Param(0),
                idx: gid(),
                value: KExpr::load(MemRef::Param(2), gid()) * KExpr::var("s"),
            }],
            work_dim: 1,
        };
        let contract = Assumptions { size_bounds: vec![("N".into(), 1)], ..Default::default() };
        KernelDef::kast(kernel, vec![ArithExpr::var("N")], contract)
    }

    #[test]
    fn a_kast_kernel_binds_sizes_by_name_and_the_rest_by_position() {
        let k = scale_kast();
        let out = ParamDef::typed("out_h", Type::array(Type::real(), "N"));
        let a = ParamDef::typed("a_h", Type::array(Type::real(), "N"));
        let s = ParamDef::typed("s_h", Type::real());
        let args = vec![to_gpu(input(&out)), to_gpu(input(&a)), input(&s)];
        let prog = to_host(host_write_to(to_gpu(input(&out)), ocl_kernel(&k, args)));
        let hp = compile_host(&prog, ScalarKind::F64).unwrap();
        let launch = hp.cmds.iter().find(|c| matches!(c, HostCmd::Launch { .. })).unwrap();
        let want = [
            LaunchArg::Buf("d_out_h".into()),
            LaunchArg::SizeVar("N".into()),
            LaunchArg::Buf("d_a_h".into()),
            LaunchArg::ScalarInput("s_h".into()),
        ];
        assert!(matches!(launch, HostCmd::Launch { args, .. } if args[..] == want), "{launch:?}");
        assert_eq!(hp.kernels[0].kernel.params[0].kind, ScalarKind::F64, "resolved");
        assert_eq!(hp.kernels[0].contract.size_bounds, vec![("N".to_string(), 1)]);
        // A scalar where the kernel takes a buffer is a compile error.
        let swapped = ocl_kernel(&k, vec![to_gpu(input(&out)), input(&s), to_gpu(input(&a))]);
        assert!(compile_host(&swapped, ScalarKind::F64).is_err());
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
