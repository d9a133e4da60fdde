//! Listing 5: the host program of a simulation step, for every generated
//! kernel set.
//!
//! Builds the paper's host expression for FI-MM —
//!
//! ```text
//! val prev2_g = ToGPU(prev2_h)
//! val next_g  = OclKernel(volume_handling_kernel, ToGPU(prev1_h), prev2_g, …)
//! ToHost(WriteTo(next_g,
//!        OclKernel(boundary_handling_kernel, ToGPU(boundaries), …, next_g, prev2_g)))
//! ```
//!
//! — and its FD-MM and one-kernel FI counterparts, and compiles each with
//! [`lift::host::compile_host_under`], which lowers every kernel under its
//! launch contract exactly as [`Program::lower`] does, inserts the
//! transfers, allocates the volume kernel's output and routes the boundary
//! kernel's in-place writes. A compiled program is the step
//! [`room_acoustics::Simulation`] runs ([`LiftBoundary`] is its
//! [`KernelSource`]): what ships is what [`lift::host::emit_host_c`]
//! prints. Like the paper's, a program schedules one GPU; several devices
//! are `Simulation`'s business.

use crate::programs::{self, Program};
use lift::host::{self, HostExpr, HostProgram};
use lift::ir::ParamDef;
use lift::lower::LowerError;
use lift::types::{ScalarKind, Type};
use room_acoustics::{step_input, BoundaryKernel, HandwrittenFi, KernelSource};

/// Which boundary model a LIFT run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LiftBoundary {
    /// Listing 6: uniform FI inside the one volume kernel.
    Fi,
    /// Listing 7 (FI-MM).
    FiMm,
    /// Listing 8 (FD-MM).
    FdMm,
}

impl KernelSource for LiftBoundary {
    fn name(&self) -> &'static str {
        match self {
            LiftBoundary::Fi => "fi_lift",
            LiftBoundary::FiMm => "fimm_lift",
            LiftBoundary::FdMm => "fdmm_lift",
        }
    }

    fn host_program(&self, real: ScalarKind) -> Result<HostProgram, LowerError> {
        let step = match self {
            LiftBoundary::Fi => fi_step_host_expr(),
            LiftBoundary::FiMm => fimm_step_host_expr(),
            LiftBoundary::FdMm => fdmm_step_host_expr(),
        };
        compile(&step, real)
    }
}

/// Every kernel set a simulation runs — FI, FI-MM (both β placements) and
/// FD-MM, hand-written and generated: the enumeration the host audit and
/// `codegen_inspect` walk.
pub fn all_sets() -> [&'static dyn KernelSource; 7] {
    [
        &HandwrittenFi,
        &BoundaryKernel::FiMm { beta_constant: false },
        &BoundaryKernel::FiMm { beta_constant: true },
        &BoundaryKernel::FdMm,
        &LiftBoundary::Fi,
        &LiftBoundary::FiMm,
        &LiftBoundary::FdMm,
    ]
}

/// Compiles a host expression over LIFT programs at precision `real`, each
/// kernel lowered under its [`programs::launch_assumptions`].
pub fn compile(step: &HostExpr, real: ScalarKind) -> Result<HostProgram, LowerError> {
    host::compile_host_under(step, real, &programs::contract)
}

/// Host inputs of the step vocabulary, named space-separated.
fn inputs(names: &str) -> impl Iterator<Item = HostExpr> + '_ {
    names.split(' ').map(step_input)
}

/// `OclKernel(program, args…)` over host inputs of the step vocabulary.
fn launch(program: Program, args: &str) -> HostExpr {
    host::ocl_kernel(&program.def(), inputs(args).collect())
}

/// The Listing 5 host expression for one FI-MM simulation step.
///
/// Host inputs: `curr_h`, `prev_h` (flattened 3-D grids — the same memory
/// viewed as `[[[T]]]` by the volume kernel and `[T; N]` by the boundary
/// kernel), `nbrs_h`, `boundaries_h`, `bnbrs_h`, `material_h`, `beta_h`,
/// and scalars `l2`, `l`.
fn fimm_step_host_expr() -> HostExpr {
    let (volume, boundary) = (programs::volume_program().def(), programs::fimm_program().def());
    let input = |name, ty| host::input(&ParamDef::typed(name, ty));
    let gpu = |name, ty| host::to_gpu(input(name, ty));
    let grid = |elem| Type::array3(elem, "Nx", "Ny", "Nz");
    let list = || Type::array(Type::i32(), "numB");
    // NOTE on types: the volume kernel's output has the 3-D grid type; the
    // boundary kernel's `next`/`prev` are the same buffers viewed flat. The
    // host layer identifies buffers by slot, not by type, exactly as OpenCL
    // `cl_mem`s are untyped — so passing `next_g` to the flat-typed
    // parameter is the paper's own reinterpretation.
    host::host_let("prev2_g", gpu("prev_h", grid(Type::real())), move |prev2_g| {
        let curr = gpu("curr_h", grid(Type::real()));
        let nbrs = gpu("nbrs_h", grid(Type::i32()));
        let args = vec![curr, prev2_g.clone(), nbrs, input("l2", Type::real())];
        host::host_let("next_g", host::ocl_kernel(&volume, args), move |next_g| {
            let tables = [("boundaries_h", list()), ("bnbrs_h", list()), ("material_h", list())];
            let beta = ("beta_h", Type::array(Type::real(), "NM"));
            let mut args: Vec<HostExpr> =
                tables.into_iter().chain([beta]).map(|(n, t)| gpu(n, t)).collect();
            args.extend([next_g.clone(), prev2_g, input("l", Type::real())]);
            host::to_host(host::host_write_to(next_g, host::ocl_kernel(&boundary, args)))
        })
    })
}

/// Listing 5 for FD-MM: the volume kernel allocates `next`, and Listing 8
/// writes it, `g1` and `v1` in place.
fn fdmm_step_host_expr() -> HostExpr {
    let volume = launch(programs::volume_program(), "curr_h prev_h nbrs_h l2");
    host::host_let("next_g", volume, |next_g| {
        let tables = inputs("boundaries_h bnbrs_h material_h beta_h BI_h D_h DI_h F_h");
        let args = tables.chain([next_g.clone()]).chain(inputs("prev_h g1_h v1_h v2_h l"));
        let boundary = host::ocl_kernel(&programs::fdmm_program().def(), args.collect());
        host::to_host(host::host_write_to(next_g, boundary))
    })
}

/// Listing 6 as a step: one kernel allocates `next`.
fn fi_step_host_expr() -> HostExpr {
    host::to_host(launch(programs::fi_single_program(), "curr_h prev_h nbrs_h l l2 beta"))
}

/// Compiles the Listing 5 host program at the given precision — the step a
/// [`LiftBoundary::FiMm`] simulation runs, compiled afresh on every call.
pub fn fimm_step_host_program(real: ScalarKind) -> Result<HostProgram, LowerError> {
    compile(&fimm_step_host_expr(), real)
}
