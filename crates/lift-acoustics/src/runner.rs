//! LIFT-generated kernels as a [`room_acoustics::Simulation`] kernel set.
//!
//! The generated counterpart of the hand-written kernels: the same
//! front end, but the volume and boundary kernels come out of the LIFT code
//! generator ([`crate::programs`]). A [`lift::lower::LoweredKernel`]'s
//! parameters are bound by program-parameter name
//! ([`room_acoustics::StepKernel::new`]), so the driver is robust to the
//! generator adding or reordering size parameters.

use crate::programs::{self, Program};
use lift::lower::{ArgSpec, LoweredKernel};
use lift::prelude::{ScalarKind, Value};
use room_acoustics::{KernelOrigin, KernelSource, SimError, StepKernel, StepKernels};
use std::collections::HashMap;
use std::sync::Arc;
use vgpu::{Arg, BufId};

/// Which boundary model a LIFT run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LiftBoundary {
    /// Listing 7 (FI-MM).
    FiMm,
    /// Listing 8 (FD-MM).
    FdMm,
}

impl KernelSource for LiftBoundary {
    fn step_kernels(&self, real: ScalarKind) -> Result<StepKernels, SimError> {
        let boundary = match self {
            LiftBoundary::FiMm => programs::fimm_program(),
            LiftBoundary::FdMm => programs::fdmm_program(),
        };
        Ok(StepKernels {
            volume: step_kernel(&programs::volume_program(), real)?,
            boundary: Some(step_kernel(&boundary, real)?),
        })
    }
}

/// `program` lowered at precision `real` and bound to roles, once per
/// process ([`StepKernel::shared`]): the generated kernels are size-generic,
/// so every room of a given boundary model and precision launches the same
/// kernel under the same contract ([`programs::launch_assumptions`], the
/// one `lift_verify` proves it under) — and, through
/// [`StepKernel::prepared`], the same artifact.
pub fn step_kernel(program: &Program, real: ScalarKind) -> Result<Arc<StepKernel>, SimError> {
    StepKernel::shared(KernelOrigin::Program(program.name), real, || {
        let lowered = program.lower(real).unwrap_or_else(|e| panic!("{}: {e}", program.name));
        let contract = programs::launch_assumptions(program, &lowered);
        StepKernel::new(lowered.kernel, contract, lowered.global_size).map(Arc::new)
    })
}

/// Binds a lowered kernel's arguments by name — the by-name binding a
/// stand-alone launch of one generated kernel needs; [`step_kernel`] is
/// what simulations use.
///
/// `bufs` maps program-parameter names to device buffers, `scalars` maps
/// scalar parameter names to values, `sizes` maps size variables to values.
pub fn bind_args(
    lowered: &LoweredKernel,
    bufs: &HashMap<&str, BufId>,
    scalars: &HashMap<&str, Value>,
    sizes: &HashMap<&str, i64>,
    output: Option<BufId>,
) -> Vec<Arg> {
    lowered
        .args
        .iter()
        .map(|spec| match spec {
            ArgSpec::Input(_, name) => {
                if let Some(b) = bufs.get(name.as_str()) {
                    Arg::Buf(*b)
                } else if let Some(v) = scalars.get(name.as_str()) {
                    Arg::Val(*v)
                } else {
                    panic!("no binding for kernel input `{name}`")
                }
            }
            ArgSpec::Size(name) => Arg::Val(Value::I32(
                *sizes.get(name.as_str()).unwrap_or_else(|| panic!("unbound size `{name}`")) as i32,
            )),
            ArgSpec::Output(_, _) => {
                Arg::Buf(output.expect("kernel allocates an output; pass one"))
            }
        })
        .collect()
}

/// Evaluates a lowered kernel's global size against a size environment.
pub fn global_size(lowered: &LoweredKernel, sizes: &HashMap<&str, i64>) -> Vec<usize> {
    lowered
        .global_size
        .iter()
        .map(|g| g.eval(&|n| sizes.get(n).copied()).expect("global size evaluates") as usize)
        .collect()
}
