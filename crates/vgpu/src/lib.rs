//! # vgpu — a virtual OpenCL-like GPU substrate
//!
//! The paper evaluates on four physical GPUs driven through OpenCL. This
//! crate substitutes that testbed (per DESIGN.md §3): it executes the same
//! generated kernel ASTs with a rayon-parallel NDRange interpreter, counts
//! memory traffic with a warp-accurate 128-byte-transaction model, and
//! converts counts into modeled kernel times through per-device roofline
//! profiles built from the paper's Table III.
//!
//! * [`device::Device`] — buffers + in-order queue; a launch returns its
//!   profiling record;
//! * [`runtime::Runtime`] — the settings and accounts of devices;
//!   [`runtime()`] is the default, built from the `VGPU_*` environment;
//! * [`exec`] — kernel preparation and the interpreter (counters, traces);
//! * [`sanitize`] — the shadow sanitizer: uninitialised and stale-halo
//!   reads, and write races;
//! * [`bytecode`] — flat register-based tapes that kernels compile to
//!   (optimized, then [`compile`]'s superinstruction fusion), and the one
//!   executor that runs them a 32-lane warp at a time over a
//!   structure-of-arrays register file: one decode per warp, divergent
//!   branches running both sides under complementary lane masks, grouped
//!   launches too. It is the default engine (`VGPU_ENGINE=fast`); the
//!   tree-walker reference oracle (`VGPU_ENGINE=tree`) remains selectable,
//!   and `VGPU_ENGINE=diff` runs the oracle and then the tape and asserts
//!   bit-identical results (see [`exec::Engine`]);
//! * [`profile::DeviceProfile`] — the four Table III GPUs;
//! * [`perfmodel`] — transactions/flops → modeled seconds;
//! * [`host_exec`] — runs LIFT host programs (`ToGPU`/`OclKernel`/`ToHost`)
//!   on one device;
//! * [`shard`] — the Z-slab partition and halo exchange that
//!   `room_acoustics::Simulation`, the one multi-device step, is built on.
//!
//! ## Example: run a generated kernel
//!
//! ```
//! use lift::prelude::*;
//! use lift::{funs, ir};
//! use vgpu::{Arg, BufData, Device, ExecMode};
//!
//! // generate a kernel: out[i] = a[i] + 2
//! let a = ParamDef::typed("a", Type::array(Type::real(), "N"));
//! let prog = ir::map_glb(a.to_expr(), "x", |x| {
//!     ir::call(&funs::add(), vec![x, ir::lit(Lit::real(2.0))])
//! });
//! let lowered = lower_kernel("add2", &[a], &prog, ScalarKind::F32).unwrap();
//!
//! // run it on the virtual GPU
//! let mut dev = Device::gtx780();
//! let prep = dev.compile(&lowered.kernel).unwrap();
//! let input = dev.upload(BufData::from(vec![1.0f32, 2.0, 3.0]));
//! let out = dev.create_buffer(ScalarKind::F32, 3);
//! // kernel params: a, N (size), out
//! dev.launch(
//!     &prep,
//!     &[Arg::Buf(input), Arg::Val(Value::I32(3)), Arg::Buf(out)],
//!     &[3],
//!     ExecMode::Fast,
//! )
//! .unwrap();
//! assert_eq!(dev.read(out), BufData::from(vec![3.0f32, 4.0, 5.0]));
//! ```

#![warn(missing_docs)]

pub mod artifact;
pub mod buffer;
pub mod bytecode;
pub(crate) mod compile;
pub mod device;
pub mod exec;
pub mod host_exec;
pub mod perfmodel;
pub mod profile;
pub mod profiler;
pub mod runtime;
pub mod sanitize;
pub(crate) mod settings;
pub mod shard;
pub mod telemetry;
pub mod verify;

pub use artifact::{compile_cached, compile_cached_under, verify_cached};
pub use buffer::BufData;
pub use device::{Arg, BufId, Device};
pub use exec::{Backend, Counters, Engine, ExecError, ExecMode, LaunchStats, Prepared};
pub use host_exec::{bind_launch, run_host_program, HostEnv, HostRun, TransferTotals};
pub use perfmodel::{modeled_sharded_step_s, modeled_time_s, updates_per_second, ModelInput};
pub use profile::DeviceProfile;
pub use runtime::{runtime, Runtime, Settings};
pub use sanitize::{FaultKind, Finding, HaloProvenance};
pub use shard::{halo_exchange, SlabPartition};
pub use telemetry::{TraceMode, TrackId};
pub use verify::{verify_prepared, TapeFinding, TapePass, TapeReport};
