//! # lift — a pattern-based code generator with complex-boundary primitives
//!
//! This crate reproduces the compiler contribution of *"Code Generation for
//! Room Acoustics Simulations with Complex Boundary Conditions using LIFT"*
//! (IPDPS 2021): a functional, pattern-based intermediate representation and
//! an OpenCL-style code generator, extended with the primitives the paper
//! introduces for realistic boundary handling:
//!
//! * **`WriteTo`** — redirect results into existing buffers (in-place
//!   updates);
//! * **`Concat` / `Skip` / `ArrayCons`** — scatter single elements at
//!   gathered indices without allocating an output buffer;
//! * **host primitives** (`ToGPU`, `ToHost`, `OclKernel`) — generate the
//!   host-side program that schedules multi-kernel applications.
//!
//! ## Pipeline
//!
//! ```text
//!  pattern IR ──typecheck──▶ views ──memory alloc──▶ lowering ──▶ kernel AST
//!                                                                 │      │
//!                                                      OpenCL C ◀─┘      └─▶ vgpu execution
//! ```
//!
//! The kernel AST ([`kast`]) replaces OpenCL C as the generator target so
//! that generated kernels can be *executed* (by the `vgpu` crate) as well as
//! printed ([`opencl`]). See `DESIGN.md` at the repository root for the full
//! system inventory.
//!
//! ## Example: build, lower and print a kernel
//!
//! ```
//! use lift::prelude::*;
//! use lift::{funs, ir};
//!
//! // map(x => x * 2 + 1) over an array of N reals
//! let a = ParamDef::typed("a", Type::array(Type::real(), "N"));
//! let prog = ir::map_glb(a.to_expr(), "x", |x| {
//!     ir::call(&funs::mad(), vec![x, ir::lit(Lit::real(2.0)), ir::lit(Lit::real(1.0))])
//! });
//! let lowered = lower_kernel("scale_shift", &[a], &prog, ScalarKind::F32).unwrap();
//! let src = opencl::emit_kernel(&lowered.kernel);
//! assert!(src.contains("__kernel void scale_shift"));
//! assert!(src.contains("get_global_id(0)"));
//! ```

#![warn(missing_docs)]

pub mod arith;
pub mod dsl;
mod eval;
pub mod footprint;
pub mod funs;
pub mod host;
pub mod ir;
pub mod kast;
pub mod lower;
pub mod memory;
pub mod opencl;
pub mod rewrite;
pub mod scalar;
pub mod simplify;
pub mod typecheck;
pub mod types;
pub mod verify;
pub mod view;

/// Convenient re-exports for building and lowering programs.
pub mod prelude {
    pub use crate::arith::ArithExpr;
    pub use crate::ir::{
        array_cons, at, call, concat, crop3, get, iota, join, let_in, lit, map3_glb, map_glb,
        map_seq, pad, pad3, reduce_seq, skip, slice, slide, slide3, split, to_private, tuple,
        write_to, zip, zip3, Expr, ExprKind, ExprRef, Lambda, MapKind, PadKind, ParamDef,
    };
    pub use crate::kast::{KExpr, KStmt, Kernel, KernelParam, MemRef, MemSpace};
    pub use crate::lower::{lower_kernel, LoweredKernel};
    pub use crate::opencl;
    pub use crate::scalar::{BinOp, Intrinsic, Lit, SExpr, UnOp, UserFun, Value};
    pub use crate::typecheck::check;
    pub use crate::types::{ScalarKind, Type};
}
