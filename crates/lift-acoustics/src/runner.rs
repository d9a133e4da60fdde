//! Stand-alone argument binding for one generated kernel.
//!
//! Simulations bind through their step program ([`crate::hostprog`],
//! `vgpu::bind_launch`). [`bind_args`] and [`global_size`] remain only for
//! roombench's `liftac.bind_ms` probe (`benchmark/src/adapter.rs`), which
//! times a by-name binding of the volume and FD-MM kernels; they go with
//! that probe.

use lift::lower::{ArgSpec, LoweredKernel};
use lift::prelude::Value;
use std::collections::HashMap;
use vgpu::{Arg, BufId};

/// Binds a lowered kernel's arguments by name.
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
