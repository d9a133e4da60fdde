//! Names, units and directions of every metric and workload. `BENCHMARK.json`
//! at the repository root lists the same names (a test holds them equal);
//! bounds live only there.

pub const WORKLOADS: [&str; 5] =
    ["room_hand", "room_gen", "room_shard2", "batch_small", "compile_sweep"];

/// (name, unit, better)
pub type MetricSpec = (&'static str, &'static str, &'static str);

/// What a user of the system sees. Every workload reports every one; an
/// operation ("op") is one `step` + `sample` iteration on `room_*`, one
/// round trip of the fixed probe room through the service on `batch_small`,
/// one kernel through the compile pipeline on `compile_sweep`.
///
/// The one gated speed metric is the fastest operation of the run. This
/// machine's two vCPUs are slowed by co-tenants for seconds to minutes at a
/// time: over twenty 20 s runs of identical code a `room_hand` run completed
/// between 945 and 1434 steps while its fastest step stayed between 11.8 and
/// 14.7 ms. The noise only ever adds, so the minimum is the statistic two
/// runs of one commit agree on best (README, "Why the fastest operation").
/// Medians, tails and rates are per-layer rows, ungated.
pub const END_TO_END: [MetricSpec; 3] =
    [("op_ms_best", "ms", "lower"), ("peak_rss_mb", "MB", "lower"), ("setup_s", "s", "lower")];

/// One layer each; zero on a workload that never enters the layer. Times
/// are per operation unless the name says otherwise. `model_ms` marks the
/// modeled-GPU clock, which is never mixed with wall `ms`.
pub const PER_LAYER: [MetricSpec; 71] = [
    // lift: the front end, per kernel it handles
    ("lift.typecheck_ms", "ms", "lower"),
    ("lift.lower_ms", "ms", "lower"),
    ("lift.emit_opencl_ms", "ms", "lower"),
    ("lift.emit_opencl_bytes", "bytes", "lower"),
    ("lift.verify_ms", "ms", "lower"),
    ("lift.sites_proven", "count", "higher"),
    ("lift.sites_potential", "count", "lower"),
    ("lift.host_compile_ms", "ms", "lower"),
    ("lift.host_c_bytes", "bytes", "lower"),
    // lift-acoustics
    ("liftac.build_ms", "ms", "lower"),
    ("liftac.sim_new_ms", "ms", "lower"),
    ("liftac.bind_ms", "ms", "lower"),
    // vgpu, compile side
    ("vgpu.prepare_ms", "ms", "lower"),
    ("vgpu.tape_verify_ms", "ms", "lower"),
    ("vgpu.artifact_lookup_us", "us", "lower"),
    ("vgpu.artifact.hits", "count", "higher"),
    ("vgpu.artifact.misses", "count", "lower"),
    ("vgpu.plan.hits", "count", "higher"),
    ("vgpu.plan.misses", "count", "lower"),
    ("vgpu.plan.shared_hits", "count", "higher"),
    // vgpu, run side
    ("vgpu.lane_ms.volume", "ms", "lower"),
    ("vgpu.lane_ms.boundary", "ms", "lower"),
    ("vgpu.lane_ns_per_item", "ns", "lower"),
    ("vgpu.dispatch_ms", "ms", "lower"),
    ("vgpu.readback_ms", "ms", "lower"),
    ("vgpu.xfer.to_host.bytes", "bytes", "lower"),
    ("vgpu.upload_ms", "ms", "lower"),
    ("vgpu.xfer.to_gpu.bytes", "bytes", "lower"),
    ("vgpu.halo_ms", "ms", "lower"),
    ("vgpu.halo.bytes", "bytes", "lower"),
    ("vgpu.halo.copies", "count", "lower"),
    ("vgpu.launches.vector", "count", "lower"),
    ("vgpu.launches.compiled", "count", "lower"),
    ("vgpu.launches.tape", "count", "lower"),
    ("vgpu.launches.tree", "count", "lower"),
    ("vgpu.fallbacks", "count", "lower"),
    ("vgpu.warp.divergent", "count", "lower"),
    ("vgpu.model.ms_per_step", "model_ms", "lower"),
    ("vgpu.model.txn_bytes", "bytes", "lower"),
    ("vgpu.model.flops", "count", "lower"),
    // acoustics
    ("acoustics.room_build_ms", "ms", "lower"),
    ("acoustics.sim_new_ms", "ms", "lower"),
    ("acoustics.setup_cold_ms", "ms", "lower"),
    ("acoustics.setup_ms_p50", "ms", "lower"),
    ("acoustics.step_ms_p50", "ms", "lower"),
    ("acoustics.step_ms_p95", "ms", "lower"),
    ("acoustics.step_samples", "count", "higher"),
    ("acoustics.reference_step_ms", "ms", "lower"),
    ("acoustics.grid_points", "count", "higher"),
    ("acoustics.boundary_points", "count", "higher"),
    ("acoustics.ir_max_abs_err", "pressure", "lower"),
    ("acoustics.ir_checksum", "hash", "higher"),
    // batch
    ("batch.scenario_gen_ms", "ms", "lower"),
    ("batch.executor_start_ms", "ms", "lower"),
    ("batch.step_loop_ms", "ms", "lower"),
    ("batch.job_overhead_ms", "ms", "lower"),
    ("batch.launches_per_job", "count", "lower"),
    ("batch.rooms_per_s", "1/s", "higher"),
    ("batch.job_ms_p50", "ms", "lower"),
    ("batch.job_ms_p95", "ms", "lower"),
    ("batch.job_samples", "count", "higher"),
    // verify
    ("verify.suite_ms", "ms", "lower"),
    ("verify.kernels_proven", "count", "higher"),
    // the run itself
    ("ops", "count", "higher"),
    ("ops_failed", "count", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.coverage_pct", "%", "higher"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.op_ms_best_traced", "ms", "lower"),
    ("trace.op_ms_best_untraced", "ms", "lower"),
    ("trace.timed_section_ms", "ms", "higher"),
];

/// Per-layer values that depend on the seed and the code alone, never on
/// timing or on how many operations fitted into `--seconds`: two runs of one
/// commit must print them bit-equal, and a change meant only to speed up the
/// interpreter must leave them bit-equal too.
pub const EXACT: [&str; 25] = [
    "lift.emit_opencl_bytes",
    "lift.sites_proven",
    "lift.sites_potential",
    "lift.host_c_bytes",
    "vgpu.artifact.hits",
    "vgpu.plan.hits",
    "vgpu.xfer.to_host.bytes",
    "vgpu.xfer.to_gpu.bytes",
    "vgpu.halo.bytes",
    "vgpu.halo.copies",
    "vgpu.launches.vector",
    "vgpu.launches.compiled",
    "vgpu.launches.tape",
    "vgpu.launches.tree",
    "vgpu.fallbacks",
    "vgpu.warp.divergent",
    "vgpu.model.ms_per_step",
    "vgpu.model.txn_bytes",
    "vgpu.model.flops",
    "acoustics.grid_points",
    "acoustics.boundary_points",
    "acoustics.ir_checksum",
    "batch.launches_per_job",
    "verify.kernels_proven",
    "ops_failed",
];

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.contains(&name)
}
