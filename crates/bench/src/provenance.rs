//! Provenance fields stamped into every committed bench snapshot
//! (`BENCH_*.json`): which engine executed, how many interpreter threads
//! and devices ran, and the sanitizer mode. Snapshots without these fields
//! are not comparable — a different thread count shifts ms/step numbers
//! for reasons that have nothing to do with the change under review.

/// The engine this process resolves from `VGPU_ENGINE`: `fast` (the
/// default), `tree` or `differential`. Which tape executor `fast` puts a
/// launch on is decided per launch and reported per launch
/// (`LaunchStats::backend`, the `vgpu.launches.*` counters).
pub fn engine_label() -> String {
    format!("{:?}", vgpu::Engine::from_env()).to_lowercase()
}

/// Interpreter threads: the `VGPU_THREADS` override when set, otherwise
/// the rayon pool's actual size.
pub fn threads() -> usize {
    std::env::var("VGPU_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(rayon::current_num_threads)
}

/// Virtual device count the run shards across (`VGPU_DEVICES`, default 1).
/// Sharded and unsharded snapshots are value-comparable but not
/// wall-clock-comparable, so every record carries the count.
pub fn device_count() -> usize {
    vgpu::device_count_from_env()
}

/// The shadow-memory sanitizer mode the run executed under
/// (`VGPU_SANITIZE`, default `off`). Shadow-mode numbers pay per-access
/// classification and are not wall-clock-comparable with `off` records,
/// so every snapshot carries the label.
pub fn sanitize_label() -> &'static str {
    if vgpu::sanitize::shadow_on() {
        "shadow"
    } else {
        "off"
    }
}
