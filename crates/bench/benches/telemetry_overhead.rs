//! Guard bench: with `VGPU_TRACE=off` the telemetry layer must add less
//! than 2 % per-step overhead on the hand-written FI stencil at cube(40).
//!
//! The instrumented path is [`vgpu::Device::launch`] — the production entry
//! point, which carries the disabled-telemetry branches (one runtime field
//! read per gate) plus the unconditional launch counters. The baseline is a
//! raw [`vgpu::exec::launch`] loop over the same prepared kernel
//! and buffers, which contains no telemetry instrumentation at all. Both run
//! on one runtime with tracing and the sanitizer off, whatever the `VGPU_*`
//! environment says, and launch in `ExecMode::Fast` — the instantiation of
//! the tape executor without per-op timing (`ExecMode::Profile` is a
//! launch's choice, never a process setting).
//!
//! Trials are interleaved and the minimum per-iteration time of each side is
//! compared, so one-off scheduler noise cannot fail the guard. Run under
//! `cargo bench` (full: 1.02× bound) or with `--test` as CI does (smaller
//! grid, looser 1.5× bound — there it only checks the guard still runs).
//!
//! The same 1.02× bound covers the shadow-memory sanitizer's off mode
//! (`VGPU_SANITIZE=off`, the default): unsanitized buffers carry no shadow,
//! so each access pays exactly one `Option` discriminant test, and that
//! branch is inside the measured instrumented path. A final informational
//! pass re-measures on a runtime with the sanitizer on (shadow-armed
//! buffers) so the cost of *arming* it lands in the log; armed mode trades
//! speed for checking and carries no bound.

use bench::measure::fi_setup;
use room_acoustics::GridDims;
use std::time::Instant;
use vgpu::buffer::SharedBuf;
use vgpu::exec::{self, ArgBind};
use vgpu::{Arg, BufData, Device, DeviceProfile, Engine, ExecMode, Runtime, Settings};

use lift::scalar::Value;
use lift::types::ScalarKind;

/// Times `iters` calls of `f` and returns the mean seconds per call.
fn time_per_iter(iters: usize, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_secs_f64() / iters as f64
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    // The guard compares against a no-telemetry baseline, so tracing and
    // the sanitizer are off (the defaults) whatever the environment says.
    let off = Settings::default();
    let rt = Runtime::new(off);

    let (n, trials, iters, bound) = if smoke { (24, 3, 5, 1.5) } else { (40, 7, 20, 1.02) };
    let dims = GridDims::cube(n);
    let setup = fi_setup(dims, 0.1);
    let kernel = room_acoustics::handwritten::fi_single_kernel().resolve_real(ScalarKind::F32);
    let global = [dims.nx, dims.ny, dims.nz];
    let total = dims.total();

    // Instrumented side: the Device entry point.
    let mut device = Device::with_runtime(DeviceProfile::gtx780(), rt.clone());
    let prep = device.compile(&kernel).unwrap();
    let prev = device.create_buffer_zeroed(ScalarKind::F32, total);
    let curr = device.create_buffer_zeroed(ScalarKind::F32, total);
    let next = device.create_buffer_zeroed(ScalarKind::F32, total);
    let args = [
        Arg::Buf(next),
        Arg::Buf(curr),
        Arg::Buf(prev),
        Arg::Val(Value::F32(setup.l as f32)),
        Arg::Val(Value::F32(setup.l2 as f32)),
        Arg::Val(Value::F32(0.1)),
        Arg::Val(Value::I32(dims.nx as i32)),
        Arg::Val(Value::I32(dims.ny as i32)),
        Arg::Val(Value::I32(dims.nz as i32)),
    ];

    // Baseline side: raw exec over plain shared buffers, no Device wrapper.
    let base_bufs: Vec<SharedBuf> =
        (0..3).map(|_| SharedBuf::new(BufData::zeros(ScalarKind::F32, total))).collect();
    let base_binds = [
        ArgBind::Buf(&base_bufs[0]),
        ArgBind::Buf(&base_bufs[1]),
        ArgBind::Buf(&base_bufs[2]),
        ArgBind::Val(Value::F32(setup.l as f32)),
        ArgBind::Val(Value::F32(setup.l2 as f32)),
        ArgBind::Val(Value::F32(0.1)),
        ArgBind::Val(Value::I32(dims.nx as i32)),
        ArgBind::Val(Value::I32(dims.ny as i32)),
        ArgBind::Val(Value::I32(dims.nz as i32)),
    ];
    let baseline_step = || {
        let (mode, engine) = (ExecMode::Fast, Engine::Fast);
        exec::launch(&prep, &base_binds, &global, None, mode, 128, engine, &rt).unwrap();
    };

    // Warm both paths (first-touch, lazy tape state, allocator warm-up).
    for _ in 0..iters.min(5) {
        baseline_step();
        device.launch(&prep, &args, &global, ExecMode::Fast).unwrap();
    }

    let mut best_base = f64::INFINITY;
    let mut best_inst = f64::INFINITY;
    for trial in 0..trials {
        let base = time_per_iter(iters, baseline_step);
        let inst = time_per_iter(iters, || {
            device.launch(&prep, &args, &global, ExecMode::Fast).unwrap();
        });
        best_base = best_base.min(base);
        best_inst = best_inst.min(inst);
        eprintln!(
            "trial {trial}: baseline {:.3} ms/step, instrumented {:.3} ms/step",
            base * 1e3,
            inst * 1e3
        );
    }

    let ratio = best_inst / best_base;
    println!(
        "telemetry_overhead: cube({n}) baseline {:.3} ms/step, instrumented {:.3} ms/step, \
         ratio {ratio:.4} (bound {bound})",
        best_base * 1e3,
        best_inst * 1e3
    );
    assert!(
        ratio <= bound,
        "telemetry + sanitizer-off branches add {:.2}% per-step overhead with \
         VGPU_TRACE=off VGPU_SANITIZE=off (bound {:.0}%)",
        (ratio - 1.0) * 100.0,
        (bound - 1.0) * 100.0
    );

    // Informational pass: a runtime with the shadow sanitizer armed re-runs
    // the same step on shadow-carrying buffers. No bound — armed mode buys
    // checking with time — but the clean stencil must stay finding-free, and
    // the ratio lands in the log next to the off-mode numbers.
    let armed = Runtime::new(Settings { shadow: true, ..off });
    let mut sdev = Device::with_runtime(DeviceProfile::gtx780(), armed.clone());
    let sprep = sdev.compile(&kernel).unwrap();
    let sbufs: Vec<_> = (0..3).map(|_| sdev.create_buffer_zeroed(ScalarKind::F32, total)).collect();
    let mut sargs = args;
    sargs[0] = Arg::Buf(sbufs[0]);
    sargs[1] = Arg::Buf(sbufs[1]);
    sargs[2] = Arg::Buf(sbufs[2]);
    for _ in 0..iters.min(5) {
        sdev.launch(&sprep, &sargs, &global, ExecMode::Fast).unwrap();
    }
    let mut best_shadow = f64::INFINITY;
    for _ in 0..trials {
        best_shadow = best_shadow.min(time_per_iter(iters, || {
            sdev.launch(&sprep, &sargs, &global, ExecMode::Fast).unwrap();
        }));
    }
    assert!(armed.findings.all().is_empty(), "shadow sanitizer flagged the clean stencil");
    println!(
        "sanitize_overhead: VGPU_SANITIZE=shadow {:.3} ms/step, ratio {:.2} vs off \
         (informational — armed mode has no bound)",
        best_shadow * 1e3,
        best_shadow / best_inst
    );
}
