//! Criterion bench for per-step kernel dispatch overhead.
//!
//! The paper's claim lives in the leap-frog step loop (§VI): thousands of
//! launches of the same two kernels against the same buffers. This bench
//! pins the wall-clock cost of that loop on the tree-walker oracle and on
//! the default engine for the FI cube workload — launch validation,
//! chunked warp dispatch, tape peephole optimizer, SIMT lane vectorization
//! and block fusion all land here. `step_loop/fast/*` is the headline number
//! recorded in EXPERIMENTS.md; `step_loop/model/*` additionally runs the
//! warp transaction model, and `boundary_small/*` stresses pure dispatch
//! overhead with a tiny NDRange where per-launch setup dominates.

use criterion::{criterion_group, criterion_main, Criterion};
use lift::prelude::{ScalarKind, Value};
use room_acoustics::{handwritten, GridDims};
use vgpu::{Arg, BufId, Device, Engine, ExecMode};

const STEPS: usize = 8;

struct FiRun {
    dev: Device,
    prep: vgpu::Prepared,
    bufs: [BufId; 3],
    scalars: Vec<Arg>,
    global: [usize; 3],
}

fn fi_run(n: usize, engine: Engine) -> FiRun {
    let dims = GridDims::cube(n);
    let setup = bench::measure::fi_setup(dims, 0.1);
    let mut dev = Device::gtx780();
    dev.set_engine(engine);
    let prep = dev.compile(&handwritten::fi_single_kernel().resolve_real(ScalarKind::F32)).unwrap();
    let total = dims.total();
    let bufs = [
        dev.create_buffer_zeroed(ScalarKind::F32, total),
        dev.create_buffer_zeroed(ScalarKind::F32, total),
        dev.create_buffer_zeroed(ScalarKind::F32, total),
    ];
    let scalars = vec![
        Arg::Val(Value::F32(setup.l as f32)),
        Arg::Val(Value::F32(setup.l2 as f32)),
        Arg::Val(Value::F32(0.1)),
        Arg::Val(Value::I32(dims.nx as i32)),
        Arg::Val(Value::I32(dims.ny as i32)),
        Arg::Val(Value::I32(dims.nz as i32)),
    ];
    FiRun { dev, prep, bufs, scalars, global: [dims.nx, dims.ny, dims.nz] }
}

impl FiRun {
    /// One leap-frog step: launch + buffer rotation, as the sims do it.
    fn step(&mut self, mode: ExecMode) {
        let mut args = vec![Arg::Buf(self.bufs[0]), Arg::Buf(self.bufs[1]), Arg::Buf(self.bufs[2])];
        args.extend_from_slice(&self.scalars);
        self.dev.launch(&self.prep, &args, &self.global, mode).unwrap();
        self.bufs.rotate_right(1);
    }

    fn steps(&mut self, n: usize, mode: ExecMode) {
        for _ in 0..n {
            self.step(mode);
        }
        self.dev.clear_events();
    }
}

fn bench_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch_overhead");
    group.sample_size(20);

    for (label, engine) in [("tree", Engine::Tree), ("fast", Engine::Fast)] {
        let mut run = fi_run(32, engine);
        group.bench_function(format!("step_loop/fast/{label}"), |b| {
            b.iter(|| run.steps(STEPS, ExecMode::Fast))
        });

        let mut run = fi_run(32, engine);
        group.bench_function(format!("step_loop/model/{label}"), |b| {
            b.iter(|| run.steps(STEPS, ExecMode::Model { sample_stride: 1 }))
        });

        // Tiny NDRange: per-launch overhead dominates execution.
        let mut run = fi_run(8, engine);
        group.bench_function(format!("boundary_small/{label}"), |b| {
            b.iter(|| run.steps(STEPS, ExecMode::Fast))
        });
    }

    group.finish();
}

criterion_group!(benches, bench_dispatch);
criterion_main!(benches);
