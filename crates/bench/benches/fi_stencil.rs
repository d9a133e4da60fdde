//! Criterion bench for Figure 4 / Table IV: the naive one-kernel FI
//! simulation, LIFT-generated vs hand-written, wall-clock on the virtual
//! GPU substrate (single-host interpreter — the *relative* numbers are the
//! comparison; modeled per-platform times come from `repro_fig4`).
//!
//! Rooms are small (the interpreter runs on the host CPU); both versions
//! execute identical simulations.

use bench::measure::{fi_setup, fi_single_kernels, Impl};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use room_acoustics::{GridDims, Precision, Simulation};
use vgpu::{Device, ExecMode};

fn fi_sim(n: usize, which: Impl, device: Device) -> Simulation {
    let kernels = fi_single_kernels(which, Precision::Single);
    let setup = fi_setup(GridDims::cube(n), 0.1);
    let mut sim = Simulation::new(setup, Precision::Single, kernels, vec![device]);
    sim.impulse(n / 2, n / 2, n / 2, 1.0);
    sim
}

fn bench_fi(c: &mut Criterion) {
    let mut group = c.benchmark_group("fi_stencil_step");
    group.sample_size(10);
    for n in [24usize, 40] {
        for which in [Impl::Lift, Impl::OpenCl] {
            let mut sim = fi_sim(n, which, Device::gtx780());
            group.bench_with_input(BenchmarkId::new(which.label(), n), &n, |b, _| {
                b.iter(|| sim.step(ExecMode::Fast))
            });
        }
    }
    group.finish();
}

/// The default engine vs the reference tree-walker on the same hand-written
/// FI kernel — what the tape and its executors buy on the interpreter
/// substrate.
fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("fi_stencil_engine");
    group.sample_size(10);
    for (label, engine) in [("fast", vgpu::Engine::Fast), ("tree", vgpu::Engine::Tree)] {
        let mut device = Device::gtx780();
        device.set_engine(engine);
        let mut sim = fi_sim(40, Impl::OpenCl, device);
        group.bench_function(label, |b| b.iter(|| sim.step(ExecMode::Fast)));
    }
    group.finish();
}

criterion_group!(benches, bench_fi, bench_engines);
criterion_main!(benches);
