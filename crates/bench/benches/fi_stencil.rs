//! Criterion bench for Figure 4 / Table IV: the naive one-kernel FI
//! simulation, LIFT-generated vs hand-written, wall-clock on the virtual
//! GPU substrate (single-host interpreter — the *relative* numbers are the
//! comparison; modeled per-platform times come from `repro_fig4`).
//!
//! Rooms are small (the interpreter runs on the host CPU); both versions
//! execute identical simulations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lift_acoustics::FiSingleLift;
use room_acoustics::{
    BoundaryModel, GridDims, MaterialAssignment, Precision, RoomShape, SimConfig, SimSetup,
};
use vgpu::{Device, ExecMode};

fn fi_setup(dims: GridDims) -> SimSetup {
    SimSetup::new(&SimConfig {
        dims,
        shape: RoomShape::Box,
        assignment: MaterialAssignment::Uniform,
        boundary: BoundaryModel::Fi { beta: 0.1 },
    })
}

fn bench_fi(c: &mut Criterion) {
    let mut group = c.benchmark_group("fi_stencil_step");
    group.sample_size(10);
    for n in [24usize, 40] {
        let dims = GridDims::cube(n);
        // LIFT-generated kernel
        let mut lift = FiSingleLift::new(fi_setup(dims), Precision::Single, 0.1, Device::gtx780());
        lift.impulse(n / 2, n / 2, n / 2, 1.0);
        group.bench_with_input(BenchmarkId::new("LIFT", n), &n, |b, _| {
            b.iter(|| lift.step(ExecMode::Fast))
        });
        // hand-written kernel, driven identically
        let setup = fi_setup(dims);
        let mut device = Device::gtx780();
        let kernel = room_acoustics::handwritten::fi_single_kernel()
            .resolve_real(lift::types::ScalarKind::F32);
        let prep = device.compile(&kernel).unwrap();
        let total = dims.total();
        let prev = device.create_buffer_zeroed(lift::types::ScalarKind::F32, total);
        let curr = device.create_buffer_zeroed(lift::types::ScalarKind::F32, total);
        let next = device.create_buffer_zeroed(lift::types::ScalarKind::F32, total);
        let args = [
            vgpu::Arg::Buf(next),
            vgpu::Arg::Buf(curr),
            vgpu::Arg::Buf(prev),
            vgpu::Arg::Val(lift::scalar::Value::F32(setup.l as f32)),
            vgpu::Arg::Val(lift::scalar::Value::F32(setup.l2 as f32)),
            vgpu::Arg::Val(lift::scalar::Value::F32(0.1)),
            vgpu::Arg::Val(lift::scalar::Value::I32(dims.nx as i32)),
            vgpu::Arg::Val(lift::scalar::Value::I32(dims.ny as i32)),
            vgpu::Arg::Val(lift::scalar::Value::I32(dims.nz as i32)),
        ];
        group.bench_with_input(BenchmarkId::new("OpenCL", n), &n, |b, _| {
            b.iter(|| {
                device.launch(&prep, &args, &[dims.nx, dims.ny, dims.nz], ExecMode::Fast).unwrap()
            })
        });
    }
    group.finish();
}

/// The default engine vs the reference tree-walker on the same hand-written
/// FI kernel — what the tape and its executors buy on the interpreter
/// substrate.
fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("fi_stencil_engine");
    group.sample_size(10);
    let dims = GridDims::cube(40);
    let setup = fi_setup(dims);
    for (label, engine) in [("fast", vgpu::Engine::Fast), ("tree", vgpu::Engine::Tree)] {
        let mut device = Device::gtx780();
        device.set_engine(engine);
        let kernel = room_acoustics::handwritten::fi_single_kernel()
            .resolve_real(lift::types::ScalarKind::F32);
        let prep = device.compile(&kernel).unwrap();
        let total = dims.total();
        let prev = device.create_buffer_zeroed(lift::types::ScalarKind::F32, total);
        let curr = device.create_buffer_zeroed(lift::types::ScalarKind::F32, total);
        let next = device.create_buffer_zeroed(lift::types::ScalarKind::F32, total);
        let args = [
            vgpu::Arg::Buf(next),
            vgpu::Arg::Buf(curr),
            vgpu::Arg::Buf(prev),
            vgpu::Arg::Val(lift::scalar::Value::F32(setup.l as f32)),
            vgpu::Arg::Val(lift::scalar::Value::F32(setup.l2 as f32)),
            vgpu::Arg::Val(lift::scalar::Value::F32(0.1)),
            vgpu::Arg::Val(lift::scalar::Value::I32(dims.nx as i32)),
            vgpu::Arg::Val(lift::scalar::Value::I32(dims.ny as i32)),
            vgpu::Arg::Val(lift::scalar::Value::I32(dims.nz as i32)),
        ];
        group.bench_function(label, |b| {
            b.iter(|| {
                device.launch(&prep, &args, &[dims.nx, dims.ny, dims.nz], ExecMode::Fast).unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fi, bench_engines);
criterion_main!(benches);
