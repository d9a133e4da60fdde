//! Quickstart: simulate a small room with multi-material absorbing walls
//! using LIFT-generated kernels, and print the impulse response at a
//! receiver.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use room_acoustics::{
    GridDims, Precision, ReferenceSim, RoomShape, SimConfig, SimSetup, Simulation,
};
use room_acoustics_lift::lift_acoustics::LiftBoundary;
use room_acoustics_lift::vgpu::Device;

fn main() {
    // 1. Describe the room: a 3.2 m × 2.4 m × 2.0 m box at 10 cm resolution
    //    (34×26×22 grid incl. halo), with the default carpet/plaster/glass
    //    material set on floor/ceiling/walls and frequency-dependent (FD-MM)
    //    boundary physics.
    let dims = GridDims::new(34, 26, 22);
    let cfg = SimConfig::fdmm(dims, RoomShape::Box);
    let setup = SimSetup::new(&cfg);
    println!(
        "room: {}×{}×{} grid, {} boundary points, {} materials, MB = {}",
        dims.nx,
        dims.ny,
        dims.nz,
        setup.num_b(),
        setup.betas.len(),
        setup.mb
    );

    // 2. Build the LIFT pipeline: the volume and FD-MM boundary kernels are
    //    generated from pattern-IR programs and run on the virtual GPU.
    //    (`BoundaryKernel::FdMm` in place of `LiftBoundary::FdMm` runs the
    //    hand-written kernels — and several devices — through the same
    //    front end.)
    let devices = vec![Device::gtx780()];
    let mut sim = Simulation::new(setup.clone(), Precision::Single, LiftBoundary::FdMm, devices);
    let volume = sim.kernels().next().expect("a step has a volume kernel");
    let vol_src = room_acoustics_lift::lift::opencl::emit_kernel(&volume.kernel);
    println!(
        "\ngenerated volume kernel (first lines):\n{}",
        vol_src.lines().take(6).collect::<Vec<_>>().join("\n")
    );

    // 3. Excite with an impulse and record a receiver.
    sim.impulse(10, 13, 11, 1.0);
    let rx = (24, 13, 11);
    println!("\nimpulse response at {rx:?}:");
    let mut peak: f64 = 0.0;
    for t in 0..60 {
        sim.run(1);
        let p = sim.sample(rx.0, rx.1, rx.2);
        peak = peak.max(p.abs());
        if t % 5 == 0 {
            let bar = "#".repeat((50.0 * p.abs() / peak.max(1e-12)).round() as usize);
            println!("t={t:3}  p={p:+.5}  {bar}");
        }
    }

    // 4. Cross-check against the pure-Rust golden model.
    let mut golden = ReferenceSim::<f32>::new(setup);
    golden.impulse(10, 13, 11, 1.0);
    golden.run(60);
    let a = sim.sample(rx.0, rx.1, rx.2);
    let b = golden.sample(rx.0, rx.1, rx.2);
    println!("\nLIFT-generated vs reference at receiver: {a:+.6} vs {b:+.6}");
    assert!((a - b).abs() < 1e-4, "generated code must match the reference");
    println!("match ✓");
}
