//! Per-launch step times and, under `VGPU_PROFILE=op`, the per-opcode
//! dispatch tables of the benchmark room (96×64×48 FD-MM dome, single
//! precision) on the hand-written or the LIFT-generated kernels.
//!
//! ```sh
//! VGPU_PROFILE=op cargo run --release --example op_profile -- hand 100
//! cargo run --release --example op_profile -- gen 50
//! ```

use room_acoustics::{
    BoundaryKernel, GridDims, Precision, RoomShape, SimConfig, SimSetup, SingleSim,
};
use room_acoustics_lift::lift_acoustics::LiftBoundary;
use room_acoustics_lift::vgpu::{profiler, Device, ExecMode};

fn main() {
    let mut args = std::env::args().skip(1);
    let side = args.next().unwrap_or_else(|| "hand".into());
    let steps: usize = args.next().map_or(50, |s| s.parse().expect("steps: a count"));
    let setup = SimSetup::new(&SimConfig::fdmm(GridDims::new(96, 64, 48), RoomShape::Dome));
    let (p, dev) = (Precision::Single, Device::gtx780());
    let mut sim = match side.as_str() {
        "hand" => SingleSim::new(setup, p, BoundaryKernel::FdMm, dev),
        "gen" => SingleSim::new(setup, p, LiftBoundary::FdMm, dev),
        other => panic!("usage: op_profile [hand|gen] [steps] (got `{other}`)"),
    };
    sim.impulse(48, 32, 12, 1.0);
    let (mut volume, mut boundary) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..steps {
        let (v, b) = sim.step(ExecMode::Fast);
        volume = volume.min(v.wall.as_secs_f64() * 1e3);
        boundary = boundary.min(b.wall.as_secs_f64() * 1e3);
    }
    println!("{side}: {steps} steps, best ms/step: volume {volume:.3}, boundary {boundary:.3}");
    if profiler::op_enabled() {
        print!("{}", profiler::render_report(&profiler::snapshot()));
    }
}
