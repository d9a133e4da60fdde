//! Per-launch step times of an FD-MM dome on the hand-written or the
//! LIFT-generated kernels and, given a trailing `ops`, their per-opcode
//! dispatch tables: `op_profile [hand|gen] [steps] [NXxNYxNZ] [f32|f64]
//! [ops]`, by default the benchmark room (96×64×48, single precision).
//! Without `ops` the steps run in `ExecMode::Fast`; with it, in
//! `ExecMode::Profile`. The per-kernel accounts the steps returned follow
//! the timing line and a count of the boundary kernel's warps that read one
//! material's coefficients, with a hotspot table per kernel when profiled.
//!
//! ```sh
//! cargo run --release --example op_profile -- hand 100 ops
//! cargo run --release --example op_profile -- gen 50
//! cargo run --release --example op_profile -- hand 300 12x12x12 f64   # a `batch_small` room
//! ```

use room_acoustics::{
    BoundaryKernel, GridDims, Precision, RoomShape, SimConfig, SimSetup, SingleSim,
};
use room_acoustics_lift::lift_acoustics::LiftBoundary;
use room_acoustics_lift::telemetry::sink;
use room_acoustics_lift::vgpu::{Device, ExecMode};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let ops = args.last().is_some_and(|a| a == "ops");
    if ops {
        args.pop();
    }
    let mut args = args.into_iter();
    let side = args.next().unwrap_or_else(|| "hand".into());
    let steps: usize = args.next().map_or(50, |s| s.parse().expect("steps: a count"));
    let dims = args.next().map_or(GridDims::new(96, 64, 48), |s| {
        let n: Vec<usize> = s.split('x').map(|n| n.parse().expect("NXxNYxNZ")).collect();
        assert_eq!(n.len(), 3, "NXxNYxNZ: three sizes (got `{s}`)");
        GridDims::new(n[0], n[1], n[2])
    });
    let p = match args.next().as_deref() {
        None | Some("f32") => Precision::Single,
        Some("f64") => Precision::Double,
        Some(other) => panic!("precision: f32 or f64 (got `{other}`)"),
    };
    let setup = SimSetup::new(&SimConfig::fdmm(dims, RoomShape::Dome));
    // Warps of the boundary kernel (32 consecutive boundary points) whose
    // points all read one material's coefficient row.
    let warps = setup.room.material.chunks(32);
    let one_material = warps.clone().filter(|w| w.iter().all(|&m| m == w[0])).count();
    let share = format!("{one_material} of {}", warps.len());
    let dev = Device::gtx780();
    let mut sim = match side.as_str() {
        "hand" => SingleSim::new(setup, p, BoundaryKernel::FdMm, dev),
        "gen" => SingleSim::new(setup, p, LiftBoundary::FdMm, dev),
        other => panic!(
            "usage: op_profile [hand|gen] [steps] [NXxNYxNZ] [f32|f64] [ops] (got `{other}`)"
        ),
    };
    sim.impulse(dims.nx / 2, dims.ny / 2, dims.nz / 4, 1.0);
    let mode = if ops { ExecMode::Profile } else { ExecMode::Fast };
    let (mut volume, mut boundary) = (f64::INFINITY, f64::INFINITY);
    let mut accounts = Vec::new();
    for _ in 0..steps {
        let (v, b) = sim.step(mode);
        volume = volume.min(v.wall.as_secs_f64() * 1e3);
        boundary = boundary.min(b.wall.as_secs_f64() * 1e3);
        for (k, stats) in sim.kernels().zip([&v, &b]) {
            sink::fold_launch(&mut accounts, k.prepared(), stats);
        }
    }
    println!("{side}: {steps} steps, best ms/step: volume {volume:.4}, boundary {boundary:.4}");
    println!("boundary warps whose points share one material index `mi`: {share}");
    print!("{}", sink::render_accounts(&accounts));
}
