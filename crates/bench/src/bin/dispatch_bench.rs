//! Wall-clock step-loop timing for the FI cube workload on `tree` and `fast`.
//!
//! Criterion benches don't time under the offline stub harness, so this bin
//! is the measurement behind the dispatch-overhead numbers in
//! EXPERIMENTS.md: it runs the same leap-frog launch loop the sims run and
//! prints ms/step for fast and modeled execution on the tree-walker oracle
//! and on the default engine (the tape), the wall of a one-warp launch
//! (`launch_fixed_us`), plus the divergent-warp and proven/checked site
//! audits, as one JSON record.
//!
//! Usage: `dispatch_bench [cube-edge] [steps]` (defaults 32, 60).

use bench::measure::{fi_setup, fi_single_kernels, Impl};
use room_acoustics::{GridDims, Precision, Simulation};
use std::time::Instant;
use vgpu::{telemetry, Device, Engine, ExecMode};

/// The hand-written one-kernel FI simulation on a cube of edge `n`.
fn fi_run(n: usize, engine: Engine) -> Simulation {
    let mut dev = Device::gtx780();
    dev.set_engine(engine);
    let kernels = fi_single_kernels(Impl::OpenCl, Precision::Single);
    Simulation::new(fi_setup(GridDims::cube(n), 0.1), Precision::Single, kernels, vec![dev])
}

/// Best-of-3 trials of `steps` steps; returns ms/step.
fn measure(mut sim: Simulation, steps: usize, mode: ExecMode) -> f64 {
    for _ in 0..steps.min(5) {
        sim.step(mode); // warm-up
    }
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        for _ in 0..steps {
            sim.step(mode);
        }
        best = best.min(t0.elapsed().as_secs_f64() * 1e3 / steps as f64);
        sim.devices[0].clear_events();
    }
    best
}

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(32);
    let steps: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(60);

    // Provenance: captured before any launch so the snapshot records what
    // the measured loops actually saw (this bin drives both engines
    // explicitly, so the engine field is fixed, not `VGPU_ENGINE`).
    let threads = bench::provenance::threads();
    let devices = bench::provenance::device_count();
    let sanitize = bench::provenance::sanitize_label();

    let model_mode = ExecMode::Model { sample_stride: 1 };
    let tree_fast = measure(fi_run(n, Engine::Tree), steps, ExecMode::Fast);
    let tree_model = measure(fi_run(n, Engine::Tree), steps, model_mode);
    let reg = telemetry::registry();
    let divergent0 = reg.counter("vgpu.warp.divergent").get();
    let fast = measure(fi_run(n, Engine::Fast), steps, ExecMode::Fast);
    let model = measure(fi_run(n, Engine::Fast), steps, model_mode);
    // What a launch costs before any lane runs: the smallest grid is 27
    // work-items, one partial warp, run inline on this thread.
    let launch_fixed_us = measure(fi_run(3, Engine::Fast), 2000, ExecMode::Fast) * 1e3;
    let divergent = reg.counter("vgpu.warp.divergent").get() - divergent0;
    let record = format!(
        "{{\"bench\":\"dispatch\",\"cube\":{n},\"steps\":{steps},\
         \"engine\":\"tree+fast\",\
         \"threads\":{threads},\"devices\":{devices},\
         \"sanitize\":\"{sanitize}\",\
         \"fast_ms_per_step\":{fast:.4},\"model_ms_per_step\":{model:.4},\
         \"tree_fast_ms_per_step\":{tree_fast:.4},\"tree_model_ms_per_step\":{tree_model:.4},\
         \"launch_fixed_us\":{launch_fixed_us:.2},\
         \"divergent_warps\":{divergent},\
         \"sites_proven\":{},\"sites_checked\":{}}}",
        reg.counter("vgpu.tape.sites_proven").get(),
        reg.counter("vgpu.tape.sites_checked").get(),
    );
    println!("{record}");
    match serde_json::from_str(&record) {
        Ok(value) => {
            bench::run_report::emit("dispatch_bench", value);
        }
        Err(e) => eprintln!("cannot parse own record for run report: {e}"),
    }
}
