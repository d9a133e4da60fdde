//! Scaling curve for domain-sharded execution: ms/step vs device count.
//!
//! For box and dome rooms, FI-MM and FD-MM boundaries, runs the full
//! leap-frog loop on [`Simulation`] at 1, 2 and 4 virtual devices and
//! reports, per configuration and device count:
//!
//! * measured wall-clock ms/step (fast mode, best-of-3);
//! * the roofline model's sharded step time — slowest slab plus the halo
//!   communication term ([`vgpu::modeled_sharded_step_s`]);
//! * `vgpu.halo.*` byte/copy counters actually accumulated per step.
//!
//! Single-device rows double as the unsharded baseline (zero halo bytes),
//! so the record *is* the scaling curve. One JSON line, snapshot via
//! `scripts/bench_snapshot.sh` into `BENCH_shard.json` + history.
//!
//! Usage: `shard_bench [cube-edge] [steps]` (defaults 24, 40).

use room_acoustics::{
    BoundaryKernel, GridDims, Precision, RoomShape, SimConfig, SimSetup, Simulation,
};
use std::fmt::Write as _;
use std::time::Instant;
use vgpu::{Device, DeviceProfile, ExecMode, HaloTotals, ModelInput};

fn devices(n: usize) -> Vec<Device> {
    (0..n).map(|_| Device::gtx780()).collect()
}

struct Row {
    shape: &'static str,
    algo: &'static str,
    dev_count: usize,
    fast_ms: f64,
    modeled_ms: f64,
    halo_bytes_per_step: u64,
    halo_copies_per_step: u64,
}

fn run_one(
    setup: &SimSetup,
    kind: BoundaryKernel,
    shape: &'static str,
    algo: &'static str,
    dev_count: usize,
    steps: usize,
) -> Row {
    let dims = setup.dims();
    let mut sim = Simulation::new(setup.clone(), Precision::Single, kind, devices(dev_count));
    sim.impulse(dims.nx / 2, dims.ny / 2, dims.nz / 2, 1.0);

    // One modeled step: per-slab transaction/flop counts feed the sharded
    // roofline (slowest slab + halo bytes over the link).
    let stats = sim.step(ExecMode::Model { sample_stride: 1 });
    let per_device: Vec<ModelInput> = stats
        .iter()
        .map(|(v, b)| {
            let txn = v.transaction_bytes.unwrap_or(0)
                + b.as_ref().and_then(|b| b.transaction_bytes).unwrap_or(0);
            let flops = v.counters.flops + b.as_ref().map_or(0, |b| b.counters.flops);
            ModelInput::local(txn, flops, false)
        })
        .collect();
    let halo_per_step = sim.halo_bytes_per_step();
    let modeled_ms =
        vgpu::modeled_sharded_step_s(&per_device, halo_per_step, &DeviceProfile::gtx780()) * 1e3;

    // Measured: best-of-3 trials of the fast-mode step loop, with the halo
    // counters cross-checked against the analytic per-step bytes.
    let h0 = HaloTotals::snapshot();
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        for _ in 0..steps {
            sim.step(ExecMode::Fast);
        }
        best = best.min(t0.elapsed().as_secs_f64() * 1e3 / steps as f64);
    }
    let halo = HaloTotals::snapshot().delta_since(&h0);
    let measured_steps = (3 * steps) as u64;
    assert_eq!(halo.bytes, measured_steps * halo_per_step, "halo accounting drifted");

    Row {
        shape,
        algo,
        dev_count,
        fast_ms: best,
        modeled_ms,
        halo_bytes_per_step: halo_per_step,
        halo_copies_per_step: halo.copies / measured_steps.max(1),
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(24);
    let steps: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(40);

    let threads = bench::provenance::threads();
    let engine = bench::provenance::engine_label();
    let sanitize = bench::provenance::sanitize_label();

    let mut rows = Vec::new();
    for (shape, label) in [(RoomShape::Box, "box"), (RoomShape::Dome, "dome")] {
        let dims = GridDims::cube(n);
        let fimm = SimSetup::new(&SimConfig::fimm(dims, shape));
        let fdmm = SimSetup::new(&SimConfig::fdmm(dims, shape));
        for dev_count in [1usize, 2, 4] {
            rows.push(run_one(
                &fimm,
                BoundaryKernel::FiMm { beta_constant: true },
                label,
                "fimm",
                dev_count,
                steps,
            ));
            rows.push(run_one(&fdmm, BoundaryKernel::FdMm, label, "fdmm", dev_count, steps));
        }
    }

    let mut curve = String::from("{");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            curve.push(',');
        }
        write!(
            curve,
            "\"{}_{}_x{}\":{{\"fast_ms_per_step\":{:.4},\"modeled_ms_per_step\":{:.4},\
             \"halo_bytes_per_step\":{},\"halo_copies_per_step\":{}}}",
            r.shape,
            r.algo,
            r.dev_count,
            r.fast_ms,
            r.modeled_ms,
            r.halo_bytes_per_step,
            r.halo_copies_per_step
        )
        .unwrap();
    }
    curve.push('}');

    let record = format!(
        "{{\"bench\":\"shard\",\"cube\":{n},\"steps\":{steps},\
         \"engine\":\"{engine}\",\
         \"threads\":{threads},\"devices_swept\":[1,2,4],\
         \"sanitize\":\"{sanitize}\",\"scaling\":{curve}}}"
    );
    println!("{record}");
    match serde_json::from_str(&record) {
        Ok(value) => {
            bench::run_report::emit("shard_bench", value);
        }
        Err(e) => eprintln!("cannot parse own record for run report: {e}"),
    }
}
