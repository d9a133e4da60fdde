//! Regenerates Figure 2: the percentage of total step time spent in the
//! boundary kernel (kernel 2) for the FI-MM and FD-MM algorithms, box and
//! dome rooms, hand-written kernels on the GTX 780 profile.
//!
//! The paper shows FI-MM around 4–8 % and FD-MM up to ~20–25 %.
//! Set `REPRO_QUICK=1` for a reduced room.

use bench::table;
use room_acoustics::{
    BoundaryKernel, GridDims, HandwrittenSim, Precision, RoomShape, SimConfig, SimSetup,
};
use serde::Serialize;
use vgpu::{Device, DeviceProfile, ExecMode, ModelInput};

#[derive(Serialize)]
struct Row {
    algo: &'static str,
    shape: &'static str,
    volume_ms: f64,
    boundary_ms: f64,
    boundary_pct: f64,
}

fn modeled_ms(txn: u64, flops: u64, double: bool, p: &DeviceProfile) -> f64 {
    vgpu::modeled_time_s(
        &ModelInput { transaction_bytes: txn, flops, double_precision: double, halo_bytes: 0 },
        p,
    ) * 1e3
}

fn main() {
    // Figure 2 was measured on the GTX 780 with the hand-written CUDA codes.
    let profile = DeviceProfile::gtx780();
    let dims = if std::env::var("REPRO_QUICK").as_deref() == Ok("1") {
        GridDims::new(77, 52, 40)
    } else {
        GridDims::new(302, 202, 152) // the paper's smallest full size
    };
    let stride = (dims.total() / 1_000_000).max(1);
    let mut rows = Vec::new();
    for (algo, fd) in [("FI-MM", false), ("FD-MM", true)] {
        for shape in [RoomShape::Box, RoomShape::Dome] {
            eprintln!("measuring {algo} {}…", shape.label());
            let cfg = if fd { SimConfig::fdmm(dims, shape) } else { SimConfig::fimm(dims, shape) };
            let setup = SimSetup::new(&cfg);
            let kind = if fd {
                BoundaryKernel::FdMm
            } else {
                BoundaryKernel::FiMm { beta_constant: true }
            };
            let mut sim = HandwrittenSim::new(setup, Precision::Double, kind, Device::gtx780());
            sim.impulse(dims.nx / 2, dims.ny / 2, dims.nz / 3, 1.0);
            // volume kernel: sampled transaction model; boundary: exact.
            let (v, _) = sim.step(ExecMode::Model { sample_stride: stride });
            let b = sim.boundary_step_only(ExecMode::Model { sample_stride: 1 });
            let vms = modeled_ms(v.transaction_bytes.unwrap(), v.counters.flops, true, &profile);
            let bms = modeled_ms(b.transaction_bytes.unwrap(), b.counters.flops, true, &profile);
            rows.push(Row {
                algo,
                shape: shape.label(),
                volume_ms: vms,
                boundary_ms: bms,
                boundary_pct: 100.0 * bms / (vms + bms),
            });
        }
    }
    println!("== Figure 2 — boundary handling % of total step time (GTX780) ==\n");
    let trows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.algo.to_string(),
                r.shape.to_string(),
                format!("{:.3}", r.volume_ms),
                format!("{:.3}", r.boundary_ms),
                format!("{:.1} %", r.boundary_pct),
            ]
        })
        .collect();
    println!(
        "{}",
        table::render(&["algorithm", "shape", "volume ms", "boundary ms", "% boundary"], &trows)
    );
    let mut failures = 0;
    let quick = std::env::var("REPRO_QUICK").as_deref() == Ok("1");
    // Shape claims of Figure 2: the boundary share grows with boundary
    // realism (FD-MM well above FI-MM) and is a non-trivial fraction of the
    // step. Note on magnitudes: Figure 2's bars reach ~20 % for FD-MM, but
    // the paper's own Tables IV+VI imply ~6 % at the 602 size
    // (0.78 ms boundary vs 12.3 ms volume on the GTX 780); our model lands
    // near the table-implied values. See EXPERIMENTS.md §Fig2.
    for shape in ["box", "dome"] {
        let fi = rows.iter().find(|r| r.algo == "FI-MM" && r.shape == shape).unwrap();
        let fd = rows.iter().find(|r| r.algo == "FD-MM" && r.shape == shape).unwrap();
        let ordering_thresh = if quick { 1.25 } else { 1.5 };
        let ordering_ok = fd.boundary_pct > fi.boundary_pct * ordering_thresh;
        let magnitude_ok =
            quick || ((5.0..=25.0).contains(&fd.boundary_pct) && fi.boundary_pct < 10.0);
        let ok = ordering_ok && magnitude_ok;
        println!(
            "[{}] {shape}: FI-MM {:.1} % vs FD-MM {:.1} % (tables-implied ≈3 %/6 %; Figure 2 bars ~4–8 %/15–25 %{})",
            if ok { "ok" } else { "FAIL" },
            fi.boundary_pct,
            fd.boundary_pct,
            if quick { "; quick mode checks ordering only" } else { "" }
        );
        if !ok {
            failures += 1;
        }
    }
    match table::write_json("fig2", &rows) {
        Ok(p) => eprintln!("wrote {p}"),
        Err(e) => eprintln!("could not write results: {e}"),
    }
    bench::trace::finish(vgpu::runtime(), "fig2");
    std::process::exit(if failures == 0 { 0 } else { 1 });
}
