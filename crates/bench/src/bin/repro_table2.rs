//! Regenerates Table II: room sizes and boundary-point counts for the box
//! and dome shapes, comparing our voxeliser's counts with the paper's.
//!
//! The dome geometry (half-ellipsoid) is reconstructed from Figure 1 — the
//! paper does not give its analytic form — so dome counts are expected to
//! agree in magnitude and trend (fewer boundary points than the box at the
//! same grid, scaling with surface area), not digit-for-digit.

use bench::paper::TABLE2;
use bench::table;
use room_acoustics::{GridDims, MaterialAssignment, RoomModel, RoomShape};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    size: String,
    x: usize,
    y: usize,
    z: usize,
    dome_pts: usize,
    dome_paper: u64,
    box_pts: usize,
    box_paper: u64,
}

fn main() {
    let quick = std::env::var("REPRO_QUICK").as_deref() == Ok("1");
    let mut rows = Vec::new();
    for &(label, x, y, z, dome_paper, box_paper) in TABLE2 {
        if quick && x > 400 {
            eprintln!("REPRO_QUICK=1: skipping {label}");
            continue;
        }
        eprintln!("voxelising {x}×{y}×{z}…");
        let dims = GridDims::new(x, y, z);
        let boxm = RoomModel::build(dims, RoomShape::Box, MaterialAssignment::Uniform);
        let domem = RoomModel::build(dims, RoomShape::Dome, MaterialAssignment::Uniform);
        rows.push(Row {
            size: label.to_string(),
            x,
            y,
            z,
            dome_pts: domem.num_boundary_points(),
            dome_paper,
            box_pts: boxm.num_boundary_points(),
            box_paper,
        });
    }
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{}×{}×{}", r.x, r.y, r.z),
                r.dome_pts.to_string(),
                r.dome_paper.to_string(),
                table::pct(r.dome_pts as f64 / r.dome_paper as f64),
                r.box_pts.to_string(),
                r.box_paper.to_string(),
                table::pct(r.box_pts as f64 / r.box_paper as f64),
            ]
        })
        .collect();
    println!("== Table II: room sizes and boundary points ==\n");
    println!(
        "{}",
        table::render(
            &["dims", "dome pts", "dome paper", "Δ", "box pts", "box paper", "Δ"],
            &table_rows
        )
    );
    let mut failures = 0;
    for r in &rows {
        // box: shell of the interior — should match the paper within a few
        // per cent (halo conventions differ slightly).
        let box_ratio = r.box_pts as f64 / r.box_paper as f64;
        if !(0.9..=1.1).contains(&box_ratio) {
            println!("[FAIL] box count for {} off by {}", r.size, table::pct(box_ratio));
            failures += 1;
        }
        // dome: same order, fewer than box.
        let dome_ratio = r.dome_pts as f64 / r.dome_paper as f64;
        if !(0.5..=2.0).contains(&dome_ratio) || r.dome_pts >= r.box_pts {
            println!("[FAIL] dome count for {} implausible ({})", r.size, r.dome_pts);
            failures += 1;
        }
    }
    if failures == 0 {
        println!("[ok] boundary-point counts reproduce Table II's magnitudes and ordering");
    }
    match table::write_json("table2", &rows) {
        Ok(p) => eprintln!("wrote {p}"),
        Err(e) => eprintln!("could not write results: {e}"),
    }
    bench::trace::finish(vgpu::runtime(), "table2");
    std::process::exit(if failures == 0 { 0 } else { 1 });
}
