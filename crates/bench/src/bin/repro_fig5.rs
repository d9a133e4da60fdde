//! Regenerates Figure 5 / Table V: FI-MM boundary-kernel throughput,
//! LIFT-generated vs hand-written, over 4 platforms × 3 sizes × 2 shapes ×
//! 2 precisions.
//!
//! Set `REPRO_QUICK=1` to run reduced room sizes.

use bench::measure::measure_fimm;
use bench::paper::TABLE5;
use bench::report;

fn main() {
    let rows = report::boundary_sweep(measure_fimm, TABLE5);
    report::print_report("Figure 5 / Table V — FI-MM boundary handling", &rows);
    let mut failures = report::shape_checks(&rows);

    // Figure-5-specific claim (per-config on-par): every configuration is
    // within 30 % of its counterpart — the paper's bars overlap except the
    // NVIDIA double-precision cases.
    let mut worst: f64 = 1.0;
    for l in rows.iter().filter(|r| r.version == "LIFT") {
        if let Some(o) = rows.iter().find(|o| {
            o.version == "OpenCL"
                && o.platform == l.platform
                && o.size == l.size
                && o.shape == l.shape
                && o.precision == l.precision
        }) {
            let r = l.modeled_ms / o.modeled_ms;
            if (r - 1.0).abs() > (worst - 1.0).abs() {
                worst = r;
            }
        }
    }
    let ok = (0.7..=1.3).contains(&worst);
    println!(
        "[{}] per-config on-par: worst LIFT/OpenCL time ratio {:.2}",
        if ok { "ok" } else { "FAIL" },
        worst
    );
    if !ok {
        failures += 1;
    }
    // Known model limitation (documented in EXPERIMENTS.md): the paper's
    // NVIDIA double-precision gap — the hand-tuned kernel's *hard-coded
    // private-memory β* beating LIFT's global-buffer β — does not emerge
    // from a DRAM-transaction model, which values both near zero. Our
    // substrate instead slightly favours LIFT (its compacted `bnbrs` read
    // is coalesced where the hand-written `nbrs[idx]` gather is not).
    println!("[note] NVIDIA f64 private-β effect is not modeled; see EXPERIMENTS.md §Fig5");

    match bench::table::write_json("fig5_table5", &rows) {
        Ok(p) => eprintln!("wrote {p}"),
        Err(e) => eprintln!("could not write results: {e}"),
    }
    bench::trace::finish(vgpu::runtime(), "fig5_table5");
    std::process::exit(if failures == 0 { 0 } else { 1 });
}
