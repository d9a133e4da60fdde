//! Regenerates Figure 6 / Table VI: FD-MM boundary-kernel throughput
//! (`MB = 3`), LIFT-generated vs hand-written, over 4 platforms × 3 sizes ×
//! 2 shapes × 2 precisions.
//!
//! Set `REPRO_QUICK=1` to run reduced room sizes.

use bench::measure::measure_fdmm;
use bench::paper::TABLE6;
use bench::report;

fn main() {
    let rows = report::boundary_sweep(measure_fdmm, TABLE6);
    report::print_report("Figure 6 / Table VI — FD-MM boundary handling (MB = 3)", &rows);
    let mut failures = report::shape_checks(&rows);

    let quick = std::env::var("REPRO_QUICK").as_deref() == Ok("1");
    // Figure-6-specific claims.
    // (a) §VII-B2 quotes "45 memory accesses and 98 floating-point
    //     operations per update". Listing 4's arithmetic alone comes to ~58
    //     flops at MB = 3; the paper's count evidently includes address
    //     arithmetic. We check the order of magnitude of both quantities.
    if let Some(r) = rows.iter().find(|r| r.version == "OpenCL" && r.platform == "GTX780") {
        let flops_per_update = r.flops as f64 / r.updates as f64;
        let ok = (40.0..=140.0).contains(&flops_per_update);
        println!(
            "[{}] FD-MM flops/update within the paper's magnitude (measured {:.0}; \
             paper quotes 98 incl. address arithmetic, the listing's math is ~58)",
            if ok { "ok" } else { "FAIL" },
            flops_per_update
        );
        if !ok {
            failures += 1;
        }
    }
    // (b) The single/double split is wider for FD-MM than for FI-MM
    //     (Figure 6 vs Figure 5). At quick sizes the fixed launch overhead
    //     compresses ratios, so the threshold only applies to full runs.
    let mut ratios = Vec::new();
    for l in rows.iter().filter(|r| r.precision == "Double" && r.version == "OpenCL") {
        if let Some(s) = rows.iter().find(|r| {
            r.version == "OpenCL"
                && r.precision == "Single"
                && r.size == l.size
                && r.shape == l.shape
                && r.platform == l.platform
        }) {
            ratios.push(l.modeled_ms / s.modeled_ms);
        }
    }
    let mean = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
    let ok = if quick { mean > 1.02 } else { mean > 1.10 };
    println!(
        "[{}] FD-MM double/single time ratio direction (mean {:.2}{})",
        if ok { "ok" } else { "FAIL" },
        mean,
        if quick { "; quick mode threshold relaxed" } else { "" }
    );
    println!(
        "[note] the paper's ratio is ~1.5–2×; a 128-byte-transaction model under-scales it \
         because gathered accesses cost one transaction regardless of element width — \
         see EXPERIMENTS.md §Fig6"
    );
    if !ok {
        failures += 1;
    }

    match bench::table::write_json("fig6_table6", &rows) {
        Ok(p) => eprintln!("wrote {p}"),
        Err(e) => eprintln!("could not write results: {e}"),
    }
    bench::trace::finish(vgpu::runtime(), "fig6_table6");
    std::process::exit(if failures == 0 { 0 } else { 1 });
}
