//! Regenerates Figure 4 / Table IV: throughput of the naive
//! frequency-independent (FI) simulation — the full stencil + uniform-β
//! boundary in one kernel — LIFT-generated vs hand-written, box rooms,
//! 4 platforms × 3 sizes × 2 precisions.
//!
//! The volume grid is sampled warp-wise in the transaction model (the
//! stencil is translation-invariant); set `REPRO_QUICK=1` for reduced
//! sizes.

use bench::measure::{bench_sizes, measure_fi_single, volume_stride, Impl};
use bench::paper::TABLE4;
use bench::report::{self, expand_platforms};
use room_acoustics::Precision;

fn main() {
    let mut rows = Vec::new();
    for dims in bench_sizes() {
        let stride = volume_stride(&dims);
        for precision in [Precision::Single, Precision::Double] {
            for which in Impl::both() {
                eprintln!(
                    "measuring FI {} {} {} (stride {stride})…",
                    which.label(),
                    dims.label(),
                    precision.label()
                );
                let m = measure_fi_single(dims, precision, which, stride);
                rows.extend(expand_platforms(&m, TABLE4));
            }
        }
    }
    report::print_report("Figure 4 / Table IV — naive FI simulation (box)", &rows);
    let failures = report::shape_checks(&rows);
    match bench::table::write_json("fig4_table4", &rows) {
        Ok(p) => eprintln!("wrote {p}"),
        Err(e) => eprintln!("could not write results: {e}"),
    }
    bench::trace::finish(vgpu::runtime(), "fig4_table4");
    std::process::exit(if failures == 0 { 0 } else { 1 });
}
