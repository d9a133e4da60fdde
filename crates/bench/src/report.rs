//! Shared report generation for the boundary-kernel figures (5 and 6).

use crate::measure::{self, Impl, Measurement};
use crate::paper::{self, TimeRow};
use crate::table;
use room_acoustics::{Precision, RoomShape};
use serde::Serialize;
use vgpu::telemetry::sink;
use vgpu::DeviceProfile;

/// One rendered result row (also dumped as JSON).
#[derive(Debug, Serialize)]
pub struct ReportRow {
    /// Platform name.
    pub platform: String,
    /// "OpenCL" or "LIFT".
    pub version: &'static str,
    /// Size label.
    pub size: String,
    /// Shape label.
    pub shape: &'static str,
    /// Precision label.
    pub precision: &'static str,
    /// Modeled kernel time (ms).
    pub modeled_ms: f64,
    /// Throughput (giga-updates/s).
    pub gups: f64,
    /// The paper's median time (ms) for this configuration, if published.
    pub paper_ms: Option<f64>,
    /// Boundary points (or grid points) per update.
    pub updates: u64,
    /// Coalesced DRAM bytes per kernel.
    pub txn_bytes: u64,
    /// Flops per kernel.
    pub flops: u64,
}

/// Expands one measurement across the four platforms.
pub fn expand_platforms(m: &Measurement, paper_table: &[TimeRow]) -> Vec<ReportRow> {
    DeviceProfile::paper_platforms()
        .into_iter()
        .map(|p| {
            let paper_ms =
                paper::lookup(paper_table, &p.name, m.impl_name, &m.size, m.shape, m.double);
            ReportRow {
                platform: p.name.clone(),
                version: m.impl_name,
                size: m.size.clone(),
                shape: m.shape,
                precision: m.precision,
                modeled_ms: m.modeled_ms(&p),
                gups: m.gups(&p),
                paper_ms,
                updates: m.updates,
                txn_bytes: m.txn_bytes,
                flops: m.counters.flops,
            }
        })
        .collect()
}

/// Runs the full boundary-kernel sweep for one algorithm and returns all
/// rows. `measure` is [`measure::measure_fimm`] or [`measure::measure_fdmm`].
pub fn boundary_sweep(
    measure_fn: fn(room_acoustics::GridDims, RoomShape, Precision, Impl) -> Measurement,
    paper_table: &'static [TimeRow],
) -> Vec<ReportRow> {
    let mut rows = Vec::new();
    for dims in measure::bench_sizes() {
        for shape in [RoomShape::Box, RoomShape::Dome] {
            for precision in [Precision::Single, Precision::Double] {
                for which in Impl::both() {
                    eprintln!(
                        "measuring {} {} {} {}…",
                        which.label(),
                        dims.label(),
                        shape.label(),
                        precision.label()
                    );
                    let m = measure_fn(dims, shape, precision, which);
                    rows.extend(expand_platforms(&m, paper_table));
                }
            }
        }
    }
    rows
}

/// Prints a figure report: per-platform tables with paper-vs-modeled times
/// and the derived throughputs, plus the per-kernel telemetry summary when
/// tracing is enabled.
pub fn print_report(title: &str, rows: &[ReportRow]) {
    println!("== {title} ==\n");
    for platform in ["AMD7970", "GTX780", "RadeonR9", "Titan Black"] {
        let sub: Vec<&ReportRow> = rows.iter().filter(|r| r.platform == platform).collect();
        if sub.is_empty() {
            continue;
        }
        println!("-- {platform} --");
        let table_rows: Vec<Vec<String>> = sub
            .iter()
            .map(|r| {
                vec![
                    r.version.to_string(),
                    r.size.clone(),
                    r.shape.to_string(),
                    r.precision.to_string(),
                    format!("{:.3}", r.modeled_ms),
                    r.paper_ms.map_or("-".into(), |v| format!("{v:.2}")),
                    format!("{:.2}", r.gups),
                ]
            })
            .collect();
        println!(
            "{}",
            table::render(
                &["version", "size", "shape", "prec", "model ms", "paper ms", "Gup/s"],
                &table_rows
            )
        );
    }
    let accounts = sink::kernel_summaries(&vgpu::runtime().trace.events_snapshot());
    if !accounts.is_empty() {
        println!("-- per-kernel telemetry --\n{}", sink::render_accounts(&accounts));
    }
}

/// Checks the reproduction's qualitative claims over a set of rows and
/// prints a verdict block; returns the number of failed checks.
pub fn shape_checks(rows: &[ReportRow]) -> usize {
    let mut failures = 0;
    let mut check = |name: &str, ok: bool| {
        println!("[{}] {name}", if ok { "ok" } else { "FAIL" });
        if !ok {
            failures += 1;
        }
    };
    let find = |ver: &str, size: &str, shape: &str, prec: &str, plat: &str| {
        rows.iter().find(|r| {
            r.version == ver
                && r.size == size
                && r.shape == shape
                && r.precision == prec
                && r.platform == plat
        })
    };
    // (1) LIFT on par with OpenCL: geometric-mean ratio within 25 %.
    let mut logsum = 0.0;
    let mut n = 0;
    for r in rows.iter().filter(|r| r.version == "LIFT") {
        if let Some(o) = find("OpenCL", &r.size, r.shape, r.precision, &r.platform) {
            logsum += (r.modeled_ms / o.modeled_ms).ln();
            n += 1;
        }
    }
    let gmean = (logsum / n.max(1) as f64).exp();
    check(
        &format!("LIFT ≈ hand-written (geo-mean time ratio {:.2})", gmean),
        (0.75..=1.25).contains(&gmean),
    );
    // (2) double precision is never faster than single for same config.
    let ok = rows.iter().filter(|r| r.precision == "Double").all(|d| {
        match find(d.version, &d.size, d.shape, "Single", &d.platform) {
            Some(s) => d.modeled_ms >= s.modeled_ms * 0.99,
            None => true,
        }
    });
    check("double ≥ single kernel time", ok);
    // (3) larger rooms take longer on the same platform/impl/precision.
    let ok = rows.iter().filter(|r| r.size == "602").all(|big| {
        match find(big.version, "302", big.shape, big.precision, &big.platform) {
            Some(small) => big.modeled_ms > small.modeled_ms,
            None => true,
        }
    });
    check("602 room slower than 302 room", ok);
    failures
}
