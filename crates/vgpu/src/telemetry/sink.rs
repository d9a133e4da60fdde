//! Telemetry sinks: summary tables, JSONL streams, and Chrome
//! trace-event/Perfetto JSON.
//!
//! Sinks are pure functions from an event slice (plus a metric snapshot) to
//! an `io::Write`, so tests can render into memory and the repro binaries
//! into `results/*.trace.json(l)` artifacts. [`validate_chrome`] parses a
//! Chrome trace back and checks the structural invariants the schema tests
//! and the CI smoke job rely on.

use super::event::{Event, KernelMetrics, TransferDir};
use super::registry::{MetricSnapshot, MetricValue};
use serde::Serialize;
use serde_json::json;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, Write};

/// Writes one JSON object per line (JSONL): every event, then every metric
/// snapshot (tagged with `"ev": "metric"` by its own schema).
pub fn write_jsonl<W: Write>(
    mut w: W,
    events: &[Event],
    metrics: &[MetricSnapshot],
) -> io::Result<()> {
    for ev in events {
        serde_json::to_writer(&mut w, ev)?;
        writeln!(w)?;
    }
    for m in metrics {
        serde_json::to_writer(&mut w, &json!({ "ev": "metric", "metric": m }))?;
        writeln!(w)?;
    }
    Ok(())
}

/// Writes a Chrome trace-event JSON document (loadable by Perfetto and
/// `chrome://tracing`): one thread per telemetry track under a single
/// process, complete (`ph: "X"`) events for spans/kernels/transfers, instant
/// events for allocs and frees, and one counter sample per
/// registered counter/gauge at the end of the timeline.
pub fn write_chrome<W: Write>(
    mut w: W,
    events: &[Event],
    metrics: &[MetricSnapshot],
) -> io::Result<()> {
    let mut out: Vec<serde_json::Value> = Vec::with_capacity(events.len() + metrics.len() + 1);
    let mut end_ts = 0.0f64;
    for ev in events {
        if let Some(ts) = ev.ts_us() {
            end_ts = end_ts.max(ts);
        }
        out.push(match ev {
            Event::TrackName { track, name } => json!({
                "name": "thread_name", "ph": "M", "pid": 1, "tid": track.0,
                "args": { "name": name },
            }),
            Event::Span { track, name, ts_us, dur_us } => json!({
                "name": name, "cat": "span", "ph": "X", "pid": 1, "tid": track.0,
                "ts": ts_us, "dur": dur_us,
            }),
            Event::Kernel { track, name, engine, ts_us, dur_us, metrics } => json!({
                "name": name, "cat": "kernel", "ph": "X", "pid": 1, "tid": track.0,
                "ts": ts_us, "dur": dur_us,
                "args": {
                    "engine": engine,
                    "work_items": metrics.work_items,
                    "loads_global": metrics.loads_global,
                    "stores_global": metrics.stores_global,
                    "loads_constant": metrics.loads_constant,
                    "bytes_loaded": metrics.bytes_loaded,
                    "bytes_stored": metrics.bytes_stored,
                    "flops": metrics.flops,
                    "transaction_bytes": metrics.transaction_bytes,
                    "modeled_us": metrics.modeled_us,
                    "divergent_warps": metrics.divergent_warps,
                    "tasks": metrics.tasks,
                },
            }),
            Event::ModeledKernel { track, name, ts_us, dur_us } => json!({
                "name": name, "cat": "modeled", "ph": "X", "pid": 1, "tid": track.0,
                "ts": ts_us, "dur": dur_us,
            }),
            Event::Transfer { track, dir, name, bytes, ts_us, dur_us } => json!({
                "name": name, "cat": "transfer", "ph": "X", "pid": 1, "tid": track.0,
                "ts": ts_us, "dur": dur_us,
                "args": { "dir": dir.label(), "bytes": bytes },
            }),
            Event::Alloc { name, bytes, ts_us } => json!({
                "name": format!("alloc {name}"), "cat": "memory", "ph": "i", "s": "p",
                "pid": 1, "tid": 0, "ts": ts_us, "args": { "bytes": bytes },
            }),
            Event::Free { name, bytes, ts_us } => json!({
                "name": format!("free {name}"), "cat": "memory", "ph": "i", "s": "p",
                "pid": 1, "tid": 0, "ts": ts_us, "args": { "bytes": bytes },
            }),
        });
    }
    for m in metrics {
        let value = match &m.value {
            MetricValue::Counter { value } => json!(value),
            MetricValue::Gauge { value } => json!(value),
            MetricValue::Histogram { .. } => continue, // no Chrome counter form
        };
        out.push(json!({
            "name": m.name, "cat": "metric", "ph": "C", "pid": 1, "tid": 0,
            "ts": end_ts, "args": { "value": value },
        }));
    }
    serde_json::to_writer(&mut w, &json!({ "traceEvents": out, "displayTimeUnit": "ms" }))?;
    Ok(())
}

/// Structural facts extracted from a Chrome trace by [`validate_chrome`] —
/// what the golden tests and the CI smoke job assert against.
#[derive(Debug, Default)]
pub struct ChromeStats {
    /// Total trace events.
    pub events: usize,
    /// Names of every complete (`ph: "X"`) span.
    pub span_names: BTreeSet<String>,
    /// Track names declared by `thread_name` metadata.
    pub track_names: BTreeSet<String>,
    /// Summed `flops` per kernel span name.
    pub kernel_flops: BTreeMap<String, u64>,
    /// Summed `transaction_bytes` per kernel span name.
    pub kernel_txn_bytes: BTreeMap<String, u64>,
    /// Total transfer bytes by direction label (`ToGPU`/`ToHost`).
    pub transfer_bytes: BTreeMap<String, u64>,
}

fn field<'a>(e: &'a serde_json::Value, k: &str, i: usize) -> Result<&'a serde_json::Value, String> {
    e.get(k).ok_or_else(|| format!("traceEvents[{i}] missing `{k}`: {e}"))
}

/// Parses Chrome trace JSON text and validates the invariants every emitted
/// trace must satisfy: a `traceEvents` array of objects, each with a string
/// `name` and a known `ph`, timed events carrying finite non-negative
/// `ts`/`dur` and a `pid`/`tid`. Returns the extracted [`ChromeStats`].
pub fn validate_chrome(text: &str) -> Result<ChromeStats, String> {
    let doc: serde_json::Value =
        serde_json::from_str(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let arr =
        doc.get("traceEvents").and_then(|v| v.as_array()).ok_or("missing `traceEvents` array")?;
    let mut stats = ChromeStats { events: arr.len(), ..Default::default() };
    for (i, e) in arr.iter().enumerate() {
        if !e.is_object() {
            return Err(format!("traceEvents[{i}] is not an object"));
        }
        let name = field(e, "name", i)?
            .as_str()
            .ok_or_else(|| format!("traceEvents[{i}] `name` is not a string"))?;
        let ph = field(e, "ph", i)?
            .as_str()
            .ok_or_else(|| format!("traceEvents[{i}] `ph` is not a string"))?;
        match ph {
            "M" => {
                if name == "thread_name" {
                    if let Some(n) = e.pointer("/args/name").and_then(|v| v.as_str()) {
                        stats.track_names.insert(n.to_string());
                    }
                }
            }
            "X" | "i" | "C" => {
                let ts = field(e, "ts", i)?
                    .as_f64()
                    .ok_or_else(|| format!("traceEvents[{i}] `ts` is not a number"))?;
                if !ts.is_finite() || ts < 0.0 {
                    return Err(format!("traceEvents[{i}] has invalid ts {ts}"));
                }
                field(e, "pid", i)?;
                field(e, "tid", i)?;
                if ph == "X" {
                    let dur = field(e, "dur", i)?
                        .as_f64()
                        .ok_or_else(|| format!("traceEvents[{i}] `dur` is not a number"))?;
                    if !dur.is_finite() || dur < 0.0 {
                        return Err(format!("traceEvents[{i}] has invalid dur {dur}"));
                    }
                    stats.span_names.insert(name.to_string());
                    let cat = e.get("cat").and_then(|v| v.as_str()).unwrap_or("");
                    if cat == "kernel" {
                        let flops = e.pointer("/args/flops").and_then(|v| v.as_u64()).unwrap_or(0);
                        *stats.kernel_flops.entry(name.to_string()).or_insert(0) += flops;
                        if let Some(tb) =
                            e.pointer("/args/transaction_bytes").and_then(|v| v.as_u64())
                        {
                            *stats.kernel_txn_bytes.entry(name.to_string()).or_insert(0) += tb;
                        }
                    } else if cat == "transfer" {
                        let dir = e
                            .pointer("/args/dir")
                            .and_then(|v| v.as_str())
                            .unwrap_or("?")
                            .to_string();
                        let bytes = e.pointer("/args/bytes").and_then(|v| v.as_u64()).unwrap_or(0);
                        *stats.transfer_bytes.entry(dir).or_insert(0) += bytes;
                    }
                }
            }
            other => return Err(format!("traceEvents[{i}] has unknown ph `{other}`")),
        }
    }
    Ok(stats)
}

/// Per-kernel aggregate of launches — the one per-kernel table: the trace
/// summary folds [`Event::Kernel`]s into it ([`kernel_summaries`]), a caller
/// without a trace folds what its launches returned ([`KernelSummary::add`]).
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct KernelSummary {
    /// Kernel name.
    pub name: String,
    /// Number of launches.
    pub launches: u64,
    /// Launches that ran as at most one task, on the launching thread.
    pub inline_launches: u64,
    /// Total tasks over all launches.
    pub tasks: u64,
    /// Total work-items executed.
    pub work_items: u64,
    /// Total flops.
    pub flops: u64,
    /// Total bytes requested by global loads.
    pub bytes_loaded: u64,
    /// Total bytes written by global stores.
    pub bytes_stored: u64,
    /// Total coalesced DRAM traffic (model-mode launches only).
    pub transaction_bytes: u64,
    /// Total modeled device time in milliseconds (model-mode launches only).
    pub modeled_ms: f64,
    /// Total host-side interpreter wall time in milliseconds.
    pub wall_ms: f64,
    /// Total divergent warps.
    pub divergent_warps: u64,
}

impl KernelSummary {
    /// The empty aggregate of kernel `name`.
    pub fn new(name: &str) -> KernelSummary {
        KernelSummary { name: name.to_string(), ..Default::default() }
    }

    /// Folds in one launch that took `wall_us` of host time.
    pub fn add(&mut self, m: &KernelMetrics, wall_us: f64) {
        self.launches += 1;
        self.inline_launches += u64::from(m.tasks <= 1);
        self.tasks += m.tasks;
        self.work_items += m.work_items;
        self.flops += m.flops;
        self.bytes_loaded += m.bytes_loaded;
        self.bytes_stored += m.bytes_stored;
        self.transaction_bytes += m.transaction_bytes.unwrap_or(0);
        self.modeled_ms += m.modeled_us.unwrap_or(0.0) * 1e-3;
        self.wall_ms += wall_us * 1e-3;
        self.divergent_warps += m.divergent_warps;
    }
}

/// Aggregates [`Event::Kernel`] events per kernel name, sorted by name for
/// determinism.
pub fn kernel_summaries(events: &[Event]) -> Vec<KernelSummary> {
    let mut map: BTreeMap<&str, KernelSummary> = BTreeMap::new();
    for ev in events {
        if let Event::Kernel { name, dur_us, metrics, .. } = ev {
            map.entry(name).or_insert_with(|| KernelSummary::new(name)).add(metrics, *dur_us);
        }
    }
    map.into_values().collect()
}

/// Total transfers by direction over an event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct TransferSummary {
    /// Direction.
    pub dir: TransferDir,
    /// Number of transfers.
    pub transfers: u64,
    /// Total bytes moved.
    pub bytes: u64,
}

/// Aggregates [`Event::Transfer`] events by direction.
pub fn transfer_summaries(events: &[Event]) -> Vec<TransferSummary> {
    let mut to_gpu = TransferSummary { dir: TransferDir::ToGpu, transfers: 0, bytes: 0 };
    let mut to_host = TransferSummary { dir: TransferDir::ToHost, transfers: 0, bytes: 0 };
    let mut halo = TransferSummary { dir: TransferDir::DevToDev, transfers: 0, bytes: 0 };
    let mut replica = TransferSummary { dir: TransferDir::Replicate, transfers: 0, bytes: 0 };
    for ev in events {
        if let Event::Transfer { dir, bytes, .. } = ev {
            let s = match dir {
                TransferDir::ToGpu => &mut to_gpu,
                TransferDir::ToHost => &mut to_host,
                TransferDir::DevToDev => &mut halo,
                TransferDir::Replicate => &mut replica,
            };
            s.transfers += 1;
            s.bytes += bytes;
        }
    }
    vec![to_gpu, to_host, halo, replica]
}

/// Renders the human-readable end-of-run summary: per-kernel totals,
/// transfer totals, and the metric registry dump.
pub fn render_summary(events: &[Event], metrics: &[MetricSnapshot]) -> String {
    let mut out = String::from("== vgpu telemetry summary ==\n");
    let kernels = kernel_summaries(events);
    if !kernels.is_empty() {
        out.push_str(&format!(
            "{:<28} {:>8} {:>12} {:>14} {:>14} {:>10} {:>10} {:>10} {:>8}\n",
            "kernel",
            "launches",
            "work-items",
            "flops",
            "txn bytes",
            "model ms",
            "wall ms",
            "div warps",
            "tasks"
        ));
        for k in &kernels {
            out.push_str(&format!(
                "{:<28} {:>8} {:>12} {:>14} {:>14} {:>10.3} {:>10.3} {:>10} {:>8}\n",
                k.name,
                k.launches,
                k.work_items,
                k.flops,
                k.transaction_bytes,
                k.modeled_ms,
                k.wall_ms,
                k.divergent_warps,
                k.tasks
            ));
        }
    }
    for t in transfer_summaries(events) {
        if t.transfers > 0 {
            out.push_str(&format!(
                "{:<28} {:>8} transfers {:>14} bytes\n",
                t.dir.label(),
                t.transfers,
                t.bytes
            ));
        }
    }
    if !metrics.is_empty() {
        out.push_str("-- metrics --\n");
        for m in metrics {
            match &m.value {
                MetricValue::Counter { value } => {
                    out.push_str(&format!("{:<40} {value}\n", m.name));
                }
                MetricValue::Gauge { value } => {
                    out.push_str(&format!("{:<40} {value}\n", m.name));
                }
                MetricValue::Histogram { count, sum, p50, p95, p99, .. } => {
                    out.push_str(&format!("{:<40} n={count} sum={sum}", m.name));
                    if let (Some(p50), Some(p95), Some(p99)) = (p50, p95, p99) {
                        out.push_str(&format!(" p50={p50:.0} p95={p95:.0} p99={p99:.0}"));
                    }
                    out.push('\n');
                }
            }
        }
    }
    out
}
