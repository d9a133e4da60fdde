//! Telemetry sinks: summary tables and Chrome trace-event/Perfetto JSON,
//! and the per-kernel account both print.
//!
//! Sinks are pure functions from an event slice (plus a metric snapshot) to
//! an `io::Write` or a `String`, so tests can render into memory and the
//! repro binaries into `results/*.trace.json` artifacts. [`validate_chrome`]
//! parses a Chrome trace back and checks the structural invariants the
//! schema tests and the CI smoke job rely on. [`KernelSummary`] is the one
//! per-kernel record: a launch's [`LaunchStats`] folded
//! ([`KernelSummary::add`]) under its (kernel, engine, precision) key; a
//! trace's kernel events carry one-launch accounts ([`kernel_summaries`]
//! merges them), a caller without a trace folds what its launches returned
//! ([`fold_launch`]).

use super::event::{Event, TransferDir};
use super::registry::{MetricSnapshot, MetricValue};
use crate::exec::{LaunchStats, Prepared};
use crate::profiler::OpProf;
use serde::Serialize;
use serde_json::json;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, Write};

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
            Event::Kernel { track, ts_us, account } => json!({
                "name": account.name, "cat": "kernel", "ph": "X", "pid": 1, "tid": track.0,
                "ts": ts_us, "dur": account.wall_ms * 1e3,
                "args": account,
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

/// The one per-kernel account: the launches of one kernel on one engine at
/// one precision, their [`LaunchStats`] summed by [`KernelSummary::add`].
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct KernelSummary {
    /// Kernel name.
    pub name: String,
    /// Backend that executed the launches (`tape` / `tree`, or
    /// `tree(oracle)` for a differential launch's oracle leg).
    pub engine: String,
    /// Float precision of the kernel's buffer traffic ([`Prepared::precision`]).
    pub precision: String,
    /// Number of launches.
    pub launches: u64,
    /// Launches that ran as at most one task, on the launching thread.
    pub inline_launches: u64,
    /// Total tasks over all launches.
    pub tasks: u64,
    /// Total work-items executed.
    pub work_items: u64,
    /// Total global-memory loads.
    pub loads_global: u64,
    /// Total global-memory stores.
    pub stores_global: u64,
    /// Total `__constant`-space loads.
    pub loads_constant: u64,
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
    /// Per-opcode tally of the launches that ran in
    /// [`crate::ExecMode::Profile`]; `None` when none did.
    pub ops: Option<Box<OpProf>>,
}

impl KernelSummary {
    /// The empty account of kernel `name` run by `engine` at `precision`.
    pub fn new(name: &str, engine: &str, precision: &str) -> KernelSummary {
        let (name, engine, precision) = (name.into(), engine.into(), precision.into());
        KernelSummary { name, engine, precision, ..Default::default() }
    }

    /// The account of one launch of `prep` that returned `stats`.
    pub fn of(prep: &Prepared, stats: &LaunchStats) -> KernelSummary {
        let mut account = KernelSummary::new(&prep.name, stats.backend.label(), prep.precision());
        account.add(stats);
        account
    }

    /// The account's key: (kernel, engine, precision).
    pub fn key(&self) -> (&str, &str, &str) {
        (&self.name, &self.engine, &self.precision)
    }

    /// Folds in one launch — the one place a launch's figures enter an
    /// account.
    pub fn add(&mut self, s: &LaunchStats) {
        let c = &s.counters;
        self.launches += 1;
        self.inline_launches += u64::from(s.tasks <= 1);
        self.tasks += s.tasks as u64;
        self.work_items += c.work_items;
        self.loads_global += c.loads_global;
        self.stores_global += c.stores_global;
        self.loads_constant += c.loads_constant;
        self.flops += c.flops;
        self.bytes_loaded += c.bytes_loaded;
        self.bytes_stored += c.bytes_stored;
        self.transaction_bytes += s.transaction_bytes.unwrap_or(0);
        self.modeled_ms += s.modeled_s.unwrap_or(0.0) * 1e3;
        self.wall_ms += s.wall.as_secs_f64() * 1e3;
        self.divergent_warps += s.divergent_warps;
        if let Some(ops) = &s.op_profile {
            self.ops.get_or_insert_with(Box::default).merge(ops);
        }
    }

    /// Merges another account of the same key into this one.
    fn merge(&mut self, o: &KernelSummary) {
        debug_assert_eq!(self.key(), o.key());
        self.launches += o.launches;
        self.inline_launches += o.inline_launches;
        self.tasks += o.tasks;
        self.work_items += o.work_items;
        self.loads_global += o.loads_global;
        self.stores_global += o.stores_global;
        self.loads_constant += o.loads_constant;
        self.flops += o.flops;
        self.bytes_loaded += o.bytes_loaded;
        self.bytes_stored += o.bytes_stored;
        self.transaction_bytes += o.transaction_bytes;
        self.modeled_ms += o.modeled_ms;
        self.wall_ms += o.wall_ms;
        self.divergent_warps += o.divergent_warps;
        if let Some(ops) = &o.ops {
            self.ops.get_or_insert_with(Box::default).merge(ops);
        }
    }
}

/// Folds one launch of `prep` that returned `stats` into its account in
/// `accounts`, opening it (at the end) on the first launch of its key.
pub fn fold_launch(accounts: &mut Vec<KernelSummary>, prep: &Prepared, stats: &LaunchStats) {
    let key = (prep.name.as_str(), stats.backend.label(), prep.precision());
    match accounts.iter_mut().find(|a| a.key() == key) {
        Some(account) => account.add(stats),
        None => accounts.push(KernelSummary::of(prep, stats)),
    }
}

/// Merges the accounts of the [`Event::Kernel`]s per (kernel, engine,
/// precision), sorted by that key for determinism.
pub fn kernel_summaries(events: &[Event]) -> Vec<KernelSummary> {
    let mut map: BTreeMap<(&str, &str, &str), KernelSummary> = BTreeMap::new();
    for ev in events {
        if let Event::Kernel { account, .. } = ev {
            map.entry(account.key())
                .and_modify(|merged| merged.merge(account))
                .or_insert_with(|| account.clone());
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

/// Opcode rows shown per kernel in a hotspot table: every opcode a shipped
/// tape runs, so a row missing from one reads 0 dispatches.
const HOTSPOT_ROWS: usize = 20;

/// Renders `accounts` as a table, one row per (kernel, engine, precision),
/// then the per-opcode hotspot table of every account that carries ops.
pub fn render_accounts(accounts: &[KernelSummary]) -> String {
    let mut out = String::new();
    if accounts.is_empty() {
        return out;
    }
    out.push_str(&format!(
        "{:<28} {:<6} {:<4} {:>8} {:>12} {:>14} {:>14} {:>10} {:>10} {:>10} {:>8}\n",
        "kernel",
        "engine",
        "prec",
        "launches",
        "work-items",
        "flops",
        "txn bytes",
        "model ms",
        "wall ms",
        "div warps",
        "tasks"
    ));
    for k in accounts {
        out.push_str(&format!(
            "{:<28} {:<6} {:<4} {:>8} {:>12} {:>14} {:>14} {:>10.3} {:>10.3} {:>10} {:>8}\n",
            k.name,
            k.engine,
            k.precision,
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
    for k in accounts {
        let Some(ops) = k.ops.as_deref().map(OpProf::entries).filter(|e| !e.is_empty()) else {
            continue;
        };
        let total_ns: u64 = ops.iter().map(|o| o.2).sum();
        out.push_str(&format!(
            "-- op hotspots: {} [{} {}] ({} launches, {:.3} ms attributed) --\n",
            k.name,
            k.engine,
            k.precision,
            k.launches,
            total_ns as f64 * 1e-6
        ));
        out.push_str(&format!(
            "{:<10} {:>14} {:>12} {:>9} {:>7}\n",
            "op", "dispatches", "total ms", "ns/op", "share"
        ));
        for (op, count, ns) in ops.iter().take(HOTSPOT_ROWS) {
            out.push_str(&format!(
                "{:<10} {:>14} {:>12.3} {:>9.1} {:>6.1}%\n",
                op,
                count,
                *ns as f64 * 1e-6,
                *ns as f64 / (*count).max(1) as f64,
                100.0 * *ns as f64 / total_ns.max(1) as f64
            ));
        }
        if ops.len() > HOTSPOT_ROWS {
            let rest: u64 = ops[HOTSPOT_ROWS..].iter().map(|o| o.2).sum();
            out.push_str(&format!(
                "{:<10} {:>14} {:>12.3}\n",
                format!("(+{} more)", ops.len() - HOTSPOT_ROWS),
                "",
                rest as f64 * 1e-6
            ));
        }
    }
    out
}

/// Renders the human-readable end-of-run summary: the per-kernel accounts
/// ([`render_accounts`]), transfer totals, and the metric registry dump.
pub fn render_summary(events: &[Event], metrics: &[MetricSnapshot]) -> String {
    let mut out = String::from("== vgpu telemetry summary ==\n");
    out.push_str(&render_accounts(&kernel_summaries(events)));
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
