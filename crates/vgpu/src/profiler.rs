//! Opt-in execution profiler: per-kernel and per-opcode time attribution,
//! plus the measured-vs-modeled residual report.
//!
//! The trace layer ([`crate::telemetry`]) records *what happened*; this
//! module answers *where the time went*. `VGPU_PROFILE` selects the depth:
//!
//! | value    | cost                | what is attributed                    |
//! |----------|---------------------|---------------------------------------|
//! | `off`    | one relaxed load    | nothing (default)                     |
//! | `kernel` | one map update per launch | wall/modeled time per (kernel, engine, precision) |
//! | `op`     | two timer reads per tape op | everything above **plus** per-opcode time inside the tape executor |
//!
//! Like the trace mode, the profile mode is sampled from the environment
//! once, lazily, and overridable by tests ([`set_mode`]); when profiling is
//! off every instrumentation site reduces to one relaxed atomic load — the
//! executor's hot loop carries `PROF` as a const generic, so the unprofiled
//! instantiation holds no timing code at all.
//!
//! Attribution is keyed by *(kernel, engine backend, float precision)* —
//! the same axes [`crate::perfmodel::modeled_time_s`] models — so the
//! [`residuals`] report can put measured interpreter time and modeled GPU
//! time side by side per kernel. The two clocks differ by orders of
//! magnitude (host interpretation vs. modeled device), so the report fits
//! one least-squares scale across all kernels and prints each kernel's
//! deviation from that shared fit: a kernel the roofline model *ranks*
//! wrongly shows up as a large residual even though absolute times are
//! incomparable (the repo-wide "compare shapes, not absolutes" rule,
//! DESIGN.md §3).

use crate::bytecode::{op_name, NOPCODES};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::Duration;

/// Profiling depth, parsed from `VGPU_PROFILE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ProfileMode {
    /// Profiling disabled (the near-zero-cost default).
    Off = 0,
    /// Per-(kernel, engine, precision) launch/wall/modeled accumulation.
    Kernel = 1,
    /// [`ProfileMode::Kernel`] plus per-opcode time inside the tape executor.
    Op = 2,
}

impl ProfileMode {
    /// Parses a `VGPU_PROFILE` value. Unknown values disable profiling.
    pub fn parse(s: &str) -> ProfileMode {
        match s.trim().to_ascii_lowercase().as_str() {
            "kernel" => ProfileMode::Kernel,
            "op" | "ops" | "opcode" => ProfileMode::Op,
            _ => ProfileMode::Off,
        }
    }

    /// Reads the mode from the `VGPU_PROFILE` environment variable.
    pub fn from_env() -> ProfileMode {
        match std::env::var("VGPU_PROFILE") {
            Ok(v) => ProfileMode::parse(&v),
            Err(_) => ProfileMode::Off,
        }
    }

    /// Display label (`"off"` / `"kernel"` / `"op"`).
    pub fn label(self) -> &'static str {
        match self {
            ProfileMode::Off => "off",
            ProfileMode::Kernel => "kernel",
            ProfileMode::Op => "op",
        }
    }
}

/// 0xFF = not yet initialised from the environment.
static MODE: AtomicU8 = AtomicU8::new(0xFF);

fn decode(v: u8) -> ProfileMode {
    match v {
        1 => ProfileMode::Kernel,
        2 => ProfileMode::Op,
        _ => ProfileMode::Off,
    }
}

/// The active profile mode (env-initialised on first call).
pub fn mode() -> ProfileMode {
    let v = MODE.load(Ordering::Relaxed);
    if v != 0xFF {
        return decode(v);
    }
    let m = ProfileMode::from_env();
    MODE.store(m as u8, Ordering::Relaxed);
    m
}

/// True when launches should be profiled at all. One relaxed load and a
/// compare — the hot-path gate, mirroring [`crate::telemetry::enabled`].
#[inline]
pub fn enabled() -> bool {
    mode() != ProfileMode::Off
}

/// True when the tape executor should attribute time per opcode.
#[inline]
pub fn op_enabled() -> bool {
    mode() == ProfileMode::Op
}

/// Overrides the profile mode (tests and harnesses).
pub fn set_mode(m: ProfileMode) {
    MODE.store(m as u8, Ordering::Relaxed);
}

/// Per-opcode execution tally for one launch (or one executor chunk):
/// dispatch counts and attributed nanoseconds, indexed by
/// [`crate::bytecode::op_index`]. Cheap to allocate per rayon chunk and to
/// merge per launch — two fixed `u64` arrays, no heap.
#[derive(Debug, Clone)]
pub struct OpProf {
    pub(crate) counts: [u64; NOPCODES],
    pub(crate) nanos: [u64; NOPCODES],
}

impl Default for OpProf {
    fn default() -> Self {
        OpProf { counts: [0; NOPCODES], nanos: [0; NOPCODES] }
    }
}

impl OpProf {
    /// Attributes one dispatch of opcode `idx` taking `dur`.
    #[inline]
    pub(crate) fn add(&mut self, idx: usize, dur: Duration) {
        self.counts[idx] += 1;
        self.nanos[idx] += dur.as_nanos() as u64;
    }

    /// Folds another tally (a parallel chunk's) into this one.
    pub(crate) fn merge(&mut self, other: &OpProf) {
        for i in 0..NOPCODES {
            self.counts[i] += other.counts[i];
            self.nanos[i] += other.nanos[i];
        }
    }

    /// Total op dispatches recorded.
    pub fn total_count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Total attributed nanoseconds.
    pub fn total_nanos(&self) -> u64 {
        self.nanos.iter().sum()
    }

    /// Non-empty entries as `(opcode name, count, nanos)`, hottest first.
    pub fn entries(&self) -> Vec<(&'static str, u64, u64)> {
        let mut v: Vec<(&'static str, u64, u64)> = (0..NOPCODES)
            .filter(|&i| self.counts[i] > 0)
            .map(|i| (op_name(i), self.counts[i], self.nanos[i]))
            .collect();
        v.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(b.0)));
        v
    }
}

/// Attribution key: the axes the roofline model distinguishes.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct ProfKey {
    kernel: String,
    engine: &'static str,
    precision: &'static str,
}

/// Accumulated profile of one (kernel, engine, precision) class.
#[derive(Debug, Clone, Default)]
struct KernelProfile {
    launches: u64,
    wall_ns: u64,
    flops: u64,
    transaction_bytes: u64,
    /// Launches that carried a modeled time (ran in `ExecMode::Model`).
    modeled_launches: u64,
    /// Modeled device nanoseconds, summed over those launches.
    modeled_ns: f64,
    /// Measured wall nanoseconds of *those same launches*, so residuals
    /// compare matched sets even when fast and model launches interleave.
    modeled_wall_ns: u64,
    ops: OpProf,
}

static PROFILES: Mutex<BTreeMap<ProfKey, KernelProfile>> = Mutex::new(BTreeMap::new());

/// Accumulates one launch into the process-wide profile. Callers gate on
/// [`enabled`]; the device layer invokes this from
/// [`crate::Device::launch_wg`] with the launch's resolved backend and the
/// kernel's float precision.
#[allow(clippy::too_many_arguments)]
pub fn record_launch(
    kernel: &str,
    engine: &'static str,
    precision: &'static str,
    wall: Duration,
    modeled_s: Option<f64>,
    flops: u64,
    transaction_bytes: Option<u64>,
    ops: Option<&OpProf>,
) {
    let mut map = PROFILES.lock();
    let p = map.entry(ProfKey { kernel: kernel.to_string(), engine, precision }).or_default();
    p.launches += 1;
    let wall_ns = wall.as_nanos() as u64;
    p.wall_ns += wall_ns;
    p.flops += flops;
    p.transaction_bytes += transaction_bytes.unwrap_or(0);
    if let Some(s) = modeled_s {
        p.modeled_launches += 1;
        p.modeled_ns += s * 1e9;
        p.modeled_wall_ns += wall_ns;
    }
    if let Some(o) = ops {
        p.ops.merge(o);
    }
}

/// One opcode row of a kernel profile snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpEntry {
    /// Opcode name (e.g. `Bin`, `LdG`).
    pub op: String,
    /// Dispatches attributed.
    pub count: u64,
    /// Total attributed nanoseconds.
    pub total_ns: u64,
}

/// Serializable snapshot of one (kernel, engine, precision) profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelProfileSnapshot {
    /// Kernel name.
    pub kernel: String,
    /// Backend that executed (`tape` / `tree`).
    pub engine: String,
    /// Float precision of the kernel's buffer traffic (`f32` / `f64`).
    pub precision: String,
    /// Launches accumulated.
    pub launches: u64,
    /// Total measured interpreter wall time, microseconds.
    pub wall_us: f64,
    /// Total flops counted.
    pub flops: u64,
    /// Total coalesced DRAM traffic (model-mode launches only).
    pub transaction_bytes: u64,
    /// Launches that carried a modeled time.
    pub modeled_launches: u64,
    /// Total modeled device time over those launches, microseconds.
    pub modeled_us: Option<f64>,
    /// Measured wall time of those same launches, microseconds.
    pub modeled_wall_us: Option<f64>,
    /// Per-opcode attribution (op mode only), hottest first.
    pub ops: Vec<OpEntry>,
}

/// Deterministic (key-ordered) snapshot of every accumulated profile.
pub fn snapshot() -> Vec<KernelProfileSnapshot> {
    let map = PROFILES.lock();
    map.iter()
        .map(|(k, p)| KernelProfileSnapshot {
            kernel: k.kernel.clone(),
            engine: k.engine.to_string(),
            precision: k.precision.to_string(),
            launches: p.launches,
            wall_us: p.wall_ns as f64 * 1e-3,
            flops: p.flops,
            transaction_bytes: p.transaction_bytes,
            modeled_launches: p.modeled_launches,
            modeled_us: (p.modeled_launches > 0).then_some(p.modeled_ns * 1e-3),
            modeled_wall_us: (p.modeled_launches > 0).then_some(p.modeled_wall_ns as f64 * 1e-3),
            ops: p
                .ops
                .entries()
                .into_iter()
                .map(|(op, count, total_ns)| OpEntry { op: op.to_string(), count, total_ns })
                .collect(),
        })
        .collect()
}

/// Clears every accumulated profile (tests and multi-phase harnesses).
pub fn reset() {
    PROFILES.lock().clear();
}

/// Snapshot-then-reset, for harnesses that report per phase.
pub fn take() -> Vec<KernelProfileSnapshot> {
    let snap = snapshot();
    reset();
    snap
}

/// One row of the measured-vs-modeled residual report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResidualRow {
    /// Kernel name.
    pub kernel: String,
    /// Backend that executed.
    pub engine: String,
    /// Float precision.
    pub precision: String,
    /// Measured interpreter wall time over modeled launches, microseconds.
    pub measured_us: f64,
    /// Modeled device time over the same launches, microseconds.
    pub modeled_us: f64,
    /// Measured divided by (calibration × modeled): 1.0 means this kernel
    /// sits exactly on the shared fit.
    pub ratio_to_fit: f64,
    /// `100 × (ratio_to_fit − 1)`: percentage deviation from the fit.
    pub residual_pct: f64,
}

/// The residual report: a least-squares calibration scale mapping modeled
/// device time onto measured interpreter time, and per-kernel deviations
/// from that shared fit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResidualReport {
    /// The fitted measured-per-modeled scale (dimensionless; both sides in
    /// microseconds).
    pub calibration: f64,
    /// Per-kernel rows, largest absolute residual first.
    pub rows: Vec<ResidualRow>,
}

/// Joins profiler output with the roofline model: fits one scale
/// `measured ≈ scale × modeled` across every kernel class that carried
/// modeled launches (least squares through the origin), then reports each
/// class's deviation from the fit. Returns `None` when no launch was
/// modeled (e.g. `ExecMode::Fast` only).
pub fn residuals(snaps: &[KernelProfileSnapshot]) -> Option<ResidualReport> {
    let mut num = 0.0f64;
    let mut den = 0.0f64;
    for s in snaps {
        if let (Some(m), Some(w)) = (s.modeled_us, s.modeled_wall_us) {
            num += w * m;
            den += m * m;
        }
    }
    if den == 0.0 {
        return None;
    }
    let calibration = num / den;
    let mut rows: Vec<ResidualRow> = snaps
        .iter()
        .filter_map(|s| {
            let (m, w) = (s.modeled_us?, s.modeled_wall_us?);
            let fit = calibration * m;
            let ratio = if fit > 0.0 { w / fit } else { f64::NAN };
            Some(ResidualRow {
                kernel: s.kernel.clone(),
                engine: s.engine.clone(),
                precision: s.precision.clone(),
                measured_us: w,
                modeled_us: m,
                ratio_to_fit: ratio,
                residual_pct: (ratio - 1.0) * 100.0,
            })
        })
        .collect();
    rows.sort_by(|a, b| {
        b.residual_pct
            .abs()
            .partial_cmp(&a.residual_pct.abs())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.kernel.cmp(&b.kernel))
    });
    Some(ResidualReport { calibration, rows })
}

/// Opcode rows shown per kernel in the rendered hotspot table.
const HOTSPOT_ROWS: usize = 12;

/// Renders the human-readable profile report: the per-kernel table, the
/// per-opcode hotspot tables (op mode), and the measured-vs-modeled
/// residual table.
pub fn render_report(snaps: &[KernelProfileSnapshot]) -> String {
    let mut out = format!("== vgpu profile ({} mode) ==\n", mode().label());
    if snaps.is_empty() {
        out.push_str("(no launches profiled)\n");
        return out;
    }
    out.push_str(&format!(
        "{:<28} {:>7} {:>5} {:>9} {:>12} {:>14} {:>12}\n",
        "kernel", "engine", "prec", "launches", "wall ms", "flops", "txn bytes"
    ));
    for s in snaps {
        out.push_str(&format!(
            "{:<28} {:>7} {:>5} {:>9} {:>12.3} {:>14} {:>12}\n",
            s.kernel,
            s.engine,
            s.precision,
            s.launches,
            s.wall_us * 1e-3,
            s.flops,
            s.transaction_bytes
        ));
    }
    for s in snaps {
        if s.ops.is_empty() {
            continue;
        }
        let total_ns: u64 = s.ops.iter().map(|o| o.total_ns).sum();
        out.push_str(&format!(
            "-- op hotspots: {} [{} {}] ({:.3} ms attributed) --\n",
            s.kernel,
            s.engine,
            s.precision,
            total_ns as f64 * 1e-6
        ));
        out.push_str(&format!(
            "{:<10} {:>14} {:>12} {:>9} {:>7}\n",
            "op", "dispatches", "total ms", "ns/op", "share"
        ));
        for o in s.ops.iter().take(HOTSPOT_ROWS) {
            out.push_str(&format!(
                "{:<10} {:>14} {:>12.3} {:>9.1} {:>6.1}%\n",
                o.op,
                o.count,
                o.total_ns as f64 * 1e-6,
                o.total_ns as f64 / o.count.max(1) as f64,
                100.0 * o.total_ns as f64 / total_ns.max(1) as f64
            ));
        }
        if s.ops.len() > HOTSPOT_ROWS {
            let rest: u64 = s.ops[HOTSPOT_ROWS..].iter().map(|o| o.total_ns).sum();
            out.push_str(&format!(
                "{:<10} {:>14} {:>12.3}\n",
                format!("(+{} more)", s.ops.len() - HOTSPOT_ROWS),
                "",
                rest as f64 * 1e-6
            ));
        }
    }
    match residuals(snaps) {
        Some(r) => {
            out.push_str(&format!(
                "-- measured vs modeled (calibration {:.1}x: host interpreter per modeled \
                 device time) --\n",
                r.calibration
            ));
            out.push_str(&format!(
                "{:<28} {:>7} {:>5} {:>12} {:>12} {:>9} {:>10}\n",
                "kernel", "engine", "prec", "measured ms", "modeled ms", "x(fit)", "residual"
            ));
            for row in &r.rows {
                out.push_str(&format!(
                    "{:<28} {:>7} {:>5} {:>12.3} {:>12.4} {:>9.3} {:>+9.1}%\n",
                    row.kernel,
                    row.engine,
                    row.precision,
                    row.measured_us * 1e-3,
                    row.modeled_us * 1e-3,
                    row.ratio_to_fit,
                    row.residual_pct
                ));
            }
        }
        None => out.push_str(
            "-- measured vs modeled: no modeled launches (run with ExecMode::Model) --\n",
        ),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Profiler state is process-global; serialise tests that touch it.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn parse_modes() {
        assert_eq!(ProfileMode::parse("off"), ProfileMode::Off);
        assert_eq!(ProfileMode::parse("KERNEL"), ProfileMode::Kernel);
        assert_eq!(ProfileMode::parse("op"), ProfileMode::Op);
        assert_eq!(ProfileMode::parse("opcode"), ProfileMode::Op);
        assert_eq!(ProfileMode::parse("nonsense"), ProfileMode::Off);
    }

    #[test]
    fn record_and_snapshot_roundtrip() {
        let _g = TEST_LOCK.lock();
        reset();
        let mut ops = OpProf::default();
        ops.add(0, Duration::from_nanos(100));
        ops.add(0, Duration::from_nanos(50));
        ops.add(3, Duration::from_nanos(10));
        record_launch(
            "k",
            "tape",
            "f32",
            Duration::from_micros(500),
            Some(1e-6),
            1000,
            Some(4096),
            Some(&ops),
        );
        record_launch("k", "tape", "f32", Duration::from_micros(300), None, 1000, None, None);
        let snap = take();
        assert_eq!(snap.len(), 1);
        let s = &snap[0];
        assert_eq!(
            (s.kernel.as_str(), s.engine.as_str(), s.precision.as_str()),
            ("k", "tape", "f32")
        );
        assert_eq!(s.launches, 2);
        assert_eq!(s.modeled_launches, 1);
        assert!((s.wall_us - 800.0).abs() < 1e-9);
        // Only the modeled launch's wall feeds the residual pairing.
        assert!((s.modeled_wall_us.unwrap() - 500.0).abs() < 1e-9);
        assert!((s.modeled_us.unwrap() - 1.0).abs() < 1e-9);
        assert_eq!(s.transaction_bytes, 4096);
        // Op entries are hottest-first and carry both count and time.
        assert_eq!(s.ops.len(), 2);
        assert_eq!(s.ops[0].count, 2);
        assert_eq!(s.ops[0].total_ns, 150);
        assert!(take().is_empty());
    }

    #[test]
    fn residual_fit_is_exact_for_proportional_data() {
        // measured = 1000 × modeled for both kernels → calibration 1000,
        // residuals 0.
        let snaps = vec![
            KernelProfileSnapshot {
                kernel: "a".into(),
                engine: "tape".into(),
                precision: "f32".into(),
                launches: 1,
                wall_us: 2000.0,
                flops: 0,
                transaction_bytes: 0,
                modeled_launches: 1,
                modeled_us: Some(2.0),
                modeled_wall_us: Some(2000.0),
                ops: vec![],
            },
            KernelProfileSnapshot {
                kernel: "b".into(),
                engine: "tape".into(),
                precision: "f32".into(),
                launches: 1,
                wall_us: 5000.0,
                flops: 0,
                transaction_bytes: 0,
                modeled_launches: 1,
                modeled_us: Some(5.0),
                modeled_wall_us: Some(5000.0),
                ops: vec![],
            },
        ];
        let r = residuals(&snaps).unwrap();
        assert!((r.calibration - 1000.0).abs() < 1e-6);
        for row in &r.rows {
            assert!(row.residual_pct.abs() < 1e-9, "unexpected residual {row:?}");
        }
        assert!(residuals(&[]).is_none());
    }

    #[test]
    fn render_report_mentions_hotspots_and_residuals() {
        let _g = TEST_LOCK.lock();
        reset();
        let mut ops = OpProf::default();
        ops.add(1, Duration::from_nanos(500));
        record_launch(
            "fi",
            "tape",
            "f32",
            Duration::from_micros(100),
            Some(2e-6),
            10,
            Some(128),
            Some(&ops),
        );
        let snap = take();
        let text = render_report(&snap);
        assert!(text.contains("op hotspots"), "{text}");
        assert!(text.contains("measured vs modeled"), "{text}");
        assert!(text.contains("fi"), "{text}");
    }
}
