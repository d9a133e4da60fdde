//! Opt-in execution profiler: per-opcode time attribution inside the tape
//! executor.
//!
//! The trace layer ([`crate::telemetry`]) records *what happened*, per
//! launch — its kernel summary ([`crate::telemetry::sink::KernelSummary`])
//! is where per-kernel wall time lives; this module answers *where inside a
//! kernel the time went*. `VGPU_PROFILE` selects it:
//!
//! | value | cost                        | what is attributed            |
//! |-------|-----------------------------|-------------------------------|
//! | `off` | one field read per launch   | nothing (default)             |
//! | `op`  | two timer reads per tape op | time and dispatches per opcode, per (kernel, engine, precision) |
//!
//! Like the trace mode, the profile mode is a runtime's setting and its
//! tables are the runtime's ([`Profiles`]); when profiling is off every
//! instrumentation site reduces to one field read — the executor's hot loop
//! carries `PROF` as a const generic, so the unprofiled instantiation holds
//! no timing code at all.

use crate::bytecode::{op_name, NOPCODES};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::time::Duration;

/// Whether the tape executor attributes time per opcode, parsed from
/// `VGPU_PROFILE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileMode {
    /// Profiling disabled (the near-zero-cost default).
    Off,
    /// Per-opcode time inside the tape executor, accumulated per
    /// (kernel, engine, precision).
    Op,
}

impl ProfileMode {
    /// Parses a `VGPU_PROFILE` value, case-insensitively; `None` for one
    /// that is not accepted.
    pub fn parse(s: &str) -> Option<ProfileMode> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" => Some(ProfileMode::Off),
            "op" | "ops" | "opcode" => Some(ProfileMode::Op),
            _ => None,
        }
    }

    /// Display label (`"off"` / `"op"`).
    pub fn label(self) -> &'static str {
        match self {
            ProfileMode::Off => "off",
            ProfileMode::Op => "op",
        }
    }
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
    ops: OpProf,
}

/// One runtime's op profiler: its mode and the accumulated profile of every
/// (kernel, engine, precision) class its devices launched.
pub struct Profiles {
    mode: ProfileMode,
    tables: Mutex<BTreeMap<ProfKey, KernelProfile>>,
}

impl Profiles {
    pub(crate) fn new(mode: ProfileMode) -> Profiles {
        Profiles { mode, tables: Mutex::new(BTreeMap::new()) }
    }

    /// True when the tape executor should attribute time per opcode, and
    /// [`crate::Device::launch_wg`] should accumulate the launch. One field
    /// read and a compare — the hot-path gate, mirroring
    /// [`crate::telemetry::Trace::enabled`].
    #[inline]
    pub fn op_enabled(&self) -> bool {
        self.mode == ProfileMode::Op
    }

    /// Accumulates one launch. Callers gate on [`Profiles::op_enabled`];
    /// the device layer invokes this from [`crate::Device::launch_wg`] with
    /// the launch's resolved backend and the kernel's float precision.
    pub fn record_launch(
        &self,
        kernel: &str,
        engine: &'static str,
        precision: &'static str,
        ops: Option<&OpProf>,
    ) {
        let mut map = self.tables.lock();
        let p = map.entry(ProfKey { kernel: kernel.to_string(), engine, precision }).or_default();
        p.launches += 1;
        if let Some(o) = ops {
            p.ops.merge(o);
        }
    }

    /// Deterministic (key-ordered) snapshot of every accumulated profile.
    pub fn snapshot(&self) -> Vec<KernelProfileSnapshot> {
        let map = self.tables.lock();
        map.iter()
            .map(|(k, p)| KernelProfileSnapshot {
                kernel: k.kernel.clone(),
                engine: k.engine.to_string(),
                precision: k.precision.to_string(),
                launches: p.launches,
                ops: p
                    .ops
                    .entries()
                    .into_iter()
                    .map(|(op, count, total_ns)| OpEntry { op: op.to_string(), count, total_ns })
                    .collect(),
            })
            .collect()
    }

    /// Renders the human-readable profile report: one per-opcode hotspot
    /// table per (kernel, engine, precision).
    pub fn render_report(&self) -> String {
        let snaps = self.snapshot();
        let mut out = format!("== vgpu profile ({} mode) ==\n", self.mode.label());
        if snaps.is_empty() {
            out.push_str("(no launches profiled)\n");
            return out;
        }
        for s in &snaps {
            if s.ops.is_empty() {
                continue;
            }
            let total_ns: u64 = s.ops.iter().map(|o| o.total_ns).sum();
            out.push_str(&format!(
                "-- op hotspots: {} [{} {}] ({} launches, {:.3} ms attributed) --\n",
                s.kernel,
                s.engine,
                s.precision,
                s.launches,
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
        out
    }
}

/// One opcode row of a kernel profile snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct OpEntry {
    /// Opcode name (e.g. `Bin`, `LdG`).
    pub op: String,
    /// Dispatches attributed.
    pub count: u64,
    /// Total attributed nanoseconds.
    pub total_ns: u64,
}

/// Snapshot of one (kernel, engine, precision) profile.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelProfileSnapshot {
    /// Kernel name.
    pub kernel: String,
    /// Backend that executed (`tape` / `tree`).
    pub engine: String,
    /// Float precision of the kernel's buffer traffic (`f32` / `f64`).
    pub precision: String,
    /// Launches accumulated.
    pub launches: u64,
    /// Per-opcode attribution, hottest first.
    pub ops: Vec<OpEntry>,
}

/// Opcode rows shown per kernel in the rendered hotspot table.
const HOTSPOT_ROWS: usize = 12;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_modes() {
        assert_eq!(ProfileMode::parse("off"), Some(ProfileMode::Off));
        assert_eq!(ProfileMode::parse("OP"), Some(ProfileMode::Op));
        assert_eq!(ProfileMode::parse("opcode"), Some(ProfileMode::Op));
        // A retired value is rejected like any other typo.
        assert_eq!(ProfileMode::parse("kernel"), None);
        assert_eq!(ProfileMode::parse("opp"), None);
    }

    #[test]
    fn record_and_snapshot_roundtrip() {
        let profiles = Profiles::new(ProfileMode::Op);
        let mut ops = OpProf::default();
        ops.add(0, Duration::from_nanos(100));
        ops.add(0, Duration::from_nanos(50));
        ops.add(3, Duration::from_nanos(10));
        profiles.record_launch("k", "tape", "f32", Some(&ops));
        profiles.record_launch("k", "tape", "f32", None);
        let snap = profiles.snapshot();
        assert_eq!(snap.len(), 1);
        let s = &snap[0];
        assert_eq!(
            (s.kernel.as_str(), s.engine.as_str(), s.precision.as_str()),
            ("k", "tape", "f32")
        );
        assert_eq!(s.launches, 2);
        // Op entries are hottest-first and carry both count and time.
        assert_eq!(s.ops.len(), 2);
        assert_eq!(s.ops[0].count, 2);
        assert_eq!(s.ops[0].total_ns, 150);
        assert!(Profiles::new(ProfileMode::Op).snapshot().is_empty());
    }

    #[test]
    fn render_report_mentions_hotspots() {
        let profiles = Profiles::new(ProfileMode::Op);
        let mut ops = OpProf::default();
        ops.add(1, Duration::from_nanos(500));
        profiles.record_launch("fi", "tape", "f32", Some(&ops));
        let text = profiles.render_report();
        assert!(text.contains("== vgpu profile (op mode) =="), "{text}");
        assert!(text.contains("op hotspots: fi [tape f32]"), "{text}");
    }
}
