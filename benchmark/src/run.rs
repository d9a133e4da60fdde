//! What every workload shares: arguments, the outcome record, the timed
//! loop's clock, counter deltas and the trace summary.

use crate::stats;
use crate::trace::{layer_of, Tracer};
use std::collections::BTreeMap;
use std::time::Instant;

/// From-scratch set-ups per run, one at the head of each segment; `setup_s`
/// is the fastest of them.
pub const SETUPS: usize = 25;

pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: iterations, jobs or kernels.
    pub attempted: u64,
    /// Operations that failed a correctness gate.
    pub failed: u64,
    /// Why, for stderr (first few only).
    pub failures: Vec<String>,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layer: BTreeMap<&'static str, f64>,
    /// Provenance and exact-repeat values for `results.json`.
    pub info: BTreeMap<&'static str, String>,
}

impl Outcome {
    /// Fails one operation when `ok` is false.
    pub fn gate(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(why());
            }
        }
    }
}

/// A run is `SETUPS` segments of equal length. Each begins with one
/// from-scratch set-up and then runs operations until its share of
/// `--seconds` is over and its share of the minimum operation count is
/// done, so a very short `--seconds` still measures something. Spreading
/// the set-ups over the run lets `setup_s`, like `op_ms_best`, be read off
/// the quietest moment. In a traced run the later segments have spans on.
pub struct Clock {
    start: Instant,
    total_s: f64,
    trace: bool,
    min_per_segment: usize,
    segment: usize,
    in_segment: bool,
    ops_in_segment: usize,
}

pub enum Phase {
    Setup,
    Op,
    Done,
}

impl Clock {
    pub fn start(seconds: f64, trace: bool, min_ops: usize) -> Clock {
        Clock {
            start: Instant::now(),
            total_s: seconds,
            trace,
            min_per_segment: min_ops.div_ceil(SETUPS),
            segment: 0,
            in_segment: false,
            ops_in_segment: 0,
        }
    }

    /// What to do next; an `Op` is counted as started.
    pub fn advance(&mut self) -> Phase {
        if !self.in_segment {
            if self.segment == SETUPS {
                return Phase::Done;
            }
            self.in_segment = true;
            self.ops_in_segment = 0;
            return Phase::Setup;
        }
        if !self.segment_over() || self.ops_in_segment < self.min_per_segment {
            self.ops_in_segment += 1;
            return Phase::Op;
        }
        self.end_segment();
        self.advance()
    }

    /// True once the current segment's share of `--seconds` has passed.
    pub fn segment_over(&self) -> bool {
        let end = self.total_s * (self.segment + 1) as f64 / SETUPS as f64;
        self.start.elapsed().as_secs_f64() >= end
    }

    pub fn min_per_segment(&self) -> usize {
        self.min_per_segment
    }

    /// Closes the current segment, for a workload that runs a segment's
    /// operations itself instead of asking `advance` for each.
    pub fn end_segment(&mut self) {
        self.segment += 1;
        self.in_segment = false;
    }

    /// Whether the current segment runs with spans on: the second half of
    /// a traced run.
    pub fn traced(&self) -> bool {
        self.trace && self.segment >= SETUPS / 2
    }
}

/// `VmHWM` of this process, MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fixed set of always-on registry counters, read together.
pub struct Counters<const N: usize>(pub [&'static str; N]);

impl<const N: usize> Counters<N> {
    pub fn read(&self) -> [u64; N] {
        self.0.map(crate::adapter::counter)
    }

    /// `names[i] → (to[i] - from[i] - minus[i]) / per`
    pub fn per_op(
        &self,
        from: &[u64; N],
        to: &[u64; N],
        minus: &[u64; N],
        per: f64,
    ) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        let delta: Vec<f64> = (0..N).map(|i| (to[i] - from[i] - minus[i]) as f64 / per).collect();
        self.0.iter().copied().zip(delta)
    }
}

pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Coverage and overhead of the traced part of a timed section: the spans
/// that start in `from_ns..to_ns` on the tracer's clock, which together
/// account for `section_ns` of wall time.
pub fn trace_metrics(
    out: &mut Outcome,
    tr: &Tracer,
    (from_ns, to_ns): (u64, u64),
    section_ns: u64,
    plain_ms: &[f64],
    traced_ms: &[f64],
) {
    let own = tr.self_times(from_ns, to_ns);
    let mut by_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (name, ns) in &own {
        *by_layer.entry(layer_of(name).unwrap_or("unattributed")).or_insert(0) += ns;
    }
    let attributed: u64 =
        by_layer.iter().filter(|(l, _)| **l != "unattributed").map(|(_, ns)| ns).sum();
    let shares: Vec<String> = by_layer
        .iter()
        .map(|(l, ns)| format!("{l} {:.2}%", 100.0 * *ns as f64 / section_ns as f64))
        .collect();
    out.info.insert("layer_self_time", shares.join(", "));
    let l = &mut out.layer;
    l.insert("ops", out.attempted as f64);
    l.insert("ops_failed", out.failed as f64);
    l.insert("trace.spans", tr.spans().len() as f64);
    l.insert("trace.timed_section_ms", section_ns as f64 / 1e6);
    l.insert("trace.coverage_pct", 100.0 * attributed as f64 / section_ns as f64);
    l.insert("trace.op_ms_best_untraced", stats::min(plain_ms));
    l.insert("trace.op_ms_best_traced", stats::min(traced_ms));
    l.insert("trace.overhead", stats::min(traced_ms) / stats::min(plain_ms));
}
