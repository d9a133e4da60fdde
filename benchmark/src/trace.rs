//! Benchmark-side spans, kept in memory and written out at exit.
//!
//! Spans are recorded around the calls the bench makes into the library,
//! never inside it. A span's self time is its duration minus the part its
//! children cover; the per-layer table is built from self times. With the
//! tracer off every call is a no-op apart from one branch.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. `parent == 0` marks a root; ids start at 1.
pub struct Span {
    pub name: &'static str,
    pub id: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the operation (iteration / job / sweep) the span belongs to.
    pub op: u64,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u64,
}

/// Layer (crate) a span's self time is attributed to; `None` is the
/// bench's own loop overhead and stays unattributed.
pub fn layer_of(span: &str) -> Option<&'static str> {
    Some(match span {
        "room_build" | "impulse" | "sim_new" | "step" | "launch_contract" => "acoustics",
        "sim_new.gen" | "bind" | "program_build" | "launch_assumptions" => "lift-acoustics",
        "lane.volume" | "lane.boundary" | "dispatch" | "sample" | "upload" | "halo"
        | "artifact_lookup" | "artifacts" | "prepare" | "verify_tape" => "vgpu",
        "typecheck" | "lower" | "emit_opencl" | "verify_kernel" | "resolve_real"
        | "host_compile" | "host_emit" | "host_check" => "lift",
        "scenario_gen" | "executor_start" | "first_job" => "batch",
        "verify_suite" => "verify",
        _ => return None,
    })
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, origin: Instant::now(), spans: Vec::new(), stack: Vec::new(), op: 0 }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Tags the spans that follow with an operation index.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let parent = self.stack.last().copied().unwrap_or(0);
        self.spans.push(Span { name, id, parent, start_ns, end_ns, op: self.op });
        id
    }

    /// Runs `f` inside a span; spans opened by `f` become its children.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let start = self.ns(Instant::now());
        let id = self.push(name, start, start);
        self.stack.push(id);
        let r = f(self);
        self.stack.pop();
        self.spans[id as usize - 1].end_ns = self.ns(Instant::now());
        r
    }

    /// Lays children of known duration end to end inside the span that just
    /// closed: `parts` are durations the callee reported (`LaunchStats.wall`),
    /// and `rest` names what remains of the parent.
    pub fn split_last(&mut self, parts: &[(&'static str, u64)], rest: &'static str) {
        if !self.on {
            return;
        }
        let Some(parent) = self.spans.last() else { return };
        let (pid, mut at, end) = (parent.id, parent.start_ns, parent.end_ns);
        self.stack.push(pid);
        for &(name, ns) in parts.iter().filter(|(_, ns)| *ns > 0) {
            let stop = (at + ns).min(end);
            self.push(name, at, stop);
            at = stop;
        }
        self.push(rest, at, end);
        self.stack.pop();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, ns, over spans whose start lies in
    /// `[from_ns, to_ns)`.
    pub fn self_times(&self, from_ns: u64, to_ns: u64) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
        let mut out = BTreeMap::new();
        for s in &self.spans {
            if s.start_ns >= from_ns && s.start_ns < to_ns {
                let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id as usize]);
                *out.entry(s.name).or_insert(0) += own;
            }
        }
        out
    }

    /// Time spent in spans called `name` per operation, ms: the median over
    /// the operations that have such a span, 0 when none has.
    pub fn median_ms(&self, name: &str) -> f64 {
        let mut by_op: BTreeMap<u64, u64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by_op.entry(s.op).or_insert(0) += s.end_ns - s.start_ns;
        }
        if by_op.is_empty() {
            return 0.0;
        }
        let per_op: Vec<f64> = by_op.values().map(|&ns| ns as f64 / 1e6).collect();
        crate::stats::median(&per_op)
    }

    pub fn now_ns(&self) -> u64 {
        self.ns(Instant::now())
    }

    /// Chrome-trace JSON (`chrome://tracing`, Perfetto): one complete event
    /// per span, the span's id / parent / op in `args`.
    pub fn chrome_json(&self, workload: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"op\":{},\
                 \"start_ns\":{},\"end_ns\":{},\"workload\":\"{}\"}}}}",
                s.name,
                layer_of(s.name).unwrap_or("bench"),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id,
                s.parent,
                s.op,
                s.start_ns,
                s.end_ns,
                workload
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new(true);
        t.scope("step", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
        t.split_last(&[("lane.volume", 500_000), ("lane.boundary", 300_000)], "dispatch");
        let own = t.self_times(0, u64::MAX);
        assert_eq!(own["step"], 0, "children tile the parent exactly");
        assert_eq!(own["lane.volume"], 500_000);
        assert_eq!(own["lane.boundary"], 300_000);
        let step = &t.spans()[0];
        assert_eq!(own["dispatch"], step.end_ns - step.start_ns - 800_000);
        assert!(t.spans()[1..].iter().all(|s| s.parent == step.id));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        t.scope("step", |_| ());
        t.split_last(&[("lane.volume", 1)], "dispatch");
        assert!(t.spans().is_empty());
    }
}
