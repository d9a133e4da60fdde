//! Structured telemetry for the vgpu runtime: span tracing, per-kernel
//! accounts, and counter registries, with two sinks (summary table, Chrome
//! trace-event/Perfetto JSON).
//!
//! # Architecture
//!
//! - [`sink::KernelSummary`] is the one per-kernel account, keyed by
//!   (kernel, engine, precision): it folds the [`crate::LaunchStats`] a
//!   launch returns ([`sink::KernelSummary::add`]), per-opcode tally
//!   included when the launch ran in [`crate::ExecMode::Profile`]. A caller
//!   with no trace folds what its launches returned
//!   ([`sink::fold_launch`]); a trace holds one one-launch account per
//!   launch.
//! - [`event`] defines the schema: every observable fact is one [`Event`].
//! - [`registry`] holds typed [`Counter`]s/[`Gauge`]s/[`Histogram`]s that
//!   instrumented code registers by name. Each [`crate::runtime::Runtime`]
//!   owns one; [`registry()`] is the default runtime's.
//! - [`Trace`] is a runtime's event buffer with its tracks and epoch.
//! - [`sink`] renders an event stream + metric snapshot to a summary table
//!   or Chrome trace JSON, and can validate a Chrome trace back
//!   ([`sink::validate_chrome`]).
//!
//! # Enabling
//!
//! Tracing is off unless the runtime's settings select a sink (`VGPU_TRACE`
//! for the default runtime): `off`, `summary`, or `chrome`
//! (Perfetto-loadable). When tracing is off, every instrumentation site
//! reduces to one field read and a branch — no allocation, no locking. A
//! small set of audit counters (launch counts, divergent warps, transfer
//! bytes) is maintained unconditionally; counter updates are single relaxed
//! atomics.
//!
//! # Tracks and clocks
//!
//! Spans are drawn on *tracks*. Track 0 ([`HOST_TRACK`]) is the host
//! wall-clock timeline; timestamps are µs since the trace's epoch, the
//! runtime's creation ([`Trace::now_us`]). Each [`crate::Device`] allocates a
//! kernel track, a transfer track, and a *modeled-time* track whose spans are
//! placed on the device's cumulative roofline-model clock instead of wall
//! time, so a Perfetto view shows both what the host did and what the
//! modeled GPU was charged.

pub mod event;
pub mod registry;
pub mod sink;

pub use event::{Event, TrackId, TransferDir};
pub use registry::{Counter, Gauge, Histogram, MetricSnapshot, MetricValue, Registry};

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

/// Sink selection, parsed from `VGPU_TRACE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// Telemetry disabled (the near-zero-cost path).
    Off,
    /// Human-readable end-of-run summary table.
    Summary,
    /// Chrome trace-event / Perfetto-loadable JSON.
    Chrome,
}

impl TraceMode {
    /// Parses a `VGPU_TRACE` value, case-insensitively; `None` for one
    /// that is not accepted.
    pub fn parse(s: &str) -> Option<TraceMode> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" => Some(TraceMode::Off),
            "summary" | "table" => Some(TraceMode::Summary),
            "chrome" | "perfetto" | "trace" => Some(TraceMode::Chrome),
            _ => None,
        }
    }
}

/// The host wall-clock track.
pub const HOST_TRACK: TrackId = TrackId(0);

/// One runtime's trace: its mode, its epoch, the events recorded so far and
/// the tracks handed out. A recording trace starts with the host track's
/// name.
pub struct Trace {
    mode: TraceMode,
    epoch: Instant,
    events: Mutex<Vec<Event>>,
    /// Track 0 is host; device tracks start at 1.
    next_track: AtomicU32,
}

impl Trace {
    pub(crate) fn new(mode: TraceMode) -> Trace {
        let host = Event::TrackName { track: HOST_TRACK, name: "host".to_string() };
        let events = if mode == TraceMode::Off { Vec::new() } else { vec![host] };
        Trace {
            mode,
            epoch: Instant::now(),
            events: Mutex::new(events),
            next_track: AtomicU32::new(1),
        }
    }

    /// True when events should be recorded. This is the hot-path gate: one
    /// field read and a compare.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.mode != TraceMode::Off
    }

    /// Microseconds since the trace's epoch.
    pub fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Appends an event. Callers gate on [`Trace::enabled`]; recording while
    /// disabled is permitted but not free.
    pub fn record(&self, ev: Event) {
        self.events.lock().push(ev);
    }

    /// Drains and returns all buffered events.
    pub fn take_events(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock())
    }

    /// Clones the buffered events without draining them.
    pub fn events_snapshot(&self) -> Vec<Event> {
        self.events.lock().clone()
    }

    /// Allocates a fresh track and records its name.
    pub fn new_track(&self, name: &str) -> TrackId {
        let t = TrackId(self.next_track.fetch_add(1, Ordering::Relaxed));
        self.record(Event::TrackName { track: t, name: name.to_string() });
        t
    }

    /// Opens a span on `track` if tracing is enabled. The span closes (and
    /// is recorded) when the returned guard drops.
    pub fn span(&self, track: TrackId, name: &str) -> Option<SpanGuard<'_>> {
        self.span_with(track, || name.to_string())
    }

    /// Like [`Trace::span`] but the name is built lazily, so the disabled
    /// path never formats or allocates.
    pub fn span_with(
        &self,
        track: TrackId,
        name: impl FnOnce() -> String,
    ) -> Option<SpanGuard<'_>> {
        if !self.enabled() {
            return None;
        }
        Some(SpanGuard { trace: self, track, name: name(), start_us: self.now_us() })
    }
}

/// Live span handle returned by [`Trace::span`]; records an [`Event::Span`]
/// with the elapsed wall time when dropped.
pub struct SpanGuard<'a> {
    trace: &'a Trace,
    track: TrackId,
    name: String,
    start_us: f64,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = self.trace.now_us();
        self.trace.record(Event::Span {
            track: self.track,
            name: std::mem::take(&mut self.name),
            ts_us: self.start_us,
            dur_us: (end - self.start_us).max(0.0),
        });
    }
}

/// The default runtime's metric registry ([`crate::runtime()`]): where the
/// counters of default devices, compilation and the artifact map land.
pub fn registry() -> &'static Registry {
    &crate::runtime().registry
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_modes() {
        assert_eq!(TraceMode::parse("off"), Some(TraceMode::Off));
        assert_eq!(TraceMode::parse("SUMMARY"), Some(TraceMode::Summary));
        assert_eq!(TraceMode::parse("json"), None);
        assert_eq!(TraceMode::parse("perfetto"), Some(TraceMode::Chrome));
        assert_eq!(TraceMode::parse("chrom"), None);
    }

    #[test]
    fn span_guard_records_on_drop() {
        let trace = Trace::new(TraceMode::Summary);
        {
            let _s = trace.span(HOST_TRACK, "test-span");
        }
        let evs = trace.take_events();
        assert!(matches!(&evs[0], Event::TrackName { track: HOST_TRACK, name } if name == "host"));
        assert!(
            matches!(&evs[1..], [Event::Span { name, .. }] if name == "test-span"),
            "span event not recorded: {evs:?}"
        );
    }

    #[test]
    fn disabled_span_is_none() {
        let trace = Trace::new(TraceMode::Off);
        assert!(trace.span(HOST_TRACK, "x").is_none());
        assert!(trace.span_with(HOST_TRACK, || unreachable!("must not format")).is_none());
        assert!(trace.take_events().is_empty());
    }
}
