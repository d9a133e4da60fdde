//! Structured telemetry for the vgpu runtime: span tracing, per-launch
//! metric events, and a process-wide counter registry, with pluggable sinks
//! (summary table, JSONL, Chrome trace-event/Perfetto JSON).
//!
//! # Architecture
//!
//! - [`event`] defines the schema: every observable fact is one [`Event`].
//! - [`registry`] holds typed [`Counter`]s/[`Gauge`]s/[`Histogram`]s that
//!   instrumented code registers by name; [`registry()`] is the process-wide
//!   instance.
//! - [`sink`] renders an event stream + metric snapshot to a summary table,
//!   a JSONL stream, or Chrome trace JSON, and can validate a Chrome trace
//!   back ([`sink::validate_chrome`]).
//!
//! # Enabling
//!
//! Tracing is off unless `VGPU_TRACE` selects a sink: `off`, `summary`,
//! `json` (JSONL), or `chrome` (Perfetto-loadable). The mode is sampled from
//! the environment once, lazily; tests and harnesses may override it with
//! [`set_mode`]. When tracing is off, every instrumentation site reduces to
//! one relaxed atomic load and a branch — no allocation, no locking. A small
//! set of audit counters (launch counts, divergent warps, transfer bytes) is
//! maintained unconditionally; counter updates are single relaxed atomics.
//!
//! # Tracks and clocks
//!
//! Spans are drawn on *tracks*. Track 0 ([`HOST_TRACK`]) is the host
//! wall-clock timeline; timestamps are µs since the process telemetry epoch
//! ([`now_us`]). Each [`crate::Device`] allocates a kernel track, a transfer
//! track, and a *modeled-time* track whose spans are placed on the device's
//! cumulative roofline-model clock instead of wall time, so a Perfetto view
//! shows both what the host did and what the modeled GPU was charged.

pub mod event;
pub mod registry;
pub mod sink;

pub use event::{Event, KernelMetrics, TrackId, TransferDir};
pub use registry::{Counter, Gauge, Histogram, MetricSnapshot, MetricValue, Registry};

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Sink selection, parsed from `VGPU_TRACE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceMode {
    /// Telemetry disabled (the near-zero-cost path).
    Off = 0,
    /// Human-readable end-of-run summary table.
    Summary = 1,
    /// Machine-readable JSONL event stream.
    Json = 2,
    /// Chrome trace-event / Perfetto-loadable JSON.
    Chrome = 3,
}

impl TraceMode {
    /// Parses a `VGPU_TRACE` value, case-insensitively; `None` for one
    /// that is not accepted.
    pub fn parse(s: &str) -> Option<TraceMode> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" => Some(TraceMode::Off),
            "summary" | "table" => Some(TraceMode::Summary),
            "json" | "jsonl" => Some(TraceMode::Json),
            "chrome" | "perfetto" | "trace" => Some(TraceMode::Chrome),
            _ => None,
        }
    }

    /// The mode `VGPU_TRACE` selects; off when it is unset or holds a value
    /// [`TraceMode::parse`] rejects (which [`crate::settings`] reports once).
    pub fn from_env() -> TraceMode {
        let accepted = "off, summary|table, json|jsonl, chrome|perfetto|trace";
        crate::settings::setting("VGPU_TRACE", accepted, TraceMode::parse).unwrap_or(TraceMode::Off)
    }
}

/// 0xFF = not yet initialised from the environment.
static MODE: AtomicU8 = AtomicU8::new(0xFF);

fn decode(v: u8) -> TraceMode {
    match v {
        1 => TraceMode::Summary,
        2 => TraceMode::Json,
        3 => TraceMode::Chrome,
        _ => TraceMode::Off,
    }
}

/// The active trace mode (env-initialised on first call).
pub fn mode() -> TraceMode {
    let v = MODE.load(Ordering::Relaxed);
    if v != 0xFF {
        return decode(v);
    }
    let m = TraceMode::from_env();
    MODE.store(m as u8, Ordering::Relaxed);
    m
}

/// True when events should be recorded. This is the hot-path gate: one
/// relaxed load and a compare.
#[inline]
pub fn enabled() -> bool {
    let v = MODE.load(Ordering::Relaxed);
    if v == 0xFF {
        return mode() != TraceMode::Off;
    }
    v != TraceMode::Off as u8
}

/// Overrides the trace mode (tests and harnesses).
pub fn set_mode(m: TraceMode) {
    MODE.store(m as u8, Ordering::Relaxed);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the process telemetry epoch (first telemetry use).
pub fn now_us() -> f64 {
    epoch().elapsed().as_secs_f64() * 1e6
}

static EVENTS: Mutex<Vec<Event>> = Mutex::new(Vec::new());

/// Appends an event to the process buffer. Callers gate on [`enabled`];
/// recording while disabled is permitted (tests) but not free.
pub fn record(ev: Event) {
    EVENTS.lock().push(ev);
}

/// Drains and returns all buffered events.
pub fn take_events() -> Vec<Event> {
    std::mem::take(&mut *EVENTS.lock())
}

/// Clones the buffered events without draining them.
pub fn events_snapshot() -> Vec<Event> {
    EVENTS.lock().clone()
}

/// The host wall-clock track.
pub const HOST_TRACK: TrackId = TrackId(0);

/// Track 0 is host; device tracks start at 1.
static NEXT_TRACK: AtomicU32 = AtomicU32::new(1);

/// Allocates a fresh track and records its name.
pub fn new_track(name: &str) -> TrackId {
    let t = TrackId(NEXT_TRACK.fetch_add(1, Ordering::Relaxed));
    record(Event::TrackName { track: t, name: name.to_string() });
    t
}

/// Records the host track's name once per process (idempotent).
pub fn ensure_host_track() {
    use std::sync::atomic::AtomicBool;
    static NAMED: AtomicBool = AtomicBool::new(false);
    if !NAMED.swap(true, Ordering::Relaxed) {
        record(Event::TrackName { track: HOST_TRACK, name: "host".to_string() });
    }
}

/// Live span handle returned by [`span`]; records an [`Event::Span`] with
/// the elapsed wall time when dropped.
pub struct SpanGuard {
    track: TrackId,
    name: String,
    start_us: f64,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let end = now_us();
        record(Event::Span {
            track: self.track,
            name: std::mem::take(&mut self.name),
            ts_us: self.start_us,
            dur_us: (end - self.start_us).max(0.0),
        });
    }
}

/// Opens a span on `track` if tracing is enabled. The span closes (and is
/// recorded) when the returned guard drops.
pub fn span(track: TrackId, name: &str) -> Option<SpanGuard> {
    if !enabled() {
        return None;
    }
    ensure_host_track();
    Some(SpanGuard { track, name: name.to_string(), start_us: now_us() })
}

/// Like [`span`] but the name is built lazily, so the disabled path never
/// formats or allocates.
pub fn span_with(track: TrackId, name: impl FnOnce() -> String) -> Option<SpanGuard> {
    if !enabled() {
        return None;
    }
    ensure_host_track();
    Some(SpanGuard { track, name: name(), start_us: now_us() })
}

static REGISTRY: Registry = Registry::new();

/// The process-wide metric registry.
pub fn registry() -> &'static Registry {
    &REGISTRY
}

#[cfg(test)]
mod tests {
    use super::*;

    // Telemetry state is process-global; serialise tests that touch it.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn parse_modes() {
        assert_eq!(TraceMode::parse("off"), Some(TraceMode::Off));
        assert_eq!(TraceMode::parse("SUMMARY"), Some(TraceMode::Summary));
        assert_eq!(TraceMode::parse("jsonl"), Some(TraceMode::Json));
        assert_eq!(TraceMode::parse("perfetto"), Some(TraceMode::Chrome));
        assert_eq!(TraceMode::parse("chrom"), None);
    }

    #[test]
    fn span_guard_records_on_drop() {
        let _g = TEST_LOCK.lock();
        let prev = mode();
        set_mode(TraceMode::Json);
        let before = events_snapshot().len();
        {
            let _s = span(HOST_TRACK, "test-span");
        }
        let evs = events_snapshot();
        set_mode(prev);
        assert!(
            evs[before..]
                .iter()
                .any(|e| matches!(e, Event::Span { name, .. } if name == "test-span")),
            "span event not recorded: {:?}",
            &evs[before..]
        );
    }

    #[test]
    fn disabled_span_is_none() {
        let _g = TEST_LOCK.lock();
        let prev = mode();
        set_mode(TraceMode::Off);
        assert!(span(HOST_TRACK, "x").is_none());
        assert!(span_with(HOST_TRACK, || unreachable!("must not format")).is_none());
        set_mode(prev);
    }
}
