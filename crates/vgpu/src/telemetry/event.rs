//! The telemetry event schema.
//!
//! Every observable fact the runtime emits is one [`Event`] value. The schema
//! is the contract between the instrumented code and the sinks in
//! [`crate::telemetry::sink`]: events serialise to JSON (the batch service's
//! per-job sidecars embed them as such), which the schema tests re-parse
//! variant by variant. A launch is an [`Event::Kernel`] holding the launch's
//! own account ([`KernelSummary`], one launch folded), so a trace's
//! per-kernel table is those accounts merged.
//!
//! Timestamps are microseconds since the trace's epoch
//! ([`crate::telemetry::Trace::now_us`]). Spans on device *modeled* tracks instead
//! use the device's cumulative modeled-time clock, so a Perfetto view of the
//! modeled track reads as "GPU time the roofline model charged".

use super::sink::KernelSummary;
use serde::Serialize;

/// Identifies one timeline ("track" in Perfetto, "thread" in the Chrome
/// trace-event format) that spans are drawn on. Track 0 is the host
/// wall-clock track; devices allocate further tracks via
/// [`crate::telemetry::Trace::new_track`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct TrackId(pub u32);

/// Direction of a host⇄device or device⇄device transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
#[serde(rename_all = "snake_case")]
pub enum TransferDir {
    /// Host → device (`enqueueWriteBuffer`, the paper's `ToGPU`).
    ToGpu,
    /// Device → host (`enqueueReadBuffer`, the paper's `ToHost`).
    ToHost,
    /// Device → device halo-exchange copy between slab neighbours
    /// (domain sharding, DESIGN.md §12). Accounted once, on the
    /// destination device, under `vgpu.halo.*` — never under
    /// `vgpu.xfer.*`.
    DevToDev,
    /// Host → device upload of a buffer already uploaded to another
    /// device of the shard set (β/coefficient tables every slab needs).
    /// Accounted under `vgpu.halo.replicate.*` so per-run `vgpu.xfer.*`
    /// totals stay comparable with the single-device leg.
    Replicate,
}

impl TransferDir {
    /// Display label, matching the paper's host-primitive names.
    pub fn label(self) -> &'static str {
        match self {
            TransferDir::ToGpu => "ToGPU",
            TransferDir::ToHost => "ToHost",
            TransferDir::DevToDev => "DevToDev",
            TransferDir::Replicate => "Replicate",
        }
    }
}

/// One telemetry event. See the module docs for the timestamp convention.
#[derive(Debug, Clone, PartialEq, Serialize)]
#[serde(tag = "ev", rename_all = "snake_case")]
pub enum Event {
    /// Names a track. Emitted once per track, before any span on it.
    TrackName {
        /// The track being named.
        track: TrackId,
        /// Human-readable track name.
        name: String,
    },
    /// A generic host-side span (host-program commands, compile phases,
    /// simulation steps).
    Span {
        /// Track the span is drawn on.
        track: TrackId,
        /// Span name.
        name: String,
        /// Start, µs since the telemetry epoch.
        ts_us: f64,
        /// Duration in µs.
        dur_us: f64,
    },
    /// One kernel launch: its span runs `account.wall_ms` from `ts_us`.
    Kernel {
        /// Track the launch span is drawn on (the device's kernel track).
        track: TrackId,
        /// Start of the interpreter run, µs since the epoch.
        ts_us: f64,
        /// The launch's account: kernel, engine and precision, and the
        /// [`crate::LaunchStats`] it returned, folded once.
        account: KernelSummary,
    },
    /// A span on a device's *modeled-time* track: where the roofline model
    /// places this launch on the virtual GPU's own clock.
    ModeledKernel {
        /// The device's modeled-time track.
        track: TrackId,
        /// Kernel name.
        name: String,
        /// Start on the device's modeled clock, µs.
        ts_us: f64,
        /// Modeled duration, µs.
        dur_us: f64,
    },
    /// A host⇄device buffer transfer.
    Transfer {
        /// The device's transfer track.
        track: TrackId,
        /// Direction.
        dir: TransferDir,
        /// Span name (e.g. `ToGPU(buf3)`).
        name: String,
        /// Bytes moved, counted exactly once per transfer.
        bytes: u64,
        /// Start, µs since the epoch.
        ts_us: f64,
        /// Host wall duration of the copy, µs.
        dur_us: f64,
    },
    /// A device buffer allocation.
    Alloc {
        /// Buffer name (`buf<N>`).
        name: String,
        /// Allocation size in bytes.
        bytes: u64,
        /// Time of allocation, µs since the epoch.
        ts_us: f64,
    },
    /// A device buffer release (emitted when the owning device is dropped).
    Free {
        /// Buffer name (`buf<N>`).
        name: String,
        /// Released size in bytes.
        bytes: u64,
        /// Time of release, µs since the epoch.
        ts_us: f64,
    },
}

impl Event {
    /// The track the event is attributed to, when it has one. Process-wide
    /// records (allocations) carry no track.
    /// Multi-device harnesses use this to split the shared event buffer by
    /// originating device — the batch service's job-scoped sidecar filter.
    pub fn track(&self) -> Option<TrackId> {
        match self {
            Event::TrackName { track, .. }
            | Event::Span { track, .. }
            | Event::Kernel { track, .. }
            | Event::ModeledKernel { track, .. }
            | Event::Transfer { track, .. } => Some(*track),
            Event::Alloc { .. } | Event::Free { .. } => None,
        }
    }

    /// The event's timestamp in µs, when it has one (`TrackName` does not).
    pub fn ts_us(&self) -> Option<f64> {
        match self {
            Event::TrackName { .. } => None,
            Event::Span { ts_us, .. }
            | Event::Kernel { ts_us, .. }
            | Event::ModeledKernel { ts_us, .. }
            | Event::Transfer { ts_us, .. }
            | Event::Alloc { ts_us, .. }
            | Event::Free { ts_us, .. } => Some(*ts_us),
        }
    }
}
