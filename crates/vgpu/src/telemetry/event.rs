//! The telemetry event schema.
//!
//! Every observable fact the runtime emits is one [`Event`] value. The schema
//! is the contract between the instrumented code and the sinks in
//! [`crate::telemetry::sink`]: events serialise to JSON (the JSONL stream is
//! one event per line), which the schema tests re-parse variant by variant.
//!
//! Timestamps are microseconds since the trace's epoch
//! ([`crate::telemetry::Trace::now_us`]). Spans on device *modeled* tracks instead
//! use the device's cumulative modeled-time clock, so a Perfetto view of the
//! modeled track reads as "GPU time the roofline model charged".

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

/// Per-launch metric payload attached to every [`Event::Kernel`]: the
/// interpreter's operation counters plus the transaction model's outputs.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct KernelMetrics {
    /// Work-items executed (scaled to the full NDRange when sampled).
    pub work_items: u64,
    /// Global-memory loads executed.
    pub loads_global: u64,
    /// Global-memory stores executed.
    pub stores_global: u64,
    /// `__constant`-space loads (cached/broadcast).
    pub loads_constant: u64,
    /// Bytes requested by global loads (pre-coalescing).
    pub bytes_loaded: u64,
    /// Bytes written by global stores.
    pub bytes_stored: u64,
    /// Floating-point operations executed.
    pub flops: u64,
    /// Coalesced DRAM traffic (128-byte transactions); `None` in fast mode.
    pub transaction_bytes: Option<u64>,
    /// Modeled device time in microseconds (model mode only).
    pub modeled_us: Option<f64>,
    /// Warps of this launch whose active lanes disagreed at a branch and ran
    /// it under divergence masks ([`crate::LaunchStats::divergent_warps`]);
    /// the `vgpu.warp.divergent` counter is the process-wide sum.
    pub divergent_warps: u64,
    /// Tasks the launch was dispatched as ([`crate::LaunchStats::tasks`]); at
    /// most 1 means it ran on the launching thread alone.
    pub tasks: u64,
}

impl From<&crate::LaunchStats> for KernelMetrics {
    fn from(s: &crate::LaunchStats) -> Self {
        KernelMetrics {
            work_items: s.counters.work_items,
            loads_global: s.counters.loads_global,
            stores_global: s.counters.stores_global,
            loads_constant: s.counters.loads_constant,
            bytes_loaded: s.counters.bytes_loaded,
            bytes_stored: s.counters.bytes_stored,
            flops: s.counters.flops,
            transaction_bytes: s.transaction_bytes,
            modeled_us: s.modeled_s.map(|s| s * 1e6),
            divergent_warps: s.divergent_warps,
            tasks: s.tasks as u64,
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
    /// One kernel launch, with its full metric payload.
    Kernel {
        /// Track the launch span is drawn on (the device's kernel track).
        track: TrackId,
        /// Kernel name.
        name: String,
        /// Backend that executed the launch (`"tape"` or `"tree"`).
        engine: String,
        /// Start of the interpreter run, µs since the epoch.
        ts_us: f64,
        /// Host-side interpreter wall time in µs.
        dur_us: f64,
        /// Counters and model outputs for this launch.
        metrics: KernelMetrics,
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
