//! The virtual device: buffers + an in-order command queue.
//!
//! Mirrors the slice of the OpenCL host API the paper's host primitives
//! generate calls to: buffer creation, `enqueueWriteBuffer` /
//! `enqueueReadBuffer`, kernel launch with profiling. Launches run
//! synchronously (an in-order queue with an implicit `finish` after every
//! command), which matches how the paper measures kernels via the OpenCL
//! profiling API.

use crate::buffer::{BufData, SharedBuf};
use crate::exec::{self, ArgBind, Engine, ExecError, ExecMode, LaunchStats, Prepared};
use crate::perfmodel::{modeled_time_s, ModelInput};
use crate::profile::DeviceProfile;
use crate::runtime::Runtime;
use crate::telemetry::sink::KernelSummary;
use crate::telemetry::{Event, TrackId, TransferDir};
use lift::kast::Kernel;
use lift::prelude::{ScalarKind, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Handle to a device buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufId(pub usize);

/// A kernel launch argument.
#[derive(Debug, Clone, Copy)]
pub enum Arg {
    /// Device buffer.
    Buf(BufId),
    /// Scalar value.
    Val(Value),
}

/// Lazily allocated telemetry state for one device: its trace tracks and
/// the cumulative modeled-time clock that positions [`Event::ModeledKernel`]
/// spans. The clock is an `AtomicU64` holding `f64` bits so `&self` methods
/// can advance it.
struct DevTele {
    kernel_track: TrackId,
    transfer_track: TrackId,
    modeled_track: TrackId,
    model_clock_us: AtomicU64,
}

impl DevTele {
    /// Advances the modeled clock by `dur_us` and returns the span's start.
    fn advance_model_clock(&self, dur_us: f64) -> f64 {
        let mut cur = self.model_clock_us.load(Ordering::Relaxed);
        loop {
            let start = f64::from_bits(cur);
            match self.model_clock_us.compare_exchange_weak(
                cur,
                (start + dur_us).to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return start,
                Err(now) => cur = now,
            }
        }
    }
}

/// The virtual GPU.
pub struct Device {
    profile: DeviceProfile,
    buffers: Vec<SharedBuf>,
    engine: Engine,
    /// Where this device's settings come from and its accounting goes.
    rt: Arc<Runtime>,
    tele: OnceLock<DevTele>,
}

/// Bytes occupied by a buffer's payload.
fn byte_len(len: usize, elem_bytes: usize) -> u64 {
    (len * elem_bytes) as u64
}

impl Device {
    /// A device with the given performance profile on the process default
    /// runtime ([`crate::runtime()`], built from the `VGPU_*` environment on
    /// first use).
    pub fn new(profile: DeviceProfile) -> Self {
        Self::with_runtime(profile, Arc::clone(crate::runtime()))
    }

    /// A device on `rt`: it launches on the runtime's engine (until
    /// [`Device::set_engine`]), its buffers carry shadow memory when the
    /// runtime sanitizes, and its counters, trace events and
    /// sanitizer findings land in the runtime.
    pub fn with_runtime(profile: DeviceProfile, rt: Arc<Runtime>) -> Self {
        let engine = rt.settings.engine;
        Device { profile, buffers: Vec::new(), engine, rt, tele: OnceLock::new() }
    }

    /// The runtime this device accounts to.
    pub fn runtime(&self) -> &Arc<Runtime> {
        &self.rt
    }

    /// This device's telemetry tracks, allocated on first use (only called
    /// when tracing is enabled).
    fn tele(&self) -> &DevTele {
        self.tele.get_or_init(|| {
            let trace = &self.rt.trace;
            let n = self.rt.device_seq.fetch_add(1, Ordering::Relaxed);
            let label = format!("{} #{n}", self.profile.name);
            DevTele {
                kernel_track: trace.new_track(&format!("{label} kernels")),
                transfer_track: trace.new_track(&format!("{label} transfers")),
                modeled_track: trace.new_track(&format!("{label} modeled")),
                model_clock_us: AtomicU64::new(0f64.to_bits()),
            }
        })
    }

    /// The trace's clock now, when this device's runtime traces: the start
    /// of a transfer or launch span.
    fn trace_start(&self) -> Option<f64> {
        let trace = &self.rt.trace;
        trace.enabled().then(|| trace.now_us())
    }

    /// Takes `data` as a new buffer — with shadow memory when this device
    /// sanitizes, `initialized` saying whether reads of it are legitimate —
    /// and accounts the allocation.
    fn adopt(&mut self, data: BufData, initialized: bool) -> BufId {
        let bytes = byte_len(data.len(), data.elem_bytes());
        let shadow = self.rt.settings.shadow;
        if shadow {
            let [shadowed_buffers, ..] = &self.rt.counters.sanitize;
            shadowed_buffers.inc();
        }
        self.buffers.push(SharedBuf::with_shadow(data, shadow, initialized));
        let id = BufId(self.buffers.len() - 1);
        self.note_alloc(id, bytes);
        id
    }

    /// Accounts one buffer allocation: bumps the allocation gauge
    /// unconditionally and records an [`Event::Alloc`] when tracing.
    fn note_alloc(&self, id: BufId, bytes: u64) {
        self.rt.registry.gauge("vgpu.mem.allocated_bytes").add(bytes as i64);
        let trace = &self.rt.trace;
        if trace.enabled() {
            self.tele();
            trace.record(Event::Alloc {
                name: format!("buf{}", id.0),
                bytes,
                ts_us: trace.now_us(),
            });
        }
    }

    /// Accounts one host⇄device transfer, exactly once per enqueue: bumps
    /// the direction's byte/transfer counters unconditionally and records an
    /// [`Event::Transfer`] span when tracing. `t0` is the span start
    /// captured before the copy (`Some` only when tracing was enabled).
    fn note_transfer(&self, dir: TransferDir, id: BufId, bytes: u64, t0: Option<f64>) {
        // Sharding traffic is accounted apart from `vgpu.xfer.*` so a sharded
        // run's host-transfer totals stay bit-comparable with the
        // single-device leg (DESIGN.md §12).
        let [bytes_moved, transfers] = &self.rt.counters.transfers[dir as usize];
        bytes_moved.add(bytes);
        transfers.inc();
        if let Some(ts_us) = t0 {
            let tele = self.tele();
            self.rt.trace.record(Event::Transfer {
                track: tele.transfer_track,
                dir,
                name: format!("{}(buf{})", dir.label(), id.0),
                bytes,
                ts_us,
                dur_us: (self.rt.trace.now_us() - ts_us).max(0.0),
            });
        }
    }

    /// A device profiled as the paper's GTX 780 (the platform of Figure 2).
    pub fn gtx780() -> Self {
        Self::new(DeviceProfile::gtx780())
    }

    /// The device profile.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Selects the execution engine for subsequent launches.
    pub fn set_engine(&mut self, engine: Engine) {
        self.engine = engine;
    }

    /// The currently selected execution engine.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Creates a zero-filled buffer whose *contents are not promised*: like
    /// `clCreateBuffer`, the storage happens to be zeroed but reading it
    /// before writing it is a bug. Under `VGPU_SANITIZE=shadow` such reads
    /// are reported as uninit reads; code that relies on the zero fill must
    /// use [`Device::create_buffer_zeroed`] instead.
    pub fn create_buffer(&mut self, kind: ScalarKind, len: usize) -> BufId {
        self.adopt(BufData::zeros(kind, len), false)
    }

    /// Creates a buffer whose zero fill is part of the program's contract
    /// (a `clEnqueueFillBuffer` after the allocation): reads of the zeros
    /// are legitimate and the sanitizer treats every element as
    /// initialized. Accounting is identical to [`Device::create_buffer`].
    pub fn create_buffer_zeroed(&mut self, kind: ScalarKind, len: usize) -> BufId {
        self.adopt(BufData::zeros(kind, len), true)
    }

    /// Creates a buffer from host data (`enqueueWriteBuffer` at creation).
    /// Accounted as one allocation plus one `ToGPU` transfer.
    pub fn upload(&mut self, data: BufData) -> BufId {
        let t0 = self.trace_start();
        let bytes = byte_len(data.len(), data.elem_bytes());
        let id = self.adopt(data, true);
        self.note_transfer(TransferDir::ToGpu, id, bytes, t0);
        id
    }

    /// Overwrites a buffer from host data (`enqueueWriteBuffer`). Accounted
    /// as one `ToGPU` transfer.
    pub fn write(&mut self, id: BufId, data: BufData) {
        assert_eq!(data.len(), self.buffers[id.0].len(), "buffer size mismatch");
        self.write_region(id, 0, data);
    }

    /// Reads a buffer back to the host (`enqueueReadBuffer`). Accounted as
    /// one `ToHost` transfer.
    pub fn read(&self, id: BufId) -> BufData {
        self.read_region(id, 0, self.len(id))
    }

    /// Overwrites the element range `[off, off+data.len())` of a buffer
    /// from host data (`enqueueWriteBuffer` with an offset). Accounted as
    /// one `ToGPU` transfer of exactly the region's bytes — the
    /// slab-upload primitive of domain sharding, where each device
    /// receives only its owned planes of a host array.
    pub fn write_region(&mut self, id: BufId, off: usize, data: BufData) {
        assert!(off + data.len() <= self.buffers[id.0].len(), "region write out of range");
        let t0 = self.trace_start();
        let (len, bytes) = (data.len(), byte_len(data.len(), data.elem_bytes()));
        self.buffers[id.0].write(off, data);
        if let Some(sh) = self.buffers[id.0].shadow() {
            sh.mark_init(off, len);
        }
        self.note_transfer(TransferDir::ToGpu, id, bytes, t0);
    }

    /// Reads the element range `[off, off+len)` back to the host
    /// (`enqueueReadBuffer` with an offset). Accounted as one `ToHost`
    /// transfer of exactly the region's bytes.
    pub fn read_region(&self, id: BufId, off: usize, len: usize) -> BufData {
        let t0 = self.trace_start();
        let data = self.peek_region(id, off, len);
        self.note_transfer(TransferDir::ToHost, id, byte_len(len, data.elem_bytes()), t0);
        data
    }

    /// Overwrites a region from a neighbouring device's owned plane — the
    /// halo-exchange receive of domain sharding. Accounted exactly once,
    /// here on the destination device, as a `DevToDev` transfer under
    /// `vgpu.halo.{bytes,copies}` (the source side is read unaccounted via
    /// [`Device::peek_region`]); never touches `vgpu.xfer.*`. `prov` is
    /// the source buffer's version clock ([`Device::halo_provenance`] on
    /// the sending device), letting the shadow sanitizer flag later reads
    /// of this region as *stale* once the source mutates without a fresh
    /// exchange. `None` marks the region plain-initialized (untracked).
    pub fn write_halo_region_tagged(
        &mut self,
        id: BufId,
        off: usize,
        data: BufData,
        prov: Option<crate::sanitize::HaloProvenance>,
    ) {
        assert!(off + data.len() <= self.buffers[id.0].len(), "halo write out of range");
        let t0 = self.trace_start();
        let (len, bytes) = (data.len(), byte_len(data.len(), data.elem_bytes()));
        self.buffers[id.0].write(off, data);
        if let Some(sh) = self.buffers[id.0].shadow() {
            sh.mark_halo(off, len, prov);
        }
        self.note_transfer(TransferDir::DevToDev, id, bytes, t0);
    }

    /// The sanitizer version clock of a buffer, to tag halo copies *from*
    /// it (see [`Device::write_halo_region_tagged`]). `None` when the
    /// sanitizer is off.
    pub fn halo_provenance(&self, id: BufId) -> Option<crate::sanitize::HaloProvenance> {
        self.buffers[id.0].shadow().map(|sh| sh.provenance())
    }

    /// Creates a buffer from host data that is a *replica* of an upload
    /// already accounted on another device of a shard set (β tables,
    /// FD-MM coefficient tables). Accounted as one allocation plus one
    /// `Replicate` transfer under `vgpu.halo.replicate.*`, keeping
    /// `vgpu.xfer.to_gpu.*` totals identical to the single-device leg.
    pub fn upload_replica(&mut self, data: BufData) -> BufId {
        let t0 = self.trace_start();
        let bytes = byte_len(data.len(), data.elem_bytes());
        let id = self.adopt(data, true);
        self.note_transfer(TransferDir::Replicate, id, bytes, t0);
        id
    }

    /// Inspects an element range without transfer accounting — the send
    /// side of a halo exchange (the receive side accounts the copy once,
    /// see [`Device::write_halo_region_tagged`]).
    pub fn peek_region(&self, id: BufId, off: usize, len: usize) -> BufData {
        // SAFETY: a launch borrows the device mutably, so none runs now.
        unsafe { self.buffers[id.0].data() }.slice(off, len)
    }

    /// Buffer length in elements.
    pub fn len(&self, id: BufId) -> usize {
        self.buffers[id.0].len()
    }

    /// Compiles a kernel for this device, with no launch contract
    /// ([`exec::prepare`]): errs when its `Real` scalars are unresolved or
    /// the tape compiler rejects it, with the compiler's reason.
    pub fn compile(&self, kernel: &Kernel) -> Result<Prepared, ExecError> {
        exec::prepare(kernel)
    }

    /// Launches a prepared kernel. The returned [`LaunchStats`] is the
    /// launch's profiling record (the OpenCL event of the paper's §VI): the
    /// device keeps nothing, a caller that wants a log keeps one.
    pub fn launch(
        &mut self,
        prep: &Prepared,
        args: &[Arg],
        global: &[usize],
        mode: ExecMode,
    ) -> Result<LaunchStats, ExecError> {
        self.launch_wg(prep, args, global, None, mode)
    }

    /// Launches with an explicit workgroup size — required for kernels that
    /// use barriers, local memory, or local/group ids. Errs, before anything
    /// runs or is counted, when `args` do not match the kernel's parameters
    /// in number, buffer-vs-scalar, or buffer element kind ([`exec::launch`]).
    pub fn launch_wg(
        &mut self,
        prep: &Prepared,
        args: &[Arg],
        global: &[usize],
        local: Option<usize>,
        mode: ExecMode,
    ) -> Result<LaunchStats, ExecError> {
        let binds: Vec<ArgBind<'_>> = args
            .iter()
            .map(|a| match a {
                Arg::Buf(id) => ArgBind::Buf(&self.buffers[id.0]),
                Arg::Val(v) => ArgBind::Val(*v),
            })
            .collect();
        let t0 = self.trace_start();
        let mut stats = exec::launch(
            prep,
            &binds,
            global,
            local,
            mode,
            self.profile.transaction_bytes,
            self.engine,
            &self.rt,
        )?;
        let [tape, tree, oracle] = &self.rt.counters.launches;
        let double = prep.precision() == "f64";
        stats.modeled_s = stats.transaction_bytes.map(|tb| {
            modeled_time_s(
                &ModelInput {
                    transaction_bytes: tb,
                    flops: stats.counters.flops,
                    double_precision: double,
                    halo_bytes: 0,
                },
                &self.profile,
            )
        });
        match stats.backend {
            exec::Backend::Tape => tape.inc(),
            exec::Backend::Tree => tree.inc(),
        }
        // Differential launches also ran the tree-walker as an oracle.
        // Count that leg separately (the logical launch above is counted
        // once) and trace it as its own span under a distinct name and
        // engine, so the accounts stay truthful about what each engine
        // executed.
        if stats.oracle_wall.is_some() {
            oracle.inc();
        }
        if let Some(ts_us) = t0 {
            let (tele, trace) = (self.tele(), &self.rt.trace);
            let oracle_us = stats.oracle_wall.map_or(0.0, |w| w.as_secs_f64() * 1e6);
            if let Some(wall) = stats.oracle_wall {
                // The tree-walker has no warps, is not modeled and runs no tape.
                let (modeled_s, divergent_warps, op_profile) = (None, 0, None);
                let leg =
                    LaunchStats { wall, modeled_s, divergent_warps, op_profile, ..stats.clone() };
                let name = format!("{} (oracle)", prep.name);
                let mut account = KernelSummary::new(&name, "tree(oracle)", prep.precision());
                account.add(&leg);
                trace.record(Event::Kernel { track: tele.kernel_track, ts_us, account });
            }
            // The oracle leg ran first; the reported launch's span starts
            // where the oracle's ended.
            let account = KernelSummary::of(prep, &stats);
            trace.record(Event::Kernel {
                track: tele.kernel_track,
                ts_us: ts_us + oracle_us,
                account,
            });
            if let Some(dur_us) = stats.modeled_s.map(|s| s * 1e6) {
                let start = tele.advance_model_clock(dur_us);
                trace.record(Event::ModeledKernel {
                    track: tele.modeled_track,
                    name: prep.name.clone(),
                    ts_us: start,
                    dur_us,
                });
            }
        }
        Ok(stats)
    }

    /// The trace track ids this device records kernel/transfer/modeled
    /// events on — `None` until the first traced operation lazily allocates
    /// them. Multi-device harnesses (the batch service) use these to
    /// attribute a shared runtime's events back to the device, and hence
    /// the job, that produced them.
    pub fn telemetry_tracks(&self) -> Option<[TrackId; 3]> {
        self.tele.get().map(|t| [t.kernel_track, t.transfer_track, t.modeled_track])
    }
}

impl Drop for Device {
    /// Releases the device's buffers: winds the allocation gauge back and,
    /// when tracing, records one [`Event::Free`] per buffer.
    fn drop(&mut self) {
        let ts_us = self.trace_start();
        let mut total = 0u64;
        for (i, b) in self.buffers.iter().enumerate() {
            let bytes = byte_len(b.len(), b.elem_bytes());
            total += bytes;
            if let Some(ts_us) = ts_us {
                self.rt.trace.record(Event::Free { name: format!("buf{i}"), bytes, ts_us });
            }
        }
        if total > 0 {
            self.rt.registry.gauge("vgpu.mem.allocated_bytes").add(-(total as i64));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lift::kast::{KExpr, KStmt, KernelParam, MemRef};
    use lift::prelude::BinOp;

    fn double_kernel(kind: ScalarKind) -> Kernel {
        Kernel {
            name: "dbl".into(),
            params: vec![
                KernelParam::global_buf("x", kind),
                KernelParam::scalar("N", ScalarKind::I32),
            ],
            body: vec![
                KStmt::return_if(KExpr::bin(BinOp::Ge, KExpr::GlobalId(0), KExpr::var("N"))),
                KStmt::Store {
                    mem: MemRef::Param(0),
                    idx: KExpr::GlobalId(0),
                    value: KExpr::load(MemRef::Param(0), KExpr::GlobalId(0)) * KExpr::real(2.0),
                },
            ],
            work_dim: 1,
        }
        .resolve_real(if kind == ScalarKind::F64 {
            ScalarKind::F64
        } else {
            ScalarKind::F32
        })
    }

    #[test]
    fn buffer_roundtrip_and_launch() {
        let mut dev = Device::gtx780();
        let x = dev.upload(BufData::from(vec![1.0f32, 2.0, 3.0]));
        let prep = dev.compile(&double_kernel(ScalarKind::F32)).unwrap();
        let args = [Arg::Buf(x), Arg::Val(Value::I32(3))];
        let stats = dev.launch(&prep, &args, &[32], ExecMode::Fast).unwrap();
        assert_eq!(dev.read(x), BufData::from(vec![2.0f32, 4.0, 6.0]));
        assert!(stats.modeled_s.is_none());
    }

    #[test]
    fn modeled_launch_records_time() {
        let mut dev = Device::gtx780();
        // zeroed: the kernel reads x in place, so its contents are load-bearing
        let x = dev.create_buffer_zeroed(ScalarKind::F64, 1024);
        let prep = dev.compile(&double_kernel(ScalarKind::F64)).unwrap();
        let stats = dev
            .launch(
                &prep,
                &[Arg::Buf(x), Arg::Val(Value::I32(1024))],
                &[1024],
                ExecMode::Model { sample_stride: 1 },
            )
            .unwrap();
        assert!(stats.modeled_s.unwrap() > 0.0);
        assert!(stats.transaction_bytes.unwrap() >= 1024 * 8 * 2);
    }
}
