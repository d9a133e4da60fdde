//! The hand-written-kernel backend on the virtual GPU.
//!
//! Drives the kernel ASTs of [`crate::handwritten`] through a
//! [`vgpu::Device`], with device-resident buffers rotated between steps —
//! the same execution shape as the paper's tuned OpenCL applications. Used
//! both as the baseline in the evaluation and as a cross-check against
//! [`crate::sim::ReferenceSim`].

use crate::handwritten;
use crate::reference::FdArrays;
use crate::sim::{field_energy, SimSetup};
use lift::prelude::{ScalarKind, Value};
use vgpu::{Arg, BufData, BufId, Device, ExecMode, LaunchStats, Prepared};

/// Floating-point precision of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    /// f32.
    Single,
    /// f64.
    Double,
}

impl Precision {
    /// The scalar kind.
    pub fn kind(self) -> ScalarKind {
        match self {
            Precision::Single => ScalarKind::F32,
            Precision::Double => ScalarKind::F64,
        }
    }

    /// A real-valued scalar argument at this precision.
    pub fn val(self, v: f64) -> Value {
        match self {
            Precision::Single => Value::F32(v as f32),
            Precision::Double => Value::F64(v),
        }
    }

    /// Converts an f64 slice to buffer data at this precision.
    pub fn buf(self, v: &[f64]) -> BufData {
        match self {
            Precision::Single => BufData::from(v.iter().map(|&x| x as f32).collect::<Vec<f32>>()),
            Precision::Double => BufData::from(v.to_vec()),
        }
    }

    /// Label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Precision::Single => "Single",
            Precision::Double => "Double",
        }
    }
}

/// Boundary kernel flavour of a virtual-GPU run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundaryKernel {
    /// FI-MM (Listing 3). `beta_constant` selects the hand-tuned
    /// constant-memory β variant (§VII-B1).
    FiMm {
        /// β table in `__constant` space.
        beta_constant: bool,
    },
    /// FD-MM (Listing 4).
    FdMm,
}

/// Hand-written kernels running on the virtual GPU.
pub struct HandwrittenSim {
    /// The device (exposed for profiling inspection).
    pub device: Device,
    setup: SimSetup,
    precision: Precision,
    volume: Prepared,
    boundary: Prepared,
    boundary_kind: BoundaryKernel,
    // device buffers
    prev: BufId,
    curr: BufId,
    next: BufId,
    nbrs: BufId,
    bidx: BufId,
    material: BufId,
    beta: BufId,
    fd_bufs: Option<FdBufs>,
    steps_done: usize,
}

struct FdBufs {
    bi: BufId,
    d: BufId,
    di: BufId,
    f: BufId,
    g1: BufId,
    v1: BufId,
    v2: BufId,
}

impl HandwrittenSim {
    /// Builds the backend. `boundary` must match the setup (FD-MM requires
    /// FD coefficients in the setup).
    pub fn new(
        setup: SimSetup,
        precision: Precision,
        boundary_kind: BoundaryKernel,
        mut device: Device,
    ) -> Self {
        crate::contracts::register_all();
        let real = precision.kind();
        let n = setup.dims().total();
        let nb = setup.num_b();
        // Compile through the process-wide artifact cache: every room of a
        // given boundary model and precision uses byte-identical kernels, so
        // a batch of sims shares one prepared artifact per kernel (and, via
        // the shared id, one launch plan across all their devices).
        let volume = (*vgpu::compile_cached(&handwritten::volume_kernel().resolve_real(real))
            .expect("volume kernel compiles"))
        .clone();
        let boundary = match boundary_kind {
            BoundaryKernel::FiMm { beta_constant } => {
                (*vgpu::compile_cached(&handwritten::fimm_kernel(beta_constant).resolve_real(real))
                    .expect("FI-MM kernel compiles"))
                .clone()
            }
            BoundaryKernel::FdMm => {
                (*vgpu::compile_cached(&handwritten::fdmm_kernel().resolve_real(real))
                    .expect("FD-MM kernel compiles"))
                .clone()
            }
        };
        let prev = device.create_buffer_zeroed(real, n);
        let curr = device.create_buffer_zeroed(real, n);
        let next = device.create_buffer_zeroed(real, n);
        let nbrs = device.upload(BufData::from(setup.room.nbrs.clone()));
        let bidx = device.upload(BufData::from(setup.room.boundary_indices.clone()));
        let material = device.upload(BufData::from(setup.room.material.clone()));
        let beta = device.upload(precision.buf(&setup.betas));
        let fd_bufs = match boundary_kind {
            BoundaryKernel::FdMm => {
                let c = setup.fd.as_ref().expect("FD-MM setup has coefficients");
                let fa: FdArrays<f64> = FdArrays::from_coeffs(c);
                let state = setup.mb * nb;
                Some(FdBufs {
                    bi: device.upload(precision.buf(&fa.bi)),
                    d: device.upload(precision.buf(&fa.d)),
                    di: device.upload(precision.buf(&fa.di)),
                    f: device.upload(precision.buf(&fa.f)),
                    g1: device.create_buffer_zeroed(real, state),
                    v1: device.create_buffer_zeroed(real, state),
                    v2: device.create_buffer_zeroed(real, state),
                })
            }
            _ => None,
        };
        HandwrittenSim {
            device,
            setup,
            precision,
            volume,
            boundary,
            boundary_kind,
            prev,
            curr,
            next,
            nbrs,
            bidx,
            material,
            beta,
            fd_bufs,
            steps_done: 0,
        }
    }

    /// The shared setup.
    pub fn setup(&self) -> &SimSetup {
        &self.setup
    }

    /// Injects an impulse as a released initial displacement (applied to
    /// both `curr` and `prev`, matching [`crate::sim::ReferenceSim::impulse`]).
    pub fn impulse(&mut self, x: usize, y: usize, z: usize, amp: f64) {
        let idx = self.setup.dims().idx(x, y, z);
        for buf in [self.curr, self.prev] {
            let mut data = self.device.read(buf);
            data.set(idx, self.precision.val(amp));
            self.device.write(buf, data);
        }
    }

    /// Advances one step; returns the (volume, boundary) launch stats.
    pub fn step(&mut self, mode: ExecMode) -> (LaunchStats, LaunchStats) {
        let dims = *self.setup.dims();
        let l = self.precision.val(self.setup.l);
        let l2 = self.precision.val(self.setup.l2);
        let nb = self.setup.num_b();
        let vstats = self
            .device
            .launch(
                &self.volume,
                &[
                    Arg::Buf(self.next),
                    Arg::Buf(self.curr),
                    Arg::Buf(self.prev),
                    Arg::Buf(self.nbrs),
                    Arg::Val(l2),
                    Arg::Val(Value::I32(dims.nx as i32)),
                    Arg::Val(Value::I32(dims.ny as i32)),
                    Arg::Val(Value::I32(dims.nz as i32)),
                ],
                &[dims.nx, dims.ny, dims.nz],
                mode,
            )
            .expect("volume launch");
        let bstats = match self.boundary_kind {
            BoundaryKernel::FiMm { .. } => self
                .device
                .launch(
                    &self.boundary,
                    &[
                        Arg::Buf(self.bidx),
                        Arg::Buf(self.nbrs),
                        Arg::Buf(self.material),
                        Arg::Buf(self.beta),
                        Arg::Buf(self.next),
                        Arg::Buf(self.prev),
                        Arg::Val(l),
                        Arg::Val(Value::I32(nb as i32)),
                    ],
                    &[nb],
                    mode,
                )
                .expect("FI-MM launch"),
            BoundaryKernel::FdMm => {
                let fd = self.fd_bufs.as_ref().expect("FD buffers");
                let s = self
                    .device
                    .launch(
                        &self.boundary,
                        &[
                            Arg::Buf(self.bidx),
                            Arg::Buf(self.nbrs),
                            Arg::Buf(self.material),
                            Arg::Buf(self.beta),
                            Arg::Buf(fd.bi),
                            Arg::Buf(fd.d),
                            Arg::Buf(fd.di),
                            Arg::Buf(fd.f),
                            Arg::Buf(self.next),
                            Arg::Buf(self.prev),
                            Arg::Buf(fd.g1),
                            Arg::Buf(fd.v1),
                            Arg::Buf(fd.v2),
                            Arg::Val(l),
                            Arg::Val(Value::I32(nb as i32)),
                            Arg::Val(Value::I32(self.setup.mb as i32)),
                        ],
                        &[nb],
                        mode,
                    )
                    .expect("FD-MM launch");
                let fd = self.fd_bufs.as_mut().unwrap();
                std::mem::swap(&mut fd.v1, &mut fd.v2);
                s
            }
        };
        // rotate pressure buffers
        let old_prev = self.prev;
        self.prev = self.curr;
        self.curr = self.next;
        self.next = old_prev;
        self.steps_done += 1;
        (vstats, bstats)
    }

    /// Launches only the boundary kernel (no volume pass, no rotation).
    /// Useful for benchmarking kernel 2 in isolation — its memory traffic
    /// is value-independent (no data-dependent branches), so this measures
    /// exactly what a mid-simulation launch would.
    pub fn boundary_step_only(&mut self, mode: ExecMode) -> LaunchStats {
        let l = self.precision.val(self.setup.l);
        let nb = self.setup.num_b();
        match self.boundary_kind {
            BoundaryKernel::FiMm { .. } => self
                .device
                .launch(
                    &self.boundary,
                    &[
                        Arg::Buf(self.bidx),
                        Arg::Buf(self.nbrs),
                        Arg::Buf(self.material),
                        Arg::Buf(self.beta),
                        Arg::Buf(self.next),
                        Arg::Buf(self.prev),
                        Arg::Val(l),
                        Arg::Val(Value::I32(nb as i32)),
                    ],
                    &[nb],
                    mode,
                )
                .expect("FI-MM launch"),
            BoundaryKernel::FdMm => {
                let fd = self.fd_bufs.as_ref().expect("FD buffers");
                self.device
                    .launch(
                        &self.boundary,
                        &[
                            Arg::Buf(self.bidx),
                            Arg::Buf(self.nbrs),
                            Arg::Buf(self.material),
                            Arg::Buf(self.beta),
                            Arg::Buf(fd.bi),
                            Arg::Buf(fd.d),
                            Arg::Buf(fd.di),
                            Arg::Buf(fd.f),
                            Arg::Buf(self.next),
                            Arg::Buf(self.prev),
                            Arg::Buf(fd.g1),
                            Arg::Buf(fd.v1),
                            Arg::Buf(fd.v2),
                            Arg::Val(l),
                            Arg::Val(Value::I32(nb as i32)),
                            Arg::Val(Value::I32(self.setup.mb as i32)),
                        ],
                        &[nb],
                        mode,
                    )
                    .expect("FD-MM launch")
            }
        }
    }

    /// Runs `n` steps in fast mode.
    pub fn run(&mut self, n: usize) {
        for _ in 0..n {
            self.step(ExecMode::Fast);
        }
    }

    /// Reads the current pressure field (as f64).
    pub fn read_curr(&self) -> Vec<f64> {
        self.device.read(self.curr).to_f64_vec()
    }

    /// Reads the previous pressure field (as f64).
    pub fn read_prev(&self) -> Vec<f64> {
        self.device.read(self.prev).to_f64_vec()
    }

    /// Pressure at a point.
    pub fn sample(&self, x: usize, y: usize, z: usize) -> f64 {
        let idx = self.setup.dims().idx(x, y, z);
        self.device.read_region(self.curr, idx, 1).get(0).as_f64()
    }

    /// Field energy proxy (see [`field_energy`]).
    pub fn energy(&self) -> f64 {
        field_energy(&self.read_curr(), &self.read_prev())
    }

    /// Steps executed.
    pub fn steps_done(&self) -> usize {
        self.steps_done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{GridDims, RoomShape};
    use crate::sim::{ReferenceSim, SimConfig, SimSetup};

    fn setup(dims: GridDims, shape: RoomShape, fd: bool) -> SimSetup {
        let cfg = if fd { SimConfig::fdmm(dims, shape) } else { SimConfig::fimm(dims, shape) };
        SimSetup::new(&cfg)
    }

    #[test]
    fn handwritten_fimm_matches_reference_f64() {
        let s = setup(GridDims::cube(12), RoomShape::Box, false);
        let mut dev = Device::gtx780();
        dev.set_race_check(true);
        let mut hw = HandwrittenSim::new(
            s.clone(),
            Precision::Double,
            BoundaryKernel::FiMm { beta_constant: false },
            dev,
        );
        let mut rf = ReferenceSim::<f64>::new(s);
        hw.impulse(6, 6, 6, 1.0);
        rf.impulse(6, 6, 6, 1.0);
        hw.run(15);
        rf.run(15);
        let a = hw.read_curr();
        for (i, (x, y)) in a.iter().zip(&rf.curr).enumerate() {
            assert!((x - y).abs() < 1e-12, "mismatch at {i}: {x} vs {y}");
        }
    }

    #[test]
    fn handwritten_fdmm_matches_reference_f64() {
        let s = setup(GridDims::cube(12), RoomShape::Dome, true);
        let mut dev = Device::gtx780();
        dev.set_race_check(true);
        let mut hw = HandwrittenSim::new(s.clone(), Precision::Double, BoundaryKernel::FdMm, dev);
        let mut rf = ReferenceSim::<f64>::new(s);
        hw.impulse(6, 6, 3, 1.0);
        rf.impulse(6, 6, 3, 1.0);
        hw.run(12);
        rf.run(12);
        let a = hw.read_curr();
        for (i, (x, y)) in a.iter().zip(&rf.curr).enumerate() {
            assert!((x - y).abs() < 1e-12, "mismatch at {i}: {x} vs {y}");
        }
    }

    #[test]
    fn handwritten_fimm_single_precision_is_close() {
        let s = setup(GridDims::cube(10), RoomShape::Box, false);
        let mut hw = HandwrittenSim::new(
            s.clone(),
            Precision::Single,
            BoundaryKernel::FiMm { beta_constant: true },
            Device::gtx780(),
        );
        let mut rf = ReferenceSim::<f32>::new(s);
        hw.impulse(5, 5, 5, 1.0);
        rf.impulse(5, 5, 5, 1.0);
        hw.run(10);
        rf.run(10);
        let a = hw.read_curr();
        for (x, y) in a.iter().zip(&rf.curr) {
            assert!((x - *y as f64).abs() < 1e-6, "{x} vs {y:?}");
        }
    }

    #[test]
    fn boundary_kernel_stats_expose_access_counts() {
        let s = setup(GridDims::cube(12), RoomShape::Box, true);
        let nb = s.num_b() as u64;
        let mb = s.mb as u64;
        let mut hw =
            HandwrittenSim::new(s, Precision::Double, BoundaryKernel::FdMm, Device::gtx780());
        hw.impulse(6, 6, 6, 1.0);
        let (_, bstats) = hw.step(ExecMode::Fast);
        // Listing 4 global traffic per boundary point: loads = idx, nbr, mi,
        // beta + MB×(g1, v2, BI, D, F) + next, prev + MB×(BI, DI, F) reloads;
        // stores = next + MB×(g1, v1).
        let per_point_stores = 1 + 2 * mb;
        assert_eq!(bstats.counters.stores_global, nb * per_point_stores);
        // 45 accesses per update at MB=3 (the paper's figure): check order
        // of magnitude rather than the exact count, which depends on reload
        // caching choices.
        let accesses = (bstats.counters.loads_global + bstats.counters.stores_global) / nb;
        assert!((20..=60).contains(&accesses), "accesses/update = {accesses}");
    }
    #[test]
    fn step_loop_reuses_cached_launch_plans() {
        // A simulation's step loop launches the same two kernels against the
        // same buffer kinds every step (buffer rotation changes ids, not
        // kinds), so the device plan cache must plateau at one plan per
        // kernel and cached steps must report the same work as cold ones.
        let s = setup(GridDims::cube(10), RoomShape::Box, false);
        let mut hw = HandwrittenSim::new(
            s,
            Precision::Double,
            BoundaryKernel::FiMm { beta_constant: false },
            Device::gtx780(),
        );
        hw.impulse(5, 5, 5, 1.0);
        let mode = ExecMode::Model { sample_stride: 1 };
        let cold = hw.step(mode);
        assert_eq!(hw.device.plan_cache_len(), 2, "volume + boundary plans");
        for _ in 0..3 {
            let warm = hw.step(mode);
            assert_eq!(hw.device.plan_cache_len(), 2, "plans are reused, not re-made");
            assert_eq!(warm.0.counters, cold.0.counters);
            assert_eq!(warm.1.counters, cold.1.counters);
            assert_eq!(warm.0.transaction_bytes, cold.0.transaction_bytes);
            assert_eq!(warm.1.transaction_bytes, cold.1.transaction_bytes);
        }
    }
}
