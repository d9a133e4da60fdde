//! Driving LIFT-generated kernels on the virtual GPU.
//!
//! [`LiftSim`] is the generated-code counterpart of
//! [`room_acoustics::HandwrittenSim`]: the same leap-frog loop, but the
//! volume and boundary kernels come out of the LIFT code generator
//! ([`crate::programs`]). A [`lift::lower::LoweredKernel`]'s argument specs
//! are bound to device buffers by program-parameter name, so the driver is
//! robust to the generator adding or reordering size parameters.

use crate::programs::{self, Program};
use lift::lower::{ArgSpec, LoweredKernel};
use lift::prelude::{ScalarKind, Value};
use room_acoustics::reference::FdArrays;
use room_acoustics::sim::SimSetup;
use room_acoustics::vgpu_sim::Precision;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use vgpu::telemetry::{self, HOST_TRACK};
use vgpu::{Arg, BufId, Device, ExecMode, LaunchStats, Prepared};

/// Which boundary model a LIFT run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LiftBoundary {
    /// Listing 7 (FI-MM).
    FiMm,
    /// Listing 8 (FD-MM).
    FdMm,
}

/// A lowered+compiled kernel with its launch recipe.
pub struct CompiledKernel {
    /// Generator output (args, global size).
    pub lowered: LoweredKernel,
    /// Prepared for the interpreter.
    pub prepared: Prepared,
}

impl CompiledKernel {
    /// `program` lowered and prepared at precision `real`, once per process:
    /// the generated kernels are size-generic, so every room of a given
    /// boundary model and precision launches the same artifact. The
    /// prepared form goes through [`vgpu::compile_cached`], as the
    /// hand-written kernels' does, so launch plans are shared too.
    pub fn cached(program: &Program, real: ScalarKind) -> Arc<CompiledKernel> {
        type Cache = Mutex<HashMap<(&'static str, ScalarKind), Arc<CompiledKernel>>>;
        static CACHE: OnceLock<Cache> = OnceLock::new();
        let cache = CACHE.get_or_init(Default::default);
        let key = (program.name, real);
        if let Some(hit) = cache.lock().expect("no panic under this lock").get(&key) {
            return hit.clone();
        }
        // Compile outside the lock; when two threads race the first insert
        // wins, so every sim still shares one artifact.
        let lowered = program.lower(real).unwrap_or_else(|e| panic!("{}: {e}", program.name));
        let prepared = (*vgpu::compile_cached(&lowered.kernel).expect("kernel prepares")).clone();
        let compiled = Arc::new(CompiledKernel { lowered, prepared });
        cache.lock().expect("no panic under this lock").entry(key).or_insert(compiled).clone()
    }
}

/// Binds a lowered kernel's arguments by name.
///
/// `bufs` maps program-parameter names to device buffers, `scalars` maps
/// scalar parameter names to values, `sizes` maps size variables to values.
pub fn bind_args(
    lowered: &LoweredKernel,
    bufs: &HashMap<&str, BufId>,
    scalars: &HashMap<&str, Value>,
    sizes: &HashMap<&str, i64>,
    output: Option<BufId>,
) -> Vec<Arg> {
    lowered
        .args
        .iter()
        .map(|spec| match spec {
            ArgSpec::Input(_, name) => {
                if let Some(b) = bufs.get(name.as_str()) {
                    Arg::Buf(*b)
                } else if let Some(v) = scalars.get(name.as_str()) {
                    Arg::Val(*v)
                } else {
                    panic!("no binding for kernel input `{name}`")
                }
            }
            ArgSpec::Size(name) => Arg::Val(Value::I32(
                *sizes.get(name.as_str()).unwrap_or_else(|| panic!("unbound size `{name}`")) as i32,
            )),
            ArgSpec::Output(_, _) => {
                Arg::Buf(output.expect("kernel allocates an output; pass one"))
            }
        })
        .collect()
}

/// Evaluates a lowered kernel's global size against a size environment.
pub fn global_size(lowered: &LoweredKernel, sizes: &HashMap<&str, i64>) -> Vec<usize> {
    lowered
        .global_size
        .iter()
        .map(|g| g.eval(&|n| sizes.get(n).copied()).expect("global size evaluates") as usize)
        .collect()
}

/// LIFT-generated kernels running on the virtual GPU.
pub struct LiftSim {
    /// The device (exposed for profiling inspection).
    pub device: Device,
    setup: SimSetup,
    precision: Precision,
    volume: Arc<CompiledKernel>,
    boundary: Arc<CompiledKernel>,
    boundary_kind: LiftBoundary,
    prev: BufId,
    curr: BufId,
    next: BufId,
    nbrs: BufId,
    bidx: BufId,
    bnbrs: BufId,
    material: BufId,
    beta: BufId,
    fd: Option<FdState>,
    steps_done: usize,
}

struct FdState {
    bi: BufId,
    d: BufId,
    di: BufId,
    f: BufId,
    g1: BufId,
    v1: BufId,
    v2: BufId,
}

impl LiftSim {
    /// Lowers, compiles and uploads everything for a run.
    pub fn new(
        setup: SimSetup,
        precision: Precision,
        boundary_kind: LiftBoundary,
        mut device: Device,
    ) -> Self {
        let _span = telemetry::span(HOST_TRACK, "LiftSim::new");
        let real = precision.kind();
        let n = setup.dims().total();
        let nb = setup.num_b();
        let volume = CompiledKernel::cached(&programs::volume_program(), real);
        let boundary = match boundary_kind {
            LiftBoundary::FiMm => CompiledKernel::cached(&programs::fimm_program(), real),
            LiftBoundary::FdMm => CompiledKernel::cached(&programs::fdmm_program(), real),
        };
        let prev = device.create_buffer_zeroed(real, n);
        let curr = device.create_buffer_zeroed(real, n);
        let next = device.create_buffer_zeroed(real, n);
        let nbrs = device.upload(vgpu::BufData::from(setup.room.nbrs.clone()));
        let bidx = device.upload(vgpu::BufData::from(setup.room.boundary_indices.clone()));
        let bnbrs = device.upload(vgpu::BufData::from(setup.room.boundary_nbrs()));
        let material = device.upload(vgpu::BufData::from(setup.room.material.clone()));
        let beta = device.upload(precision.buf(&setup.betas));
        let fd = match boundary_kind {
            LiftBoundary::FdMm => {
                let c = setup.fd.as_ref().expect("FD setup");
                let fa: FdArrays<f64> = FdArrays::from_coeffs(c);
                let state = setup.mb * nb;
                Some(FdState {
                    bi: device.upload(precision.buf(&fa.bi)),
                    d: device.upload(precision.buf(&fa.d)),
                    di: device.upload(precision.buf(&fa.di)),
                    f: device.upload(precision.buf(&fa.f)),
                    g1: device.create_buffer_zeroed(real, state),
                    v1: device.create_buffer_zeroed(real, state),
                    v2: device.create_buffer_zeroed(real, state),
                })
            }
            LiftBoundary::FiMm => None,
        };
        LiftSim {
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
            bnbrs,
            material,
            beta,
            fd,
            steps_done: 0,
        }
    }

    /// The shared setup.
    pub fn setup(&self) -> &SimSetup {
        &self.setup
    }

    /// Which boundary model this run uses.
    pub fn boundary_kind(&self) -> LiftBoundary {
        self.boundary_kind
    }

    /// OpenCL C source of the generated kernels (volume, boundary).
    pub fn generated_sources(&self) -> (String, String) {
        (
            lift::opencl::emit_kernel(&self.volume.lowered.kernel),
            lift::opencl::emit_kernel(&self.boundary.lowered.kernel),
        )
    }

    fn size_env(&self) -> HashMap<&'static str, i64> {
        let dims = self.setup.dims();
        let mut m = HashMap::new();
        m.insert("Nx", dims.nx as i64);
        m.insert("Ny", dims.ny as i64);
        m.insert("Nz", dims.nz as i64);
        m.insert("N", dims.total() as i64);
        m.insert("numB", self.setup.num_b() as i64);
        m.insert("NM", self.setup.betas.len() as i64);
        m.insert("MB", self.setup.mb.max(1) as i64);
        m.insert("MBM", (self.setup.betas.len() * self.setup.mb.max(1)) as i64);
        m.insert("S", (self.setup.mb.max(1) * self.setup.num_b()) as i64);
        m
    }

    /// Injects an impulse as a released initial displacement.
    pub fn impulse(&mut self, x: usize, y: usize, z: usize, amp: f64) {
        let idx = self.setup.dims().idx(x, y, z);
        for buf in [self.curr, self.prev] {
            let mut data = self.device.read(buf);
            data.set(idx, self.precision.val(amp));
            self.device.write(buf, data);
        }
    }

    /// Launches the boundary kernel (in place on `next`).
    fn launch_boundary(&mut self, mode: ExecMode) -> LaunchStats {
        let sizes = self.size_env();
        let mut bufs: HashMap<&str, BufId> = [
            ("boundaryIndices", self.bidx),
            ("bnbrs", self.bnbrs),
            ("material", self.material),
            ("beta", self.beta),
            ("next", self.next),
            ("prev", self.prev),
        ]
        .into();
        if let Some(fd) = &self.fd {
            bufs.extend([
                ("BI", fd.bi),
                ("D", fd.d),
                ("DI", fd.di),
                ("F", fd.f),
                ("g1", fd.g1),
                ("v1", fd.v1),
                ("v2", fd.v2),
            ]);
        }
        let scalars: HashMap<&str, Value> = [("l", self.precision.val(self.setup.l))].into();
        let args = bind_args(&self.boundary.lowered, &bufs, &scalars, &sizes, None);
        let global = global_size(&self.boundary.lowered, &sizes);
        self.device.launch(&self.boundary.prepared, &args, &global, mode).expect("boundary launch")
    }

    /// Advances one step; returns (volume, boundary) launch stats.
    pub fn step(&mut self, mode: ExecMode) -> (LaunchStats, LaunchStats) {
        let _span = telemetry::span(HOST_TRACK, "LiftSim::step");
        let sizes = self.size_env();
        let l2 = self.precision.val(self.setup.l2);

        // volume kernel: allocated output bound to our `next` buffer
        let vbufs: HashMap<&str, BufId> =
            [("curr", self.curr), ("prev", self.prev), ("nbrs", self.nbrs)].into();
        let vscalars: HashMap<&str, Value> = [("l2", l2)].into();
        let vargs = bind_args(&self.volume.lowered, &vbufs, &vscalars, &sizes, Some(self.next));
        let vglobal = global_size(&self.volume.lowered, &sizes);
        let vstats = self
            .device
            .launch(&self.volume.prepared, &vargs, &vglobal, mode)
            .expect("volume launch");

        let bstats = self.launch_boundary(mode);

        if let Some(fd) = &mut self.fd {
            std::mem::swap(&mut fd.v1, &mut fd.v2);
        }
        let old_prev = self.prev;
        self.prev = self.curr;
        self.curr = self.next;
        self.next = old_prev;
        self.steps_done += 1;
        (vstats, bstats)
    }

    /// Launches only the boundary kernel (no volume pass, no rotation) —
    /// the generated-code counterpart of
    /// [`room_acoustics::HandwrittenSim::boundary_step_only`].
    pub fn boundary_step_only(&mut self, mode: ExecMode) -> LaunchStats {
        let _span = telemetry::span(HOST_TRACK, "LiftSim::boundary_step_only");
        self.launch_boundary(mode)
    }

    /// Runs `n` fast steps.
    pub fn run(&mut self, n: usize) {
        let _span = telemetry::span_with(HOST_TRACK, || format!("LiftSim::run({n})"));
        for _ in 0..n {
            self.step(ExecMode::Fast);
        }
    }

    /// Current pressure field as f64.
    pub fn read_curr(&self) -> Vec<f64> {
        self.device.read(self.curr).to_f64_vec()
    }

    /// Pressure at a point.
    pub fn sample(&self, x: usize, y: usize, z: usize) -> f64 {
        let idx = self.setup.dims().idx(x, y, z);
        self.device.read_region(self.curr, idx, 1).get(0).as_f64()
    }

    /// Steps executed.
    pub fn steps_done(&self) -> usize {
        self.steps_done
    }
}

/// Lowers and compiles the one-kernel FI program (Listing 6) — used by the
/// Figure 4 benchmark, which measures the naive FI simulation.
pub struct FiSingleLift {
    /// The device.
    pub device: Device,
    setup: SimSetup,
    precision: Precision,
    kernel: Arc<CompiledKernel>,
    prev: BufId,
    curr: BufId,
    next: BufId,
    nbrs: BufId,
    beta: f64,
}

impl FiSingleLift {
    /// Builds the FI run (box rooms, uniform β).
    pub fn new(setup: SimSetup, precision: Precision, beta: f64, mut device: Device) -> Self {
        let _span = telemetry::span(HOST_TRACK, "FiSingleLift::new");
        let real = precision.kind();
        let n = setup.dims().total();
        let kernel = CompiledKernel::cached(&programs::fi_single_program(), real);
        let prev = device.create_buffer_zeroed(real, n);
        let curr = device.create_buffer_zeroed(real, n);
        let next = device.create_buffer_zeroed(real, n);
        let nbrs = device.upload(vgpu::BufData::from(setup.room.nbrs.clone()));
        FiSingleLift { device, setup, precision, kernel, prev, curr, next, nbrs, beta }
    }

    /// The shared setup.
    pub fn setup(&self) -> &SimSetup {
        &self.setup
    }

    /// Injects an impulse (displacement release).
    pub fn impulse(&mut self, x: usize, y: usize, z: usize, amp: f64) {
        let idx = self.setup.dims().idx(x, y, z);
        for buf in [self.curr, self.prev] {
            let mut data = self.device.read(buf);
            data.set(idx, self.precision.val(amp));
            self.device.write(buf, data);
        }
    }

    /// One step; returns the kernel's launch stats.
    pub fn step(&mut self, mode: ExecMode) -> LaunchStats {
        let _span = telemetry::span(HOST_TRACK, "FiSingleLift::step");
        let dims = self.setup.dims();
        let sizes: HashMap<&str, i64> =
            [("Nx", dims.nx as i64), ("Ny", dims.ny as i64), ("Nz", dims.nz as i64)].into();
        let bufs: HashMap<&str, BufId> =
            [("curr", self.curr), ("prev", self.prev), ("nbrs", self.nbrs)].into();
        let scalars: HashMap<&str, Value> = [
            ("l", self.precision.val(self.setup.l)),
            ("l2", self.precision.val(self.setup.l2)),
            ("beta", self.precision.val(self.beta)),
        ]
        .into();
        let args = bind_args(&self.kernel.lowered, &bufs, &scalars, &sizes, Some(self.next));
        let global = global_size(&self.kernel.lowered, &sizes);
        let stats =
            self.device.launch(&self.kernel.prepared, &args, &global, mode).expect("fi launch");
        let old_prev = self.prev;
        self.prev = self.curr;
        self.curr = self.next;
        self.next = old_prev;
        stats
    }

    /// Runs `n` fast steps.
    pub fn run(&mut self, n: usize) {
        let _span = telemetry::span_with(HOST_TRACK, || format!("FiSingleLift::run({n})"));
        for _ in 0..n {
            self.step(ExecMode::Fast);
        }
    }

    /// Current field as f64.
    pub fn read_curr(&self) -> Vec<f64> {
        self.device.read(self.curr).to_f64_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use room_acoustics::geometry::{GridDims, RoomShape};
    use room_acoustics::sim::SimConfig;

    #[test]
    fn lift_step_loop_reuses_cached_launch_plans() {
        // Generated kernels go through the same plan cache as handwritten
        // ones: two kernels per step (volume + boundary) means exactly two
        // cached plans no matter how many steps run.
        let setup = SimSetup::new(&SimConfig::fimm(GridDims::cube(10), RoomShape::Box));
        let mut sim = LiftSim::new(setup, Precision::Double, LiftBoundary::FiMm, Device::gtx780());
        sim.impulse(5, 5, 5, 1.0);
        sim.run(4);
        assert_eq!(sim.device.plan_cache_len(), 2, "volume + boundary plans");
    }

    #[test]
    fn fi_single_step_loop_reuses_one_cached_plan() {
        let setup = SimSetup::new(&SimConfig::fimm(GridDims::cube(8), RoomShape::Box));
        let mut sim = FiSingleLift::new(setup, Precision::Single, 0.1, Device::gtx780());
        sim.impulse(4, 4, 4, 1.0);
        sim.run(4);
        assert_eq!(sim.device.plan_cache_len(), 1, "one kernel, one plan");
    }
}
