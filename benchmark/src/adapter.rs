//! The only module that calls into the library.
//!
//! Every workload goes through the functions below, so a front-end or
//! engine refactor has one file to stay compatible with. Everything here
//! uses library defaults: no `VGPU_*` environment, no `set_engine`, no
//! thread-pool override.

use crate::trace::Tracer;
use batch::{BatchConfig, BatchExecutor, Scenario, ScenarioGen};
use lift::kast::Kernel;
use lift::prelude::ScalarKind;
use lift_acoustics::programs::{self, Program};
use lift_acoustics::{runner, LiftBoundary, LiftSim};
use room_acoustics::reference::Real;
use room_acoustics::{
    contracts, handwritten, BoundaryKernel, GridDims, HandwrittenSim, Precision, ReferenceSim,
    RoomShape, ShardedSim, SimConfig, SimSetup,
};
use std::collections::HashMap;
use std::time::Duration;
use vgpu::{BufData, Device, DeviceProfile, ExecMode, LaunchStats, ModelInput, SlabPartition};

pub use batch::BatchExecutor as Executor;
pub use batch::Scenario as BatchScenario;

/// A grid position.
pub type Pos = (usize, usize, usize);

/// Which simulation front end a room workload drives.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SimKind {
    /// `HandwrittenSim`, one device.
    Hand,
    /// `LiftSim` (LIFT-generated kernels), one device.
    Gen,
    /// `ShardedSim` over two devices.
    Shard2,
}

// ---- the room ----

/// The benchmark room: 96×64×48 (the 2 : 1.33 : 1 aspect of the paper's
/// 302×202×152, Table II), dome, FD-MM.
pub fn room_config() -> SimConfig {
    SimConfig::fdmm(GridDims::new(96, 64, 48), RoomShape::Dome)
}

/// Grid extent of a configuration.
pub fn room_dims(cfg: &SimConfig) -> Pos {
    (cfg.dims.nx, cfg.dims.ny, cfg.dims.nz)
}

/// True when `p` is a voxel inside the room.
pub fn inside(cfg: &SimConfig, p: Pos) -> bool {
    cfg.shape.inside(&cfg.dims, p.0, p.1, p.2)
}

/// `SimSetup::new`: voxelisation, boundary lists, coefficient tables.
pub fn build_room(cfg: &SimConfig) -> SimSetup {
    SimSetup::new(cfg)
}

/// (grid points, boundary points) of a built room.
pub fn room_points(setup: &SimSetup) -> (usize, usize) {
    (setup.dims().total(), setup.num_b())
}

// ---- simulations ----

/// One of the three vgpu front ends behind a common surface.
pub enum Sim {
    Hand(Box<HandwrittenSim>),
    Gen(Box<LiftSim>),
    Shard(Box<ShardedSim>),
}

/// What one `step` reported through its public return value.
#[derive(Default, Clone, Copy)]
pub struct StepStats {
    /// Σ `LaunchStats.wall` of the volume launches.
    pub volume: Duration,
    /// Σ `LaunchStats.wall` of the boundary launches.
    pub boundary: Duration,
    /// Σ `global_work_items` over all launches.
    pub items: u64,
    /// Launches issued.
    pub launches: u64,
    /// Σ `divergent_warps`.
    pub divergent: u64,
    /// `Backend::label()` of the volume launch.
    pub backend: &'static str,
}

impl StepStats {
    fn add(&mut self, s: &LaunchStats, volume: bool) {
        if volume {
            self.volume += s.wall;
            self.backend = s.backend.label();
        } else {
            self.boundary += s.wall;
        }
        self.items += s.global_work_items;
        self.launches += 1;
        self.divergent += s.divergent_warps;
    }
}

/// The modeled-GPU clock of one step (`ExecMode::Model`, stride 1) on
/// `DeviceProfile::gtx780()`.
pub struct Modeled {
    pub ms: f64,
    pub txn_bytes: u64,
    pub flops: u64,
}

fn model_input(stats: &[&LaunchStats]) -> ModelInput {
    let txn = stats.iter().map(|s| s.transaction_bytes.unwrap_or(0)).sum();
    let flops = stats.iter().map(|s| s.counters.flops).sum();
    ModelInput::local(txn, flops, false)
}

/// `*Sim::new` on fresh default devices, single precision, FD-MM.
pub fn new_sim(kind: SimKind, setup: SimSetup) -> Sim {
    match kind {
        SimKind::Hand => Sim::Hand(Box::new(HandwrittenSim::new(
            setup,
            Precision::Single,
            BoundaryKernel::FdMm,
            Device::gtx780(),
        ))),
        SimKind::Gen => Sim::Gen(Box::new(LiftSim::new(
            setup,
            Precision::Single,
            LiftBoundary::FdMm,
            Device::gtx780(),
        ))),
        SimKind::Shard2 => Sim::Shard(Box::new(ShardedSim::new(
            setup,
            Precision::Single,
            BoundaryKernel::FdMm,
            vec![Device::gtx780(), Device::gtx780()],
        ))),
    }
}

impl Sim {
    pub fn setup(&self) -> &SimSetup {
        match self {
            Sim::Hand(s) => s.setup(),
            Sim::Gen(s) => s.setup(),
            Sim::Shard(s) => s.setup(),
        }
    }

    pub fn impulse(&mut self, p: Pos, amp: f64) {
        match self {
            Sim::Hand(s) => s.impulse(p.0, p.1, p.2, amp),
            Sim::Gen(s) => s.impulse(p.0, p.1, p.2, amp),
            Sim::Shard(s) => s.impulse(p.0, p.1, p.2, amp),
        }
    }

    /// One `step(ExecMode::Fast)`.
    pub fn step(&mut self) -> StepStats {
        let mut out = StepStats::default();
        match self {
            Sim::Hand(s) => {
                let (v, b) = s.step(ExecMode::Fast);
                out.add(&v, true);
                out.add(&b, false);
            }
            Sim::Gen(s) => {
                let (v, b) = s.step(ExecMode::Fast);
                out.add(&v, true);
                out.add(&b, false);
            }
            Sim::Shard(s) => {
                for (v, b) in s.step(ExecMode::Fast) {
                    out.add(&v, true);
                    if let Some(b) = b {
                        out.add(&b, false);
                    }
                }
            }
        }
        out
    }

    pub fn sample(&self, p: Pos) -> f64 {
        match self {
            Sim::Hand(s) => s.sample(p.0, p.1, p.2),
            Sim::Gen(s) => s.sample(p.0, p.1, p.2),
            Sim::Shard(s) => s.sample(p.0, p.1, p.2),
        }
    }

    /// The `Σ (curr² + prev²) / 2` energy proxy. `LiftSim` exposes no
    /// `prev` read-back, so its figure is `Σ curr² / 2`; both are only ever
    /// compared with an earlier reading of the same simulation.
    pub fn energy(&self) -> f64 {
        match self {
            Sim::Hand(s) => s.energy(),
            Sim::Gen(s) => s.read_curr().iter().map(|c| 0.5 * c * c).sum(),
            Sim::Shard(s) => s.energy(),
        }
    }

    /// One extra step in `ExecMode::Model { sample_stride: 1 }`, priced on
    /// the GTX 780 profile. Advances the simulation by one step.
    pub fn model_step(&mut self) -> Modeled {
        let mode = ExecMode::Model { sample_stride: 1 };
        let profile = DeviceProfile::gtx780();
        let pair = |v: &LaunchStats, b: &LaunchStats| {
            let ms = [v, b]
                .iter()
                .map(|s| vgpu::modeled_time_s(&model_input(&[s]), &profile) * 1e3)
                .sum();
            let all = model_input(&[v, b]);
            Modeled { ms, txn_bytes: all.transaction_bytes, flops: all.flops }
        };
        match self {
            Sim::Hand(s) => {
                let (v, b) = s.step(mode);
                pair(&v, &b)
            }
            Sim::Gen(s) => {
                let (v, b) = s.step(mode);
                pair(&v, &b)
            }
            Sim::Shard(s) => {
                let stats = s.step(mode);
                let per_device: Vec<ModelInput> = stats
                    .iter()
                    .map(|(v, b)| match b {
                        Some(b) => model_input(&[v, b]),
                        None => model_input(&[v]),
                    })
                    .collect();
                let ms =
                    vgpu::modeled_sharded_step_s(&per_device, s.halo_bytes_per_step(), &profile)
                        * 1e3;
                Modeled {
                    ms,
                    txn_bytes: per_device.iter().map(|i| i.transaction_bytes).sum(),
                    flops: per_device.iter().map(|i| i.flops).sum(),
                }
            }
        }
    }
}

/// The plain single-threaded native baseline and correctness oracle.
pub struct Reference(ReferenceSim<f32>);

impl Reference {
    pub fn new(setup: SimSetup, src: Pos, amp: f64) -> Reference {
        let mut sim = ReferenceSim::<f32>::new(setup);
        sim.impulse(src.0, src.1, src.2, amp);
        Reference(sim)
    }

    /// `ReferenceSim::impulse_response` over the next `n` steps.
    pub fn impulse_response(&mut self, mic: Pos, n: usize) -> Vec<f64> {
        self.0.impulse_response(mic, n)
    }
}

// ---- probes: layers a step call hides, timed directly ----

/// Uploads the room's index tables to a scratch device, as every `*Sim::new`
/// does; returns the bytes moved.
pub fn upload_room_tables(setup: &SimSetup) -> u64 {
    let mut dev = Device::gtx780();
    let before = counter("vgpu.xfer.to_gpu.bytes");
    dev.upload(BufData::from(setup.room.nbrs.clone()));
    dev.upload(BufData::from(setup.room.boundary_indices.clone()));
    dev.upload(BufData::from(setup.room.material.clone()));
    counter("vgpu.xfer.to_gpu.bytes") - before
}

/// A two-device pair of field buffers with the room's plane size, for
/// timing `vgpu::halo_exchange` on its own.
pub struct HaloProbe {
    devices: Vec<Device>,
    bufs: Vec<vgpu::BufId>,
    part: SlabPartition,
    plane: usize,
}

impl HaloProbe {
    pub fn new(setup: &SimSetup) -> HaloProbe {
        let dims = *setup.dims();
        let part = SlabPartition::balanced(dims.nz, 2);
        let plane = dims.nx * dims.ny;
        let mut devices = vec![Device::gtx780(), Device::gtx780()];
        let bufs = (0..2)
            .map(|d| devices[d].create_buffer_zeroed(ScalarKind::F32, part.local_planes(d) * plane))
            .collect();
        HaloProbe { devices, bufs, part, plane }
    }

    pub fn exchange(&mut self) {
        vgpu::halo_exchange(&mut self.devices, &self.bufs, &self.part, self.plane);
    }
}

/// The per-step argument binding `LiftSim::step` performs, rebuilt from the
/// same public pieces (`runner::bind_args` + `runner::global_size` for the
/// volume and FD-MM kernels).
pub struct BindProbe {
    volume: lift::lower::LoweredKernel,
    boundary: lift::lower::LoweredKernel,
    sizes: HashMap<&'static str, i64>,
}

impl BindProbe {
    pub fn new(setup: &SimSetup) -> BindProbe {
        let real = ScalarKind::F32;
        let d = setup.dims();
        let (nb, nm, mb) = (setup.num_b() as i64, setup.betas.len() as i64, setup.mb.max(1) as i64);
        let sizes = HashMap::from([
            ("Nx", d.nx as i64),
            ("Ny", d.ny as i64),
            ("Nz", d.nz as i64),
            ("N", d.total() as i64),
            ("numB", nb),
            ("NM", nm),
            ("MB", mb),
            ("MBM", nm * mb),
            ("S", mb * nb),
        ]);
        BindProbe {
            volume: programs::volume_program().lower(real).expect("volume lowers"),
            boundary: programs::fdmm_program().lower(real).expect("fdmm lowers"),
            sizes,
        }
    }

    pub fn bind(&self) -> usize {
        let b = vgpu::BufId(0);
        let val = Precision::Single.val(0.5);
        let vbufs = HashMap::from([("curr", b), ("prev", b), ("nbrs", b)]);
        let vargs = runner::bind_args(
            &self.volume,
            &vbufs,
            &HashMap::from([("l2", val)]),
            &self.sizes,
            Some(b),
        );
        let vglobal = runner::global_size(&self.volume, &self.sizes);
        let names = [
            "boundaryIndices",
            "bnbrs",
            "material",
            "beta",
            "next",
            "prev",
            "BI",
            "D",
            "DI",
            "F",
            "g1",
            "v1",
            "v2",
        ];
        let bbufs: HashMap<&str, vgpu::BufId> = names.iter().map(|n| (*n, b)).collect();
        let bargs = runner::bind_args(
            &self.boundary,
            &bbufs,
            &HashMap::from([("l", val)]),
            &self.sizes,
            None,
        );
        let bglobal = runner::global_size(&self.boundary, &self.sizes);
        vargs.len() + vglobal.len() + bargs.len() + bglobal.len()
    }
}

/// A warm `vgpu::compile_cached` lookup of the hand-written volume kernel
/// (resolve + fingerprint + map hit), as every batch job performs.
pub fn artifact_lookup() {
    let k = handwritten::volume_kernel().resolve_real(ScalarKind::F32);
    std::hint::black_box(vgpu::compile_cached(&k).expect("volume kernel compiles"));
}

/// `verify::run_suite(&verify::suite())`; returns (kernels, kernels proven).
pub fn verify_suite() -> (usize, usize) {
    let reports = verify::run_suite(&verify::suite());
    (reports.len(), reports.iter().filter(|r| r.is_proven()).count())
}

// ---- batch ----

/// `ScenarioGen::new(seed).take(n)`.
pub fn scenarios(seed: u64, n: usize) -> Vec<Scenario> {
    ScenarioGen::new(seed).take(n)
}

/// The job a set-up sends through a fresh executor: the same room whatever
/// the seed, so set-up time does not depend on which scenario comes first.
pub fn probe_scenario() -> Scenario {
    ScenarioGen::new(0).next_scenario()
}

/// `BatchExecutor::new(BatchConfig::default())`.
pub fn start_executor() -> BatchExecutor {
    BatchExecutor::new(BatchConfig::default())
}

/// What the bench reads from a `JobResult`; all-default for a failed job.
#[derive(Default)]
pub struct JobReport {
    pub ok: bool,
    pub verifier_clean: bool,
    /// `JobOutput.wall_ms`: the job's step loop.
    pub wall_ms: f64,
    pub launches: usize,
    pub impulse_response: Vec<f64>,
    pub energy: f64,
}

/// `submit(..).wait()`.
pub fn run_job(exec: &BatchExecutor, sc: Scenario) -> JobReport {
    match exec.submit(sc).wait().outcome {
        Ok(o) => JobReport {
            ok: true,
            verifier_clean: o.verifier_clean,
            wall_ms: o.wall_ms,
            launches: o.launches,
            impulse_response: o.impulse_response,
            energy: o.energy,
        },
        Err(_) => JobReport::default(),
    }
}

/// The scenario's impulse response on the native reference, at the
/// scenario's own precision.
pub fn reference_response(sc: &Scenario) -> Vec<f64> {
    fn response<T: Real>(sc: &Scenario) -> Vec<f64> {
        let mut sim = ReferenceSim::<T>::new(SimSetup::new(&sc.config()));
        let (x, y, z) = sc.source;
        sim.impulse(x, y, z, sc.amp);
        sim.impulse_response(sc.mic, sc.steps)
    }
    match sc.precision {
        Precision::Single => response::<f32>(sc),
        Precision::Double => response::<f64>(sc),
    }
}

/// The stages of one batch job, in the order `batch::executor::run_sim`
/// makes them, for the inline traced replay.
pub struct InlineJob {
    sc: Scenario,
    setup: Option<SimSetup>,
    sim: Option<HandwrittenSim>,
}

impl InlineJob {
    pub fn new(sc: &Scenario) -> InlineJob {
        InlineJob { sc: sc.clone(), setup: None, sim: None }
    }

    pub fn steps(&self) -> usize {
        self.sc.steps
    }

    pub fn build_room(&mut self) {
        self.setup = Some(SimSetup::new(&self.sc.config()));
    }

    /// The two `compile_cached` lookups and `verify_cached` verdicts.
    pub fn artifacts(&self) -> bool {
        let real = self.sc.precision.kind();
        let boundary = match self.sc.boundary_kernel() {
            BoundaryKernel::FiMm { beta_constant } => handwritten::fimm_kernel(beta_constant),
            BoundaryKernel::FdMm => handwritten::fdmm_kernel(),
        };
        [handwritten::volume_kernel(), boundary].iter().all(|k| {
            let prep = vgpu::compile_cached(&k.resolve_real(real)).expect("kernel compiles");
            vgpu::verify_cached(&prep).is_none_or(|r| r.is_clean())
        })
    }

    pub fn sim_new(&mut self) {
        let setup = self.setup.take().expect("build_room first");
        self.sim = Some(HandwrittenSim::new(
            setup,
            self.sc.precision,
            self.sc.boundary_kernel(),
            Device::gtx780(),
        ));
    }

    pub fn impulse(&mut self) {
        let (x, y, z) = self.sc.source;
        self.sim.as_mut().expect("sim_new first").impulse(x, y, z, self.sc.amp);
    }

    pub fn step(&mut self) -> StepStats {
        let (v, b) = self.sim.as_mut().expect("sim_new first").step(ExecMode::Fast);
        let mut out = StepStats::default();
        out.add(&v, true);
        out.add(&b, false);
        out
    }

    pub fn sample(&self) -> f64 {
        let (x, y, z) = self.sc.mic;
        self.sim.as_ref().expect("sim_new first").sample(x, y, z)
    }
}

// ---- compile pipeline ----

/// One kernel of the compile sweep.
pub enum KernelSource {
    /// A LIFT program, built fresh each sweep by index into `all_programs()`.
    Generated(usize),
    /// A hand-written kernel AST, by index into `all_kernels()`.
    Hand(usize),
}

/// One (kernel, precision) case.
pub struct CompileCase {
    pub source: KernelSource,
    pub real: ScalarKind,
}

/// Every `all_programs()` and `all_kernels()` entry at f32 and f64.
pub fn compile_cases() -> Vec<CompileCase> {
    let mut out = Vec::new();
    for real in [ScalarKind::F32, ScalarKind::F64] {
        out.extend(
            (0..programs::all_programs().len())
                .map(|i| CompileCase { source: KernelSource::Generated(i), real }),
        );
        out.extend(
            (0..handwritten::all_kernels().len())
                .map(|i| CompileCase { source: KernelSource::Hand(i), real }),
        );
    }
    out
}

/// Construction of the source forms: `all_programs()` + `all_kernels()`.
pub struct Sources {
    pub programs: Vec<Program>,
    pub kernels: Vec<Kernel>,
}

pub fn build_sources() -> Sources {
    Sources { programs: programs::all_programs(), kernels: handwritten::all_kernels() }
}

/// Outcome of one kernel through the pipeline.
#[derive(Default)]
pub struct CompileOutcome {
    pub ok: bool,
    pub opencl_bytes: usize,
    pub sites_proven: usize,
    pub sites_potential: usize,
}

/// One kernel through the uncached pipeline entry points, one span per
/// stage.
///
/// Generated: `typecheck::check` → `lower_kernel` → `opencl::emit_kernel` →
/// `exec::prepare` → `verify_kernel` (under `launch_assumptions`) →
/// `verify_prepared`. Hand-written: `prepare` → `verify_kernel` (under
/// `launch_contract`) → `verify_prepared`.
pub fn compile_one(src: &Sources, case: &CompileCase, tr: &mut Tracer) -> CompileOutcome {
    let mut out = CompileOutcome::default();
    let (kernel, asm) = match case.source {
        KernelSource::Generated(i) => {
            let p = &src.programs[i];
            if tr.scope("typecheck", |_| lift::typecheck::check(&p.body)).is_err() {
                return out;
            }
            let Ok(lowered) = tr.scope("lower", |_| p.lower(case.real)) else {
                return out;
            };
            out.opencl_bytes =
                tr.scope("emit_opencl", |_| lift::opencl::emit_kernel(&lowered.kernel)).len();
            let asm = tr.scope("launch_assumptions", |_| programs::launch_assumptions(p, &lowered));
            (lowered.kernel, asm)
        }
        KernelSource::Hand(i) => {
            let k = &src.kernels[i];
            let asm = tr.scope("launch_contract", |_| contracts::launch_contract(k));
            (tr.scope("resolve_real", |_| k.resolve_real(case.real)), asm)
        }
    };
    let Ok(prep) = tr.scope("prepare", |_| vgpu::exec::prepare(&kernel)) else {
        return out;
    };
    let (report, (proven, potential)) = tr.scope("verify_kernel", |_| {
        let report = lift::verify::verify_kernel(&kernel, &asm);
        let counts = report.proof_table().counts();
        (report, counts)
    });
    out.sites_proven = proven;
    out.sites_potential = potential;
    let tape_clean =
        tr.scope("verify_tape", |_| vgpu::verify_prepared(&prep)).is_none_or(|t| t.is_clean());
    out.ok = report.is_proven() && potential == 0 && tape_clean;
    out
}

/// `fimm_step_host_program` → `emit_host_c` → `check_host_init`; returns
/// (clean, bytes of host C).
pub fn compile_host(tr: &mut Tracer) -> (bool, usize) {
    let Ok(prog) = tr.scope("host_compile", |_| {
        lift_acoustics::hostprog::fimm_step_host_program(ScalarKind::F32)
    }) else {
        return (false, 0);
    };
    let c = tr.scope("host_emit", |_| lift::host::emit_host_c(&prog));
    let uninit = tr.scope("host_check", |_| lift::footprint::check_host_init(&prog));
    (uninit.is_empty(), c.len())
}

// ---- counters ----

/// Current value of an always-on `vgpu::telemetry::registry()` counter.
pub fn counter(name: &str) -> u64 {
    vgpu::telemetry::registry().counter(name).get()
}

/// Sum of the three engine-fallback counters; must never move.
pub fn fallbacks() -> u64 {
    ["vgpu.tape.fallbacks", "vgpu.vector.fallbacks", "vgpu.compiled.fallbacks"]
        .iter()
        .map(|n| counter(n))
        .sum()
}
