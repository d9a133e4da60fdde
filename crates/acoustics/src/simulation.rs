//! The simulation front end on the virtual GPU (DESIGN.md §7).
//!
//! One [`Simulation`] runs the paper's host loop for every kernel family and
//! every placement:
//!
//! * the **step** is a Listing 5 host program. Every [`KernelSource`] — the
//!   hand-written kernels of [`crate::handwritten`], the LIFT-generated ones
//!   of the `lift-acoustics` crate — yields one, compiled once per process.
//!   The simulation takes from it the launch list, each launch's argument
//!   bindings and the slot each output lands in, and runs it resident: its
//!   transfers are hoisted out of the time loop (a `ToGPU` is an upload at
//!   construction, the `ToHost` is [`Simulation::read_curr`]). The one name
//!   table of this module says what each host input is;
//! * the **placement** is one slab per [`Device`]: one device holds the
//!   whole grid with no halo planes, several hold contiguous Z-slabs with
//!   one halo plane on either side, exchanged before every grid launch
//!   (DESIGN.md §12).
//!
//! A slab allocates and uploads only the inputs its step program names.
//! Host-transfer *byte* totals do not depend on the device count: owned
//! planes move through accounted region transfers, replicated tables are
//! accounted once (replicas under `vgpu.halo.replicate.*`), and halo
//! traffic under `vgpu.halo.*` — never `vgpu.xfer.*`.

use crate::contracts;
use crate::geometry::GridDims;
use crate::handwritten;
use crate::partition::checked_boundary_cuts;
use crate::reference::FdArrays;
use crate::sim::{field_energy, SimSetup};
use lift::arith::ArithExpr;
use lift::host::{self, HostCmd, HostExpr, HostProgram, KernelDef, LaunchArg};
use lift::ir::ParamDef;
use lift::kast::Kernel;
use lift::lower::LowerError;
use lift::prelude::{ScalarKind, Value};
use lift::types::Type;
use lift::verify::Assumptions;
use std::collections::HashMap;
use std::fmt;
use std::ops::{Deref, DerefMut, RangeInclusive};
use std::sync::{Arc, Mutex, OnceLock};
use vgpu::exec::WARP;
use vgpu::telemetry::HOST_TRACK;
use vgpu::{Arg, BufData, BufId, Device, ExecMode, HostEnv, LaunchStats, Prepared, SlabPartition};

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

/// What a host input of a step program is to the front end. Buffers first,
/// in allocation order; then the real scalars.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Role {
    // The pressure fields rotate each step; `curr`'s seam planes are
    // halo-exchanged.
    Prev,
    Curr,
    Next,
    Nbrs,
    /// Grid index of each boundary point, in the slab's local coordinates.
    BoundaryIndices,
    /// `nbrs` gathered at the boundary points.
    BoundaryNbrs,
    Material,
    Beta,
    // FD-MM coefficient tables.
    Bi,
    D,
    Di,
    F,
    // FD-MM branch state: `v1` is written this step and swaps with `v2`.
    G1,
    V1,
    V2,
    L,
    L2,
    /// The one β of a uniform-FI kernel.
    BetaScalar,
}

/// The sizes a launch may bind, in the order a slab computes them.
const SIZES: [&str; 9] = ["Nx", "Ny", "Nz", "N", "numB", "NM", "MB", "MBM", "S"];

/// A step's period in buffer rotations: `next → curr → prev` repeats every
/// 3 steps, `v1 ↔ v2` every 2.
const PHASES: usize = 6;

impl Role {
    const COUNT: usize = Role::BetaScalar as usize + 1;
    const BUFFERS: RangeInclusive<Role> = Role::Prev..=Role::V2;
    const SCALARS: RangeInclusive<Role> = Role::L..=Role::BetaScalar;

    /// The step vocabulary, in `Role` order: each host input a step program
    /// may name, with an array's length. Arrays (`_h`) move to the device
    /// once, at construction — the loop-carried ones (`prev curr next g1 v1
    /// v2`) start zeroed and take their data through
    /// [`Simulation::impulse`]; scalars pass by value.
    const TABLE: [(&'static str, Role, &'static str); Role::COUNT] = [
        ("prev_h", Role::Prev, "N"),
        ("curr_h", Role::Curr, "N"),
        ("next_h", Role::Next, "N"),
        ("nbrs_h", Role::Nbrs, "N"),
        ("boundaries_h", Role::BoundaryIndices, "numB"),
        ("bnbrs_h", Role::BoundaryNbrs, "numB"),
        ("material_h", Role::Material, "numB"),
        ("beta_h", Role::Beta, "NM"),
        ("BI_h", Role::Bi, "MBM"),
        ("D_h", Role::D, "MBM"),
        ("DI_h", Role::Di, "MBM"),
        ("F_h", Role::F, "MBM"),
        ("g1_h", Role::G1, "S"),
        ("v1_h", Role::V1, "S"),
        ("v2_h", Role::V2, "S"),
        ("l", Role::L, ""),
        ("l2", Role::L2, ""),
        ("beta", Role::BetaScalar, ""),
    ];

    /// The role called `name` among `class`.
    fn of(name: &str, class: &RangeInclusive<Role>) -> Option<Role> {
        Role::TABLE.iter().find(|(n, r, _)| *n == name && class.contains(r)).map(|&(_, r, _)| r)
    }

    /// The role whose phase-0 buffer this one binds `phase` steps later.
    fn rotated(self, phase: usize) -> Role {
        use Role::*;
        match self {
            Prev | Curr | Next => [Prev, Curr, Next][(self as usize + phase) % 3],
            V1 | V2 => [V1, V2][(self as usize - V1 as usize + phase) % 2],
            fixed => fixed,
        }
    }
}

/// The host input `name` of the step vocabulary as an `OclKernel` argument:
/// an array crosses with `ToGPU`, a scalar passes by value.
///
/// # Panics
/// On a name outside the vocabulary.
pub fn step_input(name: &str) -> HostExpr {
    let entry = Role::TABLE.iter().find(|(n, ..)| *n == name);
    let (_, role, len) = entry.unwrap_or_else(|| panic!("`{name}` is not a step input"));
    if len.is_empty() {
        return host::input(&ParamDef::typed(name, Type::real()));
    }
    let elem =
        if (Role::Nbrs..=Role::Material).contains(role) { Type::i32() } else { Type::real() };
    host::to_gpu(host::input(&ParamDef::typed(name, Type::array(elem, *len))))
}

/// Why a [`Simulation`], or the [`SimSetup`] it runs, could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The device list is empty.
    NoDevices,
    /// More devices than z-planes: some slab would own nothing.
    TooManyDevices {
        /// Devices requested.
        devices: usize,
        /// Planes in the grid.
        nz: usize,
    },
    /// A caller-built partition whose slab count is not the number of
    /// devices given, or whose planes are not the grid's.
    PartitionMismatch {
        /// Slabs in the partition.
        slabs: usize,
        /// Devices given.
        devices: usize,
        /// Planes the partition covers.
        planes: usize,
        /// Planes in the grid.
        nz: usize,
    },
    /// A grid side shorter than 3 cells: no cell is interior.
    NoInterior {
        /// Cells along x.
        nx: usize,
        /// Cells along y.
        ny: usize,
        /// Cells along z.
        nz: usize,
    },
    /// The kernel set names FD-MM tables or state but the setup has no
    /// FD-MM coefficients.
    MissingFdCoefficients,
    /// A launch binds a host input or size outside the vocabulary the front
    /// end provides (`prev_h curr_h next_h nbrs_h boundaries_h bnbrs_h
    /// material_h beta_h BI_h D_h DI_h F_h g1_h v1_h v2_h`, `l l2 beta`,
    /// `Nx Ny Nz N numB NM MB MBM S`).
    UnknownKernelParam {
        /// Kernel name.
        kernel: String,
        /// Host input or size name.
        name: String,
    },
    /// The kernel set's host program is not a step: one grid launch,
    /// optionally followed by one boundary-list launch.
    NotAStep(String),
    /// A kernel cannot be placed on a slab: its proven z-reach does not fit
    /// the one exchanged halo plane, or it takes the room's walls from its
    /// coordinates instead of from `nbrs`.
    HaloProof(String),
    /// The room assigns more materials than the boundary model defines.
    UndefinedMaterials {
        /// Materials the assignment uses.
        assigned: usize,
        /// Materials the model defines.
        defined: usize,
    },
    /// A striped material assignment over no materials.
    NoMaterials,
    /// FD-MM with no branch per material (`mb == 0`).
    NoBranches,
    /// A material that can add energy: a negative (or NaN) admittance, or a
    /// branch that is not passive (`a > 0`, `b ≥ 0`, `c ≥ 0`).
    NonPassive(String),
    /// `nbrs` is positive on a cell of the grid's outer shell, against the
    /// fact grid kernels are compiled under ([`contracts::interior_mask_facts`]).
    MaskOnHalo {
        /// The cell.
        x: usize,
        /// The cell.
        y: usize,
        /// The cell.
        z: usize,
    },
    /// A launch binds one buffer to two parameters of a kernel compiled
    /// under distinct buffers ([`Assumptions::distinct_buffers`]).
    AliasedBuffers {
        /// Kernel name.
        kernel: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NoDevices => write!(f, "a simulation needs at least one device"),
            SimError::TooManyDevices { devices, nz } => {
                write!(f, "cannot give {devices} devices at least one of {nz} z-planes each")
            }
            SimError::PartitionMismatch { slabs, devices, planes, nz } => write!(
                f,
                "a partition of {slabs} slabs over {planes} planes does not fit \
                 {devices} devices on {nz} planes"
            ),
            SimError::NoInterior { nx, ny, nz } => {
                write!(f, "a {nx}×{ny}×{nz} grid has no interior: every side needs 3 cells")
            }
            SimError::MissingFdCoefficients => {
                write!(f, "the kernel set is FD-MM but the setup has no FD-MM coefficients")
            }
            SimError::UnknownKernelParam { kernel, name } => {
                write!(f, "kernel `{kernel}`: no binding for parameter `{name}`")
            }
            SimError::NotAStep(e) => write!(f, "not a step program: {e}"),
            SimError::HaloProof(e) => write!(f, "halo proof failed: {e}"),
            SimError::UndefinedMaterials { assigned, defined } => {
                write!(f, "room assigns {assigned} materials but only {defined} defined")
            }
            SimError::NoMaterials => write!(f, "a striped assignment needs at least one material"),
            SimError::NoBranches => write!(f, "FD-MM needs at least one branch per material"),
            SimError::NonPassive(e) => write!(f, "not passive: {e}"),
            SimError::MaskOnHalo { x, y, z } => write!(f, "`nbrs` > 0 on halo cell {x}, {y}, {z}"),
            SimError::AliasedBuffers { kernel } => {
                write!(f, "kernel `{kernel}` is compiled for distinct buffers but binds one twice")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// One kernel of a step, ready to launch: the kernel, the contract every
/// launch satisfies, and its NDRange.
#[derive(Debug)]
pub struct StepKernel {
    /// The kernel AST at a concrete precision.
    pub kernel: Kernel,
    /// The launch contract ([`contracts::launch_contract`] or the generated
    /// kernel's `launch_assumptions`) the kernel is compiled under.
    pub contract: Assumptions,
    /// Global size per dimension over the size vocabulary; evaluated per
    /// slab with `Nz` and `numB` standing for the *owned* planes and
    /// boundary points (the launched range), not the allocation's.
    pub global: Vec<ArithExpr>,
    prepared: OnceLock<Arc<Prepared>>,
    /// The proven z-reach on the grid buffers ([`contracts::grid_halo`]).
    halo: OnceLock<Result<(usize, usize), String>>,
    /// This kernel placed on a Z-slab ([`StepKernel::slab_placed`]).
    slab: OnceLock<Arc<StepKernel>>,
}

impl StepKernel {
    fn new(kernel: Kernel, contract: Assumptions, global: Vec<ArithExpr>) -> StepKernel {
        let (prepared, halo, slab) = (OnceLock::new(), OnceLock::new(), OnceLock::new());
        StepKernel { kernel, contract, global, prepared, halo, slab }
    }

    /// This grid kernel placed for a Z-slab with one halo plane on either
    /// side ([`contracts::slab_placed`]): same parameters and NDRange (`Nz`
    /// there stands for the owned planes), built once per kernel — so shared
    /// kernels share their slab form and its artifact too.
    pub fn slab_placed(&self) -> Arc<StepKernel> {
        let place = || {
            let (kernel, contract) = contracts::slab_placed(&self.kernel, &self.contract);
            Arc::new(StepKernel::new(kernel, contract, self.global.clone()))
        };
        self.slab.get_or_init(place).clone()
    }

    /// The kernel compiled under its contract, on first use: a kernel the
    /// placement never launches is never compiled. The executor turns every
    /// i32 argument into an equality, so an alias define over one (`S :=
    /// MB·numB`) is redundant — and, left in, leaves ranges half-substituted.
    pub fn prepared(&self) -> &Prepared {
        self.prepared.get_or_init(|| {
            let mut contract = self.contract.clone();
            contract.defines.retain(|(n, _)| self.kernel.params.iter().all(|p| &p.name != n));
            vgpu::compile_cached_under(&self.kernel, &contract)
                .unwrap_or_else(|e| panic!("kernel `{}` does not prepare: {e:?}", self.kernel.name))
        })
    }

    /// The kernel's z-reach (proven once per kernel), checked against the
    /// `halo` planes a slab provides on either side.
    fn slab_reach(&self, halo: usize) -> Result<(usize, usize), SimError> {
        let proof = || contracts::grid_halo(&self.kernel, &self.contract);
        let fits = |r| contracts::check_slab_halo(&self.kernel.name, r, (halo, halo));
        self.halo.get_or_init(proof).clone().and_then(fits).map_err(SimError::HaloProof)
    }
}

/// A kernel set's step as [`Simulation`] runs it, read off its Listing 5
/// [`HostProgram`]: the launches in queue order (a grid launch, then at most
/// one boundary-list launch) with their bindings, and the role of every
/// device slot and scalar input they bind.
struct StepProgram {
    launches: Vec<(Arc<StepKernel>, Vec<LaunchArg>)>,
    slots: Vec<(String, Role)>,
    scalars: Vec<(String, Role)>,
}

impl StepProgram {
    fn new(host: HostProgram) -> Result<StepProgram, SimError> {
        // A slot plays its host input's role; the one allocated is the
        // volume pass's output, `next`.
        let role_of = |slot: &str| {
            let role = host.cmds.iter().find_map(|c| match c {
                HostCmd::CopyIn { host, dev, .. } if dev == slot => {
                    Some(Role::of(host, &Role::BUFFERS).ok_or(host.as_str()))
                }
                HostCmd::Alloc { dev, .. } if dev == slot => Some(Ok(Role::Next)),
                _ => None,
            });
            role.expect("a launch binds a declared slot")
        };
        let (mut launches, mut slots, mut scalars) = (Vec::new(), Vec::new(), Vec::new());
        for cmd in &host.cmds {
            let HostCmd::Launch { kernel, args, global_size } = cmd else { continue };
            let k = &host.kernels[*kernel];
            let unknown = |name: &str| SimError::UnknownKernelParam {
                kernel: k.kernel.name.clone(),
                name: name.into(),
            };
            for a in args {
                match a {
                    LaunchArg::Buf(s) => slots.push((s.clone(), role_of(s).map_err(unknown)?)),
                    LaunchArg::ScalarInput(n) => scalars
                        .push((n.clone(), Role::of(n, &Role::SCALARS).ok_or_else(|| unknown(n))?)),
                    LaunchArg::SizeVar(n) if !SIZES.contains(&n.as_str()) => Err(unknown(n))?,
                    LaunchArg::SizeVar(_) => {}
                }
            }
            let step = StepKernel::new(k.kernel.clone(), k.contract.clone(), global_size.clone());
            launches.push((Arc::new(step), args.clone()));
        }
        let work_dims: Vec<u8> = launches.iter().map(|(k, _)| k.kernel.work_dim).collect();
        if !matches!(work_dims[..], [3] | [3, 1]) {
            let why = format!("launch dimensions {work_dims:?}, not [3] or [3, 1]");
            return Err(SimError::NotAStep(why));
        }
        Ok(StepProgram { launches, slots, scalars })
    }

    /// `source`'s step at precision `real`, compiled on first request and
    /// shared by every simulation of the process from then on. Programs
    /// that launch one kernel under one contract and NDRange share one
    /// [`StepKernel`] — its artifact with its proofs, its slab form and its
    /// halo proof — so each kernel is compiled once per process.
    fn shared(source: &impl KernelSource, real: ScalarKind) -> Result<Arc<StepProgram>, SimError> {
        #[derive(Default)]
        struct Cache {
            programs: HashMap<(&'static str, ScalarKind), Arc<StepProgram>>,
            kernels: Vec<Arc<StepKernel>>,
        }
        static CACHE: OnceLock<Mutex<Cache>> = OnceLock::new();
        let cache = || CACHE.get_or_init(Default::default).lock().expect("no panic under the lock");
        let key = (source.name(), real);
        if let Some(hit) = cache().programs.get(&key) {
            return Ok(hit.clone());
        }
        // Compile outside the lock; when two threads race the first insert
        // wins, so every simulation still shares one program.
        let host = source.host_program(real);
        let mut program = StepProgram::new(
            host.unwrap_or_else(|e| panic!("kernel set `{}` does not compile: {e}", key.0)),
        )?;
        let mut cache = cache();
        if let Some(hit) = cache.programs.get(&key) {
            return Ok(hit.clone());
        }
        let text = |c: &Assumptions| format!("{c:?}");
        for (kernel, _) in &mut program.launches {
            let same = |k: &&Arc<StepKernel>| {
                (&k.kernel, &k.global, text(&k.contract))
                    == (&kernel.kernel, &kernel.global, text(&kernel.contract))
            };
            match cache.kernels.iter().find(same) {
                Some(k) => *kernel = k.clone(),
                None => cache.kernels.push(kernel.clone()),
            }
        }
        Ok(cache.programs.entry(key).or_insert(Arc::new(program)).clone())
    }

    /// Whether `args` bind the slot of `role`.
    fn binds(&self, args: &[LaunchArg], role: Role) -> bool {
        args.iter().any(|a| {
            matches!(a, LaunchArg::Buf(s) if self.slots.iter().any(|(n, r)| n == s && *r == role))
        })
    }
}

/// A kernel set: anything a [`Simulation`] can take its step from.
pub trait KernelSource {
    /// The set's name: its key in the process-wide cache of step programs,
    /// so one name means one set.
    fn name(&self) -> &'static str;

    /// One step as a Listing 5 host program at precision `real`, each
    /// kernel under the contract its launches satisfy. The program's
    /// inputs are the step vocabulary's ([`step_input`]).
    fn host_program(&self, real: ScalarKind) -> Result<HostProgram, LowerError>;
}

impl<K: KernelSource + ?Sized> KernelSource for &K {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn host_program(&self, real: ScalarKind) -> Result<HostProgram, LowerError> {
        (**self).host_program(real)
    }
}

/// Boundary kernel flavour of a hand-written-kernel run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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

/// An `OclKernel` of `kernel` of [`handwritten`] on the host inputs `args`
/// (space-separated): a grid kernel over `[Nx, Ny, Nz]`, a boundary kernel
/// over `[numB]`, under its [`contracts::launch_contract`].
fn hand_launch(kernel: Kernel, args: &str) -> HostExpr {
    let global = if kernel.work_dim == 3 { "Nx Ny Nz" } else { "numB" };
    let global = global.split(' ').map(ArithExpr::var).collect();
    let contract = contracts::launch_contract(&kernel);
    host::ocl_kernel(
        &KernelDef::kast(kernel, global, contract),
        args.split(' ').map(step_input).collect(),
    )
}

impl KernelSource for BoundaryKernel {
    fn name(&self) -> &'static str {
        match self {
            BoundaryKernel::FiMm { beta_constant: false } => "fimm_hand",
            BoundaryKernel::FiMm { beta_constant: true } => "fimm_hand_constant_beta",
            BoundaryKernel::FdMm => "fdmm_hand",
        }
    }

    /// Listing 5 over Listings 2–4: the volume kernel writes `next`, the
    /// boundary kernel corrects it in place, and `next` goes to the host.
    fn host_program(&self, real: ScalarKind) -> Result<HostProgram, LowerError> {
        let boundary = match *self {
            BoundaryKernel::FiMm { beta_constant } => hand_launch(
                handwritten::fimm_kernel(beta_constant),
                "boundaries_h nbrs_h material_h beta_h next_h prev_h l",
            ),
            BoundaryKernel::FdMm => hand_launch(
                handwritten::fdmm_kernel(),
                "boundaries_h nbrs_h material_h beta_h BI_h D_h DI_h F_h next_h prev_h g1_h v1_h v2_h l",
            ),
        };
        let volume = hand_launch(handwritten::volume_kernel(), "next_h curr_h prev_h nbrs_h l2");
        let next = host::host_write_to(step_input("next_h"), volume);
        let step = host::host_let("next_g", next, |next_g| {
            host::to_host(host::host_write_to(next_g, boundary))
        });
        host::compile_host(&step, real)
    }
}

/// Listing 1, the hand-written one-kernel FI simulation, as a kernel set:
/// one uniform β, walls found from coordinates, no boundary pass.
#[derive(Debug, Clone, Copy)]
pub struct HandwrittenFi;

impl KernelSource for HandwrittenFi {
    fn name(&self) -> &'static str {
        "fi_hand"
    }

    fn host_program(&self, real: ScalarKind) -> Result<HostProgram, LowerError> {
        let step = hand_launch(handwritten::fi_single_kernel(), "next_h curr_h prev_h l l2 beta");
        host::compile_host(&host::to_host(host::host_write_to(step_input("next_h"), step)), real)
    }
}

/// Per-step launch statistics: one (volume, boundary) pair per device.
/// Devices that launch no boundary kernel — a one-kernel set, or a slab
/// holding no boundary points — report `None` for it.
pub type ShardStepStats = Vec<(LaunchStats, Option<LaunchStats>)>;

/// Sums counters and transaction bytes across a step's launches, for
/// comparison between device counts.
pub fn sum_step_stats(stats: &ShardStepStats) -> (vgpu::Counters, Option<u64>) {
    let mut c = vgpu::Counters::default();
    let mut txn: Option<u64> = None;
    for s in stats.iter().flat_map(|(v, b)| std::iter::once(v).chain(b)) {
        c.add(&s.counters);
        if let Some(t) = s.transaction_bytes {
            *txn.get_or_insert(0) += t;
        }
    }
    (c, txn)
}

/// A launch as a slab makes it: its global size and, per rotation phase,
/// its bound arguments.
type SlabLaunch = (Vec<usize>, Vec<Vec<Arg>>);

/// One device's share of the grid: the global `planes` it owns, allocated
/// with `halo` extra planes on either side.
struct Slab {
    halo: usize,
    planes: std::ops::Range<usize>,
    /// The buffer of each buffer role at phase 0; `None` for roles the step
    /// program does not name and, without boundary points, for per-point
    /// lists and state.
    bufs: [Option<BufId>; Role::V2 as usize + 1],
    /// Per launch of the step; `None` for a list launch on a slab without
    /// boundary points.
    launches: Vec<Option<SlabLaunch>>,
}

impl Slab {
    fn buf(&self, role: Role, phase: usize) -> BufId {
        let buf = self.bufs[role.rotated(phase) as usize];
        buf.unwrap_or_else(|| panic!("no kernel of this simulation names {role:?}"))
    }

    /// The exterior-zero fact of grid launch `k`, checked before it runs on
    /// a sanitizing runtime: every output its contract marks
    /// ([`contracts::exterior_zero_facts`]) holds `+0` on the slab's owned
    /// cells whose `nbrs` is not positive — the cells its work-items index.
    /// The interior-mask fact beside it is checked once, when the
    /// simulation is built (`SimError::MaskOnHalo`). Panics naming the first
    /// cell that breaks it.
    fn check_exterior_zero(&self, dev: &Device, k: &StepKernel, phase: usize, setup: &SimSetup) {
        let Some((_, args)) = &self.launches[0] else { return };
        let dims = setup.dims();
        let plane = dims.nx * dims.ny;
        let (start, owned) = (self.planes.start * plane, self.planes.len() * plane);
        for (p, arg) in k.kernel.params.iter().zip(&args[phase]) {
            let marked = k.contract.buffers.get(&p.name).is_some_and(|f| f.exterior_zero);
            let Arg::Buf(buf) = arg else { continue };
            if !marked {
                continue;
            }
            let data = dev.peek_region(*buf, self.halo * plane, owned).to_f64_vec();
            let nbrs = &setup.room.nbrs[start..start + owned];
            let bad = data.iter().zip(nbrs).position(|(v, &n)| n <= 0 && v.to_bits() != 0);
            if let Some(i) = bad {
                let (x, y, z) = dims.coords(start + i);
                panic!(
                    "exterior-zero fact broken: `{}` of `{}` holds {} at exterior cell \
                     ({x}, {y}, {z}) before the launch",
                    p.name, k.kernel.name, data[i]
                );
            }
        }
    }

    /// Launch `i` of the step at rotation `phase`, unless this slab skips it.
    fn launch(
        &self,
        dev: &mut Device,
        k: &StepKernel,
        i: usize,
        phase: usize,
        mode: ExecMode,
    ) -> Option<LaunchStats> {
        let (global, args) = self.launches.get(i)?.as_ref()?;
        let stats = dev.launch(k.prepared(), &args[phase], global, mode);
        Some(stats.unwrap_or_else(|e| panic!("`{}` launch: {e:?}", k.kernel.name)))
    }
}

/// A room-acoustics simulation on one or more virtual GPUs.
pub struct Simulation {
    /// The devices, slab order (exposed for telemetry/profiling inspection).
    pub devices: Vec<Device>,
    setup: SimSetup,
    precision: Precision,
    part: SlabPartition,
    plane: usize,
    /// The step's kernels in launch order, as placed.
    kernels: Vec<Arc<StepKernel>>,
    slabs: Vec<Slab>,
    /// The rotation phase of the next step.
    phase: usize,
}

impl Simulation {
    /// Builds a simulation over a balanced Z-slab partition across
    /// `devices` (one device: the whole grid, no halo).
    pub fn try_new(
        setup: SimSetup,
        precision: Precision,
        source: impl KernelSource,
        devices: Vec<Device>,
    ) -> Result<Simulation, SimError> {
        let nz = setup.dims().nz;
        match devices.len() {
            0 => Err(SimError::NoDevices),
            n if n > nz => Err(SimError::TooManyDevices { devices: n, nz }),
            n => {
                let part = SlabPartition::balanced(nz, n);
                Self::try_with_partition(setup, precision, source, devices, part)
            }
        }
    }

    /// [`Simulation::try_new`], panicking with the error's message.
    pub fn new(
        setup: SimSetup,
        precision: Precision,
        source: impl KernelSource,
        devices: Vec<Device>,
    ) -> Simulation {
        Self::try_new(setup, precision, source, devices).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a simulation over an explicit partition, one device per slab.
    pub fn try_with_partition(
        setup: SimSetup,
        precision: Precision,
        source: impl KernelSource,
        mut devices: Vec<Device>,
        part: SlabPartition,
    ) -> Result<Simulation, SimError> {
        let (slabs, planes, nz) = (part.device_count(), part.nz(), setup.dims().nz);
        if devices.is_empty() {
            return Err(SimError::NoDevices);
        }
        if slabs != devices.len() || planes != nz {
            return Err(SimError::PartitionMismatch { slabs, devices: devices.len(), planes, nz });
        }
        let rt = Arc::clone(devices[0].runtime());
        let _span = rt.trace.span(HOST_TRACK, "Simulation::new");
        let real = precision.kind();
        let dims = *setup.dims();
        if let Some((x, y, z)) = mask_on_halo(&setup.room.nbrs, dims) {
            return Err(SimError::MaskOnHalo { x, y, z });
        }
        let plane = dims.nx * dims.ny;
        let nb = setup.num_b();
        let halo = usize::from(devices.len() > 1);
        let program = StepProgram::shared(&source, real)?;
        let mut named = [false; Role::COUNT];
        program.slots.iter().chain(&program.scalars).for_each(|&(_, r)| named[r as usize] = true);
        // A rotation moves every buffer of its cycle: name one, name all.
        for cycle in [&[Role::Prev, Role::Curr, Role::Next][..], &[Role::V1, Role::V2]] {
            if cycle.iter().any(|&r| named[r as usize]) {
                cycle.iter().for_each(|&r| named[r as usize] = true);
            }
        }
        let names = |r: Role| named[r as usize];

        // Grid launches go on slabs. A slab's walls are where its `nbrs`
        // planes say: a kernel that takes them from its coordinates against
        // `Nz` (Listing 1's hand-written one-kernel FI) would find one at
        // every seam.
        let kernels = program.launches.iter().map(|(k, args)| match k.kernel.work_dim {
            _ if halo == 0 => Ok(k.clone()),
            3 if !program.binds(args, Role::Nbrs) => Err(SimError::HaloProof(format!(
                "kernel `{}` takes the room's walls from its coordinates, not from `nbrs`: \
                 a slab would move them",
                k.kernel.name
            ))),
            3 => Ok(k.slab_placed()),
            _ => Ok(k.clone()),
        });
        let kernels = kernels.collect::<Result<Vec<_>, _>>()?;

        // The slab layout exchanges one plane per side, so with several
        // devices every grid kernel's proven z-reach must fit one plane and
        // every boundary point's footprint must stay inside its slab's
        // coverage — checked here instead of reading stale halo data later.
        let bcuts = if halo == 0 {
            vec![0, nb]
        } else {
            let mut reach = (0, 0);
            for k in &kernels {
                let (lo, hi) = k.slab_reach(halo)?;
                if k.kernel.work_dim == 1 {
                    reach = (reach.0.max(lo), reach.1.max(hi));
                }
            }
            checked_boundary_cuts(&part, plane, &setup.room.boundary_indices, reach, (halo, halo))
                .map_err(SimError::HaloProof)?
        };

        let names_fd = (Role::Bi as usize..=Role::V2 as usize).any(|r| named[r]);
        let fa: Option<FdArrays<f64>> = match (names_fd, &setup.fd) {
            (false, _) => None,
            (true, Some(c)) => Some(FdArrays::from_coeffs(c)),
            (true, None) => return Err(SimError::MissingFdCoefficients),
        };
        let fd = || fa.as_ref().expect("FD inputs are named only with coefficients present");
        let bnbrs = names(Role::BoundaryNbrs).then(|| setup.room.boundary_nbrs());
        let (nm, mb) = (setup.betas.len(), setup.mb.max(1));

        let mut slabs = Vec::with_capacity(devices.len());
        for (d, dev) in devices.iter_mut().enumerate() {
            let (first, owned) = (part.first_owned(d), part.owned(d));
            let local_planes = owned + 2 * halo;
            let local = local_planes * plane;
            let (cb, ce) = (bcuts[d], bcuts[d + 1]);
            let num_b = ce - cb;
            // FD-MM state is indexed `b·numB + i`: a slab passes a padded
            // stride congruent to the global boundary count modulo the warp
            // width, so state-array lane address patterns match the
            // one-device launch (lanes past `num_b` never run).
            let stride = num_b + (nb - num_b) % WARP;
            let numb_arg = if names(Role::G1) { stride } else { num_b };
            // β and the FD-MM tables are replicated: accounted once on
            // device 0, replicas under vgpu.halo.replicate.*.
            let replicated = |dev: &mut Device, table: &[f64]| {
                let data = precision.buf(table);
                if d == 0 {
                    dev.upload(data)
                } else {
                    dev.upload_replica(data)
                }
            };
            let per_point =
                |dev: &mut Device, list: &[i32]| dev.upload(BufData::from(list[cb..ce].to_vec()));
            let mut bufs = [None; Role::V2 as usize + 1];
            // Role order is allocation order.
            for &(_, role, _) in &Role::TABLE[..bufs.len()] {
                use Role::*;
                bufs[role as usize] = Some(match role {
                    _ if !names(role) => continue,
                    // A slab without boundary points holds no per-point
                    // lists or state.
                    BoundaryIndices | BoundaryNbrs | Material | G1 | V1 | V2 if num_b == 0 => {
                        continue
                    }
                    Prev | Curr | Next => dev.create_buffer_zeroed(real, local),
                    // The whole table moves in as it is; a slab's owned planes
                    // through an accounted region write (the slices sum to the
                    // whole upload), its halo planes stay zero and unread.
                    Nbrs if halo == 0 => dev.upload(BufData::from(setup.room.nbrs.clone())),
                    Nbrs => {
                        let buf = dev.create_buffer_zeroed(ScalarKind::I32, local);
                        let owned_nbrs = &setup.room.nbrs[first * plane..(first + owned) * plane];
                        dev.write_region(buf, halo * plane, BufData::from(owned_nbrs.to_vec()));
                        buf
                    }
                    BoundaryIndices => {
                        let shift = (first as isize - halo as isize) * plane as isize;
                        let local_bidx: Vec<i32> = setup.room.boundary_indices[cb..ce]
                            .iter()
                            .map(|&i| (i as isize - shift) as i32)
                            .collect();
                        dev.upload(BufData::from(local_bidx))
                    }
                    BoundaryNbrs => per_point(dev, bnbrs.as_ref().expect("gathered when named")),
                    Material => per_point(dev, &setup.room.material),
                    Beta => replicated(dev, &setup.betas),
                    Bi => replicated(dev, &fd().bi),
                    D => replicated(dev, &fd().d),
                    Di => replicated(dev, &fd().di),
                    F => replicated(dev, &fd().f),
                    G1 | V1 | V2 => dev.create_buffer_zeroed(real, mb * stride),
                    _ => unreachable!("buffer roles only"),
                });
            }
            let mut env = HostEnv::new();
            for (name, role) in &program.scalars {
                let v = match role {
                    Role::L => setup.l,
                    Role::L2 => setup.l2,
                    _ => setup.betas[0],
                };
                env = env.scalar(name, precision.val(v));
            }
            // `Nz` and `N` count the slab's allocation (owned + halo planes);
            // `numB` is its boundary points (the FD-MM state stride, padded).
            let sizes =
                [dims.nx, dims.ny, local_planes, local, numb_arg, nm, mb, nm * mb, mb * numb_arg];
            for (name, v) in SIZES.into_iter().zip(sizes) {
                env = env.size(name, v as i64);
            }
            let extent = |name: &str| match name {
                "Nz" => Some(owned as i64),
                "numB" => Some(num_b as i64),
                n => env.sizes.get(n).copied(),
            };
            let slots: Vec<HashMap<&str, BufId>> = (0..PHASES)
                .map(|phase| {
                    let at = |r: Role| bufs[r.rotated(phase) as usize];
                    program.slots.iter().filter_map(|(s, r)| Some((s.as_str(), at(*r)?))).collect()
                })
                .collect();
            let mut launches = Vec::with_capacity(kernels.len());
            for ((_, args), k) in program.launches.iter().zip(&kernels) {
                if k.kernel.work_dim == 1 && num_b == 0 {
                    launches.push(None);
                    continue;
                }
                let unbound = |e| SimError::UnknownKernelParam {
                    kernel: k.kernel.name.clone(),
                    name: format!("global size: {e}"),
                };
                let global = k.global.iter().map(|g| g.eval(&extent).map(|v| v as usize));
                let global = global.collect::<Result<Vec<_>, _>>().map_err(unbound)?;
                let bind = |slots: &HashMap<&str, BufId>| {
                    vgpu::bind_launch(args, slots, &env)
                        .expect("the slab binds what a launch names")
                };
                let bound: Vec<Vec<Arg>> = slots.iter().map(bind).collect();
                // The contract's distinct-buffers fact, checked once per
                // binding rather than per launch.
                let aliased = |args: &Vec<Arg>| {
                    let bufs: Vec<BufId> = args
                        .iter()
                        .filter_map(|a| if let Arg::Buf(b) = a { Some(*b) } else { None })
                        .collect();
                    bufs.iter().enumerate().any(|(i, b)| bufs[..i].contains(b))
                };
                if k.contract.distinct_buffers && bound.iter().any(aliased) {
                    return Err(SimError::AliasedBuffers { kernel: k.kernel.name.clone() });
                }
                launches.push(Some((global, bound)));
            }
            slabs.push(Slab { halo, planes: first..first + owned, bufs, launches });
        }
        Ok(Simulation { devices, setup, precision, part, plane, kernels, slabs, phase: 0 })
    }

    /// The shared setup.
    pub fn setup(&self) -> &SimSetup {
        &self.setup
    }

    /// The kernels a step launches, in order: the grid kernel as placed
    /// (whole-grid or slab), then the boundary kernel.
    pub fn kernels(&self) -> impl Iterator<Item = &StepKernel> {
        self.kernels.iter().map(|k| &**k)
    }

    /// Injects an impulse as a released initial displacement (applied to
    /// both `curr` and `prev`, matching [`crate::sim::ReferenceSim::impulse`]),
    /// moving every slab's owned planes through accounted region transfers.
    ///
    /// Panics when the cell is outside the room (`nbrs` not positive there):
    /// the generated grid kernels are compiled under the fact that no
    /// exterior cell ever holds a non-zero pressure
    /// ([`contracts::exterior_zero_facts`]).
    pub fn impulse(&mut self, x: usize, y: usize, z: usize, amp: f64) {
        let idx = self.setup.dims().cell(x, y, z);
        assert!(
            self.setup.room.nbrs[idx] > 0,
            "impulse at cell ({x}, {y}, {z}), outside the room: its `nbrs` is {}",
            self.setup.room.nbrs[idx]
        );
        for role in [Role::Curr, Role::Prev] {
            for (slab, dev) in self.slabs.iter().zip(&mut self.devices) {
                let (buf, lo, len) = (
                    slab.buf(role, self.phase),
                    slab.halo * self.plane,
                    slab.planes.len() * self.plane,
                );
                let mut data = dev.read_region(buf, lo, len);
                if slab.planes.contains(&z) {
                    data.set(idx - slab.planes.start * self.plane, self.precision.val(amp));
                }
                // A whole-grid write replaces the storage, a region write copies into it.
                if slab.halo == 0 {
                    dev.write(buf, data)
                } else {
                    dev.write_region(buf, lo, data)
                }
            }
        }
    }

    /// Advances one step: exchange the `curr` seams (several devices), then
    /// on every device run the step program's launches — a boundary launch
    /// only where the slab owns boundary points — then rotate.
    pub fn step(&mut self, mode: ExecMode) -> ShardStepStats {
        let rt = Arc::clone(self.devices[0].runtime());
        let _span = rt.trace.span(HOST_TRACK, "Simulation::step");
        let phase = self.phase;
        if self.devices.len() > 1 {
            let currs: Vec<BufId> = self.slabs.iter().map(|s| s.buf(Role::Curr, phase)).collect();
            vgpu::halo_exchange(&mut self.devices, &currs, &self.part, self.plane);
        }
        let mut stats = Vec::with_capacity(self.slabs.len());
        for (slab, dev) in self.slabs.iter().zip(&mut self.devices) {
            if dev.runtime().settings.shadow {
                slab.check_exterior_zero(dev, &self.kernels[0], phase, &self.setup);
            }
            let grid = slab.launch(dev, &self.kernels[0], 0, phase, mode);
            let boundary = self.kernels.get(1).and_then(|k| slab.launch(dev, k, 1, phase, mode));
            stats.push((grid.expect("every slab runs the grid launch"), boundary));
        }
        self.phase = (phase + 1) % PHASES;
        stats
    }

    /// Runs `n` steps in fast mode.
    pub fn run(&mut self, n: usize) {
        let rt = Arc::clone(self.devices[0].runtime());
        let _span = rt.trace.span_with(HOST_TRACK, || format!("Simulation::run({n})"));
        for _ in 0..n {
            self.step(ExecMode::Fast);
        }
    }

    /// Bytes exchanged across all seams per step (the perf model's
    /// communication term): two planes per seam.
    pub fn halo_bytes_per_step(&self) -> u64 {
        let seams = self.devices.len() as u64 - 1;
        2 * seams * (self.plane * self.precision.kind().byte_size()) as u64
    }

    fn assemble(&self, role: Role) -> Vec<f64> {
        let mut owned = self.slabs.iter().zip(&self.devices).map(|(slab, dev)| {
            let (lo, len) = (slab.halo * self.plane, slab.planes.len() * self.plane);
            dev.read_region(slab.buf(role, self.phase), lo, len).to_f64_vec()
        });
        // The first slab's planes become the output (one device: no second
        // copy), grown once for the rest.
        let mut out = owned.next().expect("a simulation has a device");
        out.reserve_exact(self.setup.dims().total() - out.len());
        owned.for_each(|planes| out.extend(planes));
        out
    }

    /// Reads the current pressure field as f64 (owned regions, assembled in
    /// global order; `Σ bytes` equals one whole-grid readback): the step
    /// program's `ToHost`.
    pub fn read_curr(&self) -> Vec<f64> {
        self.assemble(Role::Curr)
    }

    /// Pressure at a point (a one-element transfer).
    pub fn sample(&self, x: usize, y: usize, z: usize) -> f64 {
        let idx = self.setup.dims().cell(x, y, z);
        let d = self.slabs.iter().position(|s| s.planes.contains(&z)).expect("plane inside grid");
        let slab = &self.slabs[d];
        let local = idx - slab.planes.start * self.plane + slab.halo * self.plane;
        let buf = slab.buf(Role::Curr, self.phase);
        self.devices[d].read_region(buf, local, 1).get(0).as_f64()
    }

    /// Field energy proxy (see [`field_energy`]).
    pub fn energy(&self) -> f64 {
        field_energy(&self.read_curr(), &self.assemble(Role::Prev))
    }
}

/// The first cell on the grid's six faces with `nbrs > 0`; scans only those.
fn mask_on_halo(nbrs: &[i32], d: GridDims) -> Option<(usize, usize, usize)> {
    let rows = (0..d.nz).flat_map(|z| (0..d.ny).map(move |y| (y, z)));
    rows.flat_map(|(y, z)| {
        let face = z % (d.nz - 1) == 0 || y % (d.ny - 1) == 0;
        (0..d.nx).step_by(if face { 1 } else { d.nx - 1 }).map(move |x| (x, y, z))
    })
    .find(|&(x, y, z)| nbrs[d.idx(x, y, z)] > 0)
}

/// A [`Simulation`] on exactly one device whose every step launches a
/// volume and a boundary kernel, so `step` returns that one pair instead of
/// a per-device list. Everything else is the [`Simulation`] it derefs to.
pub struct SingleSim(Simulation);

impl SingleSim {
    /// Builds the simulation on `device`. Panics on a [`SimError`], on a
    /// kernel set without a boundary kernel and on a room without boundary
    /// points.
    pub fn new(
        setup: SimSetup,
        precision: Precision,
        source: impl KernelSource,
        device: Device,
    ) -> SingleSim {
        let sim = Simulation::new(setup, precision, source, vec![device]);
        let boundary = sim.slabs[0].launches.get(1).is_some_and(Option::is_some);
        assert!(boundary, "SingleSim needs a boundary launch");
        SingleSim(sim)
    }

    /// Advances one step; returns the (volume, boundary) launch stats.
    pub fn step(&mut self, mode: ExecMode) -> (LaunchStats, LaunchStats) {
        let (v, b) = self.0.step(mode).pop().expect("one device");
        (v, b.expect("checked at construction"))
    }

    /// Launches only the boundary kernel (no volume pass, no rotation).
    /// Useful for benchmarking kernel 2 in isolation — its memory traffic is
    /// value-independent (no data-dependent branches), so this measures
    /// exactly what a mid-simulation launch would.
    pub fn boundary_step_only(&mut self, mode: ExecMode) -> LaunchStats {
        let sim = &mut self.0;
        let rt = Arc::clone(sim.devices[0].runtime());
        let _span = rt.trace.span(HOST_TRACK, "Simulation::boundary_step_only");
        let (slab, dev) = (&sim.slabs[0], &mut sim.devices[0]);
        slab.launch(dev, &sim.kernels[1], 1, sim.phase, mode).expect("checked at construction")
    }
}

impl Deref for SingleSim {
    type Target = Simulation;
    fn deref(&self) -> &Simulation {
        &self.0
    }
}

impl DerefMut for SingleSim {
    fn deref_mut(&mut self) -> &mut Simulation {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::RoomShape;
    use crate::sim::{ReferenceSim, SimConfig};
    use lift::kast::KernelParam;

    fn setup(dims: GridDims, shape: RoomShape, fd: bool) -> SimSetup {
        let cfg = if fd { SimConfig::fdmm(dims, shape) } else { SimConfig::fimm(dims, shape) };
        SimSetup::new(&cfg)
    }

    fn devices(n: usize) -> Vec<Device> {
        (0..n).map(|_| Device::gtx780()).collect()
    }

    /// A device on a sanitizing runtime: a write race fails its launch.
    fn sanitizing_device() -> Device {
        Device::with_runtime(vgpu::DeviceProfile::gtx780(), vgpu::Runtime::sanitizing())
    }

    const FIMM: BoundaryKernel = BoundaryKernel::FiMm { beta_constant: false };

    #[test]
    fn handwritten_fimm_matches_reference_f64() {
        let s = setup(GridDims::cube(12), RoomShape::Box, false);
        let mut hw = SingleSim::new(s.clone(), Precision::Double, FIMM, sanitizing_device());
        let mut rf = ReferenceSim::<f64>::new(s);
        hw.impulse(6, 6, 6, 1.0);
        rf.impulse(6, 6, 6, 1.0);
        hw.run(15);
        rf.run(15);
        for (i, (x, y)) in hw.read_curr().iter().zip(&rf.curr).enumerate() {
            assert!((x - y).abs() < 1e-12, "mismatch at {i}: {x} vs {y}");
        }
    }

    #[test]
    fn handwritten_fdmm_matches_reference_f64() {
        let s = setup(GridDims::cube(12), RoomShape::Dome, true);
        let mut hw =
            SingleSim::new(s.clone(), Precision::Double, BoundaryKernel::FdMm, sanitizing_device());
        let mut rf = ReferenceSim::<f64>::new(s);
        hw.impulse(6, 6, 3, 1.0);
        rf.impulse(6, 6, 3, 1.0);
        hw.run(12);
        rf.run(12);
        for (i, (x, y)) in hw.read_curr().iter().zip(&rf.curr).enumerate() {
            assert!((x - y).abs() < 1e-12, "mismatch at {i}: {x} vs {y}");
        }
    }

    #[test]
    fn handwritten_fimm_single_precision_is_close() {
        let s = setup(GridDims::cube(10), RoomShape::Box, false);
        let kind = BoundaryKernel::FiMm { beta_constant: true };
        let mut hw = SingleSim::new(s.clone(), Precision::Single, kind, Device::gtx780());
        let mut rf = ReferenceSim::<f32>::new(s);
        hw.impulse(5, 5, 5, 1.0);
        rf.impulse(5, 5, 5, 1.0);
        hw.run(10);
        rf.run(10);
        for (x, y) in hw.read_curr().iter().zip(&rf.curr) {
            assert!((x - *y as f64).abs() < 1e-6, "{x} vs {y:?}");
        }
    }

    #[test]
    fn boundary_kernel_stats_expose_access_counts() {
        let s = setup(GridDims::cube(12), RoomShape::Box, true);
        let nb = s.num_b() as u64;
        let mb = s.mb as u64;
        let mut hw = SingleSim::new(s, Precision::Double, BoundaryKernel::FdMm, Device::gtx780());
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

    fn slabs_match_one_device(s: SimSetup, p: Precision, kind: BoundaryKernel, n: usize, z: usize) {
        let mut single = Simulation::new(s.clone(), p, kind, devices(1));
        let mut sharded = Simulation::new(s, p, kind, devices(n));
        single.impulse(6, 6, z, 1.0);
        sharded.impulse(6, 6, z, 1.0);
        single.run(12);
        sharded.run(12);
        let (a, b) = (single.read_curr(), sharded.read_curr());
        assert!(a.iter().any(|&x| x != 0.0), "the impulse is inside the room");
        assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()), "fields diverge");
    }

    #[test]
    fn sharded_fimm_matches_single_device_bitwise() {
        let s = setup(GridDims::cube(12), RoomShape::Box, false);
        slabs_match_one_device(s, Precision::Double, FIMM, 3, 6);
    }

    #[test]
    fn sharded_fdmm_matches_single_device_bitwise() {
        let s = setup(GridDims::cube(12), RoomShape::Dome, true);
        slabs_match_one_device(s, Precision::Single, BoundaryKernel::FdMm, 2, 3);
    }

    /// Every hand-written set compiles to a step whose launches run the
    /// kernels of [`handwritten`] under their contracts, in Listing 5's
    /// order, and the sets share the volume kernel they have in common.
    #[test]
    fn every_hand_written_set_is_a_step_over_its_kernels() {
        let sets: [(&dyn KernelSource, Vec<Kernel>); 4] = [
            (&HandwrittenFi, vec![handwritten::fi_single_kernel()]),
            (&FIMM, vec![handwritten::volume_kernel(), handwritten::fimm_kernel(false)]),
            (
                &BoundaryKernel::FiMm { beta_constant: true },
                vec![handwritten::volume_kernel(), handwritten::fimm_kernel(true)],
            ),
            (&BoundaryKernel::FdMm, vec![handwritten::volume_kernel(), handwritten::fdmm_kernel()]),
        ];
        for real in [ScalarKind::F32, ScalarKind::F64] {
            for (set, kernels) in &sets {
                let step = StepProgram::shared(set, real).unwrap_or_else(|e| panic!("{e}"));
                assert_eq!(step.launches.len(), kernels.len(), "{}", set.name());
                for ((k, args), want) in step.launches.iter().zip(kernels) {
                    assert_eq!(k.kernel, want.resolve_real(real), "{}", set.name());
                    assert_eq!(args.len(), want.params.len(), "{}", want.name);
                    let contract = contracts::launch_contract(want);
                    assert_eq!(format!("{:?}", k.contract), format!("{contract:?}"));
                }
            }
            let volume = |set| StepProgram::shared(&set, real).unwrap().launches[0].0.clone();
            assert!(Arc::ptr_eq(&volume(FIMM), &volume(BoundaryKernel::FdMm)), "one volume kernel");
        }
    }

    /// [`handwritten::volume_slab_kernel`] and its `_slab` contract arm are
    /// what the verifier suite and the compile sweep enumerate; the front
    /// end derives the same kernel under the same contract, so sharded runs
    /// launch the artifact those prove.
    #[test]
    fn the_derived_slab_kernel_is_the_enumerated_one() {
        for real in [ScalarKind::F32, ScalarKind::F64] {
            let whole = StepProgram::shared(&FIMM, real).unwrap().launches[0].0.clone();
            let derived = whole.slab_placed();
            let shipped = handwritten::volume_slab_kernel();
            assert_eq!(derived.kernel, shipped.resolve_real(real));
            let contract = contracts::launch_contract(&shipped);
            assert_eq!(format!("{:?}", derived.contract), format!("{contract:?}"));
            assert_eq!(derived.global, whole.global);
            assert!(Arc::ptr_eq(&derived, &whole.slab_placed()), "placed once per kernel");
        }
    }

    /// Listing 3 with its `l` renamed: the host input it is bound to is
    /// outside the vocabulary.
    struct MadeUp;

    impl KernelSource for MadeUp {
        fn name(&self) -> &'static str {
            "made_up_parameter"
        }

        fn host_program(&self, real: ScalarKind) -> Result<HostProgram, LowerError> {
            let mut k = handwritten::fimm_kernel(false);
            k.params[6] = KernelParam::scalar("lambda", ScalarKind::Real);
            let mut args: Vec<HostExpr> =
                ["boundaries_h", "nbrs_h", "material_h", "beta_h", "next_h", "prev_h"]
                    .map(step_input)
                    .into();
            args.push(host::input(&ParamDef::typed("lambda", Type::real())));
            let def = KernelDef::kast(k, vec![ArithExpr::var("numB")], Assumptions::default());
            let volume =
                hand_launch(handwritten::volume_kernel(), "next_h curr_h prev_h nbrs_h l2");
            let step = host::host_let(
                "next_g",
                host::host_write_to(step_input("next_h"), volume),
                |next| host::to_host(host::host_write_to(next, host::ocl_kernel(&def, args))),
            );
            host::compile_host(&step, real)
        }
    }

    /// Listing 2's volume pass with `curr_h` bound as both `curr` and
    /// `prev`: one buffer under two parameters of a kernel compiled for
    /// distinct buffers.
    struct Aliased;

    impl KernelSource for Aliased {
        fn name(&self) -> &'static str {
            "aliased_buffers"
        }

        fn host_program(&self, real: ScalarKind) -> Result<HostProgram, LowerError> {
            let volume =
                hand_launch(handwritten::volume_kernel(), "next_h curr_h curr_h nbrs_h l2");
            host::compile_host(
                &host::to_host(host::host_write_to(step_input("next_h"), volume)),
                real,
            )
        }
    }

    #[test]
    fn one_buffer_under_two_distinct_parameters_is_refused() {
        let s = setup(GridDims::cube(9), RoomShape::Box, false);
        let err = Simulation::try_new(s, Precision::Single, Aliased, devices(1)).err();
        let kernel = "volume_handling_hand".to_string();
        assert_eq!(err, Some(SimError::AliasedBuffers { kernel }));
    }

    /// The generated grid kernels take exterior cells to hold `0`: an
    /// impulse there is refused, naming the cell.
    #[test]
    #[should_panic(expected = "impulse at cell (1, 1, 1), outside the room")]
    fn an_impulse_outside_the_room_is_refused() {
        let s = setup(GridDims::new(34, 14, 10), RoomShape::Dome, true);
        let mut sim = Simulation::new(s, Precision::Double, BoundaryKernel::FdMm, devices(1));
        sim.impulse(1, 1, 1, 1.0);
    }

    /// `impulse(21, 5, 5, …)` on a 16³ grid would excite interior cell
    /// (5, 6, 5): `impulse` and `sample` refuse a cell off the grid, naming
    /// it and the grid, on one device and on two.
    #[test]
    fn a_cell_off_the_grid_is_refused() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let message = |r: std::thread::Result<()>| *r.unwrap_err().downcast::<String>().unwrap();
        for n in [1, 2] {
            let s = setup(GridDims::cube(16), RoomShape::Box, false);
            let mut sim = Simulation::new(s, Precision::Single, FIMM, devices(n));
            let want = "cell (21, 5, 5) is off the 16×16×16 grid";
            let impulse = catch_unwind(AssertUnwindSafe(|| sim.impulse(21, 5, 5, 1.0)));
            assert_eq!(message(impulse), want, "{n} devices");
            let sample = catch_unwind(AssertUnwindSafe(|| {
                sim.sample(21, 5, 5);
            }));
            assert_eq!(message(sample), want, "{n} devices");
            assert!(sim.read_curr().iter().all(|&p| p == 0.0), "nothing was excited");
        }
    }

    /// On a sanitizing runtime the exterior-zero fact is checked before
    /// every grid launch: one exterior cell of the output, corrupted through
    /// a device write, fails the step, naming buffer, kernel and cell.
    #[test]
    #[should_panic(expected = "exterior-zero fact broken: `next` of `volume_handling_hand` \
                               holds 1 at exterior cell (1, 1, 1)")]
    fn a_corrupted_exterior_cell_fails_a_sanitized_step() {
        let s = setup(GridDims::new(16, 12, 10), RoomShape::Dome, false);
        let mut sim = Simulation::new(s, Precision::Single, FIMM, vec![sanitizing_device()]);
        sim.impulse(8, 6, 3, 1.0);
        sim.step(ExecMode::Fast);
        let (next, cell) = (sim.slabs[0].buf(Role::Next, sim.phase), sim.setup.dims().idx(1, 1, 1));
        assert_eq!(sim.setup.room.nbrs[cell], 0, "an exterior cell");
        sim.devices[0].write_region(next, cell, BufData::from(vec![1.0f32]));
        sim.step(ExecMode::Fast);
    }

    #[test]
    fn a_made_up_parameter_is_a_typed_error_naming_kernel_and_parameter() {
        let s = setup(GridDims::cube(9), RoomShape::Box, false);
        let err = Simulation::try_new(s, Precision::Single, MadeUp, devices(1)).err().unwrap();
        let expect = SimError::UnknownKernelParam {
            kernel: "fimm_boundary_hand".into(),
            name: "lambda".into(),
        };
        assert_eq!(err, expect);
        assert!(
            err.to_string().contains("fimm_boundary_hand") && err.to_string().contains("lambda")
        );
        // A buffer name bound as a scalar is unknown too: `nbrs_h` is a table.
        assert_eq!(Role::of("nbrs_h", &Role::SCALARS), None);
    }

    #[test]
    fn construction_errors_are_typed() {
        let fimm = || setup(GridDims::cube(9), RoomShape::Box, false);
        let err = |r: Result<Simulation, SimError>| r.err().expect("construction must fail");
        let p = Precision::Single;
        assert_eq!(err(Simulation::try_new(fimm(), p, FIMM, vec![])), SimError::NoDevices);
        assert_eq!(
            err(Simulation::try_new(fimm(), p, FIMM, devices(16))),
            SimError::TooManyDevices { devices: 16, nz: 9 }
        );
        // An FD-MM kernel set on a setup built for FI-MM.
        assert_eq!(
            err(Simulation::try_new(fimm(), p, BoundaryKernel::FdMm, devices(1))),
            SimError::MissingFdCoefficients
        );
        // Nine planes over nine devices is the limit, not an error.
        Simulation::try_new(fimm(), p, FIMM, devices(9)).expect("one plane per device");
        // Listing 1 finds its walls by comparing coordinates with `Nz`.
        match err(Simulation::try_new(fimm(), p, HandwrittenFi, devices(2))) {
            SimError::HaloProof(why) => assert!(why.contains("`fi_single_hand`"), "{why}"),
            other => panic!("{other}"),
        }
    }

    #[test]
    fn a_partition_that_does_not_fit_is_a_typed_error() {
        let fimm = || setup(GridDims::cube(9), RoomShape::Box, false);
        let build = |devs, part| {
            Simulation::try_with_partition(fimm(), Precision::Single, FIMM, devices(devs), part)
                .err()
                .expect("a mismatched partition must fail")
        };
        let three_slabs = SlabPartition::balanced(9, 3);
        let expect = SimError::PartitionMismatch { slabs: 3, devices: 2, planes: 9, nz: 9 };
        assert_eq!(build(2, three_slabs), expect);
        let short = SlabPartition::balanced(8, 2);
        let expect = SimError::PartitionMismatch { slabs: 2, devices: 2, planes: 8, nz: 9 };
        let err = build(2, short);
        assert_eq!(err, expect);
        assert!(err.to_string().contains("8 planes"), "{err}");
    }
}
