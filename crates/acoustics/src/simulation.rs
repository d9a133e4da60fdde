//! The simulation front end on the virtual GPU (DESIGN.md §7).
//!
//! One [`Simulation`] drives the paper's host loop — volume kernel, boundary
//! kernel, buffer rotation — for every kernel family and every placement:
//!
//! * the **kernel set** is data: a [`StepKernels`] whose kernels each carry
//!   their source AST, their launch contract and a role per parameter,
//!   resolved once, by parameter name, from the one table in this module.
//!   The kernels of [`crate::handwritten`] and the LIFT-generated ones of
//!   the `lift-acoustics` crate share that vocabulary, so both bind
//!   through it;
//! * the **placement** is one slab per [`Device`]: one device holds the
//!   whole grid with no halo planes, several hold contiguous Z-slabs with
//!   one halo plane on either side, exchanged before every volume launch
//!   (DESIGN.md §12).
//!
//! A slab allocates and uploads only the roles its kernel set names.
//! Host-transfer *byte* totals do not depend on the device count: owned
//! planes move through accounted region transfers, replicated tables are
//! accounted once (replicas under `vgpu.halo.replicate.*`), and halo
//! traffic under `vgpu.halo.*` — never `vgpu.xfer.*`.

use crate::contracts;
use crate::geometry::GridDims;
use crate::handwritten;
use crate::partition::{checked_boundary_cuts, WARP};
use crate::reference::FdArrays;
use crate::sim::{field_energy, SimSetup};
use lift::arith::ArithExpr;
use lift::kast::Kernel;
use lift::prelude::{ScalarKind, Value};
use lift::verify::Assumptions;
use std::collections::HashMap;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex, OnceLock};
use vgpu::telemetry::HOST_TRACK;
use vgpu::{Arg, BufData, BufId, Device, ExecMode, LaunchStats, Prepared, SlabPartition};

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

/// What a kernel parameter is bound to on each launch. Buffers first, in
/// allocation order; then the real scalars; then the i32 sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Role {
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
    Nx,
    Ny,
    /// Planes in the slab's allocation (owned + halo).
    Nz,
    /// Elements in the slab's allocation.
    N,
    /// Boundary points of the slab (the FD-MM state stride when padded).
    NumB,
    Nm,
    Mb,
    /// `Nm · Mb`.
    Mbm,
    /// `Mb · NumB`.
    S,
}

impl Role {
    const COUNT: usize = Role::S as usize + 1;

    /// The name → role table: the parameter vocabulary shared by
    /// [`crate::handwritten`] and the LIFT programs (`out` is the generated
    /// volume kernel's allocated output). `beta` is a table in FI-MM/FD-MM
    /// kernels and a scalar in the one-kernel FI program.
    const TABLE: [(&'static str, bool, Role); Role::COUNT + 1] = [
        ("prev", true, Role::Prev),
        ("curr", true, Role::Curr),
        ("next", true, Role::Next),
        ("out", true, Role::Next),
        ("nbrs", true, Role::Nbrs),
        ("boundaryIndices", true, Role::BoundaryIndices),
        ("bnbrs", true, Role::BoundaryNbrs),
        ("material", true, Role::Material),
        ("beta", true, Role::Beta),
        ("BI", true, Role::Bi),
        ("D", true, Role::D),
        ("DI", true, Role::Di),
        ("F", true, Role::F),
        ("g1", true, Role::G1),
        ("v1", true, Role::V1),
        ("v2", true, Role::V2),
        ("l", false, Role::L),
        ("l2", false, Role::L2),
        ("beta", false, Role::BetaScalar),
        ("Nx", false, Role::Nx),
        ("Ny", false, Role::Ny),
        ("Nz", false, Role::Nz),
        ("N", false, Role::N),
        ("numB", false, Role::NumB),
        ("NM", false, Role::Nm),
        ("MB", false, Role::Mb),
        ("MBM", false, Role::Mbm),
        ("S", false, Role::S),
    ];

    /// The role of a kernel parameter called `name`.
    fn resolve(name: &str, is_buffer: bool) -> Option<Role> {
        Role::TABLE.iter().find(|(n, b, _)| *n == name && *b == is_buffer).map(|&(_, _, r)| r)
    }
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
    /// The kernel set names FD-MM tables or state but the setup has no
    /// FD-MM coefficients.
    MissingFdCoefficients,
    /// A kernel parameter (or a variable of its global size) is outside
    /// the vocabulary the front end binds (`prev curr next nbrs
    /// boundaryIndices bnbrs material beta BI D DI F g1 v1 v2 l l2 Nx Ny Nz
    /// N numB NM MB MBM S`, and `out` for an allocated output).
    UnknownKernelParam {
        /// Kernel name.
        kernel: String,
        /// Parameter name.
        name: String,
    },
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
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NoDevices => write!(f, "a simulation needs at least one device"),
            SimError::TooManyDevices { devices, nz } => {
                write!(f, "cannot give {devices} devices at least one of {nz} z-planes each")
            }
            SimError::MissingFdCoefficients => {
                write!(f, "the kernel set is FD-MM but the setup has no FD-MM coefficients")
            }
            SimError::UnknownKernelParam { kernel, name } => {
                write!(f, "kernel `{kernel}`: no binding for parameter `{name}`")
            }
            SimError::HaloProof(e) => write!(f, "halo proof failed: {e}"),
            SimError::UndefinedMaterials { assigned, defined } => {
                write!(f, "room assigns {assigned} materials but only {defined} defined")
            }
            SimError::NoMaterials => write!(f, "a striped assignment needs at least one material"),
            SimError::NoBranches => write!(f, "FD-MM needs at least one branch per material"),
            SimError::NonPassive(e) => write!(f, "not passive: {e}"),
            SimError::MaskOnHalo { x, y, z } => write!(f, "`nbrs` > 0 on halo cell {x}, {y}, {z}"),
        }
    }
}

impl std::error::Error for SimError {}

/// One kernel of a step, ready to launch: its source, the contract every
/// launch satisfies, what each parameter binds to, and its NDRange.
#[derive(Debug)]
pub struct StepKernel {
    /// The kernel AST at a concrete precision.
    pub kernel: Kernel,
    /// The launch contract ([`contracts::launch_contract`] or the generated
    /// kernel's `launch_assumptions`) the kernel is compiled under.
    pub contract: Assumptions,
    /// One role per kernel parameter, in order.
    roles: Vec<Role>,
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

/// Which shipped source built a shared [`StepKernel`] — never a
/// [`Kernel::name`], which two kernels may carry (`fimm_kernel(true)` / `(false)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelOrigin {
    /// [`handwritten::volume_kernel`].
    HandVolume,
    /// The boundary kernel of a [`BoundaryKernel`] set.
    HandBoundary(BoundaryKernel),
    /// A LIFT program of `lift_acoustics::programs`, by `Program::name`.
    Program(&'static str),
}

impl StepKernel {
    /// Binds `kernel`'s parameters by name, each to what the front end
    /// allocates or computes for it.
    pub fn new(
        kernel: Kernel,
        contract: Assumptions,
        global: Vec<ArithExpr>,
    ) -> Result<StepKernel, SimError> {
        let roles = kernel
            .params
            .iter()
            .map(|p| {
                Role::resolve(&p.name, p.is_buffer).ok_or_else(|| SimError::UnknownKernelParam {
                    kernel: kernel.name.clone(),
                    name: p.name.clone(),
                })
            })
            .collect::<Result<_, _>>()?;
        let (prepared, halo, slab) = (OnceLock::new(), OnceLock::new(), OnceLock::new());
        Ok(StepKernel { kernel, contract, roles, global, prepared, halo, slab })
    }

    /// This grid kernel placed for a Z-slab with one halo plane on either
    /// side ([`contracts::slab_placed`]): same parameters and NDRange (`Nz`
    /// there stands for the owned planes), built once per kernel — so shared
    /// kernels share their slab form and its artifact too.
    pub fn slab_placed(&self) -> Arc<StepKernel> {
        let place = || {
            let (kernel, contract) = contracts::slab_placed(&self.kernel, &self.contract);
            let placed = StepKernel::new(kernel, contract, self.global.clone());
            Arc::new(placed.expect("the rewrite keeps the parameters"))
        };
        self.slab.get_or_init(place).clone()
    }

    /// A kernel of [`handwritten`] at precision `real`, under its
    /// [`contracts::launch_contract`]: grid kernels launch over
    /// `[Nx, Ny, Nz]`, boundary kernels over `[numB]`.
    pub fn handwritten(kernel: Kernel, real: ScalarKind) -> Result<Arc<StepKernel>, SimError> {
        let global: &[&str] = if kernel.work_dim == 3 { &["Nx", "Ny", "Nz"] } else { &["numB"] };
        let contract = contracts::launch_contract(&kernel);
        let global = global.iter().map(|&n| ArithExpr::var(n)).collect();
        StepKernel::new(kernel.resolve_real(real), contract, global).map(Arc::new)
    }

    /// The one sharing policy for shipped kernels of either family: what
    /// `origin` builds at precision `real`, built on first request and shared
    /// by every simulation of the process from then on — AST, contract, roles
    /// and, through [`StepKernel::prepared`], the artifact with its proofs.
    pub fn shared(
        origin: KernelOrigin,
        real: ScalarKind,
        build: impl FnOnce() -> Result<Arc<StepKernel>, SimError>,
    ) -> Result<Arc<StepKernel>, SimError> {
        type Cache = Mutex<HashMap<(KernelOrigin, ScalarKind), Arc<StepKernel>>>;
        static CACHE: OnceLock<Cache> = OnceLock::new();
        let cache = || CACHE.get_or_init(Default::default).lock().expect("no panic under the lock");
        if let Some(hit) = cache().get(&(origin, real)) {
            return Ok(hit.clone());
        }
        // Build outside the lock; when two threads race the first insert
        // wins, so every simulation still shares one kernel.
        let kernel = build()?;
        Ok(cache().entry((origin, real)).or_insert(kernel).clone())
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

/// The kernels of one time step.
#[derive(Debug, Clone)]
pub struct StepKernels {
    /// The volume pass over the whole grid (or the whole step, for the
    /// one-kernel FI programs).
    pub volume: Arc<StepKernel>,
    /// The boundary pass, launched after the volume pass.
    pub boundary: Option<Arc<StepKernel>>,
}

impl StepKernels {
    /// A one-kernel step (Listing 1 / Listing 6).
    pub fn single(kernel: Arc<StepKernel>) -> StepKernels {
        StepKernels { volume: kernel, boundary: None }
    }
}

/// Anything a [`Simulation`] can take its kernels from.
pub trait KernelSource {
    /// The kernel set at precision `real`.
    fn step_kernels(&self, real: ScalarKind) -> Result<StepKernels, SimError>;
}

impl KernelSource for StepKernels {
    fn step_kernels(&self, _real: ScalarKind) -> Result<StepKernels, SimError> {
        Ok(self.clone())
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

impl KernelSource for BoundaryKernel {
    fn step_kernels(&self, real: ScalarKind) -> Result<StepKernels, SimError> {
        let shared = |origin, build: &dyn Fn() -> Kernel| {
            StepKernel::shared(origin, real, || StepKernel::handwritten(build(), real))
        };
        let boundary = || match *self {
            BoundaryKernel::FiMm { beta_constant } => handwritten::fimm_kernel(beta_constant),
            BoundaryKernel::FdMm => handwritten::fdmm_kernel(),
        };
        Ok(StepKernels {
            volume: shared(KernelOrigin::HandVolume, &handwritten::volume_kernel)?,
            boundary: Some(shared(KernelOrigin::HandBoundary(*self), &boundary)?),
        })
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

/// One device's share of the grid: the global `planes` it owns, allocated
/// with `halo` extra planes on either side.
struct Slab {
    halo: usize,
    planes: std::ops::Range<usize>,
    /// What each role binds to here; `None` for roles no launched kernel
    /// names and, without boundary points, for per-point lists and state.
    args: [Option<Arg>; Role::COUNT],
    volume_global: Vec<usize>,
    /// `None` when this slab launches no boundary kernel.
    boundary_global: Option<Vec<usize>>,
}

impl Slab {
    fn buf(&self, role: Role) -> BufId {
        match self.args[role as usize] {
            Some(Arg::Buf(b)) => b,
            _ => panic!("no kernel of this simulation names {role:?}"),
        }
    }

    /// The one role → [`Arg`] walk.
    fn launch(
        &self,
        dev: &mut Device,
        k: &StepKernel,
        global: &[usize],
        mode: ExecMode,
    ) -> LaunchStats {
        let args: Vec<Arg> = k
            .roles
            .iter()
            .map(|&r| self.args[r as usize].expect("construction binds every role a kernel names"))
            .collect();
        dev.launch(k.prepared(), &args, global, mode)
            .unwrap_or_else(|e| panic!("`{}` launch: {e:?}", k.kernel.name))
    }

    fn rotate(&mut self) {
        let (prev, curr, next) = (Role::Prev as usize, Role::Curr as usize, Role::Next as usize);
        let old_prev = self.args[prev];
        self.args[prev] = self.args[curr];
        self.args[curr] = self.args[next];
        self.args[next] = old_prev;
        // The velocities just written become the previous step's.
        self.args.swap(Role::V1 as usize, Role::V2 as usize);
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
    volume: Arc<StepKernel>,
    boundary: Option<Arc<StepKernel>>,
    slabs: Vec<Slab>,
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
        assert_eq!(devices.len(), part.device_count(), "one device per slab");
        assert_eq!(part.nz(), setup.dims().nz, "partition must cover the grid");
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
        let kernels = source.step_kernels(real)?;
        let boundary = kernels.boundary;
        let volume = match kernels.volume {
            whole_grid if halo == 0 => whole_grid,
            // A slab's walls are where its `nbrs` planes say: a kernel that
            // takes them from its coordinates against `Nz` (Listing 1's
            // hand-written one-kernel FI) would find one at every seam.
            k if !k.roles.contains(&Role::Nbrs) => {
                return Err(SimError::HaloProof(format!(
                    "kernel `{}` takes the room's walls from its coordinates, not from `nbrs`: \
                     a slab would move them",
                    k.kernel.name
                )))
            }
            k => k.slab_placed(),
        };
        let mut named = [false; Role::COUNT];
        let launched = std::iter::once(&volume).chain(&boundary);
        launched.flat_map(|k| &k.roles).for_each(|&r| named[r as usize] = true);
        let names = |r: Role| named[r as usize];

        // The slab layout exchanges one plane per side, so with several
        // devices the volume kernel's proven z-reach must fit one plane and
        // every boundary point's footprint must stay inside its slab's
        // coverage — checked here instead of reading stale halo data later.
        let bcuts = if halo == 0 {
            vec![0, nb]
        } else {
            volume.slab_reach(halo)?;
            let reach = boundary.as_deref().map(|k| k.slab_reach(halo)).transpose()?;
            let reach = reach.unwrap_or((0, 0));
            checked_boundary_cuts(&part, plane, &setup.room.boundary_indices, reach, (halo, halo))
                .map_err(SimError::HaloProof)?
        };

        let names_fd = (Role::Bi as usize..=Role::V2 as usize).any(|r| named[r]);
        let fa: Option<FdArrays<f64>> = match (names_fd, &setup.fd) {
            (false, _) => None,
            (true, Some(c)) => Some(FdArrays::from_coeffs(c)),
            (true, None) => return Err(SimError::MissingFdCoefficients),
        };
        let fd = || fa.as_ref().expect("FD roles are named only with coefficients present");
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
            // The sizes `Nx ..= S`, in `Role` order.
            let sizes =
                [dims.nx, dims.ny, local_planes, local, numb_arg, nm, mb, nm * mb, mb * numb_arg];
            let size = |r: Role| sizes.get((r as usize).wrapping_sub(Role::Nx as usize)).copied();
            // β and the FD-MM tables are replicated: accounted once on
            // device 0, replicas under vgpu.halo.replicate.*.
            let replicated = |dev: &mut Device, table: &[f64]| {
                let data = precision.buf(table);
                Arg::Buf(if d == 0 { dev.upload(data) } else { dev.upload_replica(data) })
            };
            let per_point = |dev: &mut Device, list: &[i32]| {
                Arg::Buf(dev.upload(BufData::from(list[cb..ce].to_vec())))
            };
            let mut args = [None; Role::COUNT];
            // Table order is allocation order; `out` aliases `next`.
            let roles = Role::TABLE.iter().filter(|(n, _, r)| *n != "out" && names(*r));
            for &(_, _, role) in roles {
                use Role::*;
                args[role as usize] = Some(match role {
                    // A slab without boundary points holds no per-point
                    // lists or state.
                    BoundaryIndices | BoundaryNbrs | Material | G1 | V1 | V2 if num_b == 0 => {
                        continue
                    }
                    Prev | Curr | Next => Arg::Buf(dev.create_buffer_zeroed(real, local)),
                    // The whole table moves in as it is; a slab's owned planes
                    // through an accounted region write (the slices sum to the
                    // whole upload), its halo planes stay zero and unread.
                    Nbrs if halo == 0 => {
                        Arg::Buf(dev.upload(BufData::from(setup.room.nbrs.clone())))
                    }
                    Nbrs => {
                        let buf = dev.create_buffer_zeroed(ScalarKind::I32, local);
                        let owned_nbrs = &setup.room.nbrs[first * plane..(first + owned) * plane];
                        dev.write_region(buf, halo * plane, BufData::from(owned_nbrs.to_vec()));
                        Arg::Buf(buf)
                    }
                    BoundaryIndices => {
                        let shift = (first as isize - halo as isize) * plane as isize;
                        let local_bidx: Vec<i32> = setup.room.boundary_indices[cb..ce]
                            .iter()
                            .map(|&i| (i as isize - shift) as i32)
                            .collect();
                        Arg::Buf(dev.upload(BufData::from(local_bidx)))
                    }
                    BoundaryNbrs => per_point(dev, bnbrs.as_ref().expect("gathered when named")),
                    Material => per_point(dev, &setup.room.material),
                    Beta => replicated(dev, &setup.betas),
                    Bi => replicated(dev, &fd().bi),
                    D => replicated(dev, &fd().d),
                    Di => replicated(dev, &fd().di),
                    F => replicated(dev, &fd().f),
                    G1 | V1 | V2 => Arg::Buf(dev.create_buffer_zeroed(real, mb * stride)),
                    L => Arg::Val(precision.val(setup.l)),
                    L2 => Arg::Val(precision.val(setup.l2)),
                    BetaScalar => Arg::Val(precision.val(setup.betas[0])),
                    size_role => Arg::Val(Value::I32(size(size_role).expect("a size") as i32)),
                });
            }
            let extent = |name: &str| match name {
                "Nz" => Some(owned as i64),
                "numB" => Some(num_b as i64),
                n => Role::resolve(n, false).and_then(size).map(|v| v as i64),
            };
            let global = |k: &StepKernel| -> Result<Vec<usize>, SimError> {
                let unbound = |e| SimError::UnknownKernelParam {
                    kernel: k.kernel.name.clone(),
                    name: format!("global size: {e}"),
                };
                k.global
                    .iter()
                    .map(|g| g.eval(&extent).map(|v| v as usize).map_err(unbound))
                    .collect()
            };
            slabs.push(Slab {
                halo,
                planes: first..first + owned,
                args,
                volume_global: global(&volume)?,
                boundary_global: match &boundary {
                    Some(b) if num_b > 0 => Some(global(b)?),
                    _ => None,
                },
            });
        }
        Ok(Simulation { devices, setup, precision, part, plane, volume, boundary, slabs })
    }

    /// The shared setup.
    pub fn setup(&self) -> &SimSetup {
        &self.setup
    }

    /// The kernels a step launches: the volume kernel as placed (whole-grid
    /// or slab), then the boundary kernel.
    pub fn kernels(&self) -> impl Iterator<Item = &StepKernel> {
        std::iter::once(&*self.volume).chain(self.boundary.as_deref())
    }

    /// Injects an impulse as a released initial displacement (applied to
    /// both `curr` and `prev`, matching [`crate::sim::ReferenceSim::impulse`]),
    /// moving every slab's owned planes through accounted region transfers.
    pub fn impulse(&mut self, x: usize, y: usize, z: usize, amp: f64) {
        let idx = self.setup.dims().idx(x, y, z);
        for role in [Role::Curr, Role::Prev] {
            for (slab, dev) in self.slabs.iter().zip(&mut self.devices) {
                let (buf, lo, len) =
                    (slab.buf(role), slab.halo * self.plane, slab.planes.len() * self.plane);
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
    /// on every device launch the volume kernel and — where the slab owns
    /// boundary points — the boundary kernel, then rotate.
    pub fn step(&mut self, mode: ExecMode) -> ShardStepStats {
        let rt = Arc::clone(self.devices[0].runtime());
        let _span = rt.trace.span(HOST_TRACK, "Simulation::step");
        if self.devices.len() > 1 {
            let currs: Vec<BufId> = self.slabs.iter().map(|s| s.buf(Role::Curr)).collect();
            vgpu::halo_exchange(&mut self.devices, &currs, &self.part, self.plane);
        }
        let mut stats = Vec::with_capacity(self.slabs.len());
        for (slab, dev) in self.slabs.iter().zip(&mut self.devices) {
            let v = slab.launch(dev, &self.volume, &slab.volume_global, mode);
            stats.push((v, Self::launch_boundary(&self.boundary, slab, dev, mode)));
        }
        self.slabs.iter_mut().for_each(Slab::rotate);
        stats
    }

    fn launch_boundary(
        boundary: &Option<Arc<StepKernel>>,
        slab: &Slab,
        dev: &mut Device,
        mode: ExecMode,
    ) -> Option<LaunchStats> {
        let (k, global) = (boundary.as_ref()?, slab.boundary_global.as_ref()?);
        Some(slab.launch(dev, k, global, mode))
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
            dev.read_region(slab.buf(role), lo, len).to_f64_vec()
        });
        // The first slab's planes become the output (one device: no second
        // copy), grown once for the rest.
        let mut out = owned.next().expect("a simulation has a device");
        out.reserve_exact(self.setup.dims().total() - out.len());
        owned.for_each(|planes| out.extend(planes));
        out
    }

    /// Reads the current pressure field as f64 (owned regions, assembled in
    /// global order; `Σ bytes` equals one whole-grid readback).
    pub fn read_curr(&self) -> Vec<f64> {
        self.assemble(Role::Curr)
    }

    /// Pressure at a point (a one-element transfer).
    pub fn sample(&self, x: usize, y: usize, z: usize) -> f64 {
        let d = self.slabs.iter().position(|s| s.planes.contains(&z)).expect("plane inside grid");
        let slab = &self.slabs[d];
        let local = self.setup.dims().idx(x, y, z) - slab.planes.start * self.plane
            + slab.halo * self.plane;
        self.devices[d].read_region(slab.buf(Role::Curr), local, 1).get(0).as_f64()
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
        assert!(sim.slabs[0].boundary_global.is_some(), "SingleSim needs a boundary launch");
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
        Simulation::launch_boundary(&sim.boundary, &sim.slabs[0], &mut sim.devices[0], mode)
            .expect("checked at construction")
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

    fn race_checked() -> Device {
        let mut dev = Device::gtx780();
        dev.set_race_check(true);
        dev
    }

    const FIMM: BoundaryKernel = BoundaryKernel::FiMm { beta_constant: false };

    #[test]
    fn handwritten_fimm_matches_reference_f64() {
        let s = setup(GridDims::cube(12), RoomShape::Box, false);
        let mut hw = SingleSim::new(s.clone(), Precision::Double, FIMM, race_checked());
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
            SingleSim::new(s.clone(), Precision::Double, BoundaryKernel::FdMm, race_checked());
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

    #[test]
    fn every_handwritten_kernel_resolves_every_parameter() {
        for k in handwritten::all_kernels() {
            for real in [ScalarKind::F32, ScalarKind::F64] {
                let bound = StepKernel::handwritten(k.clone(), real)
                    .unwrap_or_else(|e| panic!("{} @ {real:?}: {e}", k.name));
                assert_eq!(bound.roles.len(), k.params.len(), "{}", k.name);
            }
        }
    }

    /// [`handwritten::volume_slab_kernel`] and its `_slab` contract arm are
    /// what the verifier suite and the compile sweep enumerate; the front
    /// end derives the same kernel under the same contract, so sharded runs
    /// launch the artifact those prove.
    #[test]
    fn the_derived_slab_kernel_is_the_enumerated_one() {
        for real in [ScalarKind::F32, ScalarKind::F64] {
            let whole = StepKernel::handwritten(handwritten::volume_kernel(), real).unwrap();
            let derived = whole.slab_placed();
            let shipped = StepKernel::handwritten(handwritten::volume_slab_kernel(), real).unwrap();
            assert_eq!(format!("{:?}", derived.kernel), format!("{:?}", shipped.kernel));
            assert_eq!(format!("{:?}", derived.contract), format!("{:?}", shipped.contract));
            assert_eq!((&derived.roles, &derived.global), (&shipped.roles, &shipped.global));
            assert!(Arc::ptr_eq(&derived, &whole.slab_placed()), "placed once per kernel");
        }
    }

    #[test]
    fn a_made_up_parameter_is_a_typed_error_naming_kernel_and_parameter() {
        let mut k = handwritten::fimm_kernel(false);
        k.params[6] = KernelParam::scalar("lambda", ScalarKind::Real);
        let err = StepKernel::new(k, Assumptions::default(), vec![]).unwrap_err();
        let expect = SimError::UnknownKernelParam {
            kernel: "fimm_boundary_hand".into(),
            name: "lambda".into(),
        };
        assert_eq!(err, expect);
        assert!(
            err.to_string().contains("fimm_boundary_hand") && err.to_string().contains("lambda")
        );
        // A buffer name bound as a scalar is unknown too: `nbrs` is a table.
        assert_eq!(Role::resolve("nbrs", false), None);
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
        let fi = StepKernel::handwritten(handwritten::fi_single_kernel(), p.kind()).unwrap();
        match err(Simulation::try_new(fimm(), p, StepKernels::single(fi), devices(2))) {
            SimError::HaloProof(why) => assert!(why.contains("`fi_single_hand`"), "{why}"),
            other => panic!("{other}"),
        }
    }
}
