//! Kernel measurement on the virtual GPU.

use lift_acoustics::LiftBoundary;
use room_acoustics::{
    BoundaryKernel, GridDims, HandwrittenFi, KernelSource, Precision, RoomShape, SimConfig,
    SimSetup, Simulation, SingleSim,
};
use serde::Serialize;
use vgpu::{Counters, Device, DeviceProfile, ExecMode, LaunchStats, ModelInput};

/// Which implementation a measurement exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Impl {
    /// The hand-written baseline (the paper's tuned "OpenCL" bars).
    OpenCl,
    /// The LIFT-generated kernel.
    Lift,
}

impl Impl {
    /// Figure label.
    pub fn label(self) -> &'static str {
        match self {
            Impl::OpenCl => "OpenCL",
            Impl::Lift => "LIFT",
        }
    }

    /// Both implementations, in the paper's plotting order.
    pub fn both() -> [Impl; 2] {
        [Impl::OpenCl, Impl::Lift]
    }
}

/// One measured kernel configuration.
#[derive(Debug, Clone, Serialize)]
pub struct Measurement {
    /// Implementation.
    pub impl_name: &'static str,
    /// Algorithm ("FI", "FI-MM", "FD-MM").
    pub algo: &'static str,
    /// Room-size label (the paper labels by leading dimension).
    pub size: String,
    /// Shape label.
    pub shape: &'static str,
    /// Precision label.
    pub precision: &'static str,
    /// Updates per kernel invocation (grid points for FI, boundary points
    /// for FI-MM/FD-MM) — the denominator of the throughput metric.
    pub updates: u64,
    /// Operation counters.
    pub counters: Counters,
    /// Coalesced DRAM traffic in bytes.
    pub txn_bytes: u64,
    /// Interpreter wall time (host-side, informational only).
    pub wall_ms: f64,
    /// True for f64 runs.
    pub double: bool,
}

impl Measurement {
    /// Modeled kernel time on a platform, in milliseconds.
    pub fn modeled_ms(&self, profile: &DeviceProfile) -> f64 {
        vgpu::modeled_time_s(
            &ModelInput {
                transaction_bytes: self.txn_bytes,
                flops: self.counters.flops,
                double_precision: self.double,
                halo_bytes: 0,
            },
            profile,
        ) * 1e3
    }

    /// Throughput in giga-updates per second on a platform (the paper's
    /// "Gigaelements Per Second").
    pub fn gups(&self, profile: &DeviceProfile) -> f64 {
        self.updates as f64 / (self.modeled_ms(profile) * 1e-3) / 1e9
    }
}

impl Measurement {
    fn new(
        which: Impl,
        algo: &'static str,
        dims: GridDims,
        shape: &'static str,
        precision: Precision,
        updates: u64,
        stats: LaunchStats,
    ) -> Measurement {
        Measurement {
            impl_name: which.label(),
            algo,
            size: dims.label(),
            shape,
            precision: precision.label(),
            updates,
            counters: stats.counters,
            txn_bytes: stats.transaction_bytes.expect("model mode"),
            wall_ms: stats.wall.as_secs_f64() * 1e3,
            double: precision == Precision::Double,
        }
    }
}

/// One boundary launch in transaction-counting mode on a fresh device.
/// Boundary traffic is value-independent (no data-dependent branches), so
/// the kernel is measured in isolation without a volume pass.
fn boundary_launch(
    setup: SimSetup,
    precision: Precision,
    kernels: impl KernelSource,
) -> LaunchStats {
    SingleSim::new(setup, precision, kernels, Device::gtx780())
        .boundary_step_only(ExecMode::Model { sample_stride: 1 })
}

/// Measures the FI-MM boundary kernel (Figure 5 / Table V) for one
/// configuration.
pub fn measure_fimm(
    dims: GridDims,
    shape: RoomShape,
    precision: Precision,
    which: Impl,
) -> Measurement {
    let setup = SimSetup::new(&SimConfig::fimm(dims, shape));
    let updates = setup.num_b() as u64;
    let stats = match which {
        // the hand-tuned kernel keeps β in constant memory (§VII-B1)
        Impl::OpenCl => {
            boundary_launch(setup, precision, BoundaryKernel::FiMm { beta_constant: true })
        }
        Impl::Lift => boundary_launch(setup, precision, LiftBoundary::FiMm),
    };
    Measurement::new(which, "FI-MM", dims, shape.label(), precision, updates, stats)
}

/// Measures the FD-MM boundary kernel (Figure 6 / Table VI, `MB = 3`).
pub fn measure_fdmm(
    dims: GridDims,
    shape: RoomShape,
    precision: Precision,
    which: Impl,
) -> Measurement {
    let setup = SimSetup::new(&SimConfig::fdmm(dims, shape));
    let updates = setup.num_b() as u64;
    let stats = match which {
        Impl::OpenCl => boundary_launch(setup, precision, BoundaryKernel::FdMm),
        Impl::Lift => boundary_launch(setup, precision, LiftBoundary::FdMm),
    };
    Measurement::new(which, "FD-MM", dims, shape.label(), precision, updates, stats)
}

/// The one-kernel FI simulation (Listing 1 hand-written, Listing 6
/// generated) as a kernel set.
pub fn fi_single_kernels(which: Impl) -> &'static dyn KernelSource {
    match which {
        Impl::OpenCl => &HandwrittenFi,
        Impl::Lift => &LiftBoundary::Fi,
    }
}

/// A uniform-β box room for the one-kernel FI simulation.
pub fn fi_setup(dims: GridDims, beta: f64) -> SimSetup {
    SimSetup::new(&SimConfig {
        dims,
        shape: RoomShape::Box,
        assignment: room_acoustics::MaterialAssignment::Uniform,
        boundary: room_acoustics::BoundaryModel::Fi { beta },
    })
}

/// Measures the naive one-kernel FI simulation (Figure 4 / Table IV, box
/// rooms). The full grid is too large to trace exhaustively on this host,
/// so the transaction model samples every `sample_stride`-th warp — valid
/// because the stencil is translation-invariant (see
/// [`vgpu::ExecMode::Model`]).
pub fn measure_fi_single(
    dims: GridDims,
    precision: Precision,
    which: Impl,
    sample_stride: usize,
) -> Measurement {
    let kernels = fi_single_kernels(which);
    let mut sim = Simulation::new(fi_setup(dims, 0.1), precision, kernels, vec![Device::gtx780()]);
    sim.impulse(dims.nx / 3, dims.ny / 3, dims.nz / 3, 1.0);
    let (stats, _) = sim.step(ExecMode::Model { sample_stride }).remove(0);
    Measurement::new(which, "FI", dims, "box", precision, dims.total() as u64, stats)
}

/// The room sizes to benchmark: the paper's Table II sizes, or reduced
/// stand-ins when `REPRO_QUICK=1` (identical aspect ratios, ~1/4 linear
/// scale) for fast smoke runs.
pub fn bench_sizes() -> Vec<GridDims> {
    if std::env::var("REPRO_QUICK").as_deref() == Ok("1") {
        vec![GridDims::new(152, 102, 77), GridDims::cube(84), GridDims::new(77, 52, 40)]
    } else {
        GridDims::paper_sizes().to_vec()
    }
}

/// Warp-sampling stride for full-grid (volume) measurements, scaled so the
/// sampled work stays around a million work-items.
pub fn volume_stride(dims: &GridDims) -> usize {
    (dims.total() / 1_000_000).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fimm_measurement_roundtrip() {
        let dims = GridDims::new(40, 30, 24);
        let m = measure_fimm(dims, RoomShape::Box, Precision::Single, Impl::Lift);
        assert_eq!(m.algo, "FI-MM");
        assert!(m.txn_bytes > 0);
        assert!(m.updates > 0);
        let p = DeviceProfile::gtx780();
        assert!(m.modeled_ms(&p) > 0.0);
        assert!(m.gups(&p) > 0.0);
    }

    #[test]
    fn lift_and_handwritten_fimm_are_on_par() {
        // The headline claim at small scale: generated ≈ hand-written.
        let dims = GridDims::new(40, 30, 24);
        let p = DeviceProfile::gtx780();
        let a = measure_fimm(dims, RoomShape::Box, Precision::Single, Impl::OpenCl);
        let b = measure_fimm(dims, RoomShape::Box, Precision::Single, Impl::Lift);
        let ratio = b.modeled_ms(&p) / a.modeled_ms(&p);
        assert!((0.5..=2.0).contains(&ratio), "LIFT/OpenCL ratio {ratio}");
    }

    #[test]
    fn fdmm_costs_more_than_fimm_per_update() {
        let dims = GridDims::new(40, 30, 24);
        let p = DeviceProfile::gtx780();
        let fi = measure_fimm(dims, RoomShape::Box, Precision::Double, Impl::OpenCl);
        let fd = measure_fdmm(dims, RoomShape::Box, Precision::Double, Impl::OpenCl);
        assert!(fd.gups(&p) < fi.gups(&p), "FD-MM must be slower per update");
    }

    #[test]
    fn fi_sampling_is_consistent() {
        let dims = GridDims::new(40, 30, 24);
        let full = measure_fi_single(dims, Precision::Single, Impl::Lift, 1);
        let sampled = measure_fi_single(dims, Precision::Single, Impl::Lift, 4);
        let r = sampled.txn_bytes as f64 / full.txn_bytes as f64;
        assert!((0.85..=1.15).contains(&r), "sampled/full traffic ratio {r}");
    }
}
