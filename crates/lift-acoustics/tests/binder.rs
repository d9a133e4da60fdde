//! The step-program binder over both kernel families: every generated
//! set launches what it prints, a simulation uploads exactly what the
//! front end it replaced uploaded, and generated kernels launch under their contract.
//! Each pin reads the counters of a device on a runtime of its own.

use lift_acoustics::{programs, LiftBoundary};
use room_acoustics::{
    BoundaryKernel, GridDims, KernelSource, Precision, RoomShape, SimConfig, SimSetup, Simulation,
};
use vgpu::{Device, DeviceProfile, Engine, ExecMode, Runtime};

/// A device on a fresh runtime with the environment's settings.
fn device() -> Device {
    Device::with_runtime(DeviceProfile::gtx780(), Runtime::new(vgpu::runtime().settings))
}

/// Each generated set's step launches the kernels [`programs::Program::lower`]
/// prints, under the contract `lift_verify` proves them with: what ships
/// is what prints.
#[test]
fn every_generated_set_launches_the_kernels_it_prints() {
    let setup = SimSetup::new(&SimConfig::fdmm(GridDims::cube(9), RoomShape::Box));
    let sets = [
        (LiftBoundary::Fi, vec![programs::fi_single_program()]),
        (LiftBoundary::FiMm, vec![programs::volume_program(), programs::fimm_program()]),
        (LiftBoundary::FdMm, vec![programs::volume_program(), programs::fdmm_program()]),
    ];
    for (set, programs) in sets {
        for precision in [Precision::Single, Precision::Double] {
            let sim = Simulation::new(setup.clone(), precision, set, vec![device()]);
            assert_eq!(sim.kernels().count(), programs.len(), "{set:?}");
            for (k, p) in sim.kernels().zip(&programs) {
                let lowered = p.lower(precision.kind()).unwrap();
                let contract = programs::launch_assumptions(p, &lowered);
                assert_eq!(k.kernel, lowered.kernel, "{}", p.name);
                assert_eq!(format!("{:?}", k.contract), format!("{contract:?}"), "{}", p.name);
                assert_eq!(k.global, lowered.global_size, "{}", p.name);
            }
        }
    }
}

/// (bytes, transfers) a construction moves host → device.
fn uploaded(setup: &SimSetup, precision: Precision, source: impl KernelSource) -> (u64, u64) {
    let sim = Simulation::new(setup.clone(), precision, source, vec![device()]);
    let reg = &sim.devices[0].runtime().registry;
    (reg.counter("vgpu.xfer.to_gpu.bytes").get(), reg.counter("vgpu.xfer.to_gpu.transfers").get())
}

/// Pinned on the commit before `Simulation` existed, from
/// `HandwrittenSim::new` and `LiftSim::new`: a slab uploads the inputs its
/// kernel set names and nothing else — `bnbrs` (one i32 per boundary point)
/// for the generated kernels only.
#[test]
fn a_simulation_uploads_what_the_front_end_it_replaced_uploaded() {
    let fdmm = SimSetup::new(&SimConfig::fdmm(GridDims::cube(12), RoomShape::Dome));
    assert_eq!(uploaded(&fdmm, Precision::Single, BoundaryKernel::FdMm), (8732, 8));
    assert_eq!(uploaded(&fdmm, Precision::Single, LiftBoundary::FdMm), (9564, 9));
    assert_eq!(9564 - 8732, 4 * fdmm.num_b() as u64, "the difference is bnbrs");
    let fimm = SimSetup::new(&SimConfig::fimm(GridDims::cube(12), RoomShape::Box));
    let hand_fimm = BoundaryKernel::FiMm { beta_constant: false };
    assert_eq!(uploaded(&fimm, Precision::Double, hand_fimm), (10840, 4));
    assert_eq!(uploaded(&fimm, Precision::Double, LiftBoundary::FiMm), (12792, 5));
}

/// Generated kernels used to run without a launch contract (only the
/// hand-written ones were ever registered), so the tape executor kept a
/// bounds check on every data-dependent gather of `fdmm_boundary_lift`: 28
/// sites proven, 10 checked. Under the contract `lift_verify` proves them
/// with, all 10 + 25 sites of the volume and boundary kernels are proven —
/// the hand-written kernels' counts: the volume kernel stores under
/// `nbrs > 0` only, and the boundary kernel's `vsNew` is a scalar, not a
/// private array written and read back.
#[test]
fn generated_kernels_launch_under_their_contract() {
    // A room no other test of this binary launches: proofs are memoized per
    // launch shape, and only a first sighting moves the counters.
    let setup = SimSetup::new(&SimConfig::fdmm(GridDims::new(13, 11, 10), RoomShape::Dome));
    let mut device = device();
    device.set_engine(Engine::Fast);
    let mut sim = Simulation::new(setup, Precision::Single, LiftBoundary::FdMm, vec![device]);
    sim.step(ExecMode::Fast);
    let reg = &sim.devices[0].runtime().registry;
    let (proven, checked) = ("vgpu.tape.sites_proven", "vgpu.tape.sites_checked");
    assert_eq!((reg.counter(proven).get(), reg.counter(checked).get()), (35, 0));
}
