//! A launch contract belongs to the artifact compiled under it and to
//! nothing else: a plain `Device::compile` of a shipped kernel — or of
//! another kernel that merely carries its name — is bounds-checked on
//! launch-concrete facts alone, whatever simulations ran before it in the
//! process. (Contracts used to be registered by kernel *name*: after any
//! FI-MM simulation had stepped, the stray launch below read and wrote out
//! of bounds in `--release`.)
//!
//! CI runs this binary in `--release` too, where a PROVEN site carries no
//! check at all. The tests that count proven and checked sites launch on
//! runtimes of their own.

use lift::kast::{KExpr, KStmt, Kernel, KernelParam, MemRef};
use lift::prelude::{BinOp, Lit, ScalarKind, Value};
use room_acoustics::{
    handwritten, BoundaryKernel, GridDims, HandwrittenSim, Precision, RoomShape, SimConfig,
    SimError, SimSetup, Simulation, StepKernels,
};
use vgpu::{Arg, BufData, Device, DeviceProfile, Engine, ExecMode, Runtime};

/// A device on a fresh runtime with the environment's settings.
fn device() -> Device {
    Device::with_runtime(DeviceProfile::gtx780(), Runtime::new(vgpu::runtime().settings))
}

/// `[proven, checked]` site totals of the check tables `dev`'s launches
/// built.
fn sites(dev: &Device) -> [u64; 2] {
    let reg = &dev.runtime().registry;
    ["vgpu.tape.sites_proven", "vgpu.tape.sites_checked"].map(|c| reg.counter(c).get())
}

fn step_an_fimm_simulation() {
    let setup = SimSetup::new(&SimConfig::fimm(GridDims::cube(8), RoomShape::Box));
    let kind = BoundaryKernel::FiMm { beta_constant: false };
    let mut sim = HandwrittenSim::new(setup, Precision::Single, kind, Device::gtx780());
    sim.impulse(4, 4, 4, 1.0);
    sim.step(ExecMode::Fast);
}

/// One boundary point at grid cell 7 of a 4-cell grid, launched on a plain
/// compile of the shipped FI-MM kernel: the panic message.
fn stray_fimm_launch() -> String {
    let mut dev = Device::gtx780();
    dev.set_engine(Engine::Fast);
    let prep = dev.compile(&handwritten::fimm_kernel(false).resolve_real(ScalarKind::F32)).unwrap();
    let bufs = [
        BufData::from(vec![7i32]),
        BufData::from(vec![0i32; 8]),
        BufData::from(vec![0i32]),
        BufData::from(vec![0.1f32]),
        BufData::from(vec![0.0f32; 4]),
        BufData::from(vec![0.0f32; 4]),
    ];
    let mut args: Vec<Arg> = bufs.into_iter().map(|b| Arg::Buf(dev.upload(b))).collect();
    args.extend([Arg::Val(Value::F32(0.5)), Arg::Val(Value::I32(1))]);
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = dev.launch(&prep, &args, &[1], ExecMode::Fast);
    }))
    .expect_err("`next[7]` of a 4-element buffer must panic");
    payload.downcast_ref::<String>().cloned().unwrap_or_default()
}

#[test]
fn a_contract_free_launch_is_bounds_checked_whatever_ran_before() {
    let want = "load out of bounds: param 4[7] (len 4)";
    let fresh = stray_fimm_launch();
    assert!(fresh.contains(want), "before any simulation: {fresh:?}");
    step_an_fimm_simulation();
    let after = stray_fimm_launch();
    assert!(after.contains(want), "after an FI-MM simulation stepped: {after:?}");
}

/// `if (gid < numB) next[boundaryIndices[gid]] = 1;` under the shipped
/// FI-MM kernel's name and parameter names. Only that kernel's contract
/// says what `boundaryIndices` holds, so this one proves its load from the
/// launch shape and keeps the check on its scattered store.
#[test]
fn a_kernel_that_shares_a_shipped_name_gets_launch_concrete_proofs_only() {
    step_an_fimm_simulation();
    let gid = || KExpr::GlobalId(0);
    let kernel = Kernel {
        name: "fimm_boundary_hand".into(),
        params: vec![
            KernelParam::global_buf("boundaryIndices", ScalarKind::I32),
            KernelParam::global_buf("next", ScalarKind::F32),
            KernelParam::scalar("numB", ScalarKind::I32),
        ],
        body: vec![
            KStmt::return_if(KExpr::bin(BinOp::Ge, gid(), KExpr::var("numB"))),
            KStmt::Store {
                mem: MemRef::Param(1),
                idx: KExpr::load(MemRef::Param(0), gid()),
                value: KExpr::Lit(Lit::f32(1.0)),
            },
        ],
        work_dim: 1,
    };
    let mut dev = device();
    dev.set_engine(Engine::Fast);
    let prep = dev.compile(&kernel).unwrap();
    let bidx = dev.upload(BufData::from(vec![2i32, 0]));
    let next = dev.upload(BufData::from(vec![0.0f32; 3]));
    let args = [Arg::Buf(bidx), Arg::Buf(next), Arg::Val(Value::I32(2))];
    dev.launch(&prep, &args, &[2], ExecMode::Fast).unwrap();
    assert_eq!(sites(&dev), [1, 1], "[proven, checked]");
    assert_eq!(dev.read(next).to_f64_vec(), vec![1.0, 0.0, 1.0]);
}

/// The slab form of a kernel is compiled under the kernel's own contract
/// restated for the placement, so the generated volume kernel keeps every
/// proof on a slab that it has on the whole grid: no launch shape of either
/// leaves a site bounds-checked.
#[test]
fn the_generated_volume_kernel_proves_every_site_on_a_slab_as_on_the_whole_grid() {
    for n in [1, 2] {
        let setup = SimSetup::new(&SimConfig::fimm(GridDims::new(10, 9, 8), RoomShape::Box));
        let volume = lift_acoustics::programs::volume_program();
        let volume = lift_acoustics::runner::step_kernel(&volume, ScalarKind::F32).unwrap();
        let devices = (0..n).map(|_| device()).collect();
        let kernels = StepKernels::single(volume);
        let mut sim = Simulation::new(setup, Precision::Single, kernels, devices);
        sim.step(ExecMode::Fast);
        let [proven, checked] =
            sim.devices.iter().map(sites).fold([0, 0], |a, s| [a[0] + s[0], a[1] + s[1]]);
        assert!(proven > 0, "{n} device(s): a new launch shape proves its sites");
        assert_eq!(checked, 0, "{n} device(s): sites left checked");
    }
}

/// The interior-mask fact both kernel sets are compiled under — the bounds
/// proofs of either, and the generated stencil's folded pad guards — is
/// checked, not assumed: a room whose `nbrs` marks one halo cell
/// (`RoomModel`'s fields are public) is refused, naming the cell, on one
/// device and on two, whichever set would run it.
#[test]
fn a_mask_on_the_halo_is_refused_for_either_kernel_set() {
    let mut setup = SimSetup::new(&SimConfig::fimm(GridDims::new(10, 9, 8), RoomShape::Box));
    let (x, y, z) = (4, 0, 3);
    let cell = setup.dims().idx(x, y, z);
    setup.room.nbrs[cell] = 1;
    let want = Some(SimError::MaskOnHalo { x, y, z });
    let (p, hand) = (Precision::Single, BoundaryKernel::FiMm { beta_constant: false });
    for n in [1, 2] {
        let devices = || (0..n).map(|_| device()).collect::<Vec<_>>();
        assert_eq!(Simulation::try_new(setup.clone(), p, hand, devices()).err(), want);
        let generated = lift_acoustics::LiftBoundary::FiMm;
        assert_eq!(Simulation::try_new(setup.clone(), p, generated, devices()).err(), want);
    }
}
