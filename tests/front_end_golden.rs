//! The front end, pinned against the five it replaced.
//!
//! The constants below were recorded on the commit *before* `Simulation`
//! existed — from `HandwrittenSim`, `LiftSim`, `FiSingleLift` and the inline
//! hand-written FI launch of `bench::measure` — on a 12³ box and a 12³ dome:
//! 11 fast steps, then one step under `ExecMode::Model { sample_stride: 1 }`.
//! Each row holds an FNV-1a over the bits of `read_curr()`, the last step's
//! summed counters (`loads_global, stores_global, loads_constant,
//! bytes_loaded, bytes_stored, flops, work_items`) and its transaction
//! bytes. So the refactor is checked against the code it removed, not
//! against itself; and sharding is checked against one device bit for bit.
//!
//! The counters and transaction bytes of the `gen` rows were re-recorded
//! when lowering began sinking the stencil loads under `nbrs > 0`
//! (`lift::simplify`, DESIGN.md §14): loads and flops of the two-kernel sets
//! now equal the `hand` rows', stores are one per work-item; every field
//! hash is the original one.

use lift_acoustics::LiftBoundary;
use room_acoustics::simulation::sum_step_stats;
use room_acoustics::{
    BoundaryKernel, BoundaryModel, GridDims, HandwrittenFi, KernelSource, MaterialAssignment,
    Precision, RoomShape, SimConfig, SimSetup, Simulation,
};
use vgpu::{Device, ExecMode, SlabPartition};

use Precision::{Double as F64, Single as F32};
use RoomShape::{Box as BOX, Dome as DOME};

type Golden = (&'static str, &'static str, Precision, RoomShape, u64, [u64; 7], u64);

#[rustfmt::skip]
const GOLDEN: [Golden; 28] = [
    ("hand", "fi", F32, BOX, 0xec5880e7c34566e7, [8000, 1000, 0, 32000, 4000, 14416, 1728], 94208),
    ("hand", "fimm", F32, BOX, 0x2ae733cb6c58f16c, [12656, 1488, 0, 50624, 5952, 14416, 2216], 126208),
    ("hand", "fimm_const", F32, BOX, 0x2ae733cb6c58f16c, [12168, 1488, 488, 48672, 5952, 14416, 2216], 124160),
    ("hand", "fdmm", F32, BOX, 0x66c5e01b667610b3, [24368, 4416, 0, 97472, 17664, 39304, 2216], 203008),
    ("gen", "fi", F32, BOX, 0xec5880e7c34566e7, [9728, 1728, 0, 38912, 6912, 15880, 1728], 95744),
    ("gen", "fimm", F32, BOX, 0x2ae733cb6c58f16c, [12656, 2216, 0, 50624, 8864, 14416, 2216], 127360),
    ("gen", "fdmm", F32, BOX, 0x66c5e01b667610b3, [24368, 5144, 0, 97472, 20576, 39304, 2216], 204160),
    ("hand", "fi", F64, BOX, 0x6728367b7fa95945, [8000, 1000, 0, 64000, 8000, 14416, 1728], 140544),
    ("hand", "fimm", F64, BOX, 0x1e7b65c86e3fe2bd, [12656, 1488, 0, 88480, 11904, 14416, 2216], 179840),
    ("hand", "fimm_const", F64, BOX, 0x1e7b65c86e3fe2bd, [12168, 1488, 488, 84576, 11904, 14416, 2216], 177792),
    ("hand", "fdmm", F64, BOX, 0xae6a99c9c2c26b5f, [24368, 4416, 0, 182176, 35328, 39304, 2216], 272000),
    ("gen", "fi", F64, BOX, 0x6728367b7fa95945, [9728, 1728, 0, 70912, 13824, 15880, 1728], 139776),
    ("gen", "fimm", F64, BOX, 0x1e7b65c86e3fe2bd, [12656, 2216, 0, 88480, 17728, 14416, 2216], 187904),
    ("gen", "fdmm", F64, BOX, 0xae6a99c9c2c26b5f, [24368, 5144, 0, 182176, 41152, 39304, 2216], 280064),
    ("hand", "fi", F32, DOME, 0x59efa7da4b9242ae, [8000, 1000, 0, 32000, 4000, 14416, 1728], 94208),
    ("hand", "fimm", F32, DOME, 0xc91498e9a315cb59, [6144, 604, 0, 24576, 2416, 5812, 1936], 80000),
    ("hand", "fimm_const", F32, DOME, 0xc91498e9a315cb59, [5936, 604, 208, 23744, 2416, 5812, 1936], 79104),
    ("hand", "fdmm", F32, DOME, 0x0b9afc15c4b106b8, [11136, 1852, 0, 44544, 7408, 16420, 1936], 109952),
    ("gen", "fi", F32, DOME, 0x87e66b53ff6ecf5d, [4896, 1728, 0, 19584, 6912, 6436, 1728], 65280),
    ("gen", "fimm", F32, DOME, 0xc91498e9a315cb59, [6144, 1936, 0, 24576, 7744, 5812, 1936], 83072),
    ("gen", "fdmm", F32, DOME, 0x0b9afc15c4b106b8, [11136, 3184, 0, 44544, 12736, 16420, 1936], 113024),
    ("hand", "fi", F64, DOME, 0x7e97ca14630dd30f, [8000, 1000, 0, 64000, 8000, 14416, 1728], 140544),
    ("hand", "fimm", F64, DOME, 0xdc39b0d65f113ab6, [6144, 604, 0, 39744, 4832, 5812, 1936], 108160),
    ("hand", "fimm_const", F64, DOME, 0xdc39b0d65f113ab6, [5936, 604, 208, 38080, 4832, 5812, 1936], 107264),
    ("hand", "fdmm", F64, DOME, 0x6fd09516d7390082, [11136, 1852, 0, 79680, 14816, 16420, 1936], 144256),
    ("gen", "fi", F64, DOME, 0x3e750dd0195f4c89, [4896, 1728, 0, 32256, 13824, 6436, 1728], 91520),
    ("gen", "fimm", F64, DOME, 0xdc39b0d65f113ab6, [6144, 1936, 0, 39744, 15488, 5812, 1936], 118144),
    ("gen", "fdmm", F64, DOME, 0x6fd09516d7390082, [11136, 3184, 0, 79680, 25472, 16420, 1936], 154240),
];

const MODEL: ExecMode = ExecMode::Model { sample_stride: 1 };

fn fnv(field: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in field.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        h = (h ^ b as u64).wrapping_mul(0x100000001b3);
    }
    h
}

fn config(scheme: &str, shape: RoomShape) -> SimConfig {
    let dims = GridDims::cube(12);
    match scheme {
        "fi" => SimConfig {
            dims,
            shape,
            assignment: MaterialAssignment::Uniform,
            boundary: BoundaryModel::Fi { beta: 0.1 },
        },
        "fdmm" => SimConfig::fdmm(dims, shape),
        _ => SimConfig::fimm(dims, shape),
    }
}

fn kernels(family: &str, scheme: &str) -> &'static dyn KernelSource {
    match (family, scheme) {
        ("hand", "fi") => &HandwrittenFi,
        ("hand", "fimm") => &BoundaryKernel::FiMm { beta_constant: false },
        ("hand", "fimm_const") => &BoundaryKernel::FiMm { beta_constant: true },
        ("hand", _) => &BoundaryKernel::FdMm,
        (_, "fi") => &LiftBoundary::Fi,
        (_, "fimm") => &LiftBoundary::FiMm,
        _ => &LiftBoundary::FdMm,
    }
}

fn devices(n: usize) -> Vec<Device> {
    (0..n).map(|_| Device::gtx780()).collect()
}

/// 11 fast steps and one modeled step from an impulse at the room's
/// centre; returns (field hash, last step's summed counters, its
/// transaction bytes).
fn run(sim: &mut Simulation, shape: RoomShape) -> (u64, [u64; 7], u64) {
    let z = if shape == BOX { 6 } else { 3 };
    sim.impulse(6, 6, z, 1.0);
    sim.run(11);
    let (c, txn) = sum_step_stats(&sim.step(MODEL));
    let counters = [
        c.loads_global,
        c.stores_global,
        c.loads_constant,
        c.bytes_loaded,
        c.bytes_stored,
        c.flops,
        c.work_items,
    ];
    (fnv(&sim.read_curr()), counters, txn.expect("model mode"))
}

#[test]
fn one_device_matches_the_front_ends_it_replaced() {
    for (family, scheme, precision, shape, field, counters, txn) in GOLDEN {
        let setup = SimSetup::new(&config(scheme, shape));
        let mut sim = Simulation::new(setup, precision, kernels(family, scheme), devices(1));
        assert_eq!(
            run(&mut sim, shape),
            (field, counters, txn),
            "{family} {scheme} {precision:?} {shape:?}"
        );
    }
}

/// Hand-written kernels over 2 and 3 balanced slabs and one explicit,
/// deliberately lopsided partition: the field equals the one-device golden
/// bit for bit, and the summed counters equal its counters (transaction
/// bytes depend on where the boundary list is cut, so they are not
/// compared here — `crates/acoustics/tests/shard_identity.rs` pins them at
/// warp-aligned cuts).
#[test]
fn hand_written_slabs_match_one_device() {
    for (family, scheme, precision, shape, field, counters, _) in GOLDEN {
        if family != "hand" || scheme == "fi" {
            continue;
        }
        let what = format!("{scheme} {precision:?} {shape:?}");
        let sim = |part: SlabPartition| {
            Simulation::try_with_partition(
                SimSetup::new(&config(scheme, shape)),
                precision,
                kernels(family, scheme),
                devices(part.device_count()),
                part,
            )
            .unwrap()
        };
        for part in [
            SlabPartition::balanced(12, 2),
            SlabPartition::balanced(12, 3),
            SlabPartition::from_cuts(12, vec![0, 2, 9, 12]),
        ] {
            let cuts = part.cuts().to_vec();
            let (got_field, got_counters, _) = run(&mut sim(part), shape);
            assert_eq!(got_field, field, "{what} cut at {cuts:?}: field");
            assert_eq!(got_counters, counters, "{what} cut at {cuts:?}: counters");
        }
    }
}

/// Slab placement is derived from the kernel, so the generated sets shard
/// too — the one-kernel FI program included, whose walls come from `nbrs`:
/// on 2 and 3 devices field and energy equal one device's bit for bit, f32
/// and f64, and so do the summed counters, loads included — the stencil
/// loads sit under `nbrs > 0`, and the cells next to a slab's outermost,
/// never-written halo planes are the grid's exterior shell.
#[test]
fn generated_slabs_match_one_device() {
    for (family, scheme, precision, shape, field, counters, _) in GOLDEN {
        if family != "gen" {
            continue;
        }
        let sim = |n| {
            let setup = SimSetup::new(&config(scheme, shape));
            Simulation::try_new(setup, precision, kernels(family, scheme), devices(n)).unwrap()
        };
        let mut single = sim(1);
        run(&mut single, shape);
        for n in [2, 3] {
            let what = format!("{scheme} {precision:?} {shape:?} on {n} devices");
            let mut sharded = sim(n);
            let (got_field, got_counters, _) = run(&mut sharded, shape);
            assert_eq!(got_field, field, "{what}: field");
            assert_eq!(sharded.energy().to_bits(), single.energy().to_bits(), "{what}: energy");
            assert_eq!(got_counters, counters, "{what}: counters");
        }
    }
}
