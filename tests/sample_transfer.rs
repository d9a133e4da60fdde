//! `sample()` reads back one element, not the field: on every vgpu front
//! end one call accounts exactly one element's bytes as a `ToHost`
//! transfer. (Its own test binary: the assertion is a delta of the
//! process-wide `vgpu.xfer.to_host.bytes` counter.)

use lift_acoustics::{LiftBoundary, LiftSim};
use room_acoustics::{
    BoundaryKernel, GridDims, HandwrittenSim, Precision, RoomShape, ShardedSim, SimConfig, SimSetup,
};
use vgpu::Device;

fn to_host_bytes() -> u64 {
    vgpu::telemetry::registry().counter("vgpu.xfer.to_host.bytes").get()
}

#[test]
fn one_sample_transfers_one_element() {
    let dims = GridDims::new(10, 8, 9);
    let setup = || SimSetup::new(&SimConfig::fdmm(dims, RoomShape::Box));
    let (src, amp) = ((5, 4, 4), 1.0);
    for (precision, elem) in [(Precision::Single, 4), (Precision::Double, 8)] {
        let mut hand =
            HandwrittenSim::new(setup(), precision, BoundaryKernel::FdMm, Device::gtx780());
        let mut gen = LiftSim::new(setup(), precision, LiftBoundary::FdMm, Device::gtx780());
        let mut shard = ShardedSim::new(
            setup(),
            precision,
            BoundaryKernel::FdMm,
            vec![Device::gtx780(), Device::gtx780()],
        );
        hand.impulse(src.0, src.1, src.2, amp);
        gen.impulse(src.0, src.1, src.2, amp);
        shard.impulse(src.0, src.1, src.2, amp);
        hand.run(3);
        gen.run(3);
        shard.run(3);
        // One point per slab (planes 0–3 and 4–8 of 9), next to the source.
        for (x, y, z) in [(5, 4, 3), (5, 4, 5), (4, 4, 4)] {
            let expect = hand.read_curr()[dims.idx(x, y, z)];
            assert_ne!(expect, 0.0, "the impulse has reached ({x},{y},{z})");
            let samples: [(&str, &dyn Fn() -> f64); 3] = [
                ("HandwrittenSim", &|| hand.sample(x, y, z)),
                ("LiftSim", &|| gen.sample(x, y, z)),
                ("ShardedSim", &|| shard.sample(x, y, z)),
            ];
            for (front_end, sample) in samples {
                let before = to_host_bytes();
                let got = sample();
                assert_eq!(to_host_bytes() - before, elem, "{front_end} at ({x},{y},{z})");
                assert_eq!(got, expect, "{front_end} at ({x},{y},{z})");
            }
        }
    }
}
