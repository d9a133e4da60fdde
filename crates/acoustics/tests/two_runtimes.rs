//! Two runtimes, one process: a differential, sanitized, traced runtime and
//! a fast, unsanitized, untraced one step the same sharded room at the same
//! time. Each keeps its own settings, counters and trace, and the default
//! runtime sees none of it.

use room_acoustics::{
    BoundaryKernel, GridDims, Precision, RoomShape, SimConfig, SimSetup, Simulation,
};
use std::sync::{Arc, Barrier};
use vgpu::telemetry::{MetricSnapshot, TrackId, HOST_TRACK};
use vgpu::{Device, DeviceProfile, Engine, ExecMode, Runtime, Settings, TraceMode};

const STEPS: usize = 20;

/// What one runtime's run left behind.
struct Run {
    field: Vec<f64>,
    launches: u64,
    /// The host track and the tracks of the run's devices.
    tracks: Vec<TrackId>,
}

/// The hand-written FD-MM dome, 20 steps on two devices of `rt`.
fn run(rt: &Arc<Runtime>, start: &Barrier) -> Run {
    let setup = SimSetup::new(&SimConfig::fdmm(GridDims::new(16, 14, 12), RoomShape::Dome));
    let devices = (0..2).map(|_| Device::with_runtime(DeviceProfile::gtx780(), rt.clone()));
    let mut sim =
        Simulation::new(setup, Precision::Single, BoundaryKernel::FdMm, devices.collect());
    sim.impulse(8, 7, 3, 1.0);
    start.wait();
    let mut launches = 0;
    for _ in 0..STEPS {
        for (_, boundary) in sim.step(ExecMode::Fast) {
            launches += 1 + u64::from(boundary.is_some());
        }
    }
    let devices = sim.devices.iter().filter_map(Device::telemetry_tracks).flatten();
    Run {
        field: sim.read_curr(),
        launches,
        tracks: std::iter::once(HOST_TRACK).chain(devices).collect(),
    }
}

/// The default registry's device-path metrics: launches, transfers, halo
/// traffic, dispatch, sanitizer and divergence.
fn device_path_metrics() -> Vec<MetricSnapshot> {
    let device_path = |name: &str| {
        ["vgpu.launches.", "vgpu.xfer.", "vgpu.halo.", "vgpu.dispatch.", "vgpu.sanitize."]
            .iter()
            .any(|p| name.starts_with(p))
            || name == "vgpu.warp.divergent"
    };
    vgpu::telemetry::registry().snapshot().into_iter().filter(|m| device_path(&m.name)).collect()
}

#[test]
fn two_runtimes_run_side_by_side_with_their_own_settings_and_accounts() {
    // B: fast, unsanitized, untraced; A: differential, sanitized, traced.
    let plain = Settings { engine: Engine::Fast, devices: 2, ..Settings::default() };
    let b = Runtime::new(plain);
    let a = Runtime::new(Settings {
        engine: Engine::Differential,
        trace: TraceMode::Chrome,
        shadow: true,
        ..plain
    });
    let default_before = device_path_metrics();
    let start = Barrier::new(2);
    let (ra, rb) = std::thread::scope(|s| {
        let ta = s.spawn(|| run(&a, &start));
        let tb = s.spawn(|| run(&b, &start));
        (ta.join().unwrap(), tb.join().unwrap())
    });

    // The engines differ, the results do not.
    assert_eq!(ra.field.len(), rb.field.len());
    assert!(ra.field.iter().zip(&rb.field).all(|(x, y)| x.to_bits() == y.to_bits()));
    assert!(ra.field.iter().any(|&p| p != 0.0), "the wave left the source");

    // Every launch of A ran the oracle too; none of B's did.
    let count = |rt: &Runtime, name: &str| rt.registry.counter(name).get();
    assert_eq!(ra.launches, rb.launches);
    assert_eq!(count(&a, "vgpu.launches.oracle"), ra.launches);
    assert_eq!(count(&b, "vgpu.launches.oracle"), 0);
    assert_eq!(
        (count(&a, "vgpu.launches.tape"), count(&b, "vgpu.launches.tape")),
        (ra.launches, rb.launches)
    );

    // B traced nothing; everything A traced is on its own tracks.
    assert!(b.trace.take_events().is_empty());
    let events = a.trace.take_events();
    assert!(events.iter().any(|e| matches!(e, vgpu::telemetry::Event::Kernel { .. })));
    for e in &events {
        assert!(e.track().is_none_or(|t| ra.tracks.contains(&t)), "foreign track: {e:?}");
    }

    // A's buffers carry shadow memory and stayed clean; B's carry none.
    assert!(count(&a, "vgpu.sanitize.shadowed_buffers") > 0);
    assert!(a.findings.all().is_empty());
    assert_eq!(count(&b, "vgpu.sanitize.shadowed_buffers"), 0);

    // Neither run touched the default runtime's device-path accounts.
    assert_eq!(device_path_metrics(), default_before);
}
