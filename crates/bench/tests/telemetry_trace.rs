//! Golden end-to-end trace test: a cube(16) FI run at both precisions,
//! traced in Chrome mode, must produce a Perfetto-loadable document whose
//! kernel and transfer spans carry the expected names and whose per-kernel
//! flop and transaction-byte totals reconcile exactly (±0) with the device's
//! own profiling event log.
//!
//! Telemetry state is process-global, so this file holds a single `#[test]`
//! — integration-test binaries are separate processes, which isolates it
//! from the vgpu crate's own telemetry tests.

use bench::measure::{fi_setup, fi_single_kernels, Impl};
use room_acoustics::{GridDims, Precision, Simulation};
use vgpu::telemetry::{self, sink, TraceMode};
use vgpu::{Device, ExecMode};

#[test]
fn cube16_fi_trace_is_golden_at_both_precisions() {
    telemetry::set_mode(TraceMode::Chrome);
    telemetry::take_events(); // start from a clean buffer

    let dims = GridDims::cube(16);
    let steps = 3;
    let (mut expected_flops, mut expected_txn) = (0u64, 0u64);
    let mut expected_launches = 0u64;
    for precision in [Precision::Single, Precision::Double] {
        let kernels = fi_single_kernels(Impl::Lift, precision);
        let mut sim =
            Simulation::new(fi_setup(dims, 0.1), precision, kernels, vec![Device::gtx780()]);
        sim.impulse(8, 8, 8, 1.0);
        for _ in 0..steps {
            sim.step(ExecMode::Model { sample_stride: 1 });
        }
        for ev in sim.devices[0].events() {
            assert_eq!(ev.name, "fi_single_lift");
            expected_launches += 1;
            expected_flops += ev.stats.counters.flops;
            expected_txn += ev.stats.transaction_bytes.expect("model mode counts transactions");
        }
    }
    assert_eq!(expected_launches, 2 * steps as u64);

    let events = telemetry::take_events();
    let metrics = telemetry::registry().snapshot();
    let mut buf: Vec<u8> = Vec::new();
    sink::write_chrome(&mut buf, &events, &metrics).unwrap();
    let text = String::from_utf8(buf).unwrap();
    let stats = sink::validate_chrome(&text).expect("trace validates");

    // Expected span names: host-side phases, the kernel, and both transfer
    // directions (impulse reads and writes curr/prev; `nbrs` is uploaded).
    for name in ["Simulation::new", "Simulation::step", "fi_single_lift"] {
        assert!(stats.span_names.contains(name), "missing span `{name}`");
    }
    assert!(
        stats.span_names.iter().any(|n| n.starts_with("ToGPU(")),
        "missing ToGPU transfer span"
    );
    assert!(
        stats.span_names.iter().any(|n| n.starts_with("ToHost(")),
        "missing ToHost transfer span"
    );
    assert!(stats.track_names.contains("host"), "missing host track");

    // ±0 reconciliation against the device event log.
    assert_eq!(stats.kernel_flops.get("fi_single_lift"), Some(&expected_flops));
    assert_eq!(stats.kernel_txn_bytes.get("fi_single_lift"), Some(&expected_txn));

    // The per-kernel summary the reports embed agrees too.
    let kernels = sink::kernel_summaries(&events);
    let fi = kernels.iter().find(|k| k.name == "fi_single_lift").expect("summary row");
    assert_eq!(fi.launches, expected_launches);
    assert_eq!(fi.flops, expected_flops);
    assert_eq!(fi.transaction_bytes, expected_txn);
    assert!(fi.modeled_ms > 0.0, "model mode must produce a modeled time");
}
