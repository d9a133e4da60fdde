//! Schema tests for the telemetry layer: every [`Event`] variant's JSON text
//! must parse back to the tree it was printed from, the JSONL sink must emit one
//! well-formed JSON object per line, and the Chrome sink's output must pass
//! its own validator with the expected structural facts.

use vgpu::telemetry::sink;
use vgpu::telemetry::{Event, KernelMetrics, MetricSnapshot, Registry, TrackId, TransferDir};

/// One instance of every `Event` variant, with non-default field values so a
/// lossy printer cannot pass by accident.
fn all_variants() -> Vec<Event> {
    vec![
        Event::TrackName { track: TrackId(3), name: "GTX780 #1 kernels".into() },
        Event::Span { track: TrackId(0), name: "LiftSim::step".into(), ts_us: 12.5, dur_us: 800.0 },
        Event::Kernel {
            track: TrackId(3),
            name: "fimm_boundary_lift".into(),
            engine: "tape".into(),
            ts_us: 100.0,
            dur_us: 42.0,
            metrics: KernelMetrics {
                work_items: 4096,
                loads_global: 7,
                stores_global: 1,
                loads_constant: 2,
                bytes_loaded: 28_672,
                bytes_stored: 4096,
                flops: 65_536,
                transaction_bytes: Some(131_072),
                modeled_us: Some(3.25),
                divergent_warps: 5,
                tasks: 3,
            },
        },
        Event::ModeledKernel {
            track: TrackId(4),
            name: "volume_handling_lift".into(),
            ts_us: 0.0,
            dur_us: 3.25,
        },
        Event::Transfer {
            track: TrackId(5),
            dir: TransferDir::ToGpu,
            name: "ToGPU(buf2)".into(),
            bytes: 16_384,
            ts_us: 5.0,
            dur_us: 1.0,
        },
        Event::Alloc { name: "buf2".into(), bytes: 16_384, ts_us: 4.0 },
        Event::Free { name: "buf2".into(), bytes: 16_384, ts_us: 900.0 },
    ]
}

#[test]
fn every_variant_roundtrips() {
    for ev in all_variants() {
        let json = serde_json::to_string(&ev).expect("serialises");
        let doc: serde_json::Value = serde_json::from_str(&json).expect("parses");
        assert_eq!(doc, serde_json::to_value(&ev), "lossy round-trip via {json}");
        // The externally-visible discriminant is the `ev` tag.
        assert!(doc.get("ev").and_then(|v| v.as_str()).is_some(), "missing `ev` tag in {json}");
    }
}

#[test]
fn jsonl_is_one_well_formed_object_per_line() {
    let events = all_variants();
    let reg = Registry::new();
    reg.counter("vgpu.launches.tape").add(5);
    reg.gauge("vgpu.mem.allocated_bytes").add(1024);
    reg.histogram("xfer.bytes").record(4096);
    let metrics: Vec<MetricSnapshot> = reg.snapshot();

    let mut buf: Vec<u8> = Vec::new();
    sink::write_jsonl(&mut buf, &events, &metrics).unwrap();
    let text = String::from_utf8(buf).expect("utf-8");
    assert!(text.ends_with('\n'), "stream must end with a newline");

    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), events.len() + metrics.len());
    for (i, line) in lines.iter().enumerate() {
        let doc: serde_json::Value =
            serde_json::from_str(line).unwrap_or_else(|e| panic!("line {i} not JSON: {e}"));
        assert!(doc.is_object(), "line {i} is not an object");
        assert!(doc.get("ev").is_some(), "line {i} missing `ev` tag");
    }
    // Event lines parse back to the original events' trees.
    for (line, ev) in lines.iter().zip(&events) {
        let back: serde_json::Value = serde_json::from_str(line).unwrap();
        assert_eq!(back, serde_json::to_value(ev));
    }
    // Metric lines carry the snapshot under `metric`.
    assert!(lines[events.len()..].iter().all(|l| l.contains("\"metric\"")));
}

#[test]
fn chrome_sink_passes_its_validator() {
    let events = all_variants();
    let reg = Registry::new();
    reg.counter("vgpu.warp.divergent").add(1);
    let metrics = reg.snapshot();

    let mut buf: Vec<u8> = Vec::new();
    sink::write_chrome(&mut buf, &events, &metrics).unwrap();
    let text = String::from_utf8(buf).unwrap();
    let stats = sink::validate_chrome(&text).expect("emitted trace validates");

    // Every variant + 1 counter sample.
    assert_eq!(stats.events, events.len() + 1);
    assert!(stats.track_names.contains("GTX780 #1 kernels"));
    for name in ["LiftSim::step", "fimm_boundary_lift", "volume_handling_lift", "ToGPU(buf2)"] {
        assert!(stats.span_names.contains(name), "missing span `{name}`");
    }
    assert_eq!(stats.kernel_flops.get("fimm_boundary_lift"), Some(&65_536));
    assert_eq!(stats.kernel_txn_bytes.get("fimm_boundary_lift"), Some(&131_072));
    assert_eq!(stats.transfer_bytes.get("ToGPU"), Some(&16_384));
    // The modeled span must not double-count into the kernel totals.
    assert!(!stats.kernel_flops.contains_key("volume_handling_lift"));
}

#[test]
fn validator_rejects_malformed_traces() {
    assert!(sink::validate_chrome("not json").is_err());
    assert!(sink::validate_chrome("{}").is_err());
    assert!(sink::validate_chrome(r#"{"traceEvents": [{"ph": "X"}]}"#).is_err());
    assert!(sink::validate_chrome(
        r#"{"traceEvents": [{"name": "x", "ph": "Z", "ts": 0, "pid": 1, "tid": 0}]}"#
    )
    .is_err());
    // Negative duration is invalid.
    assert!(sink::validate_chrome(
        r#"{"traceEvents": [{"name": "x", "ph": "X", "ts": 0, "dur": -1, "pid": 1, "tid": 0}]}"#
    )
    .is_err());
}

#[test]
fn summaries_aggregate_per_kernel_and_direction() {
    let mut events = all_variants();
    // A second launch of the same kernel and a ToHost transfer.
    events.push(Event::Kernel {
        track: TrackId(3),
        name: "fimm_boundary_lift".into(),
        engine: "tree".into(),
        ts_us: 200.0,
        dur_us: 40.0,
        metrics: KernelMetrics {
            flops: 4,
            work_items: 10,
            divergent_warps: 2,
            tasks: 1,
            ..Default::default()
        },
    });
    events.push(Event::Transfer {
        track: TrackId(5),
        dir: TransferDir::ToHost,
        name: "ToHost(buf0)".into(),
        bytes: 64,
        ts_us: 300.0,
        dur_us: 1.0,
    });

    let kernels = sink::kernel_summaries(&events);
    let fimm = kernels.iter().find(|k| k.name == "fimm_boundary_lift").expect("fimm summary");
    assert_eq!(fimm.launches, 2);
    assert_eq!(fimm.flops, 65_540);
    assert_eq!(fimm.work_items, 4106);
    assert_eq!(fimm.transaction_bytes, 131_072);
    assert_eq!(fimm.divergent_warps, 7);
    assert_eq!((fimm.tasks, fimm.inline_launches), (4, 1));
    assert!((fimm.wall_ms - 0.082).abs() < 1e-12, "42 µs + 40 µs, got {} ms", fimm.wall_ms);

    let transfers = sink::transfer_summaries(&events);
    assert_eq!(transfers[0].dir, TransferDir::ToGpu);
    assert_eq!((transfers[0].transfers, transfers[0].bytes), (1, 16_384));
    assert_eq!(transfers[1].dir, TransferDir::ToHost);
    assert_eq!((transfers[1].transfers, transfers[1].bytes), (1, 64));
}
