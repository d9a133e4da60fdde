//! Schema tests for the telemetry layer: every [`Event`] variant's JSON tree
//! (`serde_json::to_value`) must parse back from the text it prints, and the
//! Chrome sink's output must pass its own validator with the expected
//! structural facts.

use lift::kast::{KExpr, KStmt, Kernel, KernelParam, MemRef};
use lift::prelude::{Lit, ScalarKind};
use vgpu::profiler::OpProf;
use vgpu::telemetry::sink::{self, KernelSummary};
use vgpu::telemetry::{Event, MetricSnapshot, Registry, TrackId, TransferDir};
use vgpu::{Arg, BufData, Device, ExecMode};

/// The op tally of one profiled launch of `out[i] = x[i] * 2` over 64 items.
fn profiled_ops() -> Box<OpProf> {
    let kernel = Kernel {
        name: "double".into(),
        params: vec![
            KernelParam::global_buf("x", ScalarKind::F32),
            KernelParam::global_buf("out", ScalarKind::F32),
        ],
        body: vec![KStmt::Store {
            mem: MemRef::Param(1),
            idx: KExpr::GlobalId(0),
            value: KExpr::load(MemRef::Param(0), KExpr::GlobalId(0)) * KExpr::Lit(Lit::f32(2.0)),
        }],
        work_dim: 1,
    };
    let mut dev = Device::gtx780();
    let prep = dev.compile(&kernel).unwrap();
    let x = dev.upload(BufData::from(vec![1.0f32; 64]));
    let out = dev.create_buffer(ScalarKind::F32, 64);
    let args = [Arg::Buf(x), Arg::Buf(out)];
    let stats = dev.launch(&prep, &args, &[64], ExecMode::Profile).unwrap();
    stats.op_profile.expect("a profiled launch carries its op tally")
}

/// The account of one launch of `fimm_boundary_lift`, every field set.
fn one_launch() -> KernelSummary {
    KernelSummary {
        name: "fimm_boundary_lift".into(),
        engine: "tape".into(),
        precision: "f64".into(),
        launches: 1,
        inline_launches: 0,
        tasks: 3,
        work_items: 4096,
        loads_global: 7,
        stores_global: 1,
        loads_constant: 2,
        flops: 65_536,
        bytes_loaded: 28_672,
        bytes_stored: 4096,
        transaction_bytes: 131_072,
        modeled_ms: 0.00325,
        wall_ms: 0.042,
        divergent_warps: 5,
        ops: Some(profiled_ops()),
    }
}

/// One instance of every `Event` variant, with non-default field values so a
/// lossy printer cannot pass by accident.
fn all_variants() -> Vec<Event> {
    vec![
        Event::TrackName { track: TrackId(3), name: "GTX780 #1 kernels".into() },
        Event::Span { track: TrackId(0), name: "LiftSim::step".into(), ts_us: 12.5, dur_us: 800.0 },
        Event::Kernel { track: TrackId(3), ts_us: 100.0, account: one_launch() },
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
        let tree = serde_json::to_value(&ev);
        let text = tree.to_string();
        let doc: serde_json::Value = serde_json::from_str(&text).expect("parses");
        assert_eq!(doc, tree, "lossy round-trip via {text}");
        // The externally-visible discriminant is the `ev` tag.
        assert!(doc.get("ev").and_then(|v| v.as_str()).is_some(), "missing `ev` tag in {text}");
    }
    // A kernel event holds its account whole, op rows included.
    let kernel = serde_json::to_value(&all_variants()[2]);
    assert_eq!(kernel.pointer("/account/precision").and_then(|v| v.as_str()), Some("f64"));
    let rows = kernel.pointer("/account/ops").and_then(|v| v.as_array()).expect("op rows");
    assert!(!rows.is_empty() && rows.iter().all(|r| r.as_array().is_some_and(|r| r.len() == 3)));
}

#[test]
fn metric_snapshots_roundtrip() {
    let reg = Registry::new();
    reg.counter("vgpu.launches.tape").add(5);
    reg.gauge("vgpu.mem.allocated_bytes").add(1024);
    reg.histogram("xfer.bytes").record(4096);
    let metrics: Vec<MetricSnapshot> = reg.snapshot();
    assert_eq!(metrics.len(), 3);
    for m in &metrics {
        let tree = serde_json::to_value(m);
        let doc: serde_json::Value = serde_json::from_str(&tree.to_string()).expect("parses");
        assert_eq!(doc, tree);
    }
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
fn summaries_aggregate_per_key_and_direction() {
    let mut events = all_variants();
    let Event::Kernel { account, .. } = &events[2] else { unreachable!() };
    let ops = account.ops.clone();
    // A second launch of the same kernel, engine and precision; one on the
    // tree-walker and one at the other precision, each an account of its
    // own; and a ToHost transfer.
    let second = KernelSummary {
        launches: 1,
        inline_launches: 1,
        tasks: 1,
        work_items: 10,
        flops: 4,
        wall_ms: 0.040,
        divergent_warps: 2,
        ops: ops.clone(),
        ..KernelSummary::new("fimm_boundary_lift", "tape", "f64")
    };
    let tree = KernelSummary { engine: "tree".into(), ops: None, ..second.clone() };
    let single = KernelSummary { precision: "f32".into(), ..second.clone() };
    for account in [second, tree, single] {
        events.push(Event::Kernel { track: TrackId(3), ts_us: 200.0, account });
    }
    events.push(Event::Transfer {
        track: TrackId(5),
        dir: TransferDir::ToHost,
        name: "ToHost(buf0)".into(),
        bytes: 64,
        ts_us: 300.0,
        dur_us: 1.0,
    });

    let kernels = sink::kernel_summaries(&events);
    let keys: Vec<_> = kernels.iter().map(KernelSummary::key).collect();
    let name = "fimm_boundary_lift";
    assert_eq!(keys, [(name, "tape", "f32"), (name, "tape", "f64"), (name, "tree", "f64")]);
    let fimm = &kernels[1];
    assert_eq!(fimm.launches, 2);
    assert_eq!(fimm.flops, 65_540);
    assert_eq!(fimm.work_items, 4106);
    assert_eq!(fimm.transaction_bytes, 131_072);
    assert_eq!(fimm.divergent_warps, 7);
    assert_eq!((fimm.tasks, fimm.inline_launches), (4, 1));
    assert!((fimm.wall_ms - 0.082).abs() < 1e-12, "42 µs + 40 µs, got {} ms", fimm.wall_ms);
    let mut twice = ops.clone().unwrap();
    twice.merge(ops.as_deref().unwrap());
    assert_eq!(fimm.ops, Some(twice));
    assert_eq!((kernels[0].launches, kernels[2].launches), (1, 1));
    assert_eq!(kernels[2].ops, None);

    // Only accounts that carry ops get a hotspot table.
    let text = sink::render_summary(&events, &[]);
    assert!(text.contains("-- op hotspots: fimm_boundary_lift [tape f64] (2 launches"), "{text}");
    assert!(text.contains("-- op hotspots: fimm_boundary_lift [tape f32] (1 launches"), "{text}");
    assert!(!text.contains("[tree f64]"), "{text}");

    let transfers = sink::transfer_summaries(&events);
    assert_eq!(transfers[0].dir, TransferDir::ToGpu);
    assert_eq!((transfers[0].transfers, transfers[0].bytes), (1, 16_384));
    assert_eq!(transfers[1].dir, TransferDir::ToHost);
    assert_eq!((transfers[1].transfers, transfers[1].bytes), (1, 64));
}
