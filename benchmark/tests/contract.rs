//! The benchmark's contract with `BENCHMARK.json` and with itself: the names
//! it prints are the names the file lists, and one seed gives one set of
//! inputs, counts and checksums.

use roombench::spec;
use serde_json::Value;
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

fn bench() -> Command {
    Command::new(env!("CARGO_BIN_EXE_roombench"))
}

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses")
}

/// (name, unit) of every entry of one of the file's lists.
fn listed(doc: &Value, list: &str) -> BTreeSet<(String, String)> {
    doc.get(list)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{list}` list"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs one workload through the driver's command line; returns the result
/// object of the last line and the `info` object of the line before.
fn run_one(workload: &str, seed: u64, trace: bool) -> (Value, Value) {
    let out = bench()
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.2", "--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("roombench starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{workload} failed:\n{}", String::from_utf8_lossy(&out.stderr));
    let mut lines = stdout.lines().rev();
    let result = serde_json::from_str(lines.next().expect("a result line")).expect("result parses");
    let info = lines.next().and_then(|l| l.strip_prefix("info ")).expect("an info line");
    (result, serde_json::from_str(info).expect("info parses"))
}

/// (name, unit) of every metric a result object carries.
fn printed(result: &Value) -> BTreeSet<(String, String)> {
    result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            (name.clone(), m.get("unit").and_then(Value::as_str).unwrap_or("").to_string())
        })
        .collect()
}

#[test]
fn names_are_well_formed_and_unique() {
    let ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let mut seen = BTreeSet::new();
    let all = spec::WORKLOADS
        .iter()
        .copied()
        .chain(spec::END_TO_END.iter().map(|m| m.0))
        .chain(spec::PER_LAYER.iter().map(|m| m.0));
    for name in all {
        assert!(ok(name), "`{name}` is not [A-Za-z0-9_.-]+");
        assert!(seen.insert(name), "`{name}` is used twice");
    }
    for name in spec::EXACT {
        assert!(spec::PER_LAYER.iter().any(|m| m.0 == name), "exact `{name}` is not a metric");
    }
}

#[test]
fn printed_names_equal_benchmark_json() {
    let doc = benchmark_json();
    let workloads: BTreeSet<String> = listed(&doc, "workloads").into_iter().map(|w| w.0).collect();
    assert_eq!(workloads, spec::WORKLOADS.iter().map(|w| w.to_string()).collect());
    for (list, specs) in
        [("end_to_end", &spec::END_TO_END[..]), ("per_layer", &spec::PER_LAYER[..])]
    {
        let rows = doc.get(list).and_then(Value::as_array).expect("a list of metrics");
        for (name, _, better) in specs {
            let row = rows.iter().find(|m| m.get("name").and_then(Value::as_str) == Some(name));
            let listed = row.and_then(|m| m.get("better")).and_then(Value::as_str);
            assert_eq!(listed, Some(*better), "`{name}`: direction differs from BENCHMARK.json");
        }
    }
    // `compile_sweep` is the cheapest run; every workload prints the same keys.
    let (e2e, _) = run_one("compile_sweep", 1, false);
    assert_eq!(printed(&e2e), listed(&doc, "end_to_end"));
    let (layer, _) = run_one("compile_sweep", 1, true);
    assert_eq!(printed(&layer), listed(&doc, "per_layer"));
    for key in ["correct", "attempted", "failed", "metrics"] {
        assert!(e2e.get(key).is_some(), "result lacks `{key}`");
    }
    assert_eq!(e2e.as_object().map(Vec::len), Some(4));
}

#[test]
fn one_seed_gives_one_set_of_inputs_counts_and_checksums() {
    for workload in spec::WORKLOADS {
        let (a, a_info) = run_one(workload, 1, true);
        let (b, b_info) = run_one(workload, 1, true);
        for name in spec::EXACT {
            let at = |r: &Value| r.pointer(&format!("/metrics/{name}/value")).cloned();
            assert_eq!(at(&a), at(&b), "{workload}: `{name}` differs between two runs of seed 1");
        }
        let checksum = |i: &Value| i.get("ir_checksum").cloned();
        assert_eq!(checksum(&a_info), checksum(&b_info), "{workload}: checksum differs");
        if workload.starts_with("room_") || workload == "batch_small" {
            let (_, other) = run_one(workload, 2, false);
            assert_ne!(checksum(&a_info), checksum(&other), "{workload}: seeds 1 and 2 collide");
        }
    }
}

#[test]
fn sharded_room_reproduces_the_single_device_response() {
    let (_, hand) = run_one("room_hand", 5, false);
    let (_, shard) = run_one("room_shard2", 5, false);
    assert_eq!(hand.get("ir_checksum"), shard.get("ir_checksum"));
    assert!(hand.get("ir_checksum").is_some());
}
