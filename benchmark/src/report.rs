//! `roombench all`, `trace` and `agree`: run every workload as a fresh child
//! process (the lane pool, the artifact and plan caches and the counter
//! registry are process-global), gather medians across interleaved rounds,
//! write `benchmark/out/results.json`, and compare two such files.

use crate::spec;
use crate::stats;
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Where every output file goes; ignored by `benchmark/.gitignore`.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub struct Plan {
    pub seed: u64,
    pub seconds: f64,
    pub rounds: usize,
    pub quick: bool,
}

/// One child run, parsed back from its standard output.
struct Child {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
    info: Value,
}

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn num(v: f64) -> Value {
    serde_json::to_value(&v)
}

fn run_child(workload: &str, plan: &Plan, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &plan.seed.to_string()]).args([
        "--seconds",
        &plan.seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    // Library defaults only: nothing in the environment may pick an engine,
    // a thread count or a quick mode for the child.
    for (key, _) in std::env::vars() {
        if key.starts_with("VGPU_") || key == "REPRO_QUICK" {
            cmd.env_remove(key);
        }
    }
    let out = cmd.output().map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let parsed = lines.next().and_then(|l| serde_json::from_str::<Value>(l).ok());
    let Some(result) = parsed else {
        return Err(format!(
            "{workload} printed no result (exit {:?}):\n{}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        ));
    };
    let info = lines
        .find_map(|l| l.strip_prefix("info "))
        .and_then(|l| serde_json::from_str::<Value>(l).ok())
        .unwrap_or(Value::Null);
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .map(|m| {
            m.iter()
                .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                .collect::<BTreeMap<_, _>>()
        })
        .unwrap_or_default();
    let child = Child {
        attempted: result.get("attempted").and_then(Value::as_u64).unwrap_or(0),
        failed: result.get("failed").and_then(Value::as_u64).unwrap_or(0),
        metrics,
        info,
    };
    if result.get("correct").and_then(Value::as_bool) != Some(true) {
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
    }
    Ok(child)
}

fn loadavg_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

fn git_sha() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn info_str<'a>(info: &'a Value, key: &str) -> &'a str {
    info.get(key).and_then(Value::as_str).unwrap_or("")
}

/// Everything gathered for one workload.
#[derive(Default)]
struct Gathered {
    ops: Vec<f64>,
    failed: u64,
    e2e: BTreeMap<String, Vec<f64>>,
    layer: BTreeMap<String, f64>,
    info: Vec<Value>,
}

fn median_of(g: &BTreeMap<&str, Gathered>, workload: &str, metric: &str) -> f64 {
    g.get(workload).and_then(|w| w.e2e.get(metric)).map_or(f64::NAN, |v| stats::median(v))
}

fn layer_of(g: &BTreeMap<&str, Gathered>, workload: &str, metric: &str) -> f64 {
    g.get(workload).and_then(|w| w.layer.get(metric)).copied().unwrap_or(f64::NAN)
}

/// The cross-workload rows: informational ratios, each with its base.
fn derived(g: &BTreeMap<&str, Gathered>) -> Vec<(&'static str, f64)> {
    let best = |w| median_of(g, w, "op_ms_best");
    let modeled = |w| layer_of(g, w, "vgpu.model.ms_per_step");
    vec![
        ("derived.gen_over_hand.wall", best("room_gen") / best("room_hand")),
        ("derived.gen_over_hand.modeled", modeled("room_gen") / modeled("room_hand")),
        ("derived.shard2_over_single.wall", best("room_shard2") / best("room_hand")),
        (
            "derived.vgpu_over_native.wall",
            best("room_hand") / layer_of(g, "room_hand", "acoustics.reference_step_ms"),
        ),
    ]
}

fn print_e2e(g: &BTreeMap<&str, Gathered>) {
    println!(
        "\n{:<14} {:<12} {:<5} {:>12} {:>12} {:>12} {:>6} {:>8}",
        "workload", "metric", "unit", "median", "min", "max", "rounds", "ops"
    );
    for w in spec::WORKLOADS {
        let Some(got) = g.get(w) else { continue };
        for (name, unit, _) in spec::END_TO_END {
            let Some(v) = got.e2e.get(name) else { continue };
            println!(
                "{:<14} {:<12} {:<5} {:>12.4} {:>12.4} {:>12.4} {:>6} {:>8}",
                w,
                name,
                unit,
                stats::median(v),
                stats::min(v),
                stats::max(v),
                v.len(),
                stats::median(&got.ops)
            );
        }
        println!("{:<14} {:<12} {:<5} {:>12}", w, "ops_failed", "count", got.failed);
    }
}

fn print_layers(g: &BTreeMap<&str, Gathered>) {
    println!("\nper layer, one traced run per workload (a row's sample count is that run's `ops`)");
    print!("{:<30} {:<9}", "metric", "unit");
    for w in spec::WORKLOADS {
        print!(" {w:>14}");
    }
    println!();
    for (name, unit, _) in spec::PER_LAYER {
        print!("{name:<30} {unit:<9}");
        for w in spec::WORKLOADS {
            match g.get(w).and_then(|got| got.layer.get(name)) {
                Some(v) if v.fract() == 0.0 && v.abs() < 1e15 => print!(" {:>14}", *v as i64),
                Some(v) => print!(" {v:>14.4}"),
                None => print!(" {:>14}", "-"),
            }
        }
        println!();
    }
    for w in spec::WORKLOADS {
        if let Some(info) = g.get(w).and_then(|got| got.info.last()) {
            println!("self time by layer, {w}: {}", info_str(info, "layer_self_time"));
        }
    }
}

fn to_json(plan: &Plan, load: f64, g: &BTreeMap<&str, Gathered>) -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let backends: Vec<(String, Value)> = g
        .iter()
        .filter_map(|(w, got)| {
            let b = info_str(got.info.first()?, "backend");
            (!b.is_empty()).then(|| (w.to_string(), Value::String(b.to_string())))
        })
        .collect();
    let provenance = obj(vec![
        ("git_sha", Value::String(git_sha())),
        ("seed", serde_json::to_value(&plan.seed)),
        ("rounds", serde_json::to_value(&plan.rounds)),
        ("seconds", num(plan.seconds)),
        ("quick", Value::Bool(plan.quick)),
        ("nproc", serde_json::to_value(&nproc)),
        ("loadavg_1m_at_start", num(load)),
        ("backend", Value::Object(backends)),
    ]);
    let workloads: Vec<(String, Value)> = g
        .iter()
        .map(|(w, got)| {
            let e2e: Vec<(String, Value)> = spec::END_TO_END
                .iter()
                .filter_map(|(name, unit, _)| {
                    let v = got.e2e.get(*name)?;
                    let row = obj(vec![
                        ("unit", Value::String(unit.to_string())),
                        ("median", num(stats::median(v))),
                        ("min", num(stats::min(v))),
                        ("max", num(stats::max(v))),
                        ("values", Value::Array(v.iter().map(|x| num(*x)).collect())),
                    ]);
                    Some((name.to_string(), row))
                })
                .collect();
            let layer: Vec<(String, Value)> = spec::PER_LAYER
                .iter()
                .filter_map(|(name, unit, _)| {
                    let v = got.layer.get(*name)?;
                    let row =
                        obj(vec![("unit", Value::String(unit.to_string())), ("value", num(*v))]);
                    Some((name.to_string(), row))
                })
                .collect();
            let row = obj(vec![
                ("ops", Value::Array(got.ops.iter().map(|x| num(*x)).collect())),
                ("ops_failed", serde_json::to_value(&got.failed)),
                ("end_to_end", Value::Object(e2e)),
                ("per_layer", Value::Object(layer)),
                ("info", Value::Array(got.info.clone())),
            ]);
            (w.to_string(), row)
        })
        .collect();
    let derived: Vec<(String, Value)> =
        derived(g).into_iter().map(|(k, v)| (k.to_string(), num(v))).collect();
    obj(vec![
        ("provenance", provenance),
        ("workloads", Value::Object(workloads)),
        ("derived", Value::Object(derived)),
    ])
}

/// Runs `rounds` interleaved untraced rounds (`rounds == 0`: none), then one
/// traced run per workload; prints both tables and writes `results.json`.
/// Returns false when any operation failed or a cross-workload gate missed.
pub fn all(plan: &Plan) -> Result<bool, String> {
    let load = loadavg_1m();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if load > nproc as f64 {
        eprintln!(
            "warning: 1-min load average {load} exceeds nproc {nproc}; timings will be noisy"
        );
    }
    let mut g: BTreeMap<&str, Gathered> = BTreeMap::new();
    for round in 0..plan.rounds {
        for w in spec::WORKLOADS {
            eprintln!("round {}/{}: {w}", round + 1, plan.rounds);
            let child = run_child(w, plan, false)?;
            let got = g.entry(w).or_default();
            got.ops.push(child.attempted as f64);
            got.failed += child.failed;
            for (k, v) in child.metrics {
                got.e2e.entry(k).or_default().push(v);
            }
            got.info.push(child.info);
        }
    }
    for w in spec::WORKLOADS {
        eprintln!("traced: {w}");
        let child = run_child(w, plan, true)?;
        let got = g.entry(w).or_default();
        got.failed += child.failed;
        got.layer = child.metrics;
        got.info.push(child.info);
    }

    if plan.rounds > 0 {
        print_e2e(&g);
    }
    print_layers(&g);
    println!();
    for (name, v) in derived(&g) {
        println!("{name:<34} {v:>10.4}");
    }

    let mut ok = g.values().all(|got| got.failed == 0);
    // The sharded run must produce the single-device impulse response.
    let checksums = |w: &str| -> Vec<String> {
        g[w].info.iter().map(|i| info_str(i, "ir_checksum").to_string()).collect()
    };
    if checksums("room_shard2") != checksums("room_hand") {
        eprintln!("FAILED: room_shard2 and room_hand impulse-response checksums differ");
        ok = false;
    }
    for w in spec::WORKLOADS {
        let covered = g[w].layer.get("trace.coverage_pct").copied().unwrap_or(0.0);
        if covered < 95.0 {
            eprintln!("FAILED: {w}: spans attribute {covered:.1}% of the traced section, not 95%");
            ok = false;
        }
    }
    for (name, _, _) in spec::END_TO_END {
        for w in spec::WORKLOADS {
            if plan.rounds > 0 && !g[w].e2e.contains_key(name) {
                eprintln!("FAILED: {w} did not report {name}");
                ok = false;
            }
        }
    }

    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join("results.json");
    let text = to_json(plan, load, &g).to_pretty_string();
    std::fs::write(&path, text + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());
    Ok(ok)
}

/// Compares two `results.json` files: every end-to-end median against its
/// bound in `BENCHMARK.json`, every exact per-layer value for equality.
pub fn agree(a_path: &str, b_path: &str, spec_path: &str) -> Result<bool, String> {
    let load = |p: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?;
        serde_json::from_str::<Value>(&text).map_err(|e| format!("cannot parse {p}: {e}"))
    };
    let (a, b, bench) = (load(a_path)?, load(b_path)?, load(spec_path)?);
    let bounds: BTreeMap<String, (f64, String)> = bench
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                (m.get("bound")?.as_f64()?, m.get("better")?.as_str()?.to_string()),
            ))
        })
        .collect();
    let mut ok = true;
    println!(
        "{:<14} {:<26} {:>12} {:>12} {:>8} {:>7}  verdict",
        "workload", "metric", "a", "b", "gap", "bound"
    );
    for w in spec::WORKLOADS {
        let at = |doc: &Value, group: &str, name: &str, field: &str| {
            doc.pointer(&format!("/workloads/{w}/{group}/{name}/{field}")).and_then(Value::as_f64)
        };
        for (name, (bound, _)) in &bounds {
            let (Some(x), Some(y)) =
                (at(&a, "end_to_end", name, "median"), at(&b, "end_to_end", name, "median"))
            else {
                println!("{w:<14} {name:<26} missing from one file");
                ok = false;
                continue;
            };
            let gap = (x - y).abs() / x.min(y);
            let pass = gap <= *bound;
            ok &= pass;
            println!(
                "{w:<14} {name:<26} {x:>12.4} {y:>12.4} {gap:>8.4} {bound:>7.3}  {}",
                if pass { "ok" } else { "MISS" }
            );
        }
        for (name, _, _) in spec::PER_LAYER.iter().filter(|(n, _, _)| spec::EXACT.contains(n)) {
            let (x, y) = (at(&a, "per_layer", name, "value"), at(&b, "per_layer", name, "value"));
            if x != y {
                println!("{w:<14} {name:<26} {x:>12?} {y:>12?}  must be equal  MISS");
                ok = false;
            }
        }
    }
    println!(
        "{}",
        if ok { "agree: every gap within its bound, exact values equal" } else { "agree: MISSED" }
    );
    Ok(ok)
}
