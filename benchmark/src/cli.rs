//! The command line: one workload in this process, or the `all` / `trace` /
//! `agree` drivers over child processes.

use crate::adapter::SimKind;
use crate::run::{self, Args, Outcome};
use crate::trace::Tracer;
use crate::{batch_small, compile_sweep, report, room, spec};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Seconds per run when none are given: `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;
/// `--quick`: a twentieth of the work, one round.
const QUICK_SECONDS: f64 = 1.0;

fn run_workload(name: &str, args: &Args, tr: &mut Tracer) -> Outcome {
    let mut out = match name {
        "room_hand" => room::run(SimKind::Hand, args, tr),
        "room_gen" => room::run(SimKind::Gen, args, tr),
        "room_shard2" => room::run(SimKind::Shard2, args, tr),
        "batch_small" => batch_small::run(args, tr),
        "compile_sweep" => compile_sweep::run(args, tr),
        _ => unreachable!("workload names are checked on entry"),
    };
    out.e2e.insert("peak_rss_mb", run::peak_rss_mb());
    out
}

fn metrics_json(specs: &[spec::MetricSpec], values: &BTreeMap<&'static str, f64>) -> String {
    let rows: Vec<String> = specs
        .iter()
        .map(|(name, unit, _)| {
            let v = values.get(name).copied().filter(|v| v.is_finite()).unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", rows.join(", "))
}

/// One workload in this process, as the driver and `all` invoke it. Prints
/// an `info` line, then the result object as the last line.
fn single(name: &str, args: &Args) -> ExitCode {
    if let Some((key, _)) =
        std::env::vars().find(|(k, _)| k.starts_with("VGPU_") || k == "REPRO_QUICK")
    {
        eprintln!("{key} is set: the benchmark measures library defaults only; unset it");
        return ExitCode::from(2);
    }
    let mut tr = Tracer::new(false);
    let out = run_workload(name, args, &mut tr);
    for f in &out.failures {
        eprintln!("FAILED: {f}");
    }
    if args.trace {
        let dir = report::out_dir();
        let path = dir.join(format!("trace.{name}.json"));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, tr.chrome_json(name)));
        if let Err(e) = written {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    let info: Vec<String> = out.info.iter().map(|(k, v)| format!("\"{k}\": \"{v}\"")).collect();
    println!("info {{{}}}", info.join(", "));
    let metrics = if args.trace {
        metrics_json(&spec::PER_LAYER, &out.layer)
    } else {
        metrics_json(&spec::END_TO_END, &out.e2e)
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics
    );
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  roombench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n  \
         roombench all   [--seed n] [--seconds s] [--rounds r] [--quick]\n  \
         roombench trace [--seed n] [--seconds s] [--quick]\n  \
         roombench agree <a.json> <b.json> [--spec BENCHMARK.json]",
        spec::WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

/// The command line; `argv` excludes the program name.
pub fn cli(argv: Vec<String>) -> ExitCode {
    let mut opts: BTreeMap<&str, &str> = BTreeMap::new();
    let mut words: Vec<&str> = Vec::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.strip_prefix("--") {
            Some("quick") => {
                opts.insert("quick", "1");
            }
            Some(key) => {
                let Some(value) = it.next() else { return usage() };
                opts.insert(key, value);
            }
            None => words.push(a),
        }
    }
    let parsed = |key: &str, default: f64| match opts.get(key) {
        Some(v) => v.parse::<f64>().ok().filter(|x| x.is_finite() && *x >= 0.0),
        None => Some(default),
    };
    let quick = opts.contains_key("quick");
    let default_seconds = if quick { QUICK_SECONDS } else { DEFAULT_SECONDS };
    let (Some(seed), Some(seconds), Some(rounds)) = (
        parsed("seed", 1.0),
        parsed("seconds", default_seconds),
        parsed("rounds", if quick { 1.0 } else { 3.0 }),
    ) else {
        return usage();
    };
    let plan = report::Plan { seed: seed as u64, seconds, rounds: rounds as usize, quick };
    let finish = |r: Result<bool, String>| match r {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    };
    match (words.as_slice(), opts.get("workload")) {
        ([], Some(name)) if spec::is_workload(name) => {
            let trace = match opts.get("trace").copied() {
                None | Some("0") => false,
                Some("1") => true,
                Some(_) => return usage(),
            };
            single(name, &Args { seed: plan.seed, seconds, trace })
        }
        (["all"], None) => finish(report::all(&plan)),
        (["trace"], None) => finish(report::all(&report::Plan { rounds: 0, ..plan })),
        (["agree", a, b], None) => {
            finish(report::agree(a, b, opts.get("spec").copied().unwrap_or("BENCHMARK.json")))
        }
        _ => usage(),
    }
}
