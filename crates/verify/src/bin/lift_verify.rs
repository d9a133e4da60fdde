//! Audits every kernel in the repro suite with the static verifier.
//!
//! Runs the symbolic bounds checker, the static write-race detector and
//! the access-footprint/halo analysis over the KAST of every generated
//! and hand-written kernel (both precisions), the dataflow passes over
//! each compiled tape, and the read-before-write pass over the shipped
//! host programs. Prints the diagnostics table, the per-kernel PROVEN vs
//! POTENTIAL site summary (what the `fast` engine's tape executor may
//! elide vs must keep checking) and the host audit, and exits nonzero
//! if any non-fixture site, race map, halo width or host buffer is
//! unproven — or if the deliberately broken fixtures are *not* flagged.
//!
//! `--json` instead emits the machine-readable verdict + footprint
//! report ([`verify::report_json`]) on stdout, with the same exit-code
//! contract — the input of the CI static/dynamic cross-check gate.

use lift::verify::{RaceVerdict, Verdict};

fn main() {
    let json_mode = std::env::args().any(|a| a == "--json");
    let entries = verify::suite_with_fixtures();
    let reports = verify::run_suite(&entries);
    let hosts = verify::host_audit();

    let mut failures = 0usize;
    for r in &reports {
        if r.fixture {
            let race_flagged =
                r.kast.races.iter().any(|x| x.verdict != RaceVerdict::ProvenDisjoint);
            let oob_flagged = r.kast.sites.iter().any(|x| x.verdict == Verdict::Potential);
            let halo_flagged = !r.halo_ok();
            if !(race_flagged || oob_flagged || halo_flagged) {
                eprintln!("error: fixture `{}` was NOT flagged — verifier is vacuous", r.name);
                failures += 1;
            }
        } else if !r.is_proven() {
            eprintln!("error: kernel `{}` has unproven sites", r.name);
            failures += 1;
        }
    }
    for (name, fixture, findings) in &hosts {
        if *fixture && findings.is_empty() {
            eprintln!("error: host fixture `{name}` was NOT flagged — init pass is vacuous");
            failures += 1;
        }
        if !*fixture && !findings.is_empty() {
            eprintln!("error: host program `{name}` reads uninitialized buffers");
            failures += 1;
        }
    }

    if json_mode {
        let v = verify::report_json(&reports, &hosts);
        println!("{}", serde_json::to_string_pretty(&v).expect("serialize report"));
    } else {
        print!("{}", verify::render_table(&reports));
        print!("\n{}", verify::render_site_summary(&reports));
        println!("\n-- host-program init audit --");
        for (name, fixture, findings) in &hosts {
            if findings.is_empty() {
                println!("{name}: clean");
            } else {
                let tag = if *fixture { " (fixture, expected)" } else { "" };
                println!("{name}: {} uninit read(s){tag}", findings.len());
                for f in findings {
                    println!("  {f}");
                }
            }
        }
    }
    if failures > 0 {
        eprintln!("\nlift_verify: {failures} failure(s)");
        std::process::exit(1);
    }
    if !json_mode {
        println!(
            "\nlift_verify: all shipped kernels proven (bounds, races, halo, host init); \
             fixtures flagged as expected"
        );
    }
}
