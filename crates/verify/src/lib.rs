//! Static verification driver for the repro suite.
//!
//! Assembles every kernel the repository ships — the four LIFT-generated
//! kernels (`lift_acoustics::programs::all_programs`), the five
//! hand-written references (`room_acoustics::handwritten::all_kernels`)
//! and the slab placements of the generated volume kernels — pairs each
//! with the launch/allocation contract it is actually run under (see
//! [`suite`], [`generated_slabs`]), and runs the full pass ladder:
//!
//! * [`lift::verify::verify_kernel`] — symbolic bounds + static
//!   write-race analysis over the kernel AST;
//! * [`vgpu::verify_prepared`] — def-before-use, barrier-uniformity and
//!   reachability dataflow over the compiled register tape.
//!
//! The `lift_verify` binary prints the resulting diagnostics table and
//! exits nonzero when any non-fixture site is unproven, making the audit
//! a CI gate. The [`fixtures`] module ships two deliberately broken
//! kernels (a write-race and an out-of-bounds store) that the driver
//! requires the verifier to flag — a self-test that the analyses have not
//! silently gone vacuous.

pub mod fixtures;

use lift::lower::LoweredKernel;
use lift::prelude::*;
use lift::verify::{verify_kernel, Assumptions, KernelReport, RaceVerdict, Verdict};
use lift_acoustics::programs::{self, Program};
use room_acoustics::{contracts, handwritten};
use vgpu::{Device, TapeReport};

/// One kernel of the audit suite plus the contract it is verified
/// against.
pub struct SuiteEntry {
    /// The kernel, precision-resolved (ready for `verify_kernel` and
    /// `Device::compile`).
    pub kernel: Kernel,
    /// Precision the `Real` literals were resolved at.
    pub precision: ScalarKind,
    /// Launch/allocation contract.
    pub assumptions: Assumptions,
    /// True for the deliberately broken [`fixtures`] (expected to be
    /// flagged, not proven).
    pub fixture: bool,
}

/// Static + tape verdicts for one [`SuiteEntry`].
pub struct SuiteReport {
    /// Kernel name.
    pub name: String,
    /// Precision of the verified variant.
    pub precision: ScalarKind,
    /// KAST-level bounds/race report.
    pub kast: KernelReport,
    /// Tape-level dataflow report (`None` when the kernel did not
    /// compile to a tape).
    pub tape: Option<TapeReport>,
    /// Proven z-axis halo requirement over the canonical grid buffers
    /// (`room_acoustics::contracts::GRID_BUFFERS`), from the static
    /// access footprints.
    pub required_halo: Result<(usize, usize), String>,
    /// Halo planes the kernel's shard placement provides per side
    /// (`gid_offsets[2]` of a slab-placed kernel); `None` for full-grid
    /// kernels that are never sharded.
    pub configured_halo: Option<usize>,
    /// Copied from the entry.
    pub fixture: bool,
}

impl SuiteReport {
    /// True when the footprint pass proved a per-axis halo requirement
    /// and — for slab-placed kernels — it fits the configured halo.
    pub fn halo_ok(&self) -> bool {
        match (&self.required_halo, self.configured_halo) {
            (Err(_), _) => false,
            (Ok((lo, hi)), Some(h)) => *lo <= h && *hi <= h,
            (Ok(_), None) => true,
        }
    }

    /// True when every bounds site, race map, tape pass and the halo
    /// footprint proof come back clean.
    pub fn is_proven(&self) -> bool {
        self.kast.is_proven() && self.tape.as_ref().is_none_or(|t| t.is_clean()) && self.halo_ok()
    }
}

/// The shipped kernels (generated + hand-written), each at both
/// precisions the evaluation runs (F32 and F64).
pub fn suite() -> Vec<SuiteEntry> {
    let mut out = Vec::new();
    for real in [ScalarKind::F32, ScalarKind::F64] {
        for p in programs::all_programs() {
            let lowered =
                p.lower(real).unwrap_or_else(|e| panic!("{} fails to lower: {e}", p.name));
            let assumptions = generated_assumptions(&p, &lowered);
            out.push(SuiteEntry {
                kernel: lowered.kernel,
                precision: real,
                assumptions,
                fixture: false,
            });
        }
        for k in handwritten::all_kernels() {
            let assumptions = contracts::launch_contract(&k);
            out.push(SuiteEntry {
                kernel: k.resolve_real(real),
                precision: real,
                assumptions,
                fixture: false,
            });
        }
    }
    out
}

/// The generated volume kernels as a sharded `Simulation` launches them:
/// folded under their launch contract, then placed on a Z-slab by
/// [`contracts::slab_placed`] under that contract restated for the
/// placement. [`suite`] holds only the kernels the repository ships as
/// sources (the hand-written slab kernel among them).
pub fn generated_slabs() -> Vec<SuiteEntry> {
    let mut out = Vec::new();
    for real in [ScalarKind::F32, ScalarKind::F64] {
        for p in programs::all_programs() {
            let lowered =
                p.lower(real).unwrap_or_else(|e| panic!("{} fails to lower: {e}", p.name));
            if lowered.kernel.work_dim != 3 {
                continue;
            }
            let contract = generated_assumptions(&p, &lowered);
            let (kernel, assumptions) = contracts::slab_placed(&lowered.kernel, &contract);
            out.push(SuiteEntry { kernel, precision: real, assumptions, fixture: false });
        }
    }
    out
}

/// [`suite`], [`generated_slabs`] and the deliberately broken [`fixtures`].
pub fn suite_with_fixtures() -> Vec<SuiteEntry> {
    let mut out = suite();
    out.extend(generated_slabs());
    out.extend(fixtures::entries());
    out
}

/// Runs both verification levels over every entry. Tape compilation uses
/// a scratch device; kernels without a tape (none in the current suite)
/// report `tape: None`.
pub fn run_suite(entries: &[SuiteEntry]) -> Vec<SuiteReport> {
    let dev = Device::gtx780();
    entries
        .iter()
        .map(|e| {
            let kast = verify_kernel(&e.kernel, &e.assumptions);
            let tape = dev.compile(&e.kernel).ok().and_then(|prep| vgpu::verify_prepared(&prep));
            let required_halo = kast.footprints.required_halo(contracts::GRID_BUFFERS, 2);
            let configured_halo =
                e.assumptions.gid_offsets.get(2).copied().filter(|&h| h > 0).map(|h| h as usize);
            SuiteReport {
                name: e.kernel.name.clone(),
                precision: e.precision,
                kast,
                tape,
                required_halo,
                configured_halo,
                fixture: e.fixture,
            }
        })
        .collect()
}

// ---- contracts ----

/// The contract for a generated kernel, derived from its lowering by
/// [`lift_acoustics::programs::launch_assumptions`] — the one
/// `Simulation` launches and slab-places it under, so the audit and the
/// runtime gate trust one definition.
fn generated_assumptions(p: &Program, lowered: &LoweredKernel) -> Assumptions {
    lift_acoustics::programs::launch_assumptions(p, lowered)
}

// ---- reporting ----

/// Short per-precision label.
fn prec(k: ScalarKind) -> &'static str {
    match k {
        ScalarKind::F32 => "f32",
        ScalarKind::F64 => "f64",
        _ => "?",
    }
}

/// Renders the diagnostics table: one row per verified kernel variant,
/// then a deduplicated detail block for every unproven site, unproven
/// race map and tape finding.
pub fn render_table(reports: &[SuiteReport]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let wname = reports.iter().map(|r| r.name.len()).max().unwrap_or(6).max(6);
    let _ = writeln!(
        s,
        "{:wname$}  {:4}  {:>7}  {:>7}  {:>4}  {:>9}  verdict",
        "kernel", "prec", "bounds", "races", "tape", "z-halo"
    );
    for r in reports {
        let sp = r.kast.sites.iter().filter(|x| x.verdict == Verdict::Proven).count();
        let rp = r.kast.races.iter().filter(|x| x.verdict == RaceVerdict::ProvenDisjoint).count();
        let tf = r.tape.as_ref().map_or(0, |t| t.findings.len());
        let halo = match &r.required_halo {
            Ok((lo, hi)) => match r.configured_halo {
                Some(h) => format!("{lo},{hi}/{h}"),
                None => format!("{lo},{hi}"),
            },
            Err(_) => "unproven".to_string(),
        };
        let verdict = if r.is_proven() {
            "PROVEN-SAFE".to_string()
        } else if r.fixture {
            "FLAGGED (fixture, expected)".to_string()
        } else {
            "POTENTIAL".to_string()
        };
        let _ = writeln!(
            s,
            "{:wname$}  {:4}  {:>7}  {:>7}  {:>4}  {:>9}  {verdict}",
            r.name,
            prec(r.precision),
            format!("{sp}/{}", r.kast.sites.len()),
            format!("{rp}/{}", r.kast.races.len()),
            tf,
            halo,
        );
    }
    let halo_failures: Vec<&SuiteReport> = reports.iter().filter(|r| !r.halo_ok()).collect();
    if !halo_failures.is_empty() {
        let _ = writeln!(s, "\nhalo findings:");
        for r in &halo_failures {
            match &r.required_halo {
                Err(e) => {
                    let _ = writeln!(s, "  {}: {e}", r.name);
                }
                Ok((lo, hi)) => {
                    let _ = writeln!(
                        s,
                        "  {}: proven z reach ({lo}, {hi}) exceeds the configured {}-plane halo",
                        r.name,
                        r.configured_halo.unwrap_or(0),
                    );
                }
            }
        }
    }
    let bad_sites = lift::verify::dedupe_sites(
        reports
            .iter()
            .flat_map(|r| r.kast.sites.iter())
            .filter(|x| x.verdict != Verdict::Proven)
            .cloned()
            .collect(),
    );
    let bad_races = lift::verify::dedupe_races(
        reports
            .iter()
            .flat_map(|r| r.kast.races.iter())
            .filter(|x| x.verdict != RaceVerdict::ProvenDisjoint)
            .cloned()
            .collect(),
    );
    if !bad_sites.is_empty() || !bad_races.is_empty() {
        let _ = writeln!(s, "\nunproven sites:");
        for x in &bad_sites {
            let _ = writeln!(
                s,
                "  {}: site {} {} `{}` index {} range {} — {}",
                x.kernel, x.site, x.kind, x.buffer, x.index, x.range, x.reason
            );
        }
        for x in &bad_races {
            let what = match &x.verdict {
                RaceVerdict::Definite { element } => {
                    format!("definite write-race on element {element}")
                }
                _ => "write-race unproven".to_string(),
            };
            let _ = writeln!(
                s,
                "  {}: buffer `{}` sites {:?} — {what}{}{}",
                x.kernel,
                x.buffer,
                x.sites,
                if x.reason.is_empty() { "" } else { ": " },
                x.reason
            );
        }
    }
    let tape_findings: Vec<(String, String)> = reports
        .iter()
        .filter_map(|r| r.tape.as_ref())
        .flat_map(|t| {
            t.findings
                .iter()
                .map(move |f| (t.kernel.clone(), format!("[{}] pc {}: {}", f.pass, f.pc, f.detail)))
        })
        .collect();
    if !tape_findings.is_empty() {
        let _ = writeln!(s, "\ntape findings:");
        let mut seen: Vec<&(String, String)> = Vec::new();
        for x in &tape_findings {
            if !seen.contains(&x) {
                seen.push(x);
                let _ = writeln!(s, "  {}: {}", x.0, x.1);
            }
        }
    }
    s
}

/// Serializes one footprint shape for the JSON report.
fn shape_json(shape: &lift::footprint::Shape) -> serde_json::Value {
    use lift::footprint::Shape;
    match shape {
        Shape::Stencil { offsets } => serde_json::json!({
            "shape": "stencil",
            "offsets": offsets,
        }),
        Shape::Gather { table, offsets } => serde_json::json!({
            "shape": "gather",
            "table": table,
            "offsets": offsets,
        }),
        Shape::Flat { lo, hi } => serde_json::json!({
            "shape": "flat",
            "lo": lo,
            "hi": hi,
        }),
        Shape::Opaque { reason } => serde_json::json!({
            "shape": "opaque",
            "reason": reason,
        }),
    }
}

/// Machine-readable verdict + footprint report (`lift_verify --json`):
/// one entry per verified kernel variant with per-site bounds verdicts,
/// per-buffer race verdicts, per-site access footprints and the z-axis
/// halo requirement — the input of the CI static/dynamic cross-check
/// gate.
pub fn report_json(
    reports: &[SuiteReport],
    hosts: &[(String, bool, Vec<lift::footprint::UninitRead>)],
) -> serde_json::Value {
    let kernels: Vec<serde_json::Value> = reports
        .iter()
        .map(|r| {
            let sites: Vec<serde_json::Value> = r
                .kast
                .sites
                .iter()
                .map(|x| {
                    serde_json::json!({
                        "site": x.site,
                        "kind": format!("{}", x.kind),
                        "buffer": x.buffer,
                        "verdict": match x.verdict {
                            Verdict::Proven => "PROVEN",
                            Verdict::Potential => "POTENTIAL",
                        },
                        "reason": x.reason,
                    })
                })
                .collect();
            let races: Vec<serde_json::Value> = r
                .kast
                .races
                .iter()
                .map(|x| {
                    let (verdict, element) = match &x.verdict {
                        RaceVerdict::ProvenDisjoint => ("PROVEN_DISJOINT", None),
                        RaceVerdict::Potential => ("POTENTIAL", None),
                        RaceVerdict::Definite { element } => ("DEFINITE", Some(element.clone())),
                    };
                    serde_json::json!({
                        "buffer": x.buffer,
                        "sites": x.sites,
                        "verdict": verdict,
                        "element": element,
                        "reason": x.reason,
                    })
                })
                .collect();
            let footprints: Vec<serde_json::Value> = r
                .kast
                .footprints
                .sites
                .iter()
                .map(|f| {
                    let mut v = serde_json::json!({
                        "site": f.site,
                        "kind": format!("{}", f.kind),
                        "buffer": f.buffer,
                    });
                    if let serde_json::Value::Object(o) = &mut v {
                        if let serde_json::Value::Object(s) = shape_json(&f.shape) {
                            o.extend(s);
                        }
                    }
                    v
                })
                .collect();
            let required_halo = match &r.required_halo {
                Ok((lo, hi)) => serde_json::json!({ "below": lo, "above": hi }),
                Err(e) => serde_json::json!({ "error": e }),
            };
            serde_json::json!({
                "kernel": r.name,
                "precision": prec(r.precision),
                "fixture": r.fixture,
                "proven": r.is_proven(),
                "halo_ok": r.halo_ok(),
                "required_halo": required_halo,
                "configured_halo": r.configured_halo,
                "grid_rank": r.kast.footprints.rank,
                "sites": sites,
                "races": races,
                "footprints": footprints,
                "tape_findings": r.tape.as_ref().map_or(0, |t| t.findings.len()),
            })
        })
        .collect();
    let host_programs: Vec<serde_json::Value> = hosts
        .iter()
        .map(|(name, fixture, findings)| {
            let fs: Vec<serde_json::Value> = findings
                .iter()
                .map(|f| {
                    serde_json::json!({
                        "cmd": f.cmd,
                        "buffer": f.buffer,
                        "reader": f.reader,
                    })
                })
                .collect();
            serde_json::json!({
                "program": name,
                "fixture": fixture,
                "uninit_reads": fs,
            })
        })
        .collect();
    serde_json::json!({
        "schema": "lift-verify-report/v2",
        "grid_buffers": contracts::GRID_BUFFERS,
        "kernels": kernels,
        "host_programs": host_programs,
    })
}

/// Read-before-write audit over the shipped host programs plus the
/// deliberately broken [`fixtures::uninit_host_program`]. Returns
/// `(program label, fixture?, findings)` triples; the driver fails on any
/// finding in a non-fixture program and on a *clean* fixture.
pub fn host_audit() -> Vec<(String, bool, Vec<lift::footprint::UninitRead>)> {
    use lift_acoustics::hostprog::fimm_step_host_program;
    let mut out = Vec::new();
    for real in [ScalarKind::F32, ScalarKind::F64] {
        let prog = fimm_step_host_program(real)
            .unwrap_or_else(|e| panic!("fimm host program fails to lower: {e}"));
        out.push((
            format!("fimm_step_host_program/{}", prec(real)),
            false,
            lift::footprint::check_host_init(&prog),
        ));
    }
    out.push((
        "fixture_uninit_read_host".to_string(),
        true,
        lift::footprint::check_host_init(&fixtures::uninit_host_program()),
    ));
    out
}

/// Renders the elision eligibility summary: per kernel variant, how many
/// bounds sites come back PROVEN — eligible for proof-licensed check
/// elision on the tape's flat launches — versus POTENTIAL, which the
/// executor keeps on the dynamic-check path (see
/// `vgpu::exec::prepare_under`).
pub fn render_site_summary(reports: &[SuiteReport]) -> String {
    use std::fmt::Write as _;
    let mut s = String::from("-- compiled-engine elision eligibility (bounds sites) --\n");
    let wname = reports.iter().map(|r| r.name.len()).max().unwrap_or(6).max(6);
    for r in reports {
        let proven = r.kast.sites.iter().filter(|x| x.verdict == Verdict::Proven).count();
        let potential = r.kast.sites.len() - proven;
        let _ = writeln!(
            s,
            "{:wname$}  {:4}  {proven:>3} PROVEN  {potential:>3} POTENTIAL{}",
            r.name,
            prec(r.precision),
            if potential > 0 { "  (checked at run time)" } else { "" },
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_summary_lists_every_kernel_with_counts() {
        let reports = run_suite(&suite_with_fixtures());
        let summary = render_site_summary(&reports);
        for r in &reports {
            assert!(summary.contains(&r.name), "summary must list {}", r.name);
        }
        // The OOB fixture's overrun site must show up as POTENTIAL.
        assert!(
            summary.lines().any(|l| l.starts_with("fixture_oob") && l.contains("1 POTENTIAL")),
            "summary must count the fixture's unproven site:\n{summary}"
        );
    }

    #[test]
    fn every_shipped_kernel_is_proven() {
        for r in run_suite(&suite().into_iter().chain(generated_slabs()).collect::<Vec<_>>()) {
            assert!(
                r.is_proven(),
                "{} ({}) unproven:\n{:#?}\n{:#?}",
                r.name,
                prec(r.precision),
                r.kast.sites.iter().filter(|s| s.verdict != Verdict::Proven).collect::<Vec<_>>(),
                r.kast.races
            );
        }
    }

    #[test]
    fn shipped_footprints_prove_halo_widths() {
        for r in run_suite(&suite().into_iter().chain(generated_slabs()).collect::<Vec<_>>()) {
            let halo = r.required_halo.as_ref().unwrap_or_else(|e| {
                panic!("{} ({}): no halo proof: {e}", r.name, prec(r.precision))
            });
            assert!(
                r.halo_ok(),
                "{} ({}): required halo {halo:?} exceeds configured {:?}",
                r.name,
                prec(r.precision),
                r.configured_halo
            );
            // Every shipped kernel is either a 7-point volume stencil
            // (one-plane reach) or a boundary gather (zero reach).
            assert!(halo.0 <= 1 && halo.1 <= 1, "{}: unexpected halo {halo:?}", r.name);
        }
    }

    #[test]
    fn stale_halo_fixture_is_flagged_by_the_halo_gate() {
        let reports = run_suite(&fixtures::entries());
        let r = reports.iter().find(|r| r.name == "fixture_stale_halo").unwrap();
        // Bounds and races are clean — the seeded defect is exactly the
        // halo shortfall.
        assert!(r.kast.sites.iter().all(|s| s.verdict == Verdict::Proven), "{:#?}", r.kast.sites);
        assert!(r.kast.races.iter().all(|x| x.verdict == RaceVerdict::ProvenDisjoint));
        assert_eq!(r.required_halo, Ok((2, 2)), "proven reach");
        assert_eq!(r.configured_halo, Some(1), "slab placement provides one plane");
        assert!(!r.halo_ok() && !r.is_proven());
    }

    #[test]
    fn uninit_host_fixture_is_flagged_by_the_init_pass() {
        let findings = lift::footprint::check_host_init(&fixtures::uninit_host_program());
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].buffer, "src");
        assert_eq!(findings[0].reader, "fixture_uninit_read");
    }

    #[test]
    fn json_report_round_trips_and_names_the_seeded_defects() {
        let reports = run_suite(&suite_with_fixtures());
        let hosts = host_audit();
        let v = report_json(&reports, &hosts);
        // Schema round-trip: serialize → parse → identical tree.
        let text = serde_json::to_string(&v).unwrap();
        let back: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(v, back);
        let pretty = serde_json::to_string_pretty(&v).unwrap();
        let back2: serde_json::Value = serde_json::from_str(&pretty).unwrap();
        assert_eq!(v, back2);
        // Spot-check the shape: every kernel entry carries footprints and
        // a halo verdict; the stale-halo fixture is present and failing.
        assert_eq!(v.get("schema").unwrap().as_str(), Some("lift-verify-report/v2"));
        let kernels = v.get("kernels").unwrap().as_array().unwrap();
        assert_eq!(kernels.len(), reports.len());
        let stale = kernels
            .iter()
            .find(|k| k.get("kernel").unwrap().as_str() == Some("fixture_stale_halo"))
            .unwrap();
        assert_eq!(stale.get("halo_ok").unwrap().as_bool(), Some(false));
        assert_eq!(stale.pointer("/required_halo/below").unwrap().as_u64(), Some(2));
        assert_eq!(stale.get("configured_halo").unwrap().as_u64(), Some(1));
        // Shipped volume kernels expose per-axis stencil offsets.
        let vol = kernels
            .iter()
            .find(|k| k.get("kernel").unwrap().as_str() == Some("volume_handling_hand"))
            .unwrap();
        let fps = vol.get("footprints").unwrap().as_array().unwrap();
        assert!(fps.iter().any(|f| f.get("shape").unwrap().as_str() == Some("stencil")));
        // The host fixture's finding names the kernel and buffer.
        let hostp = v.get("host_programs").unwrap().as_array().unwrap();
        let fixture =
            hostp.iter().find(|h| h.get("fixture").unwrap().as_bool() == Some(true)).unwrap();
        let finding = &fixture.get("uninit_reads").unwrap().as_array().unwrap()[0];
        assert_eq!(finding.get("buffer").unwrap().as_str(), Some("src"));
        assert_eq!(finding.get("reader").unwrap().as_str(), Some("fixture_uninit_read"));
    }

    #[test]
    fn fixtures_are_flagged() {
        let reports = run_suite(&fixtures::entries());
        let racy = reports.iter().find(|r| r.name == "fixture_racy").unwrap();
        let oob = reports.iter().find(|r| r.name == "fixture_oob").unwrap();
        // the racy fixture is in-bounds but collides on element 3
        assert!(racy.kast.sites.iter().all(|s| s.verdict == Verdict::Proven));
        assert!(racy.kast.races.iter().any(|r| {
            r.buffer == "out"
                && matches!(&r.verdict, RaceVerdict::Definite { element } if element == "3")
        }));
        // the OOB fixture races nowhere but overruns `out`
        assert!(oob.kast.races.iter().all(|r| r.verdict == RaceVerdict::ProvenDisjoint));
        assert!(oob.kast.sites.iter().any(|s| {
            s.verdict == Verdict::Potential && s.buffer == "out" && s.reason.contains("upper bound")
        }));
    }
}
