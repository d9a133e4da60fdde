//! `compile_sweep`: every shipped kernel through the uncached compile and
//! verification pipeline. The LIFT front end, tape compilation and both
//! verifiers do all the work and no lane ever executes; everywhere else the
//! artifact caches hide this cost.

use crate::adapter::{self, CompileCase};
use crate::run::{self, ms, Args, Clock, Outcome, Phase, SETUPS};
use crate::stats::{self, Rng};
use crate::trace::Tracer;
use std::time::Instant;

/// Sweeps every run makes, however short `--seconds` is.
const MIN_SWEEPS: usize = 10;
const SETUPS_PER_SEGMENT: usize = 4;

/// What the stages of one sweep produced; identical on every sweep.
#[derive(Default, PartialEq, Clone, Copy)]
struct SweepTotals {
    opencl_bytes: usize,
    host_c_bytes: usize,
    sites_proven: usize,
    sites_potential: usize,
}

pub fn run(args: &Args, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let cases: Vec<CompileCase> = adapter::compile_cases();
    let kernels = cases.len() as f64;
    let mut rng = Rng::new(args.seed);

    // ---- segments: build the source forms, then sweep ----
    let mut setup_ms = Vec::with_capacity(SETUPS * SETUPS_PER_SEGMENT);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut totals: Option<SweepTotals> = None;
    let mut order: Vec<usize> = (0..cases.len()).collect();
    let mut traced_from_ns = 0;
    let mut clock = Clock::start(args.seconds, args.trace, MIN_SWEEPS);
    loop {
        let phase = clock.advance();
        if clock.traced() && !tr.on() {
            tr.set_on(true);
            traced_from_ns = tr.now_ns();
        }
        match phase {
            Phase::Done => break,
            // A set-up here is under 0.1 ms, so each segment makes four.
            Phase::Setup => {
                for _ in 0..SETUPS_PER_SEGMENT {
                    tr.set_op(setup_ms.len() as u64);
                    let t0 = Instant::now();
                    std::hint::black_box(tr.scope("program_build", |_| adapter::build_sources()));
                    setup_ms.push(ms(t0.elapsed()));
                }
            }
            Phase::Op => {
                let sweep = plain.len() + traced.len();
                tr.set_op(sweep as u64);
                rng.shuffle(&mut order);
                let mut this = SweepTotals::default();
                let t0 = Instant::now();
                tr.scope("sweep", |tr| {
                    let src = tr.scope("program_build", |_| adapter::build_sources());
                    for &c in &order {
                        let k = tr.scope("kernel", |tr| adapter::compile_one(&src, &cases[c], tr));
                        out.attempted += 1;
                        out.gate(k.ok, || {
                            format!("sweep {sweep}: kernel case {c} is not proven clean")
                        });
                        this.opencl_bytes += k.opencl_bytes;
                        this.sites_proven += k.sites_proven;
                        this.sites_potential += k.sites_potential;
                    }
                    let (clean, bytes) = tr.scope("host_program", adapter::compile_host);
                    out.attempted += 1;
                    out.gate(clean, || {
                        format!("sweep {sweep}: host program reads before it writes")
                    });
                    this.host_c_bytes = bytes;
                });
                if tr.on() { &mut traced } else { &mut plain }.push(ms(t0.elapsed()) / kernels);
                let first = *totals.get_or_insert(this);
                out.gate(first == this, || format!("sweep {sweep}: the compiler's output changed"));
            }
        }
    }
    let traced_to_ns = tr.now_ns();
    tr.set_on(false);
    let totals = totals.expect("at least one sweep");

    // ---- end to end: per kernel, a sweep's wall divided by the 20 kernels ----
    out.e2e.insert("op_ms_best", stats::min(&plain));
    out.e2e.insert("setup_s", stats::min(&setup_ms) / 1e3);
    out.info.insert("kernels_per_sweep", cases.len().to_string());
    out.info.insert("opencl_bytes", totals.opencl_bytes.to_string());
    if !args.trace {
        return out;
    }

    // ---- per layer: stage time per sweep, divided by the 20 kernels ----
    tr.set_on(true);
    let (suite, proven) = tr.scope("verify_suite", |_| adapter::verify_suite());
    out.gate(suite == proven, || format!("verify suite: {proven} of {suite} kernels proven"));
    let l = &mut out.layer;
    let per_kernel = |tr: &Tracer, span: &str| tr.median_ms(span) / kernels;
    l.insert("liftac.build_ms", per_kernel(tr, "program_build"));
    l.insert("lift.typecheck_ms", per_kernel(tr, "typecheck"));
    l.insert("lift.lower_ms", per_kernel(tr, "lower"));
    l.insert("lift.emit_opencl_ms", per_kernel(tr, "emit_opencl"));
    l.insert("lift.verify_ms", per_kernel(tr, "verify_kernel"));
    l.insert(
        "lift.host_compile_ms",
        ["host_compile", "host_emit", "host_check"].iter().map(|s| per_kernel(tr, s)).sum(),
    );
    l.insert("vgpu.prepare_ms", per_kernel(tr, "prepare"));
    l.insert("vgpu.tape_verify_ms", per_kernel(tr, "verify_tape"));
    l.insert("lift.emit_opencl_bytes", totals.opencl_bytes as f64);
    l.insert("lift.host_c_bytes", totals.host_c_bytes as f64);
    l.insert("lift.sites_proven", totals.sites_proven as f64);
    l.insert("lift.sites_potential", totals.sites_potential as f64);
    l.insert("verify.suite_ms", tr.median_ms("verify_suite"));
    l.insert("verify.kernels_proven", proven as f64);
    l.insert("acoustics.setup_cold_ms", setup_ms[0]);
    l.insert("acoustics.setup_ms_p50", stats::median(&setup_ms));
    let section = (traced_from_ns, traced_to_ns);
    run::trace_metrics(&mut out, tr, section, section.1 - section.0, &plain, &traced);
    out
}
