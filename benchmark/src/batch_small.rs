//! `batch_small`: small rooms through the batch service, two closed-loop
//! clients. Per-launch dispatch, plan/artifact lookups, room building,
//! uploads and the queue dominate; the opposite corner from `room_hand`.
//!
//! Every tenth job is the fixed probe room, whatever the seed: the fastest
//! round trip of a job depends on which rooms the seed drew, the fastest
//! round trip of the probe does not, so that is the workload's `op_ms_best`.

use crate::adapter::{self, BatchScenario, InlineJob, JobReport};
use crate::run::{self, ms, Args, Clock, Counters, Outcome, Phase, SETUPS};
use crate::stats;
use crate::trace::Tracer;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Jobs per cycle: scenarios drawn from `ScenarioGen::new(seed)` with the
/// probe room in every `PROBE_EVERY`-th slot. The clients take them in
/// order, so the mix of rooms repeats every `CYCLE` jobs.
const CYCLE: usize = 250;
const PROBE_EVERY: usize = 10;
const CLIENTS: usize = 2;
/// Jobs whose impulse responses are checked against the native reference
/// and folded into the checksum.
const CHECK_JOBS: usize = 32;
/// Jobs replayed inline, once untraced and once traced, in a traced run.
const REPLAY: usize = 100;

/// What is kept of a finished job. Impulse responses are kept only for the
/// jobs that are compared with the reference, so peak memory does not grow
/// with the number of jobs a fast machine gets through.
struct Done {
    index: usize,
    latency_ms: f64,
    ok: bool,
    step_loop_ms: f64,
    launches: usize,
    impulse_response: Vec<f64>,
}

fn is_probe(index: usize) -> bool {
    index.is_multiple_of(PROBE_EVERY)
}

/// The cycle for `seed`.
fn cycle(seed: u64) -> Vec<BatchScenario> {
    let mut jobs = adapter::scenarios(seed, CYCLE);
    for slot in (0..CYCLE).step_by(PROBE_EVERY) {
        jobs[slot] = adapter::probe_scenario();
    }
    jobs
}

fn finished(index: usize, latency_ms: f64, r: JobReport) -> Done {
    let finite = r.impulse_response.iter().all(|v| v.is_finite()) && r.energy.is_finite();
    Done {
        index,
        latency_ms,
        ok: r.ok && r.verifier_clean && finite,
        step_loop_ms: r.wall_ms,
        launches: r.launches,
        impulse_response: if index < CHECK_JOBS { r.impulse_response } else { Vec::new() },
    }
}

/// One segment of the closed loop: each client submits, waits, then takes
/// the next job, until the segment's time is up and its share of the first
/// cycle is done.
fn serve_segment(
    exec: &adapter::Executor,
    jobs: &[BatchScenario],
    clock: &Clock,
    next: &AtomicUsize,
) -> Vec<Done> {
    let at_least = next.load(Ordering::Relaxed) + clock.min_per_segment();
    std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    while !(clock.segment_over() && next.load(Ordering::Relaxed) >= at_least) {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let sc = jobs[index % CYCLE].clone();
                        let t0 = Instant::now();
                        let report = adapter::run_job(exec, sc);
                        mine.push(finished(index, ms(t0.elapsed()), report));
                    }
                    mine
                })
            })
            .collect();
        clients.into_iter().flat_map(|c| c.join().expect("client thread panicked")).collect()
    })
}

/// Counters whose movement over the inline replay is reported per job.
const PER_JOB: Counters<9> = Counters([
    "vgpu.artifact.hits",
    "vgpu.plan.hits",
    "vgpu.xfer.to_host.bytes",
    "vgpu.xfer.to_gpu.bytes",
    "vgpu.launches.vector",
    "vgpu.launches.compiled",
    "vgpu.launches.tape",
    "vgpu.launches.tree",
    "vgpu.warp.divergent",
]);

pub fn run(args: &Args, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let fallbacks0 = adapter::fallbacks();

    // ---- segments: start a service from scratch, then serve ----
    // A traced run serves for half of `--seconds` and replays afterwards.
    let seconds = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let mut clock = Clock::start(seconds, false, CYCLE);
    let next = AtomicUsize::new(0);
    let mut setup_ms = Vec::with_capacity(SETUPS);
    let mut done: Vec<Done> = Vec::new();
    let mut serve_s = 0.0;
    let mut jobs = Vec::new();
    tr.set_on(args.trace);
    while let Phase::Setup = clock.advance() {
        tr.set_op(setup_ms.len() as u64);
        let t0 = Instant::now();
        let (fresh, exec, probe_ok) = tr.scope("setup", |tr| {
            let jobs = tr.scope("scenario_gen", |_| cycle(args.seed));
            let exec = tr.scope("executor_start", |_| adapter::start_executor());
            let probe =
                tr.scope("first_job", |_| adapter::run_job(&exec, adapter::probe_scenario()));
            (jobs, exec, probe.ok)
        });
        setup_ms.push(ms(t0.elapsed()));
        out.gate(probe_ok, || "the set-up job failed".into());
        let t0 = Instant::now();
        done.extend(serve_segment(&exec, &fresh, &clock, &next));
        serve_s += t0.elapsed().as_secs_f64();
        clock.end_segment();
        jobs = fresh;
    }
    tr.set_on(false);
    done.sort_by_key(|d| d.index);

    // ---- correctness ----
    out.attempted = done.len() as u64;
    for d in &done {
        out.gate(d.ok, || format!("job {}: failed, unverified or not finite", d.index));
    }
    let mut max_err = 0.0f64;
    for d in done.iter().take(CHECK_JOBS) {
        let got = &d.impulse_response;
        let want = adapter::reference_response(&jobs[d.index]);
        let peak = want.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let err = got.iter().zip(&want).fold(0.0f64, |m, (g, w)| m.max((g - w).abs()));
        max_err = max_err.max(err);
        out.gate(got.len() == want.len() && err <= 1e-6 * peak, || {
            format!("job {}: impulse response off the reference by {err} (peak {peak})", d.index)
        });
    }
    out.gate(adapter::fallbacks() == fallbacks0, || "an engine fallback counter moved".into());
    let checksum = stats::checksum(
        done.iter().take(CHECK_JOBS).flat_map(|d| d.impulse_response.iter().copied()),
    );

    // ---- end to end ----
    let probe_ms: Vec<f64> =
        done.iter().filter(|d| is_probe(d.index)).map(|d| d.latency_ms).collect();
    out.e2e.insert("op_ms_best", stats::min(&probe_ms));
    out.e2e.insert("setup_s", stats::min(&setup_ms) / 1e3);
    out.info.insert("ir_checksum", checksum.to_string());
    out.info.insert("clients", CLIENTS.to_string());
    if !args.trace {
        return out;
    }

    // ---- per layer: the service, from what each job returned ----
    let lat_ms: Vec<f64> = done.iter().map(|d| d.latency_ms).collect();
    let loop_ms: Vec<f64> = done.iter().map(|d| d.step_loop_ms).collect();
    let overhead_ms: Vec<f64> = done.iter().map(|d| d.latency_ms - d.step_loop_ms).collect();
    let first_cycle_launches: usize = done[..CYCLE].iter().map(|d| d.launches).sum();
    let l = &mut out.layer;
    l.insert("batch.step_loop_ms", stats::median(&loop_ms));
    l.insert("batch.job_overhead_ms", stats::median(&overhead_ms));
    l.insert("batch.launches_per_job", first_cycle_launches as f64 / CYCLE as f64);
    l.insert("batch.rooms_per_s", done.len() as f64 / serve_s);
    l.insert("batch.job_ms_p50", stats::median(&lat_ms));
    l.insert("batch.job_ms_p95", stats::quantile(&lat_ms, 0.95));
    l.insert("batch.job_samples", lat_ms.len() as f64);
    l.insert("acoustics.setup_cold_ms", setup_ms[0]);
    l.insert("acoustics.setup_ms_p50", stats::median(&setup_ms));
    l.insert("acoustics.ir_max_abs_err", max_err);
    l.insert("acoustics.ir_checksum", checksum as f64);
    for name in ["vgpu.artifact.misses", "vgpu.plan.misses", "vgpu.plan.shared_hits"] {
        l.insert(name, adapter::counter(name) as f64);
    }
    l.insert("vgpu.fallbacks", (adapter::fallbacks() - fallbacks0) as f64);

    // ---- per layer: the calls one job makes, replayed inline ----
    // Each of the first `REPLAY` scenarios runs on this thread twice, spans
    // off then on; the counters over the replay repeat exactly.
    let before = PER_JOB.read();
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let (mut lane_ns, mut items, mut traced_ns) = (0u64, 0u64, 0u64);
    let from_ns = tr.now_ns();
    for (j, sc) in jobs.iter().take(REPLAY).enumerate() {
        for traced in [false, true] {
            tr.set_on(traced);
            tr.set_op(j as u64);
            let t0 = Instant::now();
            tr.scope("replay", |tr| {
                let mut job = InlineJob::new(sc);
                tr.scope("room_build", |_| job.build_room());
                tr.scope("artifacts", |_| job.artifacts());
                tr.scope("sim_new", |_| job.sim_new());
                tr.scope("impulse", |_| job.impulse());
                for _ in 0..job.steps() {
                    let stats = tr.scope("step", |_| job.step());
                    tr.split_last(
                        &[
                            ("lane.volume", stats.volume.as_nanos() as u64),
                            ("lane.boundary", stats.boundary.as_nanos() as u64),
                        ],
                        "dispatch",
                    );
                    std::hint::black_box(tr.scope("sample", |_| job.sample()));
                    lane_ns += (stats.volume + stats.boundary).as_nanos() as u64;
                    items += stats.items;
                }
            });
            let dt = t0.elapsed();
            if traced {
                traced_ns += dt.as_nanos() as u64;
                traced_ms.push(ms(dt));
            } else {
                plain_ms.push(ms(dt));
            }
        }
    }
    let to_ns = tr.now_ns();
    let after = PER_JOB.read();
    let l = &mut out.layer;
    l.extend(PER_JOB.per_op(&before, &after, &[0; 9], (2 * REPLAY) as f64));
    tr.set_on(true);
    for i in 0..REPLAY {
        tr.set_op(i as u64);
        tr.scope("artifact_lookup", |_| adapter::artifact_lookup());
    }
    l.insert("vgpu.artifact_lookup_us", tr.median_ms("artifact_lookup") * 1e3);
    l.insert("vgpu.lane_ns_per_item", lane_ns as f64 / items as f64);
    l.insert("batch.scenario_gen_ms", tr.median_ms("scenario_gen"));
    l.insert("batch.executor_start_ms", tr.median_ms("executor_start"));
    l.insert("acoustics.room_build_ms", tr.median_ms("room_build"));
    l.insert("acoustics.sim_new_ms", tr.median_ms("sim_new"));
    l.insert("vgpu.lane_ms.volume", tr.median_ms("lane.volume"));
    l.insert("vgpu.lane_ms.boundary", tr.median_ms("lane.boundary"));
    l.insert("vgpu.dispatch_ms", tr.median_ms("dispatch"));
    l.insert("vgpu.readback_ms", tr.median_ms("sample"));
    run::trace_metrics(&mut out, tr, (from_ns, to_ns), traced_ns, &plain_ms, &traced_ms);
    out
}
