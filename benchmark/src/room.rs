//! `room_hand`, `room_gen`, `room_shard2`: one 96×64×48 FD-MM dome stepped on
//! a vgpu front end, closed loop, one `step` + `sample` per operation.

use crate::adapter::{self, Pos, Sim, SimKind};
use crate::run::{self, ms, Args, Clock, Counters, Outcome, Phase, SETUPS};
use crate::stats::{self, Rng};
use crate::trace::Tracer;
use std::time::Instant;

/// Untimed iterations before the loop: plan caches fill, pages fault in,
/// and the energy proxy (which lacks the leap-frog cross terms) finishes its
/// rise from 1.0 to about 1.5 times the impulse energy.
const WARMUP: usize = 5;
/// Every run reaches this many impulse-response samples, so the checksum
/// over them repeats whatever `--seconds` is.
const CHECK_OPS: usize = 16;
/// Impulse-response samples compared with the native reference; the rest
/// of a long run are only checked for being finite.
const REFERENCE_STEPS: usize = 300;
/// The wave front moves one cell per step along each axis, so a microphone
/// within this Manhattan distance hears the impulse inside `CHECK_OPS`.
const MAX_MANHATTAN: usize = 14;
const IMPULSE: f64 = 1.0;

/// Source and microphone, rejection-sampled inside the dome: at least eight
/// cells apart, at most `MAX_MANHATTAN` steps of propagation apart.
pub fn positions(seed: u64) -> (Pos, Pos) {
    let cfg = adapter::room_config();
    let (nx, ny, nz) = adapter::room_dims(&cfg);
    let mut rng = Rng::new(seed);
    let draw = |rng: &mut Rng| loop {
        let p = (rng.range(1, nx - 1), rng.range(1, ny - 1), rng.range(1, nz - 1));
        if adapter::inside(&cfg, p) {
            return p;
        }
    };
    let src = draw(&mut rng);
    loop {
        let mic = draw(&mut rng);
        let d = [src.0.abs_diff(mic.0), src.1.abs_diff(mic.1), src.2.abs_diff(mic.2)];
        let euclid_sq: usize = d.iter().map(|c| c * c).sum();
        if euclid_sq >= 64 && d.iter().sum::<usize>() <= MAX_MANHATTAN {
            return (src, mic);
        }
    }
}

/// Counters whose movement over the iterations is reported per iteration.
const PER_OP: Counters<9> = Counters([
    "vgpu.xfer.to_host.bytes",
    "vgpu.halo.bytes",
    "vgpu.halo.copies",
    "vgpu.launches.vector",
    "vgpu.launches.compiled",
    "vgpu.launches.tape",
    "vgpu.launches.tree",
    "vgpu.warp.divergent",
    "vgpu.plan.hits",
]);

/// Median wall time of `f` over 100 calls, ns.
fn probe_ns(mut f: impl FnMut()) -> u64 {
    let samples: Vec<f64> = (0..100)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    stats::median(&samples) as u64
}

pub fn run(kind: SimKind, args: &Args, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let cfg = adapter::room_config();
    let (src, mic) = positions(args.seed);
    let fallbacks0 = adapter::fallbacks();
    let sim_new_span = if kind == SimKind::Gen { "sim_new.gen" } else { "sim_new" };

    // A `step` call hides two layers besides the launches: `LiftSim::step`
    // binds its arguments by name, `ShardedSim::step` exchanges halos. The
    // same public calls, timed on their own, give the traced `step` its
    // `bind` and `halo` children.
    let (mut bind_ns, mut halo_ns) = (0, 0);
    if args.trace && kind == SimKind::Gen {
        let probe = adapter::BindProbe::new(&adapter::build_room(&cfg));
        bind_ns = probe_ns(|| {
            std::hint::black_box(probe.bind());
        });
    }
    if args.trace && kind == SimKind::Shard2 {
        let mut probe = adapter::HaloProbe::new(&adapter::build_room(&cfg));
        halo_ns = probe_ns(|| probe.exchange());
    }

    // ---- segments: a from-scratch set-up, then iterations ----
    // The first set-up's simulation is the one stepped throughout; the
    // later ones are built and dropped.
    let mut sim: Option<Sim> = None;
    let mut setup_ms = Vec::with_capacity(SETUPS);
    let mut setup_bytes = 0;
    let mut ir = Vec::new();
    let mut energy_base = f64::NAN;
    let mut c_loop = PER_OP.read();
    let mut c_setups = [0u64; 9];
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut lane_ns, mut items) = (0u64, 0u64);
    let mut backend = "";
    let mut traced_from_ns = 0;
    let mut clock = Clock::start(args.seconds, args.trace, CHECK_OPS);
    loop {
        let phase = clock.advance();
        if clock.traced() && !tr.on() {
            tr.set_on(true);
            traced_from_ns = tr.now_ns();
        }
        match phase {
            Phase::Done => break,
            Phase::Setup => {
                tr.set_op(setup_ms.len() as u64);
                let before = adapter::counter("vgpu.xfer.to_gpu.bytes");
                let c_before = PER_OP.read();
                let t0 = Instant::now();
                let fresh = tr.scope("setup", |tr| {
                    let setup = tr.scope("room_build", |_| adapter::build_room(&cfg));
                    let mut fresh = tr.scope(sim_new_span, |_| adapter::new_sim(kind, setup));
                    tr.scope("impulse", |_| fresh.impulse(src, IMPULSE));
                    fresh
                });
                setup_ms.push(ms(t0.elapsed()));
                if sim.is_none() {
                    setup_bytes = adapter::counter("vgpu.xfer.to_gpu.bytes") - before;
                    let first = sim.insert(fresh);
                    for _ in 0..WARMUP {
                        first.step();
                        ir.push(first.sample(mic));
                    }
                    energy_base = first.energy();
                    c_loop = PER_OP.read();
                } else {
                    let c_after = PER_OP.read();
                    for (i, total) in c_setups.iter_mut().enumerate() {
                        *total += c_after[i] - c_before[i];
                    }
                }
            }
            Phase::Op => {
                let sim = sim.as_mut().expect("a set-up precedes the first operation");
                tr.set_op(ir.len() as u64);
                let t0 = Instant::now();
                let (stats, p) = tr.scope("iter", |tr| {
                    let stats = tr.scope("step", |_| sim.step());
                    tr.split_last(
                        &[
                            ("lane.volume", stats.volume.as_nanos() as u64),
                            ("lane.boundary", stats.boundary.as_nanos() as u64),
                            ("bind", bind_ns),
                            ("halo", halo_ns),
                        ],
                        "dispatch",
                    );
                    let p = tr.scope("sample", |_| sim.sample(mic));
                    (stats, p)
                });
                if tr.on() { &mut traced } else { &mut plain }.push(ms(t0.elapsed()));
                ir.push(p);
                lane_ns += (stats.volume + stats.boundary).as_nanos() as u64;
                items += stats.items;
                backend = stats.backend;
            }
        }
    }
    let traced_to_ns = tr.now_ns();
    tr.set_on(false);
    let c_end = PER_OP.read();
    let timed_ops = (plain.len() + traced.len()) as f64;
    let mut sim = sim.expect("SETUPS > 0");

    // ---- correctness: the native reference on the same room ----
    let energy_last = sim.energy();
    let checked = ir.len().min(REFERENCE_STEPS);
    let t0 = Instant::now();
    let want =
        adapter::Reference::new(sim.setup().clone(), src, IMPULSE).impulse_response(mic, checked);
    let reference_step_ms = ms(t0.elapsed()) / checked as f64;
    let peak = want.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let mut max_err = 0.0f64;
    out.attempted = ir.len() as u64;
    for (i, got) in ir.iter().enumerate() {
        let err = want.get(i).map_or(0.0, |want| (got - want).abs());
        max_err = max_err.max(err);
        out.gate(got.is_finite() && err <= 1e-6 * peak, || {
            format!("step {i}: pressure {got} vs reference {:?} (peak {peak})", want.get(i))
        });
    }
    out.gate(peak > 0.0, || "the impulse never reached the microphone".into());
    out.gate(energy_last.is_finite() && energy_last <= 1.05 * energy_base, || {
        format!("energy grew: {energy_base} after warm-up, {energy_last} after the last step")
    });
    out.gate(adapter::fallbacks() == fallbacks0, || "an engine fallback counter moved".into());
    let checksum = stats::checksum(ir[..CHECK_OPS].iter().copied());

    // ---- end to end ----
    out.e2e.insert("op_ms_best", stats::min(&plain));
    out.e2e.insert("setup_s", stats::min(&setup_ms) / 1e3);
    out.info.insert("backend", backend.to_string());
    out.info.insert("ir_checksum", checksum.to_string());
    out.info.insert("source_mic", format!("{src:?} {mic:?}"));
    if !args.trace {
        return out;
    }

    // ---- per layer ----
    let (grid_points, boundary_points) = adapter::room_points(sim.setup());
    let l = &mut out.layer;
    l.extend(PER_OP.per_op(&c_loop, &c_end, &c_setups, timed_ops));
    l.insert("vgpu.xfer.to_gpu.bytes", setup_bytes as f64);
    for name in
        ["vgpu.artifact.hits", "vgpu.artifact.misses", "vgpu.plan.misses", "vgpu.plan.shared_hits"]
    {
        l.insert(name, adapter::counter(name) as f64);
    }
    l.insert("vgpu.fallbacks", (adapter::fallbacks() - fallbacks0) as f64);
    l.insert("vgpu.lane_ns_per_item", lane_ns as f64 / items as f64);
    l.insert("acoustics.setup_cold_ms", setup_ms[0]);
    l.insert("acoustics.setup_ms_p50", stats::median(&setup_ms));
    l.insert("acoustics.step_ms_p50", stats::median(&plain));
    l.insert("acoustics.step_ms_p95", stats::quantile(&plain, 0.95));
    l.insert("acoustics.step_samples", plain.len() as f64);
    l.insert("acoustics.reference_step_ms", reference_step_ms);
    l.insert("acoustics.grid_points", grid_points as f64);
    l.insert("acoustics.boundary_points", boundary_points as f64);
    l.insert("acoustics.ir_max_abs_err", max_err);
    l.insert("acoustics.ir_checksum", checksum as f64);

    // the uploads a `*Sim::new` makes, timed on a scratch device
    tr.set_on(true);
    let setup = sim.setup().clone();
    for i in 0..SETUPS {
        tr.set_op(i as u64);
        tr.scope("upload", |_| adapter::upload_room_tables(&setup));
    }
    let modeled = sim.model_step();
    l.insert("vgpu.model.ms_per_step", modeled.ms);
    l.insert("vgpu.model.txn_bytes", modeled.txn_bytes as f64);
    l.insert("vgpu.model.flops", modeled.flops as f64);

    l.insert("acoustics.room_build_ms", tr.median_ms("room_build"));
    if kind == SimKind::Gen {
        l.insert("liftac.sim_new_ms", tr.median_ms(sim_new_span));
        l.insert("liftac.bind_ms", bind_ns as f64 / 1e6);
    } else {
        l.insert("acoustics.sim_new_ms", tr.median_ms(sim_new_span));
    }
    l.insert("vgpu.upload_ms", tr.median_ms("upload"));
    l.insert("vgpu.halo_ms", halo_ns as f64 / 1e6);
    l.insert("vgpu.lane_ms.volume", tr.median_ms("lane.volume"));
    l.insert("vgpu.lane_ms.boundary", tr.median_ms("lane.boundary"));
    l.insert("vgpu.dispatch_ms", tr.median_ms("dispatch"));
    l.insert("vgpu.readback_ms", tr.median_ms("sample"));
    let section = (traced_from_ns, traced_to_ns);
    run::trace_metrics(&mut out, tr, section, section.1 - section.0, &plain, &traced);
    out
}
