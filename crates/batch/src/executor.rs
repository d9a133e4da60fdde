//! The job-queue executor: worker threads draining a scenario queue.
//!
//! [`BatchExecutor::submit`] enqueues a [`Scenario`] and returns a
//! [`JobHandle`]; a fixed pool of worker threads pops jobs, runs each room
//! on its own [`vgpu::Device`]s, and delivers a [`JobResult`] (impulse
//! response at the microphone plus run stats) through the handle. Workers
//! never share mutable simulation state — what they *do* share is the
//! process-wide kernel sets and their artifacts ([`vgpu::artifact`]), so
//! every room after the first of a given kernel class skips AST building,
//! compilation and static verification.
//!
//! Jobs run on devices of the executor's [`vgpu::Runtime`], whose settings
//! pick engine, sanitizer and device count, and which gets their accounts.
//!
//! A room the front end cannot build (a [`room_acoustics::SimError`], e.g.
//! a scenario assigning materials its model does not define, or more
//! devices than the room has z-planes) fails its job with that error's
//! message. Panics inside a job (including the differential engine's
//! bit-exactness assertions) are caught and reported the same way — one bad
//! room fails its job, not the batch.

use crate::scenario::Scenario;
use room_acoustics::{SimSetup, Simulation};
use serde_json::json;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;
use vgpu::telemetry::sink::{self, KernelSummary};
use vgpu::telemetry::Registry;
use vgpu::{Device, DeviceProfile, ExecMode, Runtime};

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Worker threads draining the queue.
    pub threads: usize,
    /// When set, write a per-job telemetry sidecar JSON into this
    /// directory (`job_<id>.telemetry.json`).
    pub sidecar_dir: Option<PathBuf>,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig { threads: 2, sidecar_dir: None }
    }
}

/// What a completed job returns.
#[derive(Debug, Clone)]
pub struct JobOutput {
    /// Pressure at the microphone after each step.
    pub impulse_response: Vec<f64>,
    /// Field energy after the last step.
    pub energy: f64,
    /// Wall-clock of the step loop in milliseconds.
    pub wall_ms: f64,
    /// Kernel launches issued (volume + boundary, all steps).
    pub launches: usize,
    /// True when the tape verifier (`vgpu::verify_cached`: def-before-use,
    /// barrier uniformity, reachability) found nothing in any kernel the
    /// job launched; memoized process-wide per kernel artifact. The bounds
    /// and race proofs are not run per job: CI's `lift_verify` gate checks
    /// them for every shipped kernel.
    pub verifier_clean: bool,
    /// Path of the telemetry sidecar, when one was written.
    pub sidecar: Option<PathBuf>,
}

/// Result delivered through a [`JobHandle`].
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The scenario the job ran.
    pub scenario: Scenario,
    /// Output, or the panic/error message of a failed job.
    pub outcome: Result<JobOutput, String>,
}

/// Waitable handle to one submitted job.
pub struct JobHandle {
    rx: Receiver<JobResult>,
}

impl JobHandle {
    /// Blocks until the job completes.
    pub fn wait(self) -> JobResult {
        self.rx.recv().expect("worker delivers a result for every job")
    }
}

type Job = (Scenario, Sender<JobResult>);

/// Multi-threaded batch executor (see module docs).
pub struct BatchExecutor {
    cfg: BatchConfig,
    rt: Arc<Runtime>,
    tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl BatchExecutor {
    /// Starts `cfg.threads` workers on the default runtime.
    pub fn new(cfg: BatchConfig) -> BatchExecutor {
        BatchExecutor::with_runtime(cfg, Arc::clone(vgpu::runtime()))
    }

    /// Starts `cfg.threads` workers whose jobs run on devices of `rt`.
    pub fn with_runtime(cfg: BatchConfig, rt: Arc<Runtime>) -> BatchExecutor {
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..cfg.threads.max(1))
            .map(|i| {
                let rx = rx.clone();
                let cfg = cfg.clone();
                let rt = rt.clone();
                std::thread::Builder::new()
                    .name(format!("batch-worker-{i}"))
                    .spawn(move || loop {
                        // Hold the queue lock only for the pop, not the job.
                        let job = rx.lock().unwrap().recv();
                        match job {
                            Ok((scenario, done)) => {
                                let reg = &rt.registry;
                                reg.gauge("batch.queue.depth").add(-1);
                                let in_flight = reg.gauge("batch.jobs.in_flight");
                                in_flight.add(1);
                                let t0 = Instant::now();
                                let result = run_job(&cfg, &rt, scenario);
                                record_job_latency(reg, &result.scenario, t0.elapsed());
                                in_flight.add(-1);
                                // A dropped handle just means nobody waits.
                                let _ = done.send(result);
                            }
                            Err(_) => break, // queue closed: executor dropped
                        }
                    })
                    .expect("spawn batch worker")
            })
            .collect();
        BatchExecutor { cfg, rt, tx: Some(tx), workers }
    }

    /// The configuration the executor was started with.
    pub fn config(&self) -> &BatchConfig {
        &self.cfg
    }

    /// Enqueues a scenario; returns the handle its result arrives on.
    pub fn submit(&self, scenario: Scenario) -> JobHandle {
        let (done_tx, done_rx) = channel();
        self.rt.registry.gauge("batch.queue.depth").add(1);
        self.tx
            .as_ref()
            .expect("executor is running")
            .send((scenario, done_tx))
            .expect("workers are alive while the executor exists");
        JobHandle { rx: done_rx }
    }

    /// Submits every scenario, then waits for all of them (results in
    /// submission order, regardless of completion order).
    pub fn run_all(&self, scenarios: Vec<Scenario>) -> Vec<JobResult> {
        let handles: Vec<JobHandle> = scenarios.into_iter().map(|s| self.submit(s)).collect();
        handles.into_iter().map(JobHandle::wait).collect()
    }
}

impl Drop for BatchExecutor {
    fn drop(&mut self) {
        self.tx.take(); // close the queue → workers drain and exit
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Records one completed job's end-to-end latency into the unlabeled
/// `batch.job.latency_us` histogram and its class-labeled variant
/// `batch.job.latency_us.<boundary>.<precision>` (the registry keys metrics
/// by name, so the label rides in the name). Snapshots expose p50/p95/p99
/// per class.
fn record_job_latency(reg: &Registry, sc: &Scenario, elapsed: std::time::Duration) {
    let us = elapsed.as_micros() as u64;
    reg.histogram("batch.job.latency_us").record(us);
    reg.histogram(&format!(
        "batch.job.latency_us.{}.{}",
        sc.boundary_label(),
        sc.precision.label()
    ))
    .record(us);
}

/// Runs one job on the calling worker thread.
fn run_job(cfg: &BatchConfig, rt: &Arc<Runtime>, scenario: Scenario) -> JobResult {
    let outcome = catch_job(|| run_sim(cfg, rt, &scenario));
    JobResult { scenario, outcome }
}

/// Runs `job`, converting a panic (e.g. the differential engine's
/// bit-exactness assertion, or a lane task's bounds assert, which the rayon
/// pool re-raises here with its own payload) into a job error that carries
/// the panic's message.
fn catch_job<T>(job: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(job)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "job panicked".to_string());
        Err(format!("panic: {msg}"))
    })
}

fn run_sim(cfg: &BatchConfig, rt: &Arc<Runtime>, sc: &Scenario) -> Result<JobOutput, String> {
    // Several devices (`VGPU_DEVICES > 1`) spread the job over as many
    // Z-slabs (bit-identical to one device; see DESIGN.md §12).
    let devices = (0..rt.settings.devices)
        .map(|_| Device::with_runtime(DeviceProfile::gtx780(), rt.clone()))
        .collect();
    let setup = SimSetup::try_new(&sc.config()).map_err(|e| e.to_string())?;
    let mut sim = Simulation::try_new(setup, sc.precision, sc.boundary_kernel(), devices)
        .map_err(|e| e.to_string())?;

    // Tape-verifier gate, on the very artifacts the simulation
    // launches (the slab volume kernel when sharded); each keeps its report,
    // so a whole batch pays the verifier once per distinct kernel.
    let verifier_clean = sim
        .kernels()
        .all(|k| vgpu::verify_cached(k.prepared()).is_none_or(|report| report.is_clean()));

    let (sx, sy, sz) = sc.source;
    sim.impulse(sx, sy, sz, sc.amp);

    // One account per kernel of the step, volume first, folded from what
    // each step returns — with tracing off exactly as with tracing on.
    let mut kernels: Vec<KernelSummary> = Vec::new();
    let (mx, my, mz) = sc.mic;
    let t0 = Instant::now();
    let mut impulse_response = Vec::with_capacity(sc.steps);
    for _ in 0..sc.steps {
        for (volume, boundary) in sim.step(ExecMode::Fast) {
            for (k, stats) in sim.kernels().zip(std::iter::once(&volume).chain(&boundary)) {
                sink::fold_launch(&mut kernels, k.prepared(), stats);
            }
        }
        impulse_response.push(sim.sample(mx, my, mz));
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let energy = sim.energy();
    let launches = kernels.iter().map(|k| k.launches as usize).sum();
    let sidecar = cfg.sidecar_dir.as_ref().and_then(|dir| {
        write_sidecar(dir, sc, &sim.devices, &kernels, energy, wall_ms, verifier_clean)
            .map_err(|e| eprintln!("sidecar for {}: {e}", sc.label()))
            .ok()
    });
    Ok(JobOutput { impulse_response, energy, wall_ms, launches, verifier_clean, sidecar })
}

/// Writes the per-job telemetry sidecar: scenario parameters, the job's
/// per-kernel launch totals (all its devices), and the process-wide
/// artifact-cache occupancy at completion time.
fn write_sidecar(
    dir: &std::path::Path,
    sc: &Scenario,
    devices: &[Device],
    kernels: &[KernelSummary],
    energy: f64,
    wall_ms: f64,
    verifier_clean: bool,
) -> std::io::Result<PathBuf> {
    // Job-scoped trace attribution: the runtime's trace buffer mixes events
    // from every concurrently-running job, but each job's device records on
    // its own tracks — filter to them so a sidecar never carries another
    // job's kernel events. Empty when tracing is off (the devices then
    // allocated no tracks).
    let tracks: Vec<vgpu::telemetry::TrackId> =
        devices.iter().filter_map(|d| d.telemetry_tracks()).flatten().collect();
    let trace_events: Vec<vgpu::telemetry::Event> = if tracks.is_empty() {
        Vec::new()
    } else {
        devices[0]
            .runtime()
            .trace
            .events_snapshot()
            .into_iter()
            .filter(|ev| ev.track().is_some_and(|t| tracks.contains(&t)))
            .collect()
    };
    let doc = json!({
        "job": sc.id,
        "label": sc.label(),
        "scenario": {
            "dims": [sc.dims.nx, sc.dims.ny, sc.dims.nz],
            "shape": format!("{:?}", sc.shape),
            "boundary": sc.boundary_label(),
            "precision": sc.precision.label(),
            "steps": sc.steps,
            "source": [sc.source.0, sc.source.1, sc.source.2],
            "mic": [sc.mic.0, sc.mic.1, sc.mic.2],
            "amp": sc.amp,
        },
        "result": {
            "energy": energy,
            "wall_ms": wall_ms,
            "verifier_clean": verifier_clean,
        },
        "kernels": kernels,
        "artifact_cache": { "compiled": vgpu::artifact::cache_size() },
        // Only this job's tracks: events from concurrently-running jobs are
        // filtered out (they live on their own devices' tracks).
        "trace": {
            "tracks": tracks.iter().map(|t| t.0).collect::<Vec<u32>>(),
            "kernel_events": trace_events
                .iter()
                .filter(|e| matches!(e, vgpu::telemetry::Event::Kernel { .. }))
                .count(),
            "events": trace_events,
        },
    });
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("job_{}.telemetry.json", sc.id));
    let text = serde_json::to_string_pretty(&doc).map_err(std::io::Error::from)?;
    std::fs::write(&path, text)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScenarioGen;
    use lift::kast::{KExpr, KStmt, Kernel, KernelParam, MemRef};
    use lift::prelude::{BinOp, ScalarKind, Value};
    use vgpu::{Arg, BufData};

    /// `if (gid >= N) return; out[gid + 1] = 1;` — the last work-item stores
    /// one element past the end.
    fn overrun_kernel() -> Kernel {
        Kernel {
            name: "batch_test_overrun".into(),
            params: vec![
                KernelParam::global_buf("out", ScalarKind::F32),
                KernelParam::scalar("N", ScalarKind::I32),
            ],
            body: vec![
                KStmt::return_if(KExpr::bin(BinOp::Ge, KExpr::GlobalId(0), KExpr::var("N"))),
                KStmt::Store {
                    mem: MemRef::Param(0),
                    idx: KExpr::GlobalId(0) + KExpr::int(1),
                    value: KExpr::Lit(lift::prelude::Lit::f32(1.0)),
                },
            ],
            work_dim: 1,
        }
    }

    /// No scenario can make a shipped kernel overrun, so the failing job
    /// here is an overrunning launch handed to [`catch_job`] directly, on a
    /// thread standing in for a batch worker. The launch is wide enough to
    /// fan out over the pool, and the overrun sits in its last task: the
    /// job error must still name the cause, and a real job must then
    /// succeed on the same thread.
    #[test]
    fn a_lane_panic_names_its_cause_and_the_worker_runs_the_next_job() {
        let worker = std::thread::spawn(|| {
            let n = 16 * 4096;
            let failed = catch_job(|| {
                let mut dev = Device::gtx780();
                dev.set_engine(vgpu::Engine::Fast);
                let prep = dev.compile(&overrun_kernel()).map_err(|e| format!("{e:?}"))?;
                let out = dev.upload(BufData::from(vec![0.0f32; n]));
                let args = [Arg::Buf(out), Arg::Val(Value::I32(n as i32))];
                dev.launch(&prep, &args, &[n], ExecMode::Fast).map_err(|e| format!("{e:?}"))
            });
            let next = run_job(
                &BatchConfig::default(),
                vgpu::runtime(),
                ScenarioGen::new(3).take(1).remove(0),
            );
            (failed, next)
        });
        let (failed, next) = worker.join().expect("the worker thread survives a failed job");
        let err = failed.expect_err("the overrun must fail its job");
        assert!(err.starts_with("panic: ") && err.contains("store out of bounds"), "{err}");
        assert!(next.outcome.is_ok(), "next job on the same worker: {:?}", next.outcome);
    }

    /// A scenario whose room the front end cannot set up fails its job with
    /// the typed error's text, not a caught panic, and nothing else fails.
    #[test]
    fn a_scenario_that_assigns_undefined_materials_fails_its_job_with_the_setup_error() {
        let mut bad = ScenarioGen::new(11).take(3);
        bad[1].assignment = room_acoustics::MaterialAssignment::Striped { num_materials: 5 };
        let results = BatchExecutor::new(BatchConfig::default()).run_all(bad);
        assert_eq!(
            results[1].outcome.as_ref().map(|_| ()),
            Err(&"room assigns 5 materials but only 3 defined".to_string())
        );
        assert!(results[0].outcome.is_ok() && results[2].outcome.is_ok());
    }

    /// A scenario is a plain struct, so nothing stops a one-cell-thick grid
    /// reaching the front end: its job fails with the setup's typed error
    /// (the face scan of `Simulation` used to divide by zero on it).
    #[test]
    fn a_scenario_without_an_interior_fails_its_job_with_the_setup_error() {
        let mut bad = ScenarioGen::new(11).take(3);
        bad[1].dims = room_acoustics::GridDims { nx: 1, ny: 9, nz: 9 };
        let results = BatchExecutor::new(BatchConfig::default()).run_all(bad);
        assert_eq!(
            results[1].outcome.as_ref().map(|_| ()),
            Err(&"a 1×9×9 grid has no interior: every side needs 3 cells".to_string())
        );
        assert!(results[0].outcome.is_ok() && results[2].outcome.is_ok());
    }
}
