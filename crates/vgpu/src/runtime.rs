//! Process state as a value: a [`Runtime`] owns the settings, registry,
//! trace and sanitizer findings of the devices made with it
//! (`Device::new`: the default, [`runtime()`]), so runtimes with different
//! settings run side by side in one process. The artifact map (whose
//! compilations count into the default registry) and rayon's pool hold no
//! accounts and stay process-wide.

use crate::exec::Engine;
use crate::sanitize::Findings;
use crate::settings::{env, positive, setting};
use crate::telemetry::{Counter, Registry, Trace, TraceMode};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};

/// What a runtime's devices run under: the `VGPU_*` settings but
/// `VGPU_THREADS`. [`Settings::default`] is every variable unset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Settings {
    /// The engine new devices launch on (`VGPU_ENGINE`).
    pub engine: Engine,
    /// What the trace records, for which sink (`VGPU_TRACE`).
    pub trace: TraceMode,
    /// Whether device buffers carry shadow memory (`VGPU_SANITIZE=shadow`).
    pub shadow: bool,
    /// Devices a batch job spreads over (`VGPU_DEVICES`).
    pub devices: usize,
}

impl Default for Settings {
    fn default() -> Settings {
        Settings { engine: Engine::Fast, trace: TraceMode::Off, shadow: false, devices: 1 }
    }
}

impl Settings {
    /// The settings the environment selects ([`crate::settings`]' policy).
    pub fn from_env() -> Settings {
        Settings::from_lookup(&env)
    }

    /// The settings the variables `var` looks up select.
    pub(crate) fn from_lookup(var: &dyn Fn(&str) -> Option<String>) -> Settings {
        let d = Settings::default();
        let shadow = |v: &str| match v {
            "off" | "OFF" => Some(false),
            "shadow" | "SHADOW" => Some(true),
            _ => None,
        };
        let traces = "off, summary|table, chrome|perfetto|trace";
        Settings {
            engine: setting(var, "VGPU_ENGINE", "fast, tree, diff, differential", Engine::parse)
                .unwrap_or(d.engine),
            trace: setting(var, "VGPU_TRACE", traces, TraceMode::parse).unwrap_or(d.trace),
            shadow: setting(var, "VGPU_SANITIZE", "off, shadow", shadow).unwrap_or(d.shadow),
            devices: setting(var, "VGPU_DEVICES", "a positive integer", positive)
                .unwrap_or(d.devices),
        }
    }
}

/// The one owner of the state this crate accounts to (see the module docs),
/// shared behind an `Arc` by the devices made with it.
pub struct Runtime {
    /// The settings this runtime's devices are made under.
    pub settings: Settings,
    /// Its metric registry.
    pub registry: Registry,
    /// Its trace buffer and tracks.
    pub trace: Trace,
    /// Its shadow-sanitizer findings.
    pub findings: Findings,
    /// Numbers its traced devices, for distinct track names.
    pub(crate) device_seq: AtomicU32,
    /// Numbers its launch legs, for the sanitizer's writer tags.
    legs: AtomicU32,
    /// The counters its launches, transfers and allocations bump.
    pub(crate) counters: HotCounters,
}

/// Handles of the counters launches, transfers, allocations and sanitizer
/// findings bump, registered with the runtime: no hot path looks a counter
/// up by name (a registry lock and a `String` each time).
pub(crate) struct HotCounters {
    /// `vgpu.dispatch.{tasks,inline_launches}`.
    pub(crate) dispatch: [Counter; 2],
    /// `vgpu.launches.{tape,tree,oracle}`.
    pub(crate) launches: [Counter; 3],
    /// `vgpu.warp.divergent`.
    pub(crate) divergent: Counter,
    /// `[bytes, count]` per [`crate::telemetry::TransferDir`], in its order:
    /// `vgpu.{xfer.to_gpu,xfer.to_host,halo,halo.replicate}.*`.
    pub(crate) transfers: [[Counter; 2]; 4],
    /// `vgpu.tape.sites_{proven,checked}`, bumped per new launch shape.
    pub(crate) sites: [Counter; 2],
    /// `vgpu.tape.{optimized,fused}_ops` (compilations count into the default).
    pub(crate) tape_ops: [Counter; 2],
    /// `vgpu.sanitize.{shadowed_buffers,uninit_reads,stale_halo_reads,write_races}`.
    pub(crate) sanitize: [Counter; 4],
}

impl HotCounters {
    fn register(registry: &Registry) -> HotCounters {
        let c = |name: String| registry.counter(&name);
        let transfers = [
            ("xfer.to_gpu", "transfers"),
            ("xfer.to_host", "transfers"),
            ("halo", "copies"),
            ("halo.replicate", "transfers"),
        ]
        .map(|(path, count)| [c(format!("vgpu.{path}.bytes")), c(format!("vgpu.{path}.{count}"))]);
        HotCounters {
            dispatch: ["tasks", "inline_launches"].map(|n| c(format!("vgpu.dispatch.{n}"))),
            launches: ["tape", "tree", "oracle"].map(|n| c(format!("vgpu.launches.{n}"))),
            divergent: c("vgpu.warp.divergent".into()),
            transfers,
            sites: ["proven", "checked"].map(|n| c(format!("vgpu.tape.sites_{n}"))),
            tape_ops: ["optimized", "fused"].map(|n| c(format!("vgpu.tape.{n}_ops"))),
            sanitize: ["shadowed_buffers", "uninit_reads", "stale_halo_reads", "write_races"]
                .map(|n| c(format!("vgpu.sanitize.{n}"))),
        }
    }
}

impl Runtime {
    /// A runtime with `settings`. Its launches run on the process's lane
    /// pool, which the default runtime sizes, so that is built first.
    pub fn new(settings: Settings) -> Arc<Runtime> {
        runtime();
        Arc::new(Runtime::build(settings))
    }

    /// A runtime that sanitizes ([`Settings::shadow`]) with the default
    /// runtime's other settings: its devices' launches fail on a write race.
    pub fn sanitizing() -> Arc<Runtime> {
        Runtime::new(Settings { shadow: true, ..runtime().settings })
    }

    fn build(settings: Settings) -> Runtime {
        let registry = Registry::new();
        Runtime {
            trace: Trace::new(settings.trace),
            findings: Findings::default(),
            device_seq: AtomicU32::new(0),
            legs: AtomicU32::new(0),
            counters: HotCounters::register(&registry),
            registry,
            settings,
        }
    }

    /// A fresh launch-leg number (from 1): each executor run of a launch —
    /// the oracle and the tape of a differential one apart — is one leg.
    pub(crate) fn next_leg(&self) -> u32 {
        self.legs.fetch_add(1, Ordering::Relaxed).wrapping_add(1)
    }
}

/// The process default runtime, built from the environment on first use
/// ([`Settings::from_env`]). `VGPU_THREADS=n` sizes the process's one thread
/// pool: `n` threads run a launch's tasks, the launching thread and `n − 1`
/// workers. The pool reads it on the process's first parallel call, whoever
/// makes it (`shims/rayon`); building the runtime reports a value it does
/// not accept.
pub fn runtime() -> &'static Arc<Runtime> {
    static DEFAULT: OnceLock<Arc<Runtime>> = OnceLock::new();
    DEFAULT.get_or_init(|| {
        setting(&env, "VGPU_THREADS", "a positive integer", positive);
        Arc::new(Runtime::build(Settings::from_env()))
    })
}
