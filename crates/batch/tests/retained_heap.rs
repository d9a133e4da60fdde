//! A finished job leaves nothing behind: after one warm-up pass over a fixed
//! set of small scenarios (every room shape, boundary kernel and precision
//! the set holds has compiled, cached its check tables and grown its pools),
//! ten more passes over the same set leave the live heap where it was, to
//! within a few bytes a job. This locates the peak-RSS growth `roombench`'s
//! `batch_small` shows per completed job outside the batch service.
//!
//! Own test binary with a single test: the counting allocator sees every
//! thread of the process.

use batch::{BatchConfig, BatchExecutor, ScenarioGen};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use vgpu::{Engine, Runtime, Settings, TraceMode};

/// Bytes currently allocated and not yet freed.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every call forwards to `System` unchanged; the counter is a
// statistic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's contract is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as isize - layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const JOBS: usize = 50;
const PASSES: usize = 10;

#[test]
fn jobs_after_the_warm_up_leave_no_heap_behind() {
    // The fast engine with tracing off: a trace is a log that grows by design.
    let settings = Settings {
        engine: Engine::Fast,
        shadow: false,
        trace: TraceMode::Off,
        ..vgpu::runtime().settings
    };
    let exec = BatchExecutor::with_runtime(BatchConfig::default(), Runtime::new(settings));
    // `batch_small`'s rooms, a few steps each: the heap a job keeps does not
    // depend on how many steps it ran.
    let mut jobs = ScenarioGen::new(41).take(JOBS);
    jobs.iter_mut().for_each(|s| s.steps = 3);
    let pass = || {
        for r in exec.run_all(jobs.clone()) {
            assert!(r.outcome.is_ok(), "{}: {:?}", r.scenario.label(), r.outcome.err());
        }
    };
    pass();
    let before = LIVE.load(Ordering::Relaxed);
    for _ in 0..PASSES {
        pass();
    }
    let grown = LIVE.load(Ordering::Relaxed) - before;
    let per_job = grown as f64 / (PASSES * JOBS) as f64;
    assert!(
        per_job <= 8.0,
        "{grown} live heap bytes after {PASSES}×{JOBS} jobs: {per_job:.1} a job"
    );
}
