//! Offline shim for `rayon`: the data-parallel surface this workspace uses
//! (`par_chunks`, `par_chunks_mut().enumerate()`, range `into_par_iter`,
//! `map`/`for_each`/`collect`, the global-pool thread count), implemented
//! over one process-wide persistent pool in which the caller participates.
//!
//! Semantics preserved from rayon for the covered surface:
//! - `map(..).collect()` keeps input order;
//! - closures run concurrently on up to [`current_num_threads`] threads, so
//!   they must be `Sync` and items `Send` (same bounds rayon demands);
//! - `ThreadPoolBuilder::num_threads(n).build_global()` pins the thread
//!   count once per process (first call wins, like rayon's global pool;
//!   without one, `VGPU_THREADS` does, see [`current_num_threads`]);
//! - a panicking closure unwinds the calling thread with its own payload.
//!
//! A parallel call becomes a job of ordered tasks: one per chunk for the
//! slice iterators (the chunk size is the caller's grain), one per run of at
//! least [`MIN_RUN`] indices for a range. The caller and any idle worker
//! claim tasks from the job's counter until none is left; see [`run_tasks`]
//! for who runs what, and why nesting and concurrent callers cannot
//! deadlock. A job of one task, and every job when the thread count is 1,
//! runs inline on the caller with no hand-off at all.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once, PoisonError};

/// 0 = not yet fixed; otherwise the pinned global thread count. Relaxed
/// everywhere: the value publishes nothing but itself.
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Pins the thread count to `n` unless it is pinned already; returns the
/// pinned count.
fn pin_threads(n: usize) -> usize {
    match GLOBAL_THREADS.compare_exchange(0, n.max(1), Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => n.max(1),
        Err(pinned) => pinned,
    }
}

/// Number of threads a parallel operation can run on: the caller plus the
/// pool's `n − 1` workers. Like rayon's, the first call fixes the count:
/// what `build_global` chose, else `VGPU_THREADS` — the workspace's thread
/// setting, read here (as rayon reads `RAYON_NUM_THREADS`) so that it holds
/// whichever parallel call comes first — else the machine's available
/// parallelism.
pub fn current_num_threads() -> usize {
    match GLOBAL_THREADS.load(Ordering::Relaxed) {
        0 => {
            let set = std::env::var("VGPU_THREADS").ok().and_then(|v| v.trim().parse().ok());
            let all = || std::thread::available_parallelism().map_or(1, |n| n.get());
            pin_threads(set.filter(|&n| n > 0).unwrap_or_else(all))
        }
        n => n,
    }
}

/// Error type for [`ThreadPoolBuilder::build_global`] (the shim never
/// actually fails; rayon errors on double initialisation, we keep first-wins
/// semantics and report success).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "global thread pool already initialised")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder for the global pool; only the thread count is configurable.
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

impl ThreadPoolBuilder {
    /// A builder with default settings.
    pub fn new() -> ThreadPoolBuilder {
        ThreadPoolBuilder::default()
    }

    /// Sets the thread count (0 = auto).
    pub fn num_threads(mut self, n: usize) -> ThreadPoolBuilder {
        self.num_threads = Some(n);
        self
    }

    /// Installs this configuration as the global pool. First call wins, and
    /// a parallel call or [`current_num_threads`] counts as a call.
    pub fn build_global(self) -> Result<(), ThreadPoolBuildError> {
        match self.num_threads {
            Some(0) | None => current_num_threads(),
            Some(n) => pin_threads(n),
        };
        Ok(())
    }
}

/// Fewest indices in one task of a range iterator. A task must outweigh
/// the futex wake that hands it to a worker several times over, and the
/// per-index closures in this workspace cost 5–20 ns: 20–80 µs a task, the
/// same weight as the work-item grain `vgpu::exec` gives its launches.
const MIN_RUN: usize = 4096;

/// Locks `m`, ignoring poison: no code in this crate can panic while it
/// holds one of its locks (task bodies run outside them), and every update
/// made under them leaves the data valid at each step.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One parallel call: `ntasks` ordered tasks, claimed one at a time.
struct Job {
    /// The caller's task body, borrowed from its stack frame with the
    /// lifetime erased. Dereferenced only under the invariant [`run_tasks`]
    /// states.
    body: *const (dyn Fn(usize) + Sync),
    ntasks: usize,
    /// Next task index to hand out. Relaxed: it publishes nothing — a thread
    /// sees the job through the queue mutex, results through `progress`.
    next: AtomicUsize,
    progress: Mutex<Progress>,
    /// Signalled when `progress.done` reaches `ntasks`; only the caller waits.
    finished: Condvar,
}

#[derive(Default)]
struct Progress {
    /// Claimed tasks whose body has returned or unwound.
    done: usize,
    /// The panic of the lowest-indexed task that panicked.
    panic: Option<(usize, Box<dyn Any + Send>)>,
}

// SAFETY: `body` points at a `Sync` closure, so calling it from any thread
// is sound for as long as the pointee lives (see `run_tasks`); every other
// field is `Send + Sync` by itself.
unsafe impl Send for Job {}
// SAFETY: as above.
unsafe impl Sync for Job {}

impl Job {
    fn claim(&self) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.ntasks).then_some(i)
    }

    fn exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.ntasks
    }

    /// Claims and runs tasks until none is left. A panicking body is caught
    /// here, so it never takes a worker down and never lets the caller
    /// unwind while other threads still run its tasks.
    fn work(&self) {
        while let Some(i) = self.claim() {
            // SAFETY: task `i` was claimed and is not yet counted in
            // `done`, so the caller is still inside `run_tasks` and the
            // closure it lent is alive.
            let body = unsafe { &*self.body };
            let outcome = catch_unwind(AssertUnwindSafe(|| body(i)));
            let mut progress = lock(&self.progress);
            if let Err(payload) = outcome {
                if progress.panic.as_ref().is_none_or(|(first, _)| i < *first) {
                    progress.panic = Some((i, payload));
                }
            }
            progress.done += 1;
            if progress.done == self.ntasks {
                self.finished.notify_one();
            }
        }
    }

    /// Blocks until every task is done; returns the first task's panic.
    fn wait(&self) -> Option<Box<dyn Any + Send>> {
        let mut progress = lock(&self.progress);
        while progress.done < self.ntasks {
            progress = self.finished.wait(progress).unwrap_or_else(PoisonError::into_inner);
        }
        progress.panic.take().map(|(_, payload)| payload)
    }
}

/// The process-wide pool: jobs that still have unclaimed tasks, and the
/// workers waiting for one.
struct Pool {
    queue: Mutex<Queue>,
    /// Signalled once per worker a newly published job can use.
    work: Condvar,
}

struct Queue {
    jobs: VecDeque<Arc<Job>>,
    /// Workers blocked on `work`.
    idle: usize,
}

static POOL: Pool =
    Pool { queue: Mutex::new(Queue { jobs: VecDeque::new(), idle: 0 }), work: Condvar::new() };

impl Pool {
    /// Starts the `current_num_threads() − 1` workers, once, on the first
    /// job that can use them. They live as long as the process (rayon's
    /// global pool is never torn down either), so their handles are dropped
    /// rather than joined; a worker cannot end in a panic because every
    /// task body runs under `catch_unwind`. A worker that fails to spawn is
    /// only lost parallelism: the caller completes its own jobs.
    fn start_workers(&'static self) {
        static STARTED: Once = Once::new();
        STARTED.call_once(|| {
            for i in 1..current_num_threads() {
                let worker = std::thread::Builder::new().name(format!("rayon-shim-{i}"));
                if worker.spawn(move || self.worker_loop()).is_err() {
                    break;
                }
            }
        });
    }

    fn worker_loop(&self) -> ! {
        loop {
            let job = {
                let mut queue = lock(&self.queue);
                loop {
                    if let Some(job) = queue.jobs.iter().find(|j| !j.exhausted()) {
                        break job.clone();
                    }
                    queue.idle += 1;
                    queue = self.work.wait(queue).unwrap_or_else(PoisonError::into_inner);
                    queue.idle -= 1;
                }
            };
            job.work();
        }
    }

    /// Makes `job` claimable and wakes as many idle workers as it has tasks
    /// to spare. With no idle worker nobody is woken: busy workers look at
    /// the queue when they finish, and until then the caller runs the job.
    fn publish(&self, job: &Arc<Job>) {
        let wake = {
            let mut queue = lock(&self.queue);
            queue.jobs.push_back(job.clone());
            queue.idle.min(job.ntasks - 1)
        };
        for _ in 0..wake {
            self.work.notify_one();
        }
    }

    fn retire(&self, job: &Arc<Job>) {
        lock(&self.queue).jobs.retain(|j| !Arc::ptr_eq(j, job));
    }
}

/// Runs `body(i)` for every `i` in `0..ntasks` and returns when all have
/// run. With one task or one thread that is a plain loop on the caller.
/// Otherwise the tasks are published as a job: the caller claims tasks
/// exactly like a worker does, and once none is left to claim it waits only
/// for tasks some other thread has already claimed and is running. Nothing
/// ever waits for a thread to become free, so a call made from inside a task
/// and any number of concurrent callers complete even when every worker is
/// busy — in the worst case each caller runs its whole job itself.
///
/// If bodies panic, every task still runs, and the panic of the
/// lowest-indexed one resumes on the caller.
fn run_tasks(ntasks: usize, body: &(dyn Fn(usize) + Sync)) {
    if ntasks <= 1 || current_num_threads() <= 1 {
        (0..ntasks).for_each(body);
        return;
    }
    POOL.start_workers();
    // SAFETY: this only erases the borrow's lifetime so that workers can
    // hold the job; it is sound because the pointer is never dereferenced
    // after this function returns. A task body is entered only after a
    // successful claim (`next < ntasks`), every claim is counted in `done`
    // once its body has returned or unwound, and this function does not
    // return — by value or by unwinding, since the caller's own tasks run
    // under `catch_unwind` — before `done == ntasks`. From then on every
    // claim fails, so a worker still holding the `Arc<Job>` touches the
    // job's own fields only.
    let body: *const (dyn Fn(usize) + Sync) = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(body)
    };
    let job = Arc::new(Job {
        body,
        ntasks,
        next: AtomicUsize::new(0),
        progress: Mutex::default(),
        finished: Condvar::new(),
    });
    POOL.publish(&job);
    job.work();
    POOL.retire(&job);
    if let Some(payload) = job.wait() {
        resume_unwind(payload);
    }
}

/// [`run_tasks`] collecting each task's result, in task order.
fn map_tasks<R: Send>(ntasks: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let slots: Vec<Mutex<Option<R>>> = (0..ntasks).map(|_| Mutex::new(None)).collect();
    run_tasks(ntasks, &|i| {
        let r = f(i);
        *lock(&slots[i]) = Some(r);
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().unwrap_or_else(PoisonError::into_inner).expect("every task ran"))
        .collect()
}

/// Subset of rayon's `ParallelIterator`: the adapters this workspace calls.
pub mod iter {
    use super::{lock, map_tasks, run_tasks, MIN_RUN};
    use std::ops::Range;

    /// Parallel iterator over immutable chunks of a slice.
    pub struct ParChunks<'a, T> {
        pub(crate) slice: &'a [T],
        pub(crate) size: usize,
    }

    /// [`ParChunks`] with a mapping function applied.
    pub struct ParChunksMap<'a, T, F> {
        chunks: ParChunks<'a, T>,
        f: F,
    }

    impl<'a, T: Sync> ParChunks<'a, T> {
        fn len(&self) -> usize {
            self.slice.len().div_ceil(self.size)
        }

        fn chunk(&self, i: usize) -> &'a [T] {
            &self.slice[i * self.size..((i + 1) * self.size).min(self.slice.len())]
        }

        /// Applies `f` to every chunk.
        pub fn map<R, F>(self, f: F) -> ParChunksMap<'a, T, F>
        where
            R: Send,
            F: Fn(&'a [T]) -> R + Sync,
        {
            ParChunksMap { chunks: self, f }
        }

        /// Runs `f` on every chunk.
        pub fn for_each<F>(self, f: F)
        where
            F: Fn(&'a [T]) + Sync,
        {
            run_tasks(self.len(), &|i| f(self.chunk(i)));
        }
    }

    impl<'a, T: Sync, R: Send, F: Fn(&'a [T]) -> R + Sync> ParChunksMap<'a, T, F> {
        /// Collects results in input order.
        pub fn collect<C: FromIterator<R>>(self) -> C {
            let ParChunksMap { chunks, f } = self;
            map_tasks(chunks.len(), |i| f(chunks.chunk(i))).into_iter().collect()
        }
    }

    /// Parallel iterator over mutable chunks of a slice.
    pub struct ParChunksMut<'a, T> {
        pub(crate) slice: &'a mut [T],
        pub(crate) size: usize,
    }

    /// [`ParChunksMut`] with chunk indices attached.
    pub struct ParChunksMutEnumerate<'a, T> {
        inner: ParChunksMut<'a, T>,
    }

    impl<'a, T: Send> ParChunksMut<'a, T> {
        /// Pairs every chunk with its index.
        pub fn enumerate(self) -> ParChunksMutEnumerate<'a, T> {
            ParChunksMutEnumerate { inner: self }
        }

        /// Runs `f` on every chunk.
        pub fn for_each<F>(self, f: F)
        where
            F: Fn(&mut [T]) + Sync,
        {
            self.enumerate().for_each(|(_, c)| f(c));
        }
    }

    /// A taken-once cell handing one disjoint `&mut` chunk to a task.
    type ChunkCell<'a, T> = std::sync::Mutex<Option<&'a mut [T]>>;

    impl<'a, T: Send> ParChunksMutEnumerate<'a, T> {
        /// Runs `f` on every `(index, chunk)` pair.
        pub fn for_each<F>(self, f: F)
        where
            F: Fn((usize, &mut [T])) + Sync,
        {
            // Pre-split into disjoint &mut chunks so tasks never alias.
            let cells: Vec<ChunkCell<'_, T>> = self
                .inner
                .slice
                .chunks_mut(self.inner.size)
                .map(|c| std::sync::Mutex::new(Some(c)))
                .collect();
            run_tasks(cells.len(), &|i| {
                let chunk = lock(&cells[i]).take().expect("chunk taken twice");
                f((i, chunk));
            });
        }
    }

    /// Parallel iterator over a `Range<usize>`.
    pub struct ParRange {
        pub(crate) range: Range<usize>,
    }

    /// [`ParRange`] with a mapping function applied.
    pub struct ParRangeMap<F> {
        range: Range<usize>,
        f: F,
    }

    impl ParRange {
        /// Applies `f` to every index.
        pub fn map<R, F>(self, f: F) -> ParRangeMap<F>
        where
            R: Send,
            F: Fn(usize) -> R + Sync,
        {
            ParRangeMap { range: self.range, f }
        }

        /// Runs `f` on every index.
        pub fn for_each<F>(self, f: F)
        where
            F: Fn(usize) + Sync,
        {
            let _ = self.map(f).collect::<Vec<()>>();
        }
    }

    impl<R: Send, F: Fn(usize) -> R + Sync> ParRangeMap<F> {
        /// Collects results in index order.
        pub fn collect<C: FromIterator<R>>(self) -> C {
            let ParRangeMap { range, f } = self;
            // Runs of equal length, as many as hold MIN_RUN indices each.
            let ntasks = (range.len() / MIN_RUN).max(1);
            let run = range.len().div_ceil(ntasks);
            let runs = map_tasks(ntasks, |t| {
                let lo = (range.start + t * run).min(range.end);
                (lo..(lo + run).min(range.end)).map(&f).collect::<Vec<R>>()
            });
            runs.into_iter().flatten().collect()
        }
    }
}

/// The traits user code imports via `use rayon::prelude::*`.
pub mod prelude {
    use super::iter::{ParChunks, ParChunksMut, ParRange};
    use std::ops::Range;

    /// `slice.par_chunks(n)` (rayon's `ParallelSlice`).
    pub trait ParallelSlice<T: Sync> {
        /// Parallel iterator over `n`-sized chunks.
        ///
        /// # Panics
        /// If `size` is 0, like rayon.
        fn par_chunks(&self, size: usize) -> ParChunks<'_, T>;
    }

    impl<T: Sync> ParallelSlice<T> for [T] {
        fn par_chunks(&self, size: usize) -> ParChunks<'_, T> {
            assert!(size != 0, "chunk size must not be zero");
            ParChunks { slice: self, size }
        }
    }

    /// `slice.par_chunks_mut(n)` (rayon's `ParallelSliceMut`).
    pub trait ParallelSliceMut<T: Send> {
        /// Parallel iterator over mutable `n`-sized chunks.
        ///
        /// # Panics
        /// If `size` is 0, like rayon.
        fn par_chunks_mut(&mut self, size: usize) -> ParChunksMut<'_, T>;
    }

    impl<T: Send> ParallelSliceMut<T> for [T] {
        fn par_chunks_mut(&mut self, size: usize) -> ParChunksMut<'_, T> {
            assert!(size != 0, "chunk size must not be zero");
            ParChunksMut { slice: self, size }
        }
    }

    /// `range.into_par_iter()` (rayon's `IntoParallelIterator`).
    pub trait IntoParallelIterator {
        /// The parallel iterator type.
        type Iter;
        /// Converts into a parallel iterator.
        fn into_par_iter(self) -> Self::Iter;
    }

    impl IntoParallelIterator for Range<usize> {
        type Iter = ParRange;
        fn into_par_iter(self) -> ParRange {
            ParRange { range: self }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn par_chunks_map_collect_preserves_order() {
        let v: Vec<u32> = (0..1000).collect();
        let sums: Vec<u64> = v.par_chunks(7).map(|c| c.iter().map(|&x| x as u64).sum()).collect();
        let want: Vec<u64> = v.chunks(7).map(|c| c.iter().map(|&x| x as u64).sum()).collect();
        assert_eq!(sums, want);
    }

    #[test]
    fn par_chunks_mut_enumerate_writes_disjoint() {
        let mut v = vec![0usize; 100];
        v.par_chunks_mut(9).enumerate().for_each(|(i, c)| {
            for x in c.iter_mut() {
                *x = i;
            }
        });
        for (j, &x) in v.iter().enumerate() {
            assert_eq!(x, j / 9);
        }
    }

    #[test]
    fn range_into_par_iter() {
        let sq: Vec<usize> = (0..64usize).into_par_iter().map(|i| i * i).collect();
        assert_eq!(sq[63], 63 * 63);
        assert_eq!(sq.len(), 64);
    }

    #[test]
    fn range_runs_cover_every_index_once() {
        // Below, at, just over and far over MIN_RUN, from a non-zero start.
        for n in [0, 1, super::MIN_RUN, super::MIN_RUN + 1, 5 * super::MIN_RUN + 3] {
            let got: Vec<usize> = (7..7 + n).into_par_iter().map(|i| i).collect();
            assert_eq!(got, (7..7 + n).collect::<Vec<_>>(), "n = {n}");
        }
    }

    #[test]
    fn current_num_threads_positive() {
        assert!(super::current_num_threads() >= 1);
    }
}
