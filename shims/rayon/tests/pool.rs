//! The persistent pool under a fixed count of four threads (the caller plus
//! three workers), whatever the machine has: every test pins it first, and
//! the first pin wins, so the tests of this binary can run in any order and
//! in parallel. `single_thread.rs` covers a count of one in its own process.

use rayon::prelude::*;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::thread::ThreadId;

const THREADS: usize = 4;

fn pin_four_threads() {
    rayon::ThreadPoolBuilder::new().num_threads(THREADS).build_global().unwrap();
    assert_eq!(rayon::current_num_threads(), THREADS);
}

#[test]
fn dynamic_claiming_collects_in_input_order() {
    pin_four_threads();
    let items: Vec<usize> = (0..64).collect();
    // The first two tasks to start meet at a barrier, so the call cannot
    // finish on one thread: a worker must claim from the same job.
    let arrivals = AtomicUsize::new(0);
    let meet = Barrier::new(2);
    let ran_on: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
    let out: Vec<usize> = items
        .par_chunks(1)
        .map(|c| {
            if arrivals.fetch_add(1, Ordering::SeqCst) < 2 {
                meet.wait();
            }
            ran_on.lock().unwrap().insert(std::thread::current().id());
            // Early tasks take longest, so they finish out of order.
            std::hint::black_box((0..(64 - c[0]) * 2000).sum::<usize>());
            c[0] * 10
        })
        .collect();
    assert_eq!(out, (0..64).map(|i| i * 10).collect::<Vec<_>>());
    assert!(ran_on.lock().unwrap().len() >= 2, "only the caller ran tasks");
}

#[test]
fn a_parallel_call_inside_a_task_completes() {
    pin_four_threads();
    // More outer tasks than threads, each fanning out again.
    let outer: Vec<usize> = (0..16).collect();
    let sums: Vec<usize> = outer
        .par_chunks(1)
        .map(|c| {
            let inner: Vec<usize> = (0..20_000usize).into_par_iter().map(|i| i + c[0]).collect();
            inner.iter().sum()
        })
        .collect();
    let base: usize = (0..20_000).sum();
    assert_eq!(sums, (0..16).map(|k| base + 20_000 * k).collect::<Vec<_>>());
}

#[test]
fn concurrent_callers_all_complete() {
    pin_four_threads();
    let data: Vec<u64> = (0..256).collect();
    let want: u64 = data.iter().sum();
    std::thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(|| {
                for _ in 0..1000 {
                    let parts: Vec<u64> = data.par_chunks(16).map(|c| c.iter().sum()).collect();
                    assert_eq!(parts.len(), 16);
                    assert_eq!(parts.iter().sum::<u64>(), want);
                }
            });
        }
    });
}

#[test]
fn a_panicking_task_re_raises_its_payload_and_the_pool_survives() {
    pin_four_threads();
    let items: Vec<usize> = (0..32).collect();
    let ran = AtomicUsize::new(0);
    let caught = catch_unwind(AssertUnwindSafe(|| {
        items.par_chunks(1).for_each(|c| {
            ran.fetch_add(1, Ordering::SeqCst);
            if c[0] == 5 || c[0] == 20 {
                panic!("task {} failed", c[0]);
            }
        })
    }));
    let payload = caught.expect_err("the call must unwind");
    // The lowest-indexed panic, with its own message.
    assert_eq!(payload.downcast_ref::<String>().map(String::as_str), Some("task 5 failed"));
    assert_eq!(ran.load(Ordering::SeqCst), 32, "every task still ran");
    // Every worker is still alive and claiming: a barrier over all four
    // threads can only open if three workers join the caller.
    let all = Barrier::new(THREADS);
    let four: Vec<usize> = (0..THREADS).collect();
    four.par_chunks(1).for_each(|_| {
        all.wait();
    });
}

#[test]
fn build_global_after_the_pool_started_is_ignored() {
    pin_four_threads();
    let v: Vec<usize> = (0..8).collect();
    v.par_chunks(1).for_each(|_| {});
    rayon::ThreadPoolBuilder::new().num_threads(7).build_global().unwrap();
    assert_eq!(rayon::current_num_threads(), THREADS);
}
