//! A thread count of one: no worker exists and every task of every iterator
//! runs on the calling thread. Own binary, because the count is per process.

use rayon::prelude::*;
use std::sync::Mutex;
use std::thread::ThreadId;

#[test]
fn one_thread_runs_every_task_on_the_caller() {
    rayon::ThreadPoolBuilder::new().num_threads(1).build_global().unwrap();
    assert_eq!(rayon::current_num_threads(), 1);
    let me = std::thread::current().id();
    let seen: Mutex<Vec<ThreadId>> = Mutex::new(Vec::new());
    let note = || seen.lock().unwrap().push(std::thread::current().id());

    let v: Vec<usize> = (0..100).collect();
    let doubled: Vec<usize> = v
        .par_chunks(3)
        .map(|c| {
            note();
            c[0] * 2
        })
        .collect();
    assert_eq!(doubled.len(), 34);
    let mut w = vec![0usize; 100];
    w.par_chunks_mut(7).enumerate().for_each(|(i, c)| {
        note();
        c.fill(i);
    });
    assert_eq!(w[99], 14);
    let n = 20_000usize;
    let squares: Vec<usize> = (0..n)
        .into_par_iter()
        .map(|i| {
            if i % 4096 == 0 {
                note();
            }
            i * i
        })
        .collect();
    assert_eq!(squares[n - 1], (n - 1) * (n - 1));

    let seen = seen.into_inner().unwrap();
    assert_eq!(seen.len(), 34 + 15 + 5);
    assert!(seen.iter().all(|&t| t == me));
}
