//! A launch is returned, not logged: with tracing off the device keeps
//! nothing per launch, so the heap a process holds does not depend on how
//! many launches it has issued. (`Device` used to push every launch's name
//! and stats onto an event log nothing on the production path ever read or
//! cleared: ≈ 210 B per launch plus `Vec` doubling, ≈ 3 MB over this test's
//! loop.)
//!
//! Own test binary with a single test: the counting allocator sees every
//! thread of the process.

use lift::kast::{KExpr, KStmt, Kernel, KernelParam, MemRef};
use lift::prelude::{BinOp, ScalarKind, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use vgpu::{Arg, BufData, Device, DeviceProfile, ExecMode, Runtime, Settings, TraceMode};

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

/// `if (gid < N) out[gid] = src[gid];`
fn copy_kernel() -> Kernel {
    Kernel {
        name: "footprint_copy".into(),
        params: vec![
            KernelParam::global_buf("src", ScalarKind::F32),
            KernelParam::global_buf("out", ScalarKind::F32),
            KernelParam::scalar("N", ScalarKind::I32),
        ],
        body: vec![
            KStmt::return_if(KExpr::bin(BinOp::Ge, KExpr::GlobalId(0), KExpr::var("N"))),
            KStmt::Store {
                mem: MemRef::Param(1),
                idx: KExpr::GlobalId(0),
                value: KExpr::load(MemRef::Param(0), KExpr::GlobalId(0)),
            },
        ],
        work_dim: 1,
    }
}

#[test]
fn ten_thousand_launches_leave_the_heap_where_it_was() {
    // Tracing is the one log a launch can feed; this is about the rest.
    let rt = Runtime::new(Settings { trace: TraceMode::Off, ..vgpu::runtime().settings });
    let mut dev = Device::with_runtime(DeviceProfile::gtx780(), rt);
    let prep = dev.compile(&copy_kernel()).unwrap();
    let src = dev.upload(BufData::from(vec![1.0f32; 8]));
    let out = dev.create_buffer(ScalarKind::F32, 8);
    let args = [Arg::Buf(src), Arg::Buf(out), Arg::Val(Value::I32(8))];
    // Eight work-items are one inline task: no pool thread allocates.
    let mut launch = || dev.launch(&prep, &args, &[8], ExecMode::Fast).unwrap().tasks;
    // Warm-up: the shape's check table, the counters, lazy statics.
    for _ in 0..100 {
        assert_eq!(launch(), 1);
    }
    let before = LIVE.load(Ordering::Relaxed);
    for _ in 0..10_000 {
        launch();
    }
    let grown = LIVE.load(Ordering::Relaxed) - before;
    assert!(grown.abs() <= 64 << 10, "10 000 launches left {grown} live heap bytes behind");
}
