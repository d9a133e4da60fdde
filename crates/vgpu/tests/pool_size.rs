//! `VGPU_THREADS` sizes the process's one thread pool whoever makes the
//! first parallel call — here building a room, before any device or
//! runtime exists. The pool size is fixed per process, so the test re-runs
//! its own binary with the setting instead of changing its own environment.

use room_acoustics::{GridDims, RoomShape, SimConfig, SimSetup};

/// Set in the child process the test starts.
const CHILD: &str = "POOL_SIZE_CHILD";

#[test]
fn vgpu_threads_sizes_the_pool_a_room_build_starts() {
    let name = "vgpu_threads_sizes_the_pool_a_room_build_starts";
    if std::env::var_os(CHILD).is_some() {
        // 24³ cells: the room build's parallel calls have several tasks each.
        SimSetup::new(&SimConfig::fimm(GridDims::cube(24), RoomShape::Box));
        assert_eq!(rayon::current_num_threads(), 1);
        return;
    }
    let out = std::process::Command::new(std::env::current_exe().expect("own test binary"))
        .args([name, "--exact", "--test-threads=1"])
        .env(CHILD, "1")
        .env("VGPU_THREADS", "1")
        .output()
        .expect("the test binary runs");
    let (stdout, stderr) =
        (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    assert!(out.status.success(), "child failed:\n{stdout}\n{stderr}");
    assert!(stdout.contains("1 passed"), "the child ran no test:\n{stdout}");
}
