//! `liftc` reports a malformed layout pattern as a type error and exits 1:
//! no panic, and no division by zero in printed OpenCL.

use std::io::Write;
use std::process::{Command, Stdio};

/// Runs `liftc -` on `src`; returns the exit code and stderr.
fn liftc(src: &str) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_liftc"))
        .arg("-")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("liftc starts");
    child.stdin.take().unwrap().write_all(src.as_bytes()).unwrap();
    let out = child.wait_with_output().unwrap();
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn malformed_layouts_exit_with_a_type_error() {
    for (body, pattern) in [
        ("(map-glb (zip a) (t) (get t 0))", "zip needs at least two arrays"),
        ("(map-glb (slide 3 0 a) (w) (at w 0))", "slide needs size ≥ 1 and step ≥ 1"),
        ("(map-glb (pad -2 0 clamp a) (x) x)", "pad amounts must be ≥ 0"),
        ("(map-glb (transpose a) (r) (at r 0))", "transpose expects an array of arrays"),
    ] {
        let (code, stderr) = liftc(&format!("(kernel k (params (a (array real N))) {body})"));
        assert_eq!(code, Some(1), "{body}: {stderr}");
        assert!(stderr.contains("type error") && stderr.contains(pattern), "{body}: {stderr}");
        assert!(!stderr.contains("panicked"), "{body}: {stderr}");
    }
}
