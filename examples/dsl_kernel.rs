//! Writing kernels as text: the s-expression front-end (`lift::dsl`).
//!
//! LIFT is "meant to be targeted by DSLs or libraries" (§III); this example
//! loads a boundary-handling kernel from text — including the paper's
//! in-place `concat/skip/array-cons` idiom — lowers it at both precisions,
//! prints the OpenCL, and runs it on the virtual GPU.
//!
//! ```sh
//! cargo run --example dsl_kernel
//! ```

use room_acoustics_lift::lift::dsl::parse_kernel;
use room_acoustics_lift::lift::lower::ArgSpec;
use room_acoustics_lift::lift::opencl;
use room_acoustics_lift::lift::prelude::*;
use room_acoustics_lift::vgpu::{Arg, BufData, Device, DeviceProfile, ExecMode, Runtime};

const KERNEL_SRC: &str = "
;; Frequency-independent boundary relaxation, written as text.
;; next[idx] = (next[idx] + cf*prev[idx]) / (1 + cf),
;; cf = 0.5*l*(6 - nbr)*beta — the paper's Listing 3, in-place.
(kernel boundary_relax
  (params (bidx  (array int numB))
          (bnbrs (array int numB))
          (next  (array real N))
          (prev  (array real N))
          (l real)
          (beta real))
  (map-glb (zip bidx bnbrs) (t)
    (let (idx (get t 0))
      (let (cf (* (* (* 0.5 l) (real (- 6 (get t 1)))) beta))
        (write-to next
          (concat (skip idx real)
                  (array-cons (/ (+ (at next idx) (* cf (at prev idx)))
                                 (+ 1.0 cf))
                              1)
                  (skip (- (- (size-val N) idx) 1) real)))))))";

fn main() {
    let kernel = parse_kernel(KERNEL_SRC).expect("parses");
    println!("parsed kernel `{}` with {} parameters\n", kernel.name, kernel.params.len());

    for (label, real) in [("single", ScalarKind::F32), ("double", ScalarKind::F64)] {
        let lk = kernel.lower(real).expect("lowers");
        println!("// ---- {label} precision ----");
        println!("{}", opencl::emit_kernel(&lk.kernel));
    }

    // run it: an 8-point 1-D "room" with two boundary cells
    let lk = kernel.lower(ScalarKind::F64).unwrap();
    let mut dev = Device::with_runtime(DeviceProfile::gtx780(), Runtime::sanitizing());
    let prep = dev.compile(&lk.kernel).unwrap();
    let bidx = dev.upload(BufData::from(vec![0i32, 7]));
    let bnbrs = dev.upload(BufData::from(vec![5i32, 5]));
    let next = dev.upload(BufData::from(vec![1.0f64; 8]));
    let prev = dev.upload(BufData::from(vec![0.0f64; 8]));
    let args: Vec<Arg> = lk
        .args
        .iter()
        .map(|spec| match spec {
            ArgSpec::Input(_, name) => match name.as_str() {
                "bidx" => Arg::Buf(bidx),
                "bnbrs" => Arg::Buf(bnbrs),
                "next" => Arg::Buf(next),
                "prev" => Arg::Buf(prev),
                "l" => Arg::Val(Value::F64(1.0 / 3.0f64.sqrt())),
                "beta" => Arg::Val(Value::F64(0.5)),
                other => panic!("unexpected param {other}"),
            },
            ArgSpec::Size(n) => Arg::Val(Value::I32(match n.as_str() {
                "numB" => 2,
                "N" => 8,
                other => panic!("unexpected size {other}"),
            })),
            ArgSpec::Output(_, _) => unreachable!("in-place kernel"),
        })
        .collect();
    dev.launch(&prep, &args, &[2], ExecMode::Fast).unwrap();
    let out = dev.read(next).to_f64_vec();
    println!("field after one boundary relaxation: {out:?}");
    assert!(out[0] < 1.0 && out[7] < 1.0, "boundary cells absorbed energy");
    assert!(out[1..7].iter().all(|&v| v == 1.0), "interior untouched");
    println!("in-place semantics verified ✓");
}
