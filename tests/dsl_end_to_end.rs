//! The textual front-end, end-to-end: kernels written as s-expression text
//! are parsed, lowered and executed on the virtual GPU, and must compute
//! correctly — including the paper's in-place boundary idiom.

use lift::dsl::parse_kernel;
use lift::lower::ArgSpec;
use lift::prelude::*;
use vgpu::{Arg, BufData, Device, DeviceProfile, ExecMode, Runtime};

fn bind_and_run(
    lk: &lift::lower::LoweredKernel,
    bufs: &[(&str, vgpu::BufId)],
    sizes: &[(&str, i64)],
    dev: &mut Device,
    out: Option<vgpu::BufId>,
) {
    let prep = dev.compile(&lk.kernel).unwrap();
    let args: Vec<Arg> = lk
        .args
        .iter()
        .map(|spec| match spec {
            ArgSpec::Input(_, name) => {
                let b = bufs.iter().find(|(n, _)| n == name).unwrap_or_else(|| panic!("{name}"));
                Arg::Buf(b.1)
            }
            ArgSpec::Size(n) => {
                let v = sizes.iter().find(|(s, _)| s == n).unwrap_or_else(|| panic!("{n}"));
                Arg::Val(Value::I32(v.1 as i32))
            }
            ArgSpec::Output(_, _) => Arg::Buf(out.expect("output buffer")),
        })
        .collect();
    let global: Vec<usize> = lk
        .global_size
        .iter()
        .map(|g| {
            g.eval(&|n| sizes.iter().find(|(s, _)| *s == n).map(|(_, v)| *v)).unwrap() as usize
        })
        .collect();
    let local = lk.local_size.as_ref().map(|l| {
        l.eval(&|n| sizes.iter().find(|(s, _)| *s == n).map(|(_, v)| *v)).unwrap() as usize
    });
    dev.launch_wg(&prep, &args, &global, local, ExecMode::Fast).unwrap();
}

#[test]
fn dsl_saxpy_computes() {
    let k = parse_kernel(
        "(kernel saxpy
           (params (x (array real N)) (y (array real N)))
           (map-glb (zip x y) (t) (+ (* 2.0 (get t 0)) (get t 1))))",
    )
    .unwrap();
    let lk = k.lower(ScalarKind::F32).unwrap();
    let mut dev = Device::gtx780();
    let x = dev.upload(BufData::from(vec![1.0f32, 2.0, 3.0]));
    let y = dev.upload(BufData::from(vec![10.0f32, 20.0, 30.0]));
    let out = dev.create_buffer(ScalarKind::F32, 3);
    bind_and_run(&lk, &[("x", x), ("y", y)], &[("N", 3)], &mut dev, Some(out));
    assert_eq!(dev.read(out), BufData::from(vec![12.0f32, 24.0, 36.0]));
}

#[test]
fn dsl_in_place_scatter_matches_semantics() {
    let k = parse_kernel(
        "(kernel scatter
           (params (indices (array int numB)) (data (array real N)))
           (map-glb indices (idx)
             (write-to data
               (concat (skip idx real)
                       (array-cons (* (at data idx) 10.0) 1)
                       (skip (- (- (size-val N) idx) 1) real)))))",
    )
    .unwrap();
    let lk = k.lower(ScalarKind::F64).unwrap();
    let mut dev = Device::with_runtime(DeviceProfile::gtx780(), Runtime::sanitizing());
    let idx = dev.upload(BufData::from(vec![1i32, 4]));
    let data = dev.upload(BufData::from(vec![0.0f64, 1.0, 2.0, 3.0, 4.0, 5.0]));
    bind_and_run(
        &lk,
        &[("indices", idx), ("data", data)],
        &[("numB", 2), ("N", 6)],
        &mut dev,
        None,
    );
    assert_eq!(dev.read(data), BufData::from(vec![0.0f64, 10.0, 2.0, 3.0, 40.0, 5.0]));
}

#[test]
fn dsl_tiled_stencil_runs_with_workgroups() {
    let k = parse_kernel(
        "(kernel tiled
           (params (a (array real 128)))
           (map-wrg (slide 34 32 (pad 1 1 clamp a)) (tile)
             (map-lcl (slide 3 1 (to-local tile)) (w)
               (reduce (acc x) (+ acc x) 0.0 w))))",
    )
    .unwrap();
    let lk = k.lower(ScalarKind::F32).unwrap();
    let mut dev = Device::gtx780();
    let data: Vec<f32> = (0..128).map(|i| i as f32).collect();
    let a = dev.upload(BufData::from(data.clone()));
    let out = dev.create_buffer(ScalarKind::F32, 128);
    bind_and_run(&lk, &[("a", a)], &[], &mut dev, Some(out));
    let got = dev.read(out).to_f64_vec();
    // interior: 3-point sums; edges use clamp
    assert_eq!(got[5], (4 + 5 + 6) as f64);
    #[allow(clippy::identity_op)]
    {
        assert_eq!(got[0], (0 + 0 + 1) as f64);
    }
    assert_eq!(got[127], (126 + 127 + 127) as f64);
}

#[test]
fn dsl_and_builder_programs_generate_identical_code() {
    // The FI-MM update written in the DSL equals the builder version.
    let dsl = parse_kernel(
        "(kernel bh
           (params (bidx (array int numB)) (bnbrs (array int numB))
                   (next (array real N)) (prev (array real N)) (l real))
           (map-glb (zip bidx bnbrs) (t)
             (let (idx (get t 0))
               (let (cf (* (* (* 0.5 l) (real (- 6 (get t 1)))) 0.04))
                 (write-to (at next idx)
                   (/ (+ (at next idx) (* cf (at prev idx))) (+ 1.0 cf)))))))",
    )
    .unwrap();
    let lk = dsl.lower(ScalarKind::F64).unwrap();
    let src = lift::opencl::emit_kernel(&lk.kernel);
    assert!(src.contains("__kernel void bh"), "{src}");
    assert!(src.contains("next["), "{src}");
    // run it against the reference formula
    let mut dev = Device::with_runtime(DeviceProfile::gtx780(), Runtime::sanitizing());
    let bidx = dev.upload(BufData::from(vec![2i32, 5]));
    let bnbrs = dev.upload(BufData::from(vec![5i32, 3]));
    let next = dev.upload(BufData::from(vec![1.0f64; 8]));
    let prev = dev.upload(BufData::from(vec![0.5f64; 8]));
    let prep = dev.compile(&lk.kernel).unwrap();
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
                other => panic!("{other}"),
            },
            ArgSpec::Size(n) => Arg::Val(Value::I32(match n.as_str() {
                "numB" => 2,
                "N" => 8,
                other => panic!("{other}"),
            })),
            ArgSpec::Output(_, _) => unreachable!(),
        })
        .collect();
    dev.launch(&prep, &args, &[2], ExecMode::Fast).unwrap();
    let got = dev.read(next).to_f64_vec();
    let l = 1.0 / 3.0f64.sqrt();
    for (i, nbr) in [(2usize, 5i32), (5, 3)] {
        let cf = 0.5 * l * (6 - nbr) as f64 * 0.04;
        let expect = (1.0 + cf * 0.5) / (1.0 + cf);
        assert!((got[i] - expect).abs() < 1e-15, "{} vs {}", got[i], expect);
    }
}
