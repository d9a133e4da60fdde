//! The 2-D pattern family (`map2`, `zip2`, `slide2`, `pad2`) end-to-end:
//! a 3×3 box blur with clamped edges and a two-field 2-D combination are
//! generated, executed on the virtual GPU, and compared against host
//! oracles. (The 3-D forms carry the acoustics volume kernel; the 2-D forms
//! serve image-like and §VIII-style planar workloads.)

use lift::funs;
use lift::ir::{self, ParamDef};
use lift::lower::{lower_kernel, ArgSpec};
use lift::prelude::*;
use vgpu::{Arg, BufData, Device, DeviceProfile, ExecMode, Runtime};

const NX: usize = 20;
const NY: usize = 14;

fn run2d(lk: &lift::lower::LoweredKernel, inputs: &[(&str, Vec<f32>)]) -> Vec<f32> {
    let mut dev = Device::with_runtime(DeviceProfile::gtx780(), Runtime::sanitizing());
    let prep = dev.compile(&lk.kernel).unwrap();
    let bufs: Vec<(String, vgpu::BufId)> =
        inputs.iter().map(|(n, d)| (n.to_string(), dev.upload(BufData::from(d.clone())))).collect();
    let out = dev.create_buffer(ScalarKind::F32, NX * NY);
    let args: Vec<Arg> = lk
        .args
        .iter()
        .map(|spec| match spec {
            ArgSpec::Input(_, name) => Arg::Buf(bufs.iter().find(|(n, _)| n == name).unwrap().1),
            ArgSpec::Size(n) => Arg::Val(Value::I32(match n.as_str() {
                "Nx" => NX as i32,
                "Ny" => NY as i32,
                other => panic!("{other}"),
            })),
            ArgSpec::Output(_, _) => Arg::Buf(out),
        })
        .collect();
    let global: Vec<usize> = lk
        .global_size
        .iter()
        .map(|g| {
            g.eval(&|n| match n {
                "Nx" => Some(NX as i64),
                "Ny" => Some(NY as i64),
                _ => None,
            })
            .unwrap() as usize
        })
        .collect();
    dev.launch(&prep, &args, &global, ExecMode::Fast).unwrap();
    match dev.read(out) {
        BufData::F32(v) => v,
        other => panic!("{other:?}"),
    }
}

fn sample_image() -> Vec<f32> {
    (0..NX * NY).map(|i| ((i * 29) % 13) as f32 - 6.0).collect()
}

#[test]
fn box_blur_2d_matches_oracle() {
    let img = ParamDef::typed("img", Type::array2(Type::real(), "Nx", "Ny"));
    let add = funs::add();
    let prog =
        ir::map2_glb(ir::slide2(3, 1, ir::pad2(1, PadKind::Clamp, img.to_expr())), "w", move |w| {
            // sum the 3×3 window: reduce over rows of the window
            let row_sums = ir::map_seq(w, "row", {
                let add = add.clone();
                move |row| {
                    ir::reduce_seq(ir::lit(Lit::real(0.0)), row, |acc, x| {
                        ir::call(&add, vec![acc, x])
                    })
                }
            });
            ir::reduce_seq(ir::lit(Lit::real(0.0)), ir::to_private(row_sums), |acc, x| {
                ir::call(&add, vec![acc, x])
            })
        });
    let lk = lower_kernel("blur2d", &[img], &prog, ScalarKind::F32).unwrap();
    assert_eq!(lk.kernel.work_dim, 2);
    let data = sample_image();
    let got = run2d(&lk, &[("img", data.clone())]);
    // oracle
    let at = |x: i64, y: i64| {
        let xc = x.clamp(0, NX as i64 - 1) as usize;
        let yc = y.clamp(0, NY as i64 - 1) as usize;
        data[yc * NX + xc]
    };
    for y in 0..NY {
        for x in 0..NX {
            let mut expect = 0.0f32;
            for dy in -1i64..=1 {
                for dx in -1i64..=1 {
                    expect += at(x as i64 + dx, y as i64 + dy);
                }
            }
            let g = got[y * NX + x];
            assert!((g - expect).abs() < 1e-4, "({x},{y}): {g} vs {expect}");
        }
    }
}

#[test]
fn zip2_combines_two_fields() {
    let a = ParamDef::typed("a", Type::array2(Type::real(), "Nx", "Ny"));
    let b = ParamDef::typed("b", Type::array2(Type::real(), "Nx", "Ny"));
    let sub = funs::sub();
    let prog = ir::map2_glb(ir::zip2(vec![a.to_expr(), b.to_expr()]), "t", move |t| {
        ir::call(&sub, vec![ir::get(t.clone(), 0), ir::get(t, 1)])
    });
    let lk = lower_kernel("diff2d", &[a, b], &prog, ScalarKind::F32).unwrap();
    let da = sample_image();
    let db: Vec<f32> = da.iter().map(|v| v * 0.5).collect();
    let got = run2d(&lk, &[("a", da.clone()), ("b", db.clone())]);
    for i in 0..NX * NY {
        assert_eq!(got[i], da[i] - db[i]);
    }
}

#[test]
fn dsl_supports_2d_forms() {
    let k = lift::dsl::parse_kernel(
        "(kernel edge
           (params (img (array (array real Nx) Ny)))
           (map2-glb (slide2 3 1 (pad2 1 clamp img)) (w)
             (- (* 9.0 (at (at w 1) 1))
                (reduce (acc row)
                        (+ acc (reduce (a2 x) (+ a2 x) 0.0 row))
                        0.0 w))))",
    )
    .unwrap();
    let lk = k.lower(ScalarKind::F32).unwrap();
    assert_eq!(lk.kernel.work_dim, 2);
    let src = lift::opencl::emit_kernel(&lk.kernel);
    assert!(src.contains("get_global_id(1)"), "{src}");
}
