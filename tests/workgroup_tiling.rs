//! Workgroup execution and the overlapped-tiling rewrite, end-to-end.
//!
//! The tiled program (`mapWrg` + `toLocal` + `mapLcl`) must compute exactly
//! what the plain `mapGlb` stencil computes, while staging each input tile
//! in local memory — cutting global loads per output from the stencil size
//! `k` down to ~1 (the win the authors' tiling paper [8] measures).

use lift::funs;
use lift::ir::{self, ParamDef};
use lift::lower::{lower_kernel, ArgSpec};
use lift::prelude::*;
use lift::rewrite::overlapped_tile_1d;
use vgpu::{Arg, BufData, Device, DeviceProfile, ExecMode, Runtime};

const N: usize = 256; // output length
const K: i64 = 5; // stencil size
const TILE: i64 = 32;

fn stencil_program() -> (std::rc::Rc<ParamDef>, ExprRef) {
    // out[i] = sum of a 5-wide clamped window
    let a = ParamDef::typed("a", Type::array(Type::real(), N));
    let add = funs::add();
    let prog = ir::map_glb(
        ir::slide(K, 1, ir::pad((K - 1) / 2, (K - 1) / 2, PadKind::Clamp, a.to_expr())),
        "w",
        move |w| ir::reduce_seq(ir::lit(Lit::real(0.0)), w, |acc, x| ir::call(&add, vec![acc, x])),
    );
    (a, prog)
}

fn run(lowered: &lift::lower::LoweredKernel, data: &[f32]) -> (Vec<f32>, vgpu::LaunchStats) {
    let mut dev = Device::with_runtime(DeviceProfile::gtx780(), Runtime::sanitizing());
    let prep = dev.compile(&lowered.kernel).expect("prepares");
    let input = dev.upload(BufData::from(data.to_vec()));
    let out = dev.create_buffer(ScalarKind::F32, N);
    let args: Vec<Arg> = lowered
        .args
        .iter()
        .map(|spec| match spec {
            ArgSpec::Input(_, _) => Arg::Buf(input),
            ArgSpec::Size(_) => unreachable!("concrete sizes"),
            ArgSpec::Output(_, _) => Arg::Buf(out),
        })
        .collect();
    let global: Vec<usize> =
        lowered.global_size.iter().map(|g| g.eval(&|_| None).expect("concrete") as usize).collect();
    let local = lowered.local_size.as_ref().map(|l| l.eval(&|_| None).expect("concrete") as usize);
    let stats = dev
        .launch_wg(&prep, &args, &global, local, ExecMode::Model { sample_stride: 1 })
        .expect("launches");
    let out = match dev.read(out) {
        BufData::F32(v) => v,
        other => panic!("unexpected {other:?}"),
    };
    (out, stats)
}

#[test]
fn tiled_stencil_matches_untiled_and_cuts_global_loads() {
    let data: Vec<f32> = (0..N).map(|i| ((i * 37) % 17) as f32 - 8.0).collect();

    let (a, plain) = stencil_program();
    let plain_lk =
        lower_kernel("stencil_plain", std::slice::from_ref(&a), &plain, ScalarKind::F32).unwrap();
    assert!(plain_lk.local_size.is_none());
    let (plain_out, plain_stats) = run(&plain_lk, &data);

    let tiled = overlapped_tile_1d(&plain, TILE).expect("rewrite applies");
    let tiled_lk = lower_kernel("stencil_tiled", &[a], &tiled, ScalarKind::F32).unwrap();
    assert_eq!(
        tiled_lk.local_size.as_ref().and_then(|l| l.as_cst()),
        Some(TILE),
        "workgroup size is the tile"
    );
    let (tiled_out, tiled_stats) = run(&tiled_lk, &data);

    // identical results, bit for bit
    assert_eq!(plain_out, tiled_out);

    // global loads per output: k for the plain version, ~ (T+k−1)/T for the
    // tiled one (the cooperative staging load).
    let plain_loads = plain_stats.counters.loads_global as f64 / N as f64;
    let tiled_loads = tiled_stats.counters.loads_global as f64 / N as f64;
    assert!(plain_loads >= K as f64 - 0.01, "plain: {plain_loads}");
    assert!(
        tiled_loads < plain_loads / 3.0,
        "tiling should cut global loads: {tiled_loads} vs {plain_loads}"
    );

    // and DRAM traffic drops too
    assert!(
        tiled_stats.transaction_bytes.unwrap() < plain_stats.transaction_bytes.unwrap(),
        "tiled {:?} vs plain {:?}",
        tiled_stats.transaction_bytes,
        plain_stats.transaction_bytes
    );
}

#[test]
fn tiled_kernel_emits_local_memory_and_barrier() {
    let (a, plain) = stencil_program();
    let tiled = overlapped_tile_1d(&plain, TILE).unwrap();
    let lk = lower_kernel("stencil_tiled_src", &[a], &tiled, ScalarKind::F32).unwrap();
    let src = lift::opencl::emit_kernel(&lk.kernel);
    assert!(src.contains("__local float"), "{src}");
    assert!(src.contains("barrier(CLK_LOCAL_MEM_FENCE);"), "{src}");
    assert!(src.contains("get_local_id(0)"), "{src}");
    assert!(src.contains("get_group_id(0)"), "{src}");
}

#[test]
fn rewrite_rejects_non_stencil_shapes() {
    let a = ParamDef::typed("a", Type::array(Type::real(), N));
    let id = funs::id_real();
    let not_stencil = ir::map_glb(a.to_expr(), "x", move |x| ir::call(&id, vec![x]));
    assert!(overlapped_tile_1d(&not_stencil, TILE).is_none());
}

#[test]
fn workgroup_kernel_requires_local_size() {
    let (a, plain) = stencil_program();
    let tiled = overlapped_tile_1d(&plain, TILE).unwrap();
    let lk = lower_kernel("needs_local", &[a], &tiled, ScalarKind::F32).unwrap();
    let mut dev = Device::gtx780();
    let prep = dev.compile(&lk.kernel).unwrap();
    let input = dev.upload(BufData::from(vec![0.0f32; N]));
    let out = dev.create_buffer(ScalarKind::F32, N);
    let args: Vec<Arg> = lk
        .args
        .iter()
        .map(|spec| match spec {
            ArgSpec::Input(_, _) => Arg::Buf(input),
            ArgSpec::Size(_) => unreachable!(),
            ArgSpec::Output(_, _) => Arg::Buf(out),
        })
        .collect();
    // no local size → error
    let r = dev.launch(&prep, &args, &[N], ExecMode::Fast);
    assert!(r.is_err());
}
