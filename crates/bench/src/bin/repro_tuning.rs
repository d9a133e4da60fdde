//! Workgroup-size tuning, as in the paper's §VI: "All benchmarks have been
//! hand-tuned by workgroup size and the best result is reported."
//!
//! This binary automates that step on the virtual device: it sweeps tile
//! (= workgroup) sizes for the overlapped-tiling rewrite of a 1-D stencil,
//! reports modeled time and traffic per configuration, and picks the best —
//! demonstrating that the rewrite + performance model close the paper's
//! tuning loop without any hand-editing of kernels.

use bench::table;
use lift::funs;
use lift::ir::{self, ExprRef, ParamDef};
use lift::lower::{lower_kernel, ArgSpec};
use lift::prelude::*;
use lift::rewrite::overlapped_tile_1d;
use serde::Serialize;
use vgpu::{Arg, BufData, Device, DeviceProfile, ExecMode, ModelInput};

const N: usize = 1 << 18;
const K: i64 = 7;

fn stencil_program() -> (std::rc::Rc<ParamDef>, ExprRef) {
    let a = ParamDef::typed("a", Type::array(Type::real(), N));
    let add = funs::add();
    let prog = ir::map_glb(
        ir::slide(K, 1, ir::pad((K - 1) / 2, (K - 1) / 2, PadKind::Clamp, a.to_expr())),
        "w",
        move |w| ir::reduce_seq(ir::lit(Lit::real(0.0)), w, |acc, x| ir::call(&add, vec![acc, x])),
    );
    (a, prog)
}

#[derive(Serialize)]
struct Row {
    variant: String,
    txn_bytes: u64,
    flops: u64,
    modeled_us: f64,
}

fn measure(lk: &lift::lower::LoweredKernel, profile: &DeviceProfile) -> Row {
    let mut dev = Device::new(profile.clone());
    let prep = dev.compile(&lk.kernel).unwrap();
    let input = dev.upload(BufData::from(vec![1.0f32; N]));
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
    let global: Vec<usize> =
        lk.global_size.iter().map(|g| g.eval(&|_| None).unwrap() as usize).collect();
    let local = lk.local_size.as_ref().map(|l| l.eval(&|_| None).unwrap() as usize);
    let stats =
        dev.launch_wg(&prep, &args, &global, local, ExecMode::Model { sample_stride: 4 }).unwrap();
    let t = vgpu::modeled_time_s(
        &ModelInput {
            transaction_bytes: stats.transaction_bytes.unwrap(),
            flops: stats.counters.flops,
            double_precision: false,
            halo_bytes: 0,
        },
        profile,
    );
    Row {
        variant: lk.kernel.name.clone(),
        txn_bytes: stats.transaction_bytes.unwrap(),
        flops: stats.counters.flops,
        modeled_us: t * 1e6,
    }
}

fn main() {
    let profile = DeviceProfile::gtx780();
    let (a, plain) = stencil_program();
    let mut rows = Vec::new();
    let plain_lk =
        lower_kernel("untiled", std::slice::from_ref(&a), &plain, ScalarKind::F32).unwrap();
    rows.push(measure(&plain_lk, &profile));
    for tile in [16i64, 32, 64, 128, 256] {
        let tiled = overlapped_tile_1d(&plain, tile).expect("stencil shape");
        let lk = lower_kernel(
            &format!("tiled_T{tile}"),
            std::slice::from_ref(&a),
            &tiled,
            ScalarKind::F32,
        )
        .unwrap();
        rows.push(measure(&lk, &profile));
    }
    println!("== Workgroup-size tuning (1-D {K}-point stencil, N = {N}, GTX780 model) ==\n");
    let trows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.variant.clone(),
                format!("{:.2} MB", r.txn_bytes as f64 / 1e6),
                r.flops.to_string(),
                format!("{:.1} µs", r.modeled_us),
            ]
        })
        .collect();
    println!("{}", table::render(&["variant", "DRAM traffic", "flops", "modeled time"], &trows));
    let best = rows.iter().min_by(|a, b| a.modeled_us.total_cmp(&b.modeled_us)).unwrap();
    let untiled = &rows[0];
    println!(
        "best: {} ({:.1} µs), {:.2}× faster than untiled — \"tuned by workgroup size,\n\
         best result reported\" (§VI) reproduced as an automatic sweep.",
        best.variant,
        best.modeled_us,
        untiled.modeled_us / best.modeled_us
    );
    let ok = best.variant != "untiled";
    println!(
        "[{}] some tiled configuration beats the untiled stencil",
        if ok { "ok" } else { "FAIL" }
    );
    match table::write_json("tuning", &rows) {
        Ok(p) => eprintln!("wrote {p}"),
        Err(e) => eprintln!("could not write results: {e}"),
    }
    bench::trace::finish(vgpu::runtime(), "tuning");
    std::process::exit(if ok { 0 } else { 1 });
}
