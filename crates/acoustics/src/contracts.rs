//! Launch contracts for the hand-written reference kernels.
//!
//! A *launch contract* is the [`lift::verify::Assumptions`] value that every
//! shipped launch of a kernel satisfies: buffer-length relations in terms of
//! the scalar size arguments, interior-guard facts, and the data invariants
//! of the boundary gather tables. The contracts live here — next to the
//! front end that owns the allocations they describe — and serve two
//! consumers (three for the facts the simplifier rewrites generated code
//! under, [`BufferFacts::exterior_zero`] and
//! [`Assumptions::distinct_buffers`]):
//!
//! * the `verify` crate's audit suite pairs each kernel with its contract
//!   and requires the static bounds/race passes to return PROVEN-SAFE
//!   (the CI gate that keeps a contract honest);
//! * every [`crate::StepKernel`] carries its contract and compiles its
//!   kernel under it ([`vgpu::compile_cached_under`]), so a flat launch on
//!   the tape merges it with its concrete shape and elides per-access
//!   bounds checks at sites the verifier proves (DESIGN.md §13).
//!
//! Both consumers reading one definition is the point: the facts the
//! executor trusts are exactly the facts CI re-proves against the kernel
//! sources on every run.

use lift::arith::{ArithExpr, SymRange};
use lift::kast::Kernel;
use lift::verify::{Assumptions, BufferFacts};

/// The data invariants of the boundary-handling tables, shared by the
/// generated and hand-written FI-MM/FD-MM kernels (and cross-checked
/// dynamically by the differential harness):
///
/// * `boundaryIndices` holds pairwise-distinct grid cells in `[0, N−1]`
///   (each boundary node appears once);
/// * `material` holds material ids in `[0, NM−1]`;
/// * the FD-MM aliased sizes satisfy `S = MB·numB` (state arrays) and
///   `MBM = NM·MB` (coefficient tables).
pub fn boundary_table_facts(asm: &mut Assumptions) {
    if let Some(b) = asm.buffers.get_mut("boundaryIndices") {
        *b = b
            .clone()
            .with_values(SymRange::new(ArithExpr::cst(0), ArithExpr::var("N") - ArithExpr::cst(1)))
            .with_distinct();
    }
    if let Some(b) = asm.buffers.get_mut("material") {
        *b = b.clone().with_values(SymRange::new(
            ArithExpr::cst(0),
            ArithExpr::var("NM") - ArithExpr::cst(1),
        ));
    }
    let has_size = |asm: &Assumptions, n: &str| asm.size_bounds.iter().any(|(s, _)| s == n);
    if has_size(asm, "S") {
        asm.defines.push(("S".into(), ArithExpr::var("MB") * ArithExpr::var("numB")));
    }
    if has_size(asm, "MBM") {
        asm.defines.push(("MBM".into(), ArithExpr::var("NM") * ArithExpr::var("MB")));
    }
}

/// The interior-mask fact of the grid kernels, generated and hand-written:
/// `nbrs[lin(gid)] > 0` implies `1 ≤ gid_d ≤ N_d − 2`. The mask is the
/// 6-neighbour count, < 6 on a face cell and zero outside the room;
/// [`crate::Simulation`] checks it (`SimError::MaskOnHalo`). For contracts
/// with an `nbrs` buffer and `Nx`, `Ny`, `Nz` size bounds.
pub fn interior_mask_facts(asm: &mut Assumptions) {
    let dims = ["Nx", "Ny", "Nz"];
    if !dims.iter().all(|d| asm.size_bounds.iter().any(|(s, _)| s == d)) {
        return;
    }
    let Some(nbrs) = asm.buffers.get_mut("nbrs") else { return };
    nbrs.interior_mask = true;
    asm.interior_dims = dims.map(ArithExpr::var).to_vec();
}

/// The grid output `output` holds `+0` wherever the interior mask is not
/// positive when a launch starts ([`BufferFacts::exterior_zero`]):
/// [`crate::Simulation`] allocates its pressure grids zeroed, refuses an
/// impulse outside the room, and no kernel it runs stores to an exterior
/// cell — which it checks before every grid launch on a sanitizing runtime.
/// For contracts with the interior-mask fact ([`interior_mask_facts`]).
pub fn exterior_zero_facts(asm: &mut Assumptions, output: &str) {
    if !asm.buffers.get("nbrs").is_some_and(|b| b.interior_mask) {
        return;
    }
    if let Some(out) = asm.buffers.get_mut(output) {
        out.exterior_zero = true;
    }
}

/// The contract a hand-written reference kernel is launched under (see
/// [`crate::Simulation`]): global sizes are left unbounded (`None`) because
/// every kernel guards with an in-kernel `return_if`, and buffer lengths
/// match the slab allocations.
///
/// Panics on a kernel name outside [`crate::handwritten::all_kernels`] — adding a
/// reference kernel without writing its contract is a bug the audit suite
/// should fail loudly on.
pub fn launch_contract(k: &Kernel) -> Assumptions {
    let mut asm = Assumptions {
        global_size: vec![None; usize::from(k.work_dim)],
        // `Simulation` binds every buffer role to a buffer of its own.
        distinct_buffers: true,
        ..Assumptions::default()
    };
    let n3 = || ArithExpr::var("Nx") * ArithExpr::var("Ny") * ArithExpr::var("Nz");
    match k.name.as_str() {
        "volume_handling_hand" | "volume_handling_hand_slab" => {
            for b in ["next", "curr", "prev", "nbrs"] {
                asm.buffers.insert(b.into(), BufferFacts::sized(n3()));
            }
            for d in ["Nx", "Ny", "Nz"] {
                asm.size_bounds.push((d.into(), 1));
            }
            interior_mask_facts(&mut asm);
            exterior_zero_facts(&mut asm, "next");
            if k.name.ends_with("_slab") {
                // As [`slab_placed`] restates the whole-grid contract.
                asm.gid_offsets = vec![0, 0, 1];
            }
        }
        "fi_single_hand" => {
            for b in ["next", "curr", "prev"] {
                asm.buffers.insert(b.into(), BufferFacts::sized(n3()));
            }
            // `nbr` starts at 6 and is zeroed by the halo check, so
            // `nbr > 0` is exactly the interior predicate.
            asm.interior_guards.push("nbr".into());
            asm.interior_dims = ["Nx", "Ny", "Nz"].map(ArithExpr::var).to_vec();
            for d in ["Nx", "Ny", "Nz"] {
                asm.size_bounds.push((d.into(), 1));
            }
        }
        "fimm_boundary_hand" | "fimm_boundary_hand_cbeta" | "fdmm_boundary_hand" => {
            let n = || ArithExpr::var("N");
            let num_b = || ArithExpr::var("numB");
            asm.buffers.insert("boundaryIndices".into(), BufferFacts::sized(num_b()));
            asm.buffers.insert("nbrs".into(), BufferFacts::sized(n()));
            asm.buffers.insert("material".into(), BufferFacts::sized(num_b()));
            asm.buffers.insert("beta".into(), BufferFacts::sized(ArithExpr::var("NM")));
            asm.buffers.insert("next".into(), BufferFacts::sized(n()));
            asm.buffers.insert("prev".into(), BufferFacts::sized(n()));
            for d in ["numB", "N", "NM"] {
                asm.size_bounds.push((d.into(), 1));
            }
            if k.name == "fdmm_boundary_hand" {
                let mb = || ArithExpr::var("MB");
                for b in ["BI", "D", "DI", "F"] {
                    asm.buffers.insert(b.into(), BufferFacts::sized(ArithExpr::var("NM") * mb()));
                }
                for b in ["g1", "v1", "v2"] {
                    asm.buffers.insert(b.into(), BufferFacts::sized(mb() * num_b()));
                }
                asm.size_bounds.push(("MB".into(), 1));
            }
            boundary_table_facts(&mut asm);
        }
        other => panic!("no launch contract registered for hand-written kernel `{other}`"),
    }
    asm
}

/// `kernel` placed on a Z-slab behind one halo plane — the one rewrite the
/// front end ([`crate::StepKernel::slab_placed`]) and the sharded host
/// program both use: every `get_global_id(2)` shifted by +1 (named
/// `<kernel>_slab`), under `contract` with interior masking and the
/// canonical linearization shifted likewise (`gid_offsets = [0, 0, 1]`). A
/// launch of `[Nx, Ny, owned]` work-items covers local planes `[1, owned+1)`
/// between two halo planes; `Nz` must be bound to the *local* plane count
/// (`owned + 2`), so the shifted `z >= Nz` guard never fires for it.
pub fn slab_placed(kernel: &Kernel, contract: &Assumptions) -> (Kernel, Assumptions) {
    let contract = Assumptions { gid_offsets: vec![0, 0, 1], ..contract.clone() };
    (kernel.shift_gid(2, 1, "_slab"), contract)
}

/// Buffer parameters laid out over the canonical row-major simulation
/// grid. Halo reasoning for domain-sharded launches is about exactly
/// these: state-table buffers (`g1`, `v1`, …) and per-boundary tables are
/// partitioned by boundary node, not by grid plane, and never need halo
/// exchange.
pub const GRID_BUFFERS: &[&str] = &["next", "curr", "prev", "nbrs", "out"];

/// Proves the halo width `kernel` requires along the slab (z) axis:
/// `(below, above)` planes of remote data any work-item may touch on the
/// [`GRID_BUFFERS`] beyond its own cell, derived from the kernel's static
/// access footprints (`lift::footprint`). Errs when any grid-buffer site
/// has no per-axis footprint — such a kernel must not be sharded.
pub fn grid_halo(kernel: &Kernel, asm: &Assumptions) -> Result<(usize, usize), String> {
    lift::verify::verify_kernel(kernel, asm).footprints.required_halo(GRID_BUFFERS, 2)
}

/// Shard-time gate: checks a kernel's proven z-reach ([`grid_halo`]) against
/// the `(below, above)` halo planes the slab layout actually provides,
/// returning the reach or a diagnostic naming the shortfall. [`crate::Simulation`]
/// calls this instead of assuming a one-plane halo.
pub fn check_slab_halo(
    kernel: &str,
    (lo, hi): (usize, usize),
    halo: (usize, usize),
) -> Result<(usize, usize), String> {
    if lo > halo.0 || hi > halo.1 {
        return Err(format!(
            "kernel `{kernel}` provably reaches ({lo}, {hi}) z planes beyond its cell but the \
             slab layout provides only ({}, {}) halo planes",
            halo.0, halo.1
        ));
    }
    Ok((lo, hi))
}
