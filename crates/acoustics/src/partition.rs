//! Splitting a room's sorted boundary list at Z-slab cut planes
//! (DESIGN.md §12).
//!
//! Boundary lists are sliced by owning slab; list-positional loads
//! (`boundaryIndices`, `material` and the FD-MM state arrays) shift their
//! base by the slice offset, so transaction totals match the unsharded run
//! exactly when each slice offset is a multiple of the warp width (see
//! [`boundary_cut_planes`]).

use vgpu::exec::WARP;
use vgpu::SlabPartition;

/// Splits the sorted boundary-index list at the partition's cut planes:
/// returns `device_count + 1` offsets `c` with slab `d` owning list range
/// `c[d]..c[d+1]` (a boundary point belongs to the slab owning its
/// z-plane).
///
/// This split is only *valid* when every point's kernel footprint stays
/// within its slab's local coverage — use [`checked_boundary_cuts`] with
/// the kernel's proven z-reach to enforce that instead of assuming it.
pub fn boundary_cuts(part: &SlabPartition, plane: usize, boundary_indices: &[i32]) -> Vec<usize> {
    let mut c = Vec::with_capacity(part.device_count() + 1);
    c.push(0);
    for d in 0..part.device_count() {
        let end = part.cuts()[d + 1] * plane;
        c.push(boundary_indices.partition_point(|&i| (i as usize) < end));
    }
    c
}

/// [`boundary_cuts`], validated against a proven kernel footprint: a
/// boundary point at z-plane `z` assigned to slab `d` may touch planes
/// `[z − reach.0, z + reach.1]` (clamped to the grid), all of which must
/// lie within the slab's local coverage — its owned planes plus `halo`
/// exchanged planes per side. Errs naming the first violating point, so
/// cut planes landing exactly on a stencil-reachable plane of a
/// wider-than-halo kernel are rejected instead of silently accepted.
pub fn checked_boundary_cuts(
    part: &SlabPartition,
    plane: usize,
    boundary_indices: &[i32],
    reach: (usize, usize),
    halo: (usize, usize),
) -> Result<Vec<usize>, String> {
    let cuts = boundary_cuts(part, plane, boundary_indices);
    let nz = part.nz();
    for d in 0..part.device_count() {
        let cover_lo = part.cuts()[d].saturating_sub(halo.0);
        let cover_hi = ((part.cuts()[d + 1] - 1) + halo.1).min(nz - 1);
        for &i in &boundary_indices[cuts[d]..cuts[d + 1]] {
            let z = (i as usize) / plane;
            let lo = z.saturating_sub(reach.0);
            let hi = (z + reach.1).min(nz - 1);
            if lo < cover_lo || hi > cover_hi {
                return Err(format!(
                    "boundary point {i} (z-plane {z}) on slab {d} provably reaches planes \
                     [{lo}, {hi}] but the slab only covers [{cover_lo}, {cover_hi}] \
                     (owned planes {}..{} plus ({}, {}) halo)",
                    part.cuts()[d],
                    part.cuts()[d + 1],
                    halo.0,
                    halo.1
                ));
            }
        }
    }
    Ok(cuts)
}

/// Searches for interior cut planes whose boundary-list prefix counts are
/// all multiples of [`WARP`], partitioning `nz` planes into `devices`
/// slabs as evenly as the alignment constraint allows. Such cuts make the
/// sharded boundary launches' transaction totals bit-identical to the
/// single-device run (list-positional warp groupings coincide). Returns
/// `None` when no aligned cut set exists.
pub fn boundary_cut_planes(
    nz: usize,
    plane: usize,
    boundary_indices: &[i32],
    devices: usize,
) -> Option<Vec<usize>> {
    // prefix[z] = boundary points strictly below plane z
    let prefix: Vec<usize> =
        (0..=nz).map(|z| boundary_indices.partition_point(|&i| (i as usize) < z * plane)).collect();
    let mut cuts = vec![0usize];
    for d in 1..devices {
        let ideal = nz * d / devices;
        // nearest aligned plane to the ideal cut, strictly between the
        // previous cut and nz − (remaining slabs still need a plane each)
        let lo = cuts[d - 1] + 1;
        let hi = nz - (devices - d);
        let best = (lo..=hi)
            .filter(|&z| prefix[z].is_multiple_of(WARP))
            .min_by_key(|&z| z.abs_diff(ideal))?;
        cuts.push(best);
    }
    cuts.push(nz);
    if cuts.windows(2).all(|w| w[0] < w[1]) {
        Some(cuts)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{GridDims, RoomShape};
    use crate::sim::{SimConfig, SimSetup};

    #[test]
    fn boundary_cut_on_stencil_reachable_plane_is_proof_gated() {
        // 2×2×8 grid cut at z = 4; one boundary point on the last plane
        // of slab 0 and one on the first plane of slab 1 — each exactly
        // one stencil step from the seam.
        let part = SlabPartition::from_cuts(8, vec![0, 4, 8]);
        let plane = 4;
        let bidx: Vec<i32> = vec![3 * 4, 4 * 4];
        let checked = checked_boundary_cuts(&part, plane, &bidx, (1, 1), (1, 1))
            .expect("one-plane reach fits the one-plane halo");
        assert_eq!(checked, boundary_cuts(&part, plane, &bidx));
        // A two-plane stencil overruns the one-plane halo at the same
        // cut: the proof-routed split must reject it, not silently
        // accept cuts that land on a stencil-reachable plane.
        let err = checked_boundary_cuts(&part, plane, &bidx, (2, 2), (1, 1))
            .expect_err("two-plane reach overruns the one-plane halo");
        assert!(err.contains("halo"), "diagnostic names the halo shortfall: {err}");
        // Away from any seam the same wide stencil is fine.
        let interior: Vec<i32> = vec![2 * 4, 6 * 4];
        checked_boundary_cuts(&part, plane, &interior, (2, 2), (1, 1))
            .expect("interior points never overrun");
    }

    #[test]
    fn boundary_cut_planes_are_warp_aligned() {
        let s = SimSetup::new(&SimConfig::fimm(GridDims::cube(16), RoomShape::Box));
        let plane = 16 * 16;
        let cuts = boundary_cut_planes(16, plane, &s.room.boundary_indices, 2)
            .expect("aligned cut exists for the 16³ box");
        let part = SlabPartition::from_cuts(16, cuts);
        let bc = boundary_cuts(&part, plane, &s.room.boundary_indices);
        assert!(bc.iter().take(bc.len() - 1).all(|c| c % WARP == 0), "cuts {bc:?}");
    }
}
