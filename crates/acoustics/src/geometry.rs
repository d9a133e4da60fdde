//! Room geometry: grids, shapes and voxelisation.
//!
//! The simulation volume is a 3-D grid of voxels with a one-voxel halo
//! (zero-padded, never updated — §II-A of the paper). A [`RoomShape`]
//! classifies each non-halo voxel as inside or outside the room; the
//! *boundary* is the set of inside voxels with fewer than six inside
//! neighbours. Table II's two shapes are provided: the full cuboid (`Box`)
//! and the half-ellipsoid dome (`Dome`).

use serde::Serialize;

/// Grid dimensions **including** the one-voxel halo on every side, matching
/// the paper's `Nx`/`Ny`/`Nz` convention (Listing 1 treats `x==0` and
/// `x==Nx-1` as the halo).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct GridDims {
    /// Points along x (fastest-varying).
    pub nx: usize,
    /// Points along y.
    pub ny: usize,
    /// Points along z (slowest-varying).
    pub nz: usize,
}

impl GridDims {
    /// New dimensions.
    pub fn new(nx: usize, ny: usize, nz: usize) -> Self {
        assert!(nx >= 3 && ny >= 3 && nz >= 3, "grid must have an interior");
        GridDims { nx, ny, nz }
    }

    /// Cubic grid.
    pub fn cube(n: usize) -> Self {
        Self::new(n, n, n)
    }

    /// Total points including halo.
    pub fn total(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Linear index of `(x, y, z)` — the paper's `z*Nx*Ny + y*Nx + x`.
    #[inline]
    pub fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        z * self.nx * self.ny + y * self.nx + x
    }

    /// [`GridDims::idx`] of a cell that must lie on the grid. Panics naming
    /// the cell and the grid when it does not: `idx` alone would land on
    /// another cell.
    pub fn cell(&self, x: usize, y: usize, z: usize) -> usize {
        let GridDims { nx, ny, nz } = *self;
        assert!(x < nx && y < ny && z < nz, "cell ({x}, {y}, {z}) is off the {nx}×{ny}×{nz} grid");
        self.idx(x, y, z)
    }

    /// Inverse of [`GridDims::idx`].
    #[inline]
    pub fn coords(&self, idx: usize) -> (usize, usize, usize) {
        let plane = self.nx * self.ny;
        let z = idx / plane;
        let r = idx % plane;
        (r % self.nx, r / self.nx, z)
    }

    /// True for halo points.
    #[inline]
    pub fn is_halo(&self, x: usize, y: usize, z: usize) -> bool {
        x == 0 || y == 0 || z == 0 || x == self.nx - 1 || y == self.ny - 1 || z == self.nz - 1
    }

    /// The three room sizes evaluated in the paper (Table II), given as the
    /// full grid dimensions.
    pub fn paper_sizes() -> [GridDims; 3] {
        [GridDims::new(602, 402, 302), GridDims::cube(336), GridDims::new(302, 202, 152)]
    }

    /// The paper labels each size by its leading dimension.
    pub fn label(&self) -> String {
        format!("{}", self.nx)
    }
}

/// Room shapes from the paper's evaluation (Table II / Figure 1), plus an
/// L-shaped room as an extra non-convex test case.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum RoomShape {
    /// The whole non-halo grid is inside: a cuboid room whose walls are the
    /// grid faces (Listing 1's implicit boundary).
    Box,
    /// A dome: the upper half of an ellipsoid whose equator rests on the
    /// floor plane `z = 1`, with semi-axes filling the grid interior.
    Dome,
    /// An L-shaped room: the box minus its upper-right quadrant (in x–y),
    /// full height. Non-convex — exercises boundary points whose outside
    /// neighbours lie *inside the bounding box*.
    LShape,
}

impl RoomShape {
    /// Is the (non-halo) voxel inside the room?
    pub fn inside(&self, dims: &GridDims, x: usize, y: usize, z: usize) -> bool {
        if dims.is_halo(x, y, z) {
            return false;
        }
        match self {
            RoomShape::Box => true,
            RoomShape::LShape => {
                // remove the quadrant x ≥ mid_x && y ≥ mid_y
                let mid_x = dims.nx.div_ceil(2);
                let mid_y = dims.ny.div_ceil(2);
                !(x >= mid_x && y >= mid_y)
            }
            RoomShape::Dome => {
                // Semi-axes of the half-ellipsoid: half-extents in x/y, the
                // full interior height in z.
                let rx = (dims.nx as f64 - 3.0) / 2.0;
                let ry = (dims.ny as f64 - 3.0) / 2.0;
                let rz = dims.nz as f64 - 3.0;
                let cx = 1.0 + rx;
                let cy = 1.0 + ry;
                let dx = (x as f64 - cx) / rx;
                let dy = (y as f64 - cy) / ry;
                let dz = (z as f64 - 1.0) / rz;
                dx * dx + dy * dy + dz * dz <= 1.0
            }
        }
    }

    /// Short label matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            RoomShape::Box => "box",
            RoomShape::Dome => "dome",
            RoomShape::LShape => "L-shape",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idx_roundtrip() {
        let d = GridDims::new(7, 5, 4);
        for idx in [0usize, 1, 6, 34, 139] {
            let (x, y, z) = d.coords(idx);
            assert_eq!(d.idx(x, y, z), idx);
        }
    }

    #[test]
    fn halo_detection() {
        let d = GridDims::cube(5);
        assert!(d.is_halo(0, 2, 2));
        assert!(d.is_halo(4, 2, 2));
        assert!(!d.is_halo(1, 1, 1));
    }

    #[test]
    fn box_interior_is_inside() {
        let d = GridDims::cube(6);
        assert!(RoomShape::Box.inside(&d, 1, 1, 1));
        assert!(RoomShape::Box.inside(&d, 4, 4, 4));
        assert!(!RoomShape::Box.inside(&d, 0, 3, 3));
    }

    #[test]
    fn dome_fits_inside_box() {
        let d = GridDims::new(21, 21, 11);
        let mut dome = 0usize;
        let mut boxy = 0usize;
        for z in 0..d.nz {
            for y in 0..d.ny {
                for x in 0..d.nx {
                    if RoomShape::Dome.inside(&d, x, y, z) {
                        dome += 1;
                        assert!(RoomShape::Box.inside(&d, x, y, z));
                    }
                    if RoomShape::Box.inside(&d, x, y, z) {
                        boxy += 1;
                    }
                }
            }
        }
        assert!(dome > 0 && dome < boxy);
    }

    #[test]
    fn dome_apex_and_floor_centre_inside() {
        let d = GridDims::new(21, 21, 11);
        assert!(RoomShape::Dome.inside(&d, 10, 10, 1), "floor centre");
        assert!(RoomShape::Dome.inside(&d, 10, 10, d.nz - 3), "near apex");
        assert!(!RoomShape::Dome.inside(&d, 1, 1, d.nz - 2), "top corner outside dome");
    }

    #[test]
    fn lshape_is_box_minus_quadrant() {
        let d = GridDims::new(12, 12, 8);
        assert!(RoomShape::LShape.inside(&d, 2, 2, 2));
        assert!(RoomShape::LShape.inside(&d, 9, 2, 2));
        assert!(RoomShape::LShape.inside(&d, 2, 9, 2));
        assert!(!RoomShape::LShape.inside(&d, 9, 9, 2), "removed quadrant");
        // inside ⊆ box
        for z in 0..d.nz {
            for y in 0..d.ny {
                for x in 0..d.nx {
                    if RoomShape::LShape.inside(&d, x, y, z) {
                        assert!(RoomShape::Box.inside(&d, x, y, z));
                    }
                }
            }
        }
    }

    /// Along x the inside set of every row is one interval, so `nbrs > 0`
    /// cuts a row-coherent warp into a contiguous lane mask: the executor's
    /// runs over it are dense lane loops.
    #[test]
    fn every_shipped_shape_is_row_convex() {
        let sizes = [
            GridDims::cube(12),
            GridDims::new(14, 12, 10),
            GridDims::new(33, 17, 9),
            GridDims::new(96, 64, 48),
        ];
        for shape in [RoomShape::Box, RoomShape::Dome, RoomShape::LShape] {
            for d in sizes {
                for (y, z) in (0..d.nz).flat_map(|z| (0..d.ny).map(move |y| (y, z))) {
                    let row: Vec<bool> = (0..d.nx).map(|x| shape.inside(&d, x, y, z)).collect();
                    let entries = row.windows(2).filter(|w| !w[0] && w[1]).count();
                    assert!(entries <= 1, "{shape:?} {} row y={y} z={z}: {row:?}", d.label());
                }
            }
        }
    }

    #[test]
    fn paper_sizes_match_table2() {
        let s = GridDims::paper_sizes();
        assert_eq!((s[0].nx, s[0].ny, s[0].nz), (602, 402, 302));
        assert_eq!((s[1].nx, s[1].ny, s[1].nz), (336, 336, 336));
        assert_eq!((s[2].nx, s[2].ny, s[2].nz), (302, 202, 152));
    }
}
