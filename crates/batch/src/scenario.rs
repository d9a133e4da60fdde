//! Parameterized room scenarios and their seeded random generator.
//!
//! A [`Scenario`] is everything one batch job needs: room geometry
//! (box/dome/L-shape with randomized dimensions), a boundary model with
//! material assignment, run precision, step count, and source/microphone
//! positions guaranteed to lie inside the room. [`ScenarioGen`] derives all
//! of it deterministically from a seed, so a batch run names its workload
//! with one number and a differential re-run reproduces it exactly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use room_acoustics::{
    BoundaryKernel, GridDims, MaterialAssignment, Precision, RoomShape, SimConfig,
};

/// One room simulation job, fully specified.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Generator-assigned sequence number (stable job id within a batch).
    pub id: u64,
    /// Grid dimensions (with halo).
    pub dims: GridDims,
    /// Room shape.
    pub shape: RoomShape,
    /// Material assignment strategy.
    pub assignment: MaterialAssignment,
    /// Boundary kernel: FI-MM (plain or constant-β) or FD-MM, the
    /// multi-material kernels the virtual-GPU backend implements.
    pub boundary: BoundaryKernel,
    /// Run precision.
    pub precision: Precision,
    /// Leap-frog steps to run.
    pub steps: usize,
    /// Impulse source position (inside the room).
    pub source: (usize, usize, usize),
    /// Microphone position (inside the room).
    pub mic: (usize, usize, usize),
    /// Impulse amplitude.
    pub amp: f64,
}

impl Scenario {
    /// The reference-simulation configuration this scenario describes.
    pub fn config(&self) -> SimConfig {
        let mut cfg = match self.boundary {
            BoundaryKernel::FiMm { .. } => SimConfig::fimm(self.dims, self.shape),
            BoundaryKernel::FdMm => SimConfig::fdmm(self.dims, self.shape),
        };
        cfg.assignment = self.assignment;
        cfg
    }

    /// The virtual-GPU boundary kernel to run it with.
    pub fn boundary_kernel(&self) -> BoundaryKernel {
        self.boundary
    }

    /// Short label of the boundary kernel for reports: `fimm`,
    /// `fimm-const` or `fdmm`.
    pub fn boundary_label(&self) -> &'static str {
        match self.boundary {
            BoundaryKernel::FiMm { beta_constant: false } => "fimm",
            BoundaryKernel::FiMm { beta_constant: true } => "fimm-const",
            BoundaryKernel::FdMm => "fdmm",
        }
    }

    /// Compact human-readable label, e.g. `job3 LShape fdmm f64 14x12x16`.
    pub fn label(&self) -> String {
        format!(
            "job{} {:?} {} {} {}x{}x{}",
            self.id,
            self.shape,
            self.boundary_label(),
            match self.precision {
                Precision::Single => "f32",
                Precision::Double => "f64",
            },
            self.dims.nx,
            self.dims.ny,
            self.dims.nz
        )
    }
}

/// Seeded scenario generator.
pub struct ScenarioGen {
    rng: StdRng,
    next_id: u64,
}

impl ScenarioGen {
    /// A generator whose whole output stream is a function of `seed`.
    pub fn new(seed: u64) -> ScenarioGen {
        ScenarioGen { rng: StdRng::seed_from_u64(seed), next_id: 0 }
    }

    /// Draws the next scenario.
    pub fn next_scenario(&mut self) -> Scenario {
        let rng = &mut self.rng;
        let shape = match rng.gen_range(0usize..3) {
            0 => RoomShape::Box,
            1 => RoomShape::Dome,
            _ => RoomShape::LShape,
        };
        // Small rooms keep a 64-job batch fast while still exercising
        // non-trivial boundary sets on every shape.
        let dims = GridDims::new(
            rng.gen_range(9usize..16),
            rng.gen_range(9usize..16),
            rng.gen_range(9usize..16),
        );
        let assignment = match rng.gen_range(0usize..3) {
            0 => MaterialAssignment::Uniform,
            1 => MaterialAssignment::FloorWallsCeiling,
            _ => MaterialAssignment::Striped { num_materials: 3 },
        };
        let boundary = match rng.gen_range(0usize..3) {
            0 => BoundaryKernel::FiMm { beta_constant: false },
            1 => BoundaryKernel::FiMm { beta_constant: true },
            _ => BoundaryKernel::FdMm,
        };
        let precision = if rng.gen_bool(0.5) { Precision::Single } else { Precision::Double };
        let steps = rng.gen_range(16usize..33);
        let source = sample_inside(rng, &dims, &shape);
        let mic = sample_inside(rng, &dims, &shape);
        let amp = rng.gen_range(0.5f64..2.0);
        let id = self.next_id;
        self.next_id += 1;
        Scenario { id, dims, shape, assignment, boundary, precision, steps, source, mic, amp }
    }

    /// Draws `n` scenarios.
    pub fn take(&mut self, n: usize) -> Vec<Scenario> {
        (0..n).map(|_| self.next_scenario()).collect()
    }
}

/// Rejection-samples a voxel strictly inside the room. Every shape keeps a
/// solid interior column near the origin-side corner, so this terminates
/// fast; the dome's curved shell is why plain halo-clamping is not enough.
fn sample_inside(rng: &mut StdRng, dims: &GridDims, shape: &RoomShape) -> (usize, usize, usize) {
    loop {
        let x = rng.gen_range(1..dims.nx - 1);
        let y = rng.gen_range(1..dims.ny - 1);
        let z = rng.gen_range(1..dims.nz - 1);
        if shape.inside(dims, x, y, z) {
            return (x, y, z);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_per_seed() {
        let a = ScenarioGen::new(7).take(16);
        let b = ScenarioGen::new(7).take(16);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(format!("{x:?}"), format!("{y:?}"));
        }
        let c = ScenarioGen::new(8).take(16);
        assert_ne!(
            format!("{a:?}"),
            format!("{c:?}"),
            "different seeds should produce different batches"
        );
    }

    #[test]
    fn source_and_mic_are_inside_the_room() {
        for sc in ScenarioGen::new(42).take(64) {
            for (x, y, z) in [sc.source, sc.mic] {
                assert!(
                    sc.shape.inside(&sc.dims, x, y, z),
                    "{}: ({x},{y},{z}) must be inside",
                    sc.label()
                );
            }
        }
    }

    #[test]
    fn batch_mixes_shapes_boundaries_and_precisions() {
        let batch = ScenarioGen::new(1).take(64);
        assert!(batch.iter().any(|s| s.shape == RoomShape::Dome));
        assert!(batch.iter().any(|s| s.shape == RoomShape::LShape));
        assert!(batch.iter().any(|s| s.boundary == BoundaryKernel::FdMm));
        assert!(batch.iter().any(|s| matches!(s.boundary, BoundaryKernel::FiMm { .. })));
        assert!(batch.iter().any(|s| s.precision == Precision::Single));
        assert!(batch.iter().any(|s| s.precision == Precision::Double));
    }
}
