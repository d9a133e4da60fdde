//! Boundary material models and the FD-MM coefficient arrays.
//!
//! Frequency-independent absorption (FI / FI-MM) needs one coefficient per
//! material: the specific admittance `β`. Frequency-dependent absorption
//! (FD-MM) adds, per material, `MB` resonant *branches* — internal
//! mass–spring–damper systems whose state is stored at every boundary point
//! (§II-E; Hamilton et al. \[11\], Bilbao et al. \[12\]).
//!
//! # Discretisation (DESIGN.md §3 substitution)
//!
//! Each branch obeys `a·ẇ + b·w + c·g = p`, `ġ = w` (displacement-flux form
//! with the time step absorbed into the units of `w` and `g`). Trapezoidal
//! integration centred on the pressure update gives exactly the recurrence
//! of the paper's Listing 4:
//!
//! ```text
//! w₁ = BI·(Δp + DI·w₂ − 2F·g)          BI = 1/(a + b/2 + c/4)
//! g ← g + (w₁ + w₂)/2                  DI = a − b/2 − c/4
//!                                      F  = c/2
//! next −= cf1·BI·(2D·w₂ − F·g)         D  = a/2
//! next  = (next + cf·prev)/(1 + cf)    cf = ½·cf1·(β₀ + Σ_b BI_b)
//! ```
//!
//! The `D = a/2` identity follows from `DI + 1/BI = 2a`. Positive `a, b, c`
//! make the branch passive, so boundary interaction can only remove energy —
//! verified empirically by the energy-decay tests in `crate::sim`.

use serde::Serialize;

/// One resonant branch in absorbed (grid) units.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct BranchParams {
    /// Inertial coefficient (`a` above); larger = heavier resonance.
    pub a: f64,
    /// Damping coefficient (`b`); larger = broader absorption.
    pub b: f64,
    /// Stiffness coefficient (`c`); larger = higher resonant frequency.
    pub c: f64,
}

impl BranchParams {
    /// A passive branch; panics on non-positive parameters.
    pub fn new(a: f64, b: f64, c: f64) -> Self {
        let p = BranchParams { a, b, c };
        assert!(p.is_passive(), "branches must be passive");
        p
    }

    /// `a > 0`, `b ≥ 0`, `c ≥ 0`: the branch can only absorb.
    pub fn is_passive(&self) -> bool {
        self.a > 0.0 && self.b >= 0.0 && self.c >= 0.0
    }
}

/// A boundary material: instantaneous admittance plus resonant branches.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Material {
    /// Display name.
    pub name: String,
    /// Instantaneous (frequency-independent) specific admittance `β₀`.
    /// 0 = rigid, larger = more absorbing.
    pub beta0: f64,
    /// Resonant branches (empty for purely frequency-independent
    /// materials).
    pub branches: Vec<BranchParams>,
}

impl Material {
    /// Frequency-independent material with admittance `beta0`.
    pub fn fi(name: &str, beta0: f64) -> Material {
        Material { name: name.into(), beta0, branches: Vec::new() }
    }

    /// Heavily absorbing soft furnishing (e.g. carpet over underlay).
    pub fn carpet() -> Material {
        Material {
            name: "carpet".into(),
            beta0: 0.12,
            branches: vec![
                BranchParams::new(4.0, 1.2, 0.08),
                BranchParams::new(9.0, 0.8, 0.30),
                BranchParams::new(20.0, 0.5, 1.10),
            ],
        }
    }

    /// Painted plaster on masonry: mostly reflective with a weak resonance.
    pub fn plaster() -> Material {
        Material {
            name: "plaster".into(),
            beta0: 0.015,
            branches: vec![
                BranchParams::new(40.0, 0.25, 0.40),
                BranchParams::new(90.0, 0.12, 1.60),
                BranchParams::new(150.0, 0.10, 4.00),
            ],
        }
    }

    /// Window glass: low instantaneous loss, pronounced low resonance.
    pub fn glass() -> Material {
        Material {
            name: "glass".into(),
            beta0: 0.008,
            branches: vec![
                BranchParams::new(25.0, 0.5, 0.05),
                BranchParams::new(60.0, 0.2, 0.90),
                BranchParams::new(110.0, 0.15, 2.50),
            ],
        }
    }

    /// The default 3-material set used by the evaluation (floor, ceiling,
    /// walls — see [`crate::boundary::MaterialAssignment::FloorWallsCeiling`]).
    pub fn default_set() -> Vec<Material> {
        vec![Material::carpet(), Material::plaster(), Material::glass()]
    }
}

/// Flattened per-material FI coefficients.
pub fn fi_betas(materials: &[Material]) -> Vec<f64> {
    materials.iter().map(|m| m.beta0).collect()
}

/// The FD-MM coefficient arrays of Listing 4, flattened `[m*mb + b]`.
#[derive(Debug, Clone, PartialEq)]
pub struct FdCoeffs {
    /// Branches per material.
    pub mb: usize,
    /// Material count.
    pub num_materials: usize,
    /// Effective admittance `β₀ + Σ_b BI_b` per material (drives `cf`).
    pub beta: Vec<f64>,
    /// `BI[m][b] = 1/(a + b/2 + c/4)`.
    pub bi: Vec<f64>,
    /// `D[m][b] = a/2`.
    pub d: Vec<f64>,
    /// `DI[m][b] = a − b/2 − c/4`.
    pub di: Vec<f64>,
    /// `F[m][b] = c/2`.
    pub f: Vec<f64>,
}

impl FdCoeffs {
    /// Derives the coefficient arrays for `mb` branches per material.
    /// Materials with fewer declared branches are padded with extremely
    /// stiff (effectively inert) branches; extra branches are truncated.
    pub fn derive(materials: &[Material], mb: usize) -> FdCoeffs {
        assert!(mb >= 1);
        let nm = materials.len();
        let mut beta = Vec::with_capacity(nm);
        let (mut bi, mut d, mut di, mut f) = (
            Vec::with_capacity(nm * mb),
            Vec::with_capacity(nm * mb),
            Vec::with_capacity(nm * mb),
            Vec::with_capacity(nm * mb),
        );
        // An inert filler branch: enormous inertia → BI ≈ 0 → no effect.
        let filler = BranchParams::new(1e12, 0.0, 0.0);
        for m in materials {
            let mut beta_eff = m.beta0;
            for b in 0..mb {
                let p = m.branches.get(b).copied().unwrap_or(filler);
                let bi_v = 1.0 / (p.a + p.b / 2.0 + p.c / 4.0);
                bi.push(bi_v);
                d.push(p.a / 2.0);
                di.push(p.a - p.b / 2.0 - p.c / 4.0);
                f.push(p.c / 2.0);
                beta_eff += bi_v;
            }
            beta.push(beta_eff);
        }
        FdCoeffs { mb, num_materials: nm, beta, bi, d, di, f }
    }

    /// Flattened lookup index.
    #[inline]
    pub fn at(&self, m: usize, b: usize) -> usize {
        m * self.mb + b
    }
}

/// The Courant number `λ = c·Δt/h` at the 3-D FDTD stability limit
/// (`λ ≤ 1/√3`); all evaluations run exactly at the limit, as is standard
/// for room acoustics (maximises the usable bandwidth per update).
pub fn courant() -> f64 {
    1.0 / 3.0f64.sqrt()
}

/// `λ²`, the stencil weight of Listings 1–2.
pub fn courant_sq() -> f64 {
    1.0 / 3.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_identities() {
        let mats = vec![Material::carpet()];
        let c = FdCoeffs::derive(&mats, 3);
        for b in 0..3 {
            let i = c.at(0, b);
            // DI + 1/BI = 2a = 4D
            let lhs = c.di[i] + 1.0 / c.bi[i];
            assert!((lhs - 4.0 * c.d[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn beta_eff_exceeds_beta0() {
        let mats = vec![Material::carpet()];
        let c = FdCoeffs::derive(&mats, 3);
        assert!(c.beta[0] > Material::carpet().beta0);
    }

    #[test]
    fn padding_branches_are_inert() {
        let mats = vec![Material::fi("rigid-ish", 0.05)];
        let c = FdCoeffs::derive(&mats, 2);
        assert!(c.bi[0] < 1e-11);
        assert!((c.beta[0] - 0.05).abs() < 1e-10);
    }

    #[test]
    fn truncation_keeps_first_branches() {
        let mats = vec![Material::carpet()];
        let c = FdCoeffs::derive(&mats, 1);
        let a0 = Material::carpet().branches[0].a;
        assert!((c.d[0] - a0 / 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn negative_branch_rejected() {
        BranchParams::new(-1.0, 0.0, 0.0);
    }

    #[test]
    fn courant_at_stability_limit() {
        assert!((courant() * courant() - courant_sq()).abs() < 1e-15);
        assert!(courant() <= 1.0 / 3.0f64.sqrt() + 1e-15);
    }

    #[test]
    fn default_set_has_three_distinct_materials() {
        let s = Material::default_set();
        assert_eq!(s.len(), 3);
        assert_ne!(s[0].beta0, s[1].beta0);
    }
}
