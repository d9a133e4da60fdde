//! Z-slab sharded execution of the hand-written kernels across multiple
//! virtual devices (DESIGN.md §12).
//!
//! [`ShardedSim`] is the multi-device counterpart of
//! [`crate::vgpu_sim::HandwrittenSim`]: the grid's z-planes are split into
//! contiguous slabs (one per [`Device`]), each slab allocates its pressure
//! fields with one halo plane on either side, and every step exchanges the
//! seam planes of `curr` as explicit device-to-device copies before the
//! volume launches. The volume pass uses
//! [`crate::handwritten::volume_slab_kernel`] (the grid kernel with
//! `get_global_id(2)` shifted by +1) over `[Nx, Ny, owned]` work-items, so
//! the per-device launches together execute exactly the work-items of the
//! single-device launch.
//!
//! Boundary lists are sliced by owning slab; list-positional loads
//! (`boundaryIndices`, `material` and the FD-MM state arrays) shift their
//! base by the slice offset, so transaction totals match the unsharded run
//! exactly when each slice offset is a multiple of the warp width (see
//! [`boundary_cut_planes`]). The FD-MM kernel indexes its state as
//! `b·numB + i`; the sharded launch passes a *padded* per-device stride
//! congruent to the global `numB` modulo the warp width and launches only
//! the real boundary-point count (the interpreter never runs lanes past
//! the launch size, so the larger guard value is inert).
//!
//! Transfer accounting is arranged so host-transfer *byte* totals are
//! bit-comparable with a single-device run: owned slabs move through
//! accounted region transfers summing to the unsharded sizes, replicated
//! coefficient tables are accounted once (device 0) with replicas under
//! `vgpu.halo.replicate.*`, and halo traffic under `vgpu.halo.*` — never
//! `vgpu.xfer.*`.

use crate::handwritten;
use crate::reference::FdArrays;
use crate::sim::{field_energy, SimSetup};
use crate::vgpu_sim::{BoundaryKernel, Precision};
use lift::prelude::Value;
use vgpu::{Arg, BufData, BufId, Device, ExecMode, LaunchStats, Prepared, SlabPartition};

/// The warp width the transaction model groups work-items by (see
/// [`vgpu::exec`]); boundary-slice offsets congruent to 0 modulo this keep
/// sharded transaction totals identical to unsharded ones.
pub const WARP: usize = 32;

/// Per-step launch statistics of a sharded step: one (volume, boundary)
/// pair per device. Devices whose slab holds no boundary points report
/// `None` for the boundary launch.
pub type ShardStepStats = Vec<(LaunchStats, Option<LaunchStats>)>;

/// Sums counters and transaction bytes across a sharded step, for
/// comparison against a single-device step.
pub fn sum_step_stats(stats: &ShardStepStats) -> (vgpu::Counters, Option<u64>) {
    let mut c = vgpu::Counters::default();
    let mut txn: Option<u64> = None;
    let mut add = |s: &LaunchStats| {
        c.work_items += s.counters.work_items;
        c.loads_global += s.counters.loads_global;
        c.stores_global += s.counters.stores_global;
        c.flops += s.counters.flops;
        if let Some(t) = s.transaction_bytes {
            *txn.get_or_insert(0) += t;
        }
    };
    for (v, b) in stats {
        add(v);
        if let Some(b) = b {
            add(b);
        }
    }
    (c, txn)
}

struct SlabFd {
    bi: BufId,
    d: BufId,
    di: BufId,
    f: BufId,
    g1: BufId,
    v1: BufId,
    v2: BufId,
    /// Padded state stride passed as the kernel's `numB` scalar:
    /// `num_b + ((global_nb − num_b) mod WARP)` — congruent to the global
    /// boundary count modulo the warp width, so state-array lane address
    /// patterns match the unsharded launch.
    stride: usize,
}

struct SlabBoundary {
    bidx: BufId,
    material: BufId,
    /// Boundary points owned by this slab (the launch size).
    num_b: usize,
    fd: Option<SlabFd>,
}

struct Slab {
    prev: BufId,
    curr: BufId,
    next: BufId,
    nbrs: BufId,
    beta: BufId,
    bnd: Option<SlabBoundary>,
}

/// Hand-written kernels running Z-slab sharded across multiple devices.
pub struct ShardedSim {
    /// The devices, slab order (exposed for telemetry/profiling inspection).
    pub devices: Vec<Device>,
    setup: SimSetup,
    precision: Precision,
    part: SlabPartition,
    plane: usize,
    volume: Prepared,
    boundary: Prepared,
    boundary_kind: BoundaryKernel,
    slabs: Vec<Slab>,
    steps_done: usize,
}

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

impl ShardedSim {
    /// Builds a sharded backend over a balanced partition across `devices`.
    pub fn new(
        setup: SimSetup,
        precision: Precision,
        boundary_kind: BoundaryKernel,
        devices: Vec<Device>,
    ) -> Self {
        let part = SlabPartition::balanced(setup.dims().nz, devices.len());
        Self::with_partition(setup, precision, boundary_kind, devices, part)
    }

    /// Builds a sharded backend over an explicit partition (one device per
    /// slab).
    pub fn with_partition(
        setup: SimSetup,
        precision: Precision,
        boundary_kind: BoundaryKernel,
        mut devices: Vec<Device>,
        part: SlabPartition,
    ) -> Self {
        assert_eq!(devices.len(), part.device_count(), "one device per slab");
        assert_eq!(part.nz(), setup.dims().nz, "partition must cover the grid");
        crate::contracts::register_all();
        let real = precision.kind();
        let dims = *setup.dims();
        let plane = dims.nx * dims.ny;
        let nb = setup.num_b();
        // Proof-licensed halo widths (DESIGN.md §9): the slab layout
        // provides exactly one exchanged plane per side, so the volume
        // kernel's statically proven z-reach must fit one plane and the
        // boundary kernel must be a pure gather (zero reach). A kernel
        // with a wider stencil is rejected here, at shard time, instead
        // of silently reading stale halo data.
        let volume_src = handwritten::volume_slab_kernel().resolve_real(real);
        crate::contracts::check_slab_halo(
            &volume_src,
            &crate::contracts::launch_contract(&volume_src),
            (1, 1),
        )
        .unwrap_or_else(|e| panic!("slab volume kernel fails the halo proof: {e}"));
        let boundary_src = match boundary_kind {
            BoundaryKernel::FiMm { beta_constant } => {
                handwritten::fimm_kernel(beta_constant).resolve_real(real)
            }
            BoundaryKernel::FdMm => handwritten::fdmm_kernel().resolve_real(real),
        };
        let boundary_reach = crate::contracts::check_slab_halo(
            &boundary_src,
            &crate::contracts::launch_contract(&boundary_src),
            (1, 1),
        )
        .unwrap_or_else(|e| panic!("boundary kernel fails the halo proof: {e}"));
        // Same process-wide artifact cache as the single-device path: all
        // devices share one Arc'd prepared artifact per kernel.
        let volume = (*vgpu::compile_cached(&handwritten::volume_slab_kernel().resolve_real(real))
            .expect("slab volume kernel compiles"))
        .clone();
        let boundary = match boundary_kind {
            BoundaryKernel::FiMm { beta_constant } => {
                (*vgpu::compile_cached(&handwritten::fimm_kernel(beta_constant).resolve_real(real))
                    .expect("FI-MM kernel compiles"))
                .clone()
            }
            BoundaryKernel::FdMm => {
                (*vgpu::compile_cached(&handwritten::fdmm_kernel().resolve_real(real))
                    .expect("FD-MM kernel compiles"))
                .clone()
            }
        };
        let bcuts = checked_boundary_cuts(
            &part,
            plane,
            &setup.room.boundary_indices,
            boundary_reach,
            (1, 1),
        )
        .unwrap_or_else(|e| panic!("boundary list split fails the footprint check: {e}"));
        let fa: Option<FdArrays<f64>> = match boundary_kind {
            BoundaryKernel::FdMm => {
                Some(FdArrays::from_coeffs(setup.fd.as_ref().expect("FD-MM coefficients")))
            }
            _ => None,
        };
        let mut slabs = Vec::with_capacity(part.device_count());
        for d in 0..part.device_count() {
            let dev = &mut devices[d];
            let local = part.local_planes(d) * plane;
            let owned = part.owned(d) * plane;
            let start = part.first_owned(d) * plane;
            let prev = dev.create_buffer_zeroed(real, local);
            let curr = dev.create_buffer_zeroed(real, local);
            let next = dev.create_buffer_zeroed(real, local);
            // Owned nbrs planes move through an accounted region write (the
            // slices sum to the unsharded upload); the halo planes stay
            // zero — the slab volume kernel never reads them.
            let nbrs = dev.create_buffer_zeroed(lift::prelude::ScalarKind::I32, local);
            dev.write_region(
                nbrs,
                plane,
                BufData::from(setup.room.nbrs[start..start + owned].to_vec()),
            );
            // β is replicated: accounted once on device 0, replicas under
            // vgpu.halo.replicate.* (exactly-once host-transfer totals).
            let beta = if d == 0 {
                dev.upload(precision.buf(&setup.betas))
            } else {
                dev.upload_replica(precision.buf(&setup.betas))
            };
            let (cb, ce) = (bcuts[d], bcuts[d + 1]);
            let num_b = ce - cb;
            let fd_tables = fa.as_ref().map(|fa| {
                if d == 0 {
                    (
                        dev.upload(precision.buf(&fa.bi)),
                        dev.upload(precision.buf(&fa.d)),
                        dev.upload(precision.buf(&fa.di)),
                        dev.upload(precision.buf(&fa.f)),
                    )
                } else {
                    (
                        dev.upload_replica(precision.buf(&fa.bi)),
                        dev.upload_replica(precision.buf(&fa.d)),
                        dev.upload_replica(precision.buf(&fa.di)),
                        dev.upload_replica(precision.buf(&fa.f)),
                    )
                }
            });
            let bnd = (num_b > 0).then(|| {
                let shift = part.elem_shift(d, plane);
                let local_bidx: Vec<i32> = setup.room.boundary_indices[cb..ce]
                    .iter()
                    .map(|&i| (i as isize - shift) as i32)
                    .collect();
                let bidx = dev.upload(BufData::from(local_bidx));
                let material = dev.upload(BufData::from(setup.room.material[cb..ce].to_vec()));
                let fd = fd_tables.map(|(bi, dd, di, f)| {
                    let stride = num_b + (nb - num_b) % WARP;
                    let state = setup.mb * stride;
                    SlabFd {
                        bi,
                        d: dd,
                        di,
                        f,
                        g1: dev.create_buffer_zeroed(real, state),
                        v1: dev.create_buffer_zeroed(real, state),
                        v2: dev.create_buffer_zeroed(real, state),
                        stride,
                    }
                });
                SlabBoundary { bidx, material, num_b, fd }
            });
            slabs.push(Slab { prev, curr, next, nbrs, beta, bnd });
        }
        ShardedSim {
            devices,
            setup,
            precision,
            part,
            plane,
            volume,
            boundary,
            boundary_kind,
            slabs,
            steps_done: 0,
        }
    }

    /// The shared setup.
    pub fn setup(&self) -> &SimSetup {
        &self.setup
    }

    /// The slab partition.
    pub fn partition(&self) -> &SlabPartition {
        &self.part
    }

    /// The slab owning global plane `z`.
    fn owner_of_plane(&self, z: usize) -> usize {
        (0..self.part.device_count())
            .find(|&d| z < self.part.cuts()[d + 1])
            .expect("plane inside grid")
    }

    /// Injects an impulse (released initial displacement on `curr` and
    /// `prev`, matching the single-device backend). Accounted as full-field
    /// region reads and writes so host-transfer byte totals stay identical
    /// to [`crate::vgpu_sim::HandwrittenSim::impulse`].
    pub fn impulse(&mut self, x: usize, y: usize, z: usize, amp: f64) {
        let idx = self.setup.dims().idx(x, y, z);
        let owner = self.owner_of_plane(z);
        for which in 0..2 {
            for d in 0..self.part.device_count() {
                let buf = if which == 0 { self.slabs[d].curr } else { self.slabs[d].prev };
                let owned = self.part.owned(d) * self.plane;
                let mut data = self.devices[d].read_region(buf, self.plane, owned);
                if d == owner {
                    data.set(
                        self.part.to_local(d, self.plane, idx) - self.plane,
                        self.precision.val(amp),
                    );
                }
                self.devices[d].write_region(buf, self.plane, data);
            }
        }
    }

    /// Advances one step: halo-exchange the `curr` seams, launch the slab
    /// volume kernel on every device, launch the boundary kernel on every
    /// device owning boundary points, then rotate.
    pub fn step(&mut self, mode: ExecMode) -> ShardStepStats {
        let dims = *self.setup.dims();
        let l = self.precision.val(self.setup.l);
        let l2 = self.precision.val(self.setup.l2);
        let currs: Vec<BufId> = self.slabs.iter().map(|s| s.curr).collect();
        vgpu::halo_exchange(&mut self.devices, &currs, &self.part, self.plane);
        let mut stats = Vec::with_capacity(self.slabs.len());
        for (d, slab) in self.slabs.iter().enumerate() {
            let owned = self.part.owned(d);
            let vstats = self.devices[d]
                .launch(
                    &self.volume,
                    &[
                        Arg::Buf(slab.next),
                        Arg::Buf(slab.curr),
                        Arg::Buf(slab.prev),
                        Arg::Buf(slab.nbrs),
                        Arg::Val(l2),
                        Arg::Val(Value::I32(dims.nx as i32)),
                        Arg::Val(Value::I32(dims.ny as i32)),
                        Arg::Val(Value::I32(self.part.local_planes(d) as i32)),
                    ],
                    &[dims.nx, dims.ny, owned],
                    mode,
                )
                .expect("slab volume launch");
            let bstats = slab.bnd.as_ref().map(|b| match self.boundary_kind {
                BoundaryKernel::FiMm { .. } => self.devices[d]
                    .launch(
                        &self.boundary,
                        &[
                            Arg::Buf(b.bidx),
                            Arg::Buf(slab.nbrs),
                            Arg::Buf(b.material),
                            Arg::Buf(slab.beta),
                            Arg::Buf(slab.next),
                            Arg::Buf(slab.prev),
                            Arg::Val(l),
                            Arg::Val(Value::I32(b.num_b as i32)),
                        ],
                        &[b.num_b],
                        mode,
                    )
                    .expect("sharded FI-MM launch"),
                BoundaryKernel::FdMm => {
                    let fd = b.fd.as_ref().expect("FD buffers");
                    self.devices[d]
                        .launch(
                            &self.boundary,
                            &[
                                Arg::Buf(b.bidx),
                                Arg::Buf(slab.nbrs),
                                Arg::Buf(b.material),
                                Arg::Buf(slab.beta),
                                Arg::Buf(fd.bi),
                                Arg::Buf(fd.d),
                                Arg::Buf(fd.di),
                                Arg::Buf(fd.f),
                                Arg::Buf(slab.next),
                                Arg::Buf(slab.prev),
                                Arg::Buf(fd.g1),
                                Arg::Buf(fd.v1),
                                Arg::Buf(fd.v2),
                                Arg::Val(l),
                                Arg::Val(Value::I32(fd.stride as i32)),
                                Arg::Val(Value::I32(self.setup.mb as i32)),
                            ],
                            &[b.num_b],
                            mode,
                        )
                        .expect("sharded FD-MM launch")
                }
            });
            stats.push((vstats, bstats));
        }
        for slab in &mut self.slabs {
            if let Some(SlabBoundary { fd: Some(fd), .. }) = &mut slab.bnd {
                std::mem::swap(&mut fd.v1, &mut fd.v2);
            }
            let old_prev = slab.prev;
            slab.prev = slab.curr;
            slab.curr = slab.next;
            slab.next = old_prev;
        }
        self.steps_done += 1;
        stats
    }

    /// Runs `n` steps in fast mode.
    pub fn run(&mut self, n: usize) {
        for _ in 0..n {
            self.step(ExecMode::Fast);
        }
    }

    /// Bytes exchanged across all seams per step (the perf model's
    /// communication term): two planes per seam.
    pub fn halo_bytes_per_step(&self) -> u64 {
        let eb = match self.precision {
            Precision::Single => 4,
            Precision::Double => 8,
        };
        2 * (self.part.device_count() as u64 - 1) * self.plane as u64 * eb
    }

    fn assemble(&self, pick: impl Fn(&Slab) -> BufId) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.setup.dims().total());
        for (d, slab) in self.slabs.iter().enumerate() {
            let owned = self.part.owned(d) * self.plane;
            out.extend(self.devices[d].read_region(pick(slab), self.plane, owned).to_f64_vec());
        }
        out
    }

    /// Reads the current pressure field (owned regions, assembled in
    /// global order; `Σ bytes` equals the single-device readback).
    pub fn read_curr(&self) -> Vec<f64> {
        self.assemble(|s| s.curr)
    }

    /// Reads the previous pressure field.
    pub fn read_prev(&self) -> Vec<f64> {
        self.assemble(|s| s.prev)
    }

    /// Pressure at a point.
    pub fn sample(&self, x: usize, y: usize, z: usize) -> f64 {
        let d = self.owner_of_plane(z);
        let local = self.part.to_local(d, self.plane, self.setup.dims().idx(x, y, z));
        self.devices[d].read_region(self.slabs[d].curr, local, 1).get(0).as_f64()
    }

    /// Field energy proxy (see [`field_energy`]).
    pub fn energy(&self) -> f64 {
        field_energy(&self.read_curr(), &self.read_prev())
    }

    /// Steps executed.
    pub fn steps_done(&self) -> usize {
        self.steps_done
    }

    /// The per-slab devices (for event/telemetry inspection).
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{GridDims, RoomShape};
    use crate::sim::{SimConfig, SimSetup};
    use crate::vgpu_sim::HandwrittenSim;

    fn devices(n: usize) -> Vec<Device> {
        (0..n).map(|_| Device::gtx780()).collect()
    }

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
    fn sharded_fimm_matches_single_device_bitwise() {
        let s = SimSetup::new(&SimConfig::fimm(GridDims::cube(12), RoomShape::Box));
        let mut single = HandwrittenSim::new(
            s.clone(),
            Precision::Double,
            BoundaryKernel::FiMm { beta_constant: false },
            Device::gtx780(),
        );
        let mut sharded = ShardedSim::new(
            s,
            Precision::Double,
            BoundaryKernel::FiMm { beta_constant: false },
            devices(3),
        );
        single.impulse(6, 6, 6, 1.0);
        sharded.impulse(6, 6, 6, 1.0);
        single.run(12);
        sharded.run(12);
        let a = single.read_curr();
        let b = sharded.read_curr();
        assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()), "fields diverge");
    }

    #[test]
    fn sharded_fdmm_matches_single_device_bitwise() {
        let s = SimSetup::new(&SimConfig::fdmm(GridDims::cube(12), RoomShape::Dome));
        let mut single = HandwrittenSim::new(
            s.clone(),
            Precision::Single,
            BoundaryKernel::FdMm,
            Device::gtx780(),
        );
        let mut sharded = ShardedSim::new(s, Precision::Single, BoundaryKernel::FdMm, devices(2));
        single.impulse(6, 6, 3, 1.0);
        sharded.impulse(6, 6, 3, 1.0);
        single.run(10);
        sharded.run(10);
        let a = single.read_curr();
        let b = sharded.read_curr();
        assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()), "fields diverge");
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
