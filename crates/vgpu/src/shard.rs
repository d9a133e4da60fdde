//! Z-slab domain sharding across multiple [`Device`]s (DESIGN.md §12): the
//! partition and the seam exchange. One consumer places kernels and buffers
//! on them — `room_acoustics::Simulation`; LIFT host programs
//! ([`crate::host_exec`]) are single-device.
//!
//! A 3-D grid of `nz` z-planes (`plane = nx·ny` elements each) is
//! partitioned into contiguous slabs, one per device. Every device
//! allocates its field buffers with two extra *halo planes* — local plane
//! 0 below and local plane `owned+1` above its owned range — so the
//! 7-point stencil can read `z±1` neighbours without leaving the local
//! allocation. Slab kernels are the unmodified grid kernels with
//! `get_global_id(2)` shifted by +1 (`Kernel::shift_gid`), launched over
//! `[nx, ny, owned]` work-items.
//!
//! Per step, the one-plane-deep edges of each seam are exchanged as
//! explicit device-to-device copies *before* the stencil launch. Halo
//! traffic is accounted once per copy, on the destination device, under
//! `vgpu.halo.{bytes,copies}` ([`Device::write_halo_region_tagged`]) — never
//! under `vgpu.xfer.*`, which keeps a sharded run's host-transfer totals
//! bit-comparable with the single-device leg.
//!
//! The ownership convention makes the sharded counters sum exactly to the
//! unsharded ones: slab 0's owned range starts at global plane 0 and the
//! last slab's ends at `nz` (the grid's outer halo planes are *owned*,
//! fabricated zero planes beyond them are never accessed), so
//! `Σ owned·plane = nx·ny·nz` work-items — identical to the single-device
//! volume launch.

use crate::buffer::BufData;
use crate::device::{BufId, Device};

/// A partition of `nz` z-planes into contiguous owned slabs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlabPartition {
    nz: usize,
    /// `cuts[d]..cuts[d+1]` is device `d`'s owned global plane range;
    /// `cuts[0] = 0`, `cuts[D] = nz`, strictly increasing.
    cuts: Vec<usize>,
}

impl SlabPartition {
    /// A balanced partition: plane counts differ by at most one, earlier
    /// slabs take the remainder.
    pub fn balanced(nz: usize, devices: usize) -> SlabPartition {
        assert!(devices >= 1, "need at least one device");
        assert!(nz >= devices, "cannot give {devices} devices at least one of {nz} planes");
        let (base, rem) = (nz / devices, nz % devices);
        let mut cuts = Vec::with_capacity(devices + 1);
        let mut at = 0;
        cuts.push(0);
        for d in 0..devices {
            at += base + usize::from(d < rem);
            cuts.push(at);
        }
        SlabPartition { nz, cuts }
    }

    /// A partition from explicit cut planes (`cuts[0] = 0`,
    /// `cuts[last] = nz`, strictly increasing). Panics when malformed.
    pub fn from_cuts(nz: usize, cuts: Vec<usize>) -> SlabPartition {
        assert!(cuts.len() >= 2, "need at least one slab");
        assert_eq!(cuts[0], 0, "first cut must be 0");
        assert_eq!(*cuts.last().unwrap(), nz, "last cut must be nz");
        assert!(cuts.windows(2).all(|w| w[0] < w[1]), "cuts must be strictly increasing");
        SlabPartition { nz, cuts }
    }

    /// Number of slabs.
    pub fn device_count(&self) -> usize {
        self.cuts.len() - 1
    }

    /// Total plane count of the partitioned grid.
    pub fn nz(&self) -> usize {
        self.nz
    }

    /// The cut planes (`device_count() + 1` entries).
    pub fn cuts(&self) -> &[usize] {
        &self.cuts
    }

    /// First global plane owned by slab `d`.
    pub fn first_owned(&self, d: usize) -> usize {
        self.cuts[d]
    }

    /// Number of planes owned by slab `d`.
    pub fn owned(&self, d: usize) -> usize {
        self.cuts[d + 1] - self.cuts[d]
    }

    /// Planes in slab `d`'s local allocation: owned + 2 halo planes.
    pub fn local_planes(&self, d: usize) -> usize {
        self.owned(d) + 2
    }
}

/// Exchanges the curr-field seam planes between neighbouring slabs:
/// for every seam `d | d+1`, device `d`'s top owned plane is copied into
/// device `d+1`'s bottom halo plane, and device `d+1`'s bottom owned
/// plane into device `d`'s top halo plane. `bufs[d]` is the field buffer
/// on device `d` (laid out as [`SlabPartition::local_planes`] planes of
/// `plane` elements). Each plane copy is accounted once, on the
/// destination device, under `vgpu.halo.{bytes,copies}`, and shows up as
/// a `DevToDev` transfer span on the destination's transfer track.
pub fn halo_exchange(devices: &mut [Device], bufs: &[BufId], part: &SlabPartition, plane: usize) {
    assert_eq!(devices.len(), part.device_count());
    assert_eq!(bufs.len(), part.device_count());
    for d in 0..part.device_count() - 1 {
        // Device d's top owned plane is local plane `owned(d)`; its top
        // halo is `owned(d)+1`. Device d+1's bottom owned plane is local
        // plane 1; its bottom halo is 0.
        let top_owned: BufData = devices[d].peek_region(bufs[d], part.owned(d) * plane, plane);
        let bottom_owned: BufData = devices[d + 1].peek_region(bufs[d + 1], plane, plane);
        // Tag each received plane with the sender's sanitizer version
        // clock, so a later step that reads the seam without a fresh
        // exchange is reported as a stale-halo read.
        let down_prov = devices[d].halo_provenance(bufs[d]);
        let up_prov = devices[d + 1].halo_provenance(bufs[d + 1]);
        devices[d + 1].write_halo_region_tagged(bufs[d + 1], 0, top_owned, down_prov);
        devices[d].write_halo_region_tagged(
            bufs[d],
            (part.owned(d) + 1) * plane,
            bottom_owned,
            up_prov,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lift::prelude::ScalarKind;

    #[test]
    fn balanced_partition_covers_grid() {
        let p = SlabPartition::balanced(16, 3);
        assert_eq!(p.cuts(), &[0, 6, 11, 16]);
        assert_eq!((0..3).map(|d| p.owned(d)).sum::<usize>(), 16);
        assert_eq!(p.local_planes(0), 8);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn malformed_cuts_rejected() {
        SlabPartition::from_cuts(8, vec![0, 5, 5, 8]);
    }

    #[test]
    fn halo_exchange_moves_seam_planes_and_counts_once() {
        let plane = 4;
        let part = SlabPartition::from_cuts(4, vec![0, 2, 4]);
        // A runtime of its own: the deltas below are exact.
        let rt = crate::runtime::Runtime::new(crate::runtime().settings);
        let dev = || Device::with_runtime(crate::DeviceProfile::gtx780(), rt.clone());
        let mut devices = vec![dev(), dev()];
        // Device 0: 2 owned + 2 halo planes; fill owned planes with 1.0.
        let b0 = devices[0].create_buffer(ScalarKind::F32, part.local_planes(0) * plane);
        let b1 = devices[1].create_buffer(ScalarKind::F32, part.local_planes(1) * plane);
        devices[0].write_region(b0, plane, BufData::F32(vec![1.0; 2 * plane]));
        devices[1].write_region(b1, plane, BufData::F32(vec![2.0; 2 * plane]));
        halo_exchange(&mut devices, &[b0, b1], &part, plane);
        let count = |name| rt.registry.counter(name).get();
        assert_eq!(count("vgpu.halo.copies"), 2);
        assert_eq!(count("vgpu.halo.bytes"), 2 * (plane as u64) * 4);
        assert_eq!(count("vgpu.halo.replicate.transfers"), 0);
        // Device 0's top halo now holds device 1's bottom owned plane.
        let top_halo = devices[0].peek_region(b0, 3 * plane, plane);
        assert_eq!(top_halo, BufData::F32(vec![2.0; plane]));
        // Device 1's bottom halo holds device 0's top owned plane.
        let bottom_halo = devices[1].peek_region(b1, 0, plane);
        assert_eq!(bottom_halo, BufData::F32(vec![1.0; plane]));
    }
}
