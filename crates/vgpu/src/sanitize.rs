//! Shadow-memory sanitizer: the dynamic half of the access-footprint story.
//!
//! The static analysis ([`lift::footprint`]) *proves* per-site halo widths
//! and host-program initialization order. This module *observes* them: under
//! `VGPU_SANITIZE=shadow` every device buffer carries one shadow byte per
//! element tracking whether that element is **uninitialized**, was
//! **initialized** by an upload/store, or is a **halo mirror** of a region
//! owned by another buffer. Every engine's gather checks the shadow and
//! every scatter updates it, so
//!
//! * a load of a never-written element is reported as an *uninit read*
//!   (the dynamic witness of the host read-before-write pass), and
//! * a load of a halo mirror whose source buffer has been written since the
//!   last exchange is reported as a *stale-halo read* (the dynamic witness
//!   of the proven halo widths: a sharded schedule that exchanges too little
//!   or too late trips it on the exact seam element), and
//! * a store to an element another work-item of the same launch leg already
//!   stored to is reported as a *write race* (the dynamic witness of the
//!   in-place primitives' contract: work-items write disjoint elements).
//!   Each element carries its last writer's tag — the leg number the
//!   runtime handed the executor ([`Runtime::next_leg`]) and the work-item
//!   id — so one work-item may store an element twice, and two parameters
//!   bound to one buffer share one shadow.
//!
//! Staleness is tracked with per-buffer version clocks: each mutation bumps
//! the owner's [`Shadow::version`]; a tagged halo write
//! ([`crate::Device::write_halo_region_tagged`]) records the source's clock
//! in a [`Mirror`], and a seam load compares the clock against that record.
//!
//! Findings are deduplicated per (kernel, site, kind, buffer) into the
//! launching runtime's [`Findings`] and counted under `vgpu.sanitize.*` in
//! its registry; each also lands in the launch's own [`Findings`], which
//! decide whether the launch fails: a write race fails it on every engine,
//! and the differential engine fails on any finding its own legs raised —
//! the CI gate: a `VGPU_ENGINE=diff` + `VGPU_SANITIZE=shadow` leg fails
//! loudly on the first stale or uninit read or write race anywhere in the
//! suite. Whether buffers carry shadow at all is the runtime's `shadow`
//! setting (`VGPU_SANITIZE=shadow` for the default runtime), fixed when it
//! is built.
//!
//! With `VGPU_SANITIZE=off` (the default) no shadow is allocated and every
//! hook is one `Option` test on buffer metadata — the `telemetry_overhead`
//! bench holds that path to ≤2% of the unsanitized runtime.

use crate::exec::Prepared;
use crate::runtime::Runtime;
use parking_lot::Mutex;
use std::collections::hash_map::Entry;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

/// Shadow state: element has never been written on this device.
const UNINIT: u8 = 0;
/// Shadow state: element was written by an upload, region write or store.
const INIT: u8 = 1;
/// Shadow state: element mirrors a halo region owned by another buffer.
const HALO: u8 = 2;

/// One halo mirror: `len` elements at `off` copied from a source buffer
/// whose version clock read `seen` at copy time.
struct Mirror {
    off: usize,
    len: usize,
    src: Arc<AtomicU64>,
    seen: u64,
}

/// Capability to tag a halo write with its source's version clock. Obtained
/// from the *source* buffer ([`crate::Device::halo_provenance`]) and handed
/// to [`crate::Device::write_halo_region_tagged`] on the destination.
pub struct HaloProvenance {
    pub(crate) src: Arc<AtomicU64>,
    pub(crate) seen: u64,
}

/// Per-buffer shadow memory: one state byte and one writer tag per element,
/// a version clock bumped on every mutation, and the halo mirrors currently
/// live in the buffer. All methods are `&self` and thread-safe — the
/// interpreter hooks run on rayon workers.
pub(crate) struct Shadow {
    states: Box<[AtomicU8]>,
    /// The last kernel store's writer: leg number in the high 32 bits,
    /// work-item in the low ones (0 before any store; legs start at 1).
    writers: Box<[AtomicU64]>,
    version: Arc<AtomicU64>,
    mirrors: Mutex<Vec<Mirror>>,
}

/// What a shadow check found wrong with one load or store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The element was never written on this device.
    UninitRead,
    /// The element mirrors a halo region whose source buffer has been
    /// written since the copy — the mirror no longer matches the owner.
    StaleHaloRead,
    /// Another work-item of the same launch leg stored to the element.
    WriteRace,
}

impl FaultKind {
    fn label(self) -> &'static str {
        match self {
            FaultKind::UninitRead => "uninit-read",
            FaultKind::StaleHaloRead => "stale-halo-read",
            FaultKind::WriteRace => "write-race",
        }
    }
}

impl Shadow {
    pub(crate) fn new(len: usize, initialized: bool) -> Shadow {
        let fill = if initialized { INIT } else { UNINIT };
        let states = (0..len).map(|_| AtomicU8::new(fill)).collect();
        let writers = (0..len).map(|_| AtomicU64::new(0)).collect();
        let (version, mirrors) = (Arc::new(AtomicU64::new(0)), Mutex::new(Vec::new()));
        Shadow { states, writers, version, mirrors }
    }

    fn bump(&self) {
        self.version.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks `[off, off+len)` initialized (upload, region write). Any halo
    /// mirror the region overwrites is dissolved back into owned data.
    pub(crate) fn mark_init(&self, off: usize, len: usize) {
        for s in &self.states[off..(off + len).min(self.states.len())] {
            s.store(INIT, Ordering::Relaxed);
        }
        self.mirrors.lock().retain(|m| m.off + m.len <= off || off + len <= m.off);
        self.bump();
    }

    /// Marks `[off, off+len)` as a halo mirror of the source behind `prov`
    /// (or as plain initialized data when the copy carries no provenance).
    pub(crate) fn mark_halo(&self, off: usize, len: usize, prov: Option<HaloProvenance>) {
        let Some(prov) = prov else {
            return self.mark_init(off, len);
        };
        for s in &self.states[off..(off + len).min(self.states.len())] {
            s.store(HALO, Ordering::Relaxed);
        }
        let mut mirrors = self.mirrors.lock();
        // Re-exchanging the same seam replaces the record rather than
        // growing the list a step at a time.
        if let Some(m) = mirrors.iter_mut().find(|m| m.off == off && m.len == len) {
            m.src = prov.src;
            m.seen = prov.seen;
        } else {
            mirrors.push(Mirror { off, len, src: prov.src, seen: prov.seen });
        }
        // Deliberately no version bump: a halo write lands in halo planes,
        // which are never the *source* of another buffer's mirror, so it
        // cannot invalidate anything. Bumping here would mark sibling
        // mirrors recorded earlier in the same exchange round as stale.
    }

    /// This buffer's version clock, sampled now — tag for halo copies
    /// *from* this buffer.
    pub(crate) fn provenance(&self) -> HaloProvenance {
        HaloProvenance { src: self.version.clone(), seen: self.version.load(Ordering::Relaxed) }
    }

    /// Records one kernel store by `writer` ([`SanCtx::note_store`]): the
    /// element is now owned, initialized data. True when another work-item
    /// of the same leg stored to it before — a write race.
    #[inline]
    pub(crate) fn note_store(&self, i: usize, writer: u64) -> bool {
        self.bump();
        let (Some(s), Some(w)) = (self.states.get(i), self.writers.get(i)) else {
            return false;
        };
        s.store(INIT, Ordering::Relaxed);
        let prev = w.swap(writer, Ordering::Relaxed);
        prev != writer && prev >> 32 == writer >> 32
    }

    /// Classifies one kernel load. `None` means the element is clean.
    pub(crate) fn classify_load(&self, i: usize) -> Option<FaultKind> {
        match self.states.get(i)?.load(Ordering::Relaxed) {
            INIT => None,
            HALO => {
                let mirrors = self.mirrors.lock();
                let stale = mirrors
                    .iter()
                    .find(|m| m.off <= i && i < m.off + m.len)
                    .is_some_and(|m| m.src.load(Ordering::Relaxed) != m.seen);
                stale.then_some(FaultKind::StaleHaloRead)
            }
            _ => Some(FaultKind::UninitRead),
        }
    }
}

/// One launch leg's context, threaded into the interpreter hot loops so a
/// finding can name the kernel, site and buffer it fired on, and land in the
/// launching runtime and in the launch's own findings.
#[derive(Clone, Copy)]
pub(crate) struct SanCtx<'a> {
    pub(crate) prep: &'a Prepared,
    pub(crate) rt: &'a Runtime,
    /// This leg's number ([`Runtime::next_leg`]).
    pub(crate) leg: u32,
    /// The launch's own findings, which decide whether it fails.
    pub(crate) found: &'a Findings,
    /// Engine label of the executor running the leg (`tree` or `tape`).
    pub(crate) engine: &'static str,
}

impl SanCtx<'_> {
    /// Store hook: records work-item `item`'s store to element `i` of
    /// parameter `param`'s shadow `sh` and reports a write race. The writer
    /// tag is this leg and the item (a launch has fewer than 2³² items).
    #[inline(always)]
    pub(crate) fn note_store(&self, sh: &Shadow, param: usize, site: u32, i: usize, item: u64) {
        let writer = (self.leg as u64) << 32 | (item & 0xffff_ffff);
        if sh.note_store(i, writer) {
            self.report(FaultKind::WriteRace, param, site, i as u64);
        }
    }

    /// Reports a finding on parameter `param` with kernel/site provenance.
    /// Call only when the buffer has a shadow.
    #[inline(never)]
    pub(crate) fn report(&self, kind: FaultKind, param: usize, site: u32, element: u64) {
        let [_, uninit, stale, races] = &self.rt.counters.sanitize;
        match kind {
            FaultKind::UninitRead => uninit.inc(),
            FaultKind::StaleHaloRead => stale.inc(),
            FaultKind::WriteRace => races.inc(),
        }
        let buffer =
            self.prep.params.get(param).map_or_else(|| format!("arg{param}"), |p| p.name.clone());
        let (kernel, engine) = (self.prep.name.clone(), self.engine);
        let f = Finding { kind, kernel, site, buffer, element, engine };
        self.found.add(f.clone());
        self.rt.findings.add(f);
    }
}

/// One deduplicated sanitizer finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// What kind of bad access this was.
    pub kind: FaultKind,
    /// Kernel the access belongs to.
    pub kernel: String,
    /// Stable load/store-site id within the kernel (matches the static
    /// verifier's site numbering).
    pub site: u32,
    /// Name of the buffer parameter that was accessed.
    pub buffer: String,
    /// Flat element index: the lowest of the site's offending accesses
    /// (so the report does not depend on how a launch was cut).
    pub element: u64,
    /// Engine that observed it (`tree` or `tape`).
    pub engine: &'static str,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} in `{}` site {}: buffer `{}` element {} ({} engine)",
            self.kind.label(),
            self.kernel,
            self.site,
            self.buffer,
            self.element,
            self.engine
        )
    }
}

#[derive(Default)]
struct FindingSet {
    findings: Vec<Finding>,
    /// Index into `findings` per (kernel, site, kind, buffer).
    seen: std::collections::HashMap<(String, u32, FaultKind, String), usize>,
}

/// One runtime's or one launch's sanitizer findings, deduplicated per
/// (kernel, site, kind, buffer).
#[derive(Default)]
pub struct Findings(Mutex<FindingSet>);

impl Findings {
    /// Every finding so far.
    pub fn all(&self) -> Vec<Finding> {
        self.0.lock().findings.clone()
    }

    fn add(&self, f: Finding) {
        let mut set = self.0.lock();
        let FindingSet { findings, seen } = &mut *set;
        let key = (f.kernel.clone(), f.site, f.kind, f.buffer.clone());
        match seen.entry(key) {
            Entry::Occupied(at) => {
                let kept = &mut findings[*at.get()];
                kept.element = kept.element.min(f.element);
            }
            Entry::Vacant(at) => {
                at.insert(findings.len());
                findings.push(f);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shadow_tracks_uninit_then_init() {
        let sh = Shadow::new(4, false);
        assert_eq!(sh.classify_load(2), Some(FaultKind::UninitRead));
        sh.note_store(2, 1 << 32);
        assert_eq!(sh.classify_load(2), None);
        // Out-of-range indices are someone else's (bounds checker's) problem.
        assert_eq!(sh.classify_load(99), None);
    }

    #[test]
    fn halo_mirror_goes_stale_when_source_moves() {
        let owner = Shadow::new(8, true);
        let mirror = Shadow::new(8, true);
        mirror.mark_halo(0, 2, Some(owner.provenance()));
        assert_eq!(mirror.classify_load(0), None, "fresh mirror is clean");
        owner.note_store(5, 1 << 32); // owner mutated after the exchange
        assert_eq!(mirror.classify_load(1), Some(FaultKind::StaleHaloRead));
        // Re-exchange refreshes the mirror in place.
        mirror.mark_halo(0, 2, Some(owner.provenance()));
        assert_eq!(mirror.classify_load(0), None);
        // A plain write over the seam dissolves the mirror entirely.
        owner.note_store(5, 2 << 32);
        mirror.mark_init(0, 2);
        assert_eq!(mirror.classify_load(0), None);
    }

    #[test]
    fn a_race_is_two_work_items_of_one_leg() {
        let sh = Shadow::new(4, false);
        let (leg1, leg2) = (1u64 << 32, 2u64 << 32);
        assert!(!sh.note_store(1, leg1 | 7));
        assert!(!sh.note_store(1, leg1 | 7), "one work-item storing an element twice");
        assert!(sh.note_store(1, leg1 | 8), "a second work-item of the leg");
        assert!(!sh.note_store(1, leg2 | 9), "a later leg");
        assert!(!sh.note_store(99, leg2 | 10), "out of range: the bounds check's problem");
    }

    #[test]
    fn findings_dedupe_by_site_and_land_in_their_runtime() {
        let k = lift::kast::Kernel {
            name: "san_test_dedupe".into(),
            params: vec![lift::kast::KernelParam::global_buf("a", lift::prelude::ScalarKind::F32)],
            body: Vec::new(),
            work_dim: 1,
        };
        let prep = crate::exec::prepare(&k).unwrap();
        let rt = Runtime::new(crate::runtime::Settings::default());
        let found = Findings::default();
        let san =
            SanCtx { prep: &prep, rt: &rt, leg: rt.next_leg(), found: &found, engine: "tree" };
        san.report(FaultKind::UninitRead, 0, 7, 4);
        san.report(FaultKind::UninitRead, 0, 7, 3);
        assert_eq!(rt.findings.all().len(), 1);
        assert_eq!(rt.findings.all()[0].element, 3, "the lowest element");
        assert_eq!(found.all(), rt.findings.all(), "the launch keeps its own");
        assert_eq!(rt.findings.all()[0].buffer, "a");
        assert_eq!(rt.registry.counter("vgpu.sanitize.uninit_reads").get(), 2);
        assert!(crate::runtime().findings.all().is_empty());
    }
}
