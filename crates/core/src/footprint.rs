//! Static per-site access-footprint analysis (DESIGN.md §9).
//!
//! For every global-buffer access site the bounds checker visits
//! ([`crate::verify`]), this module classifies the symbolic index map into
//! a *footprint shape* relative to the work-item's grid cell:
//!
//! * [`Shape::Stencil`] — a gid-linear access `lin(gid + gid_offset) +
//!   Σ o_d·stride_d` over the canonical row-major grid; the per-axis
//!   constant offsets `o_d` are recovered exactly.
//! * [`Shape::Gather`] — an access at `table[...] + Σ o_d·stride_d`: the
//!   cell named by a gather table (boundary index lists), plus per-axis
//!   constant offsets.
//! * [`Shape::Flat`] — no per-axis decomposition, but a sound symbolic
//!   interval (list-positional state tables such as `g1[b·numB + i]`).
//! * [`Shape::Opaque`] — nothing derivable.
//!
//! The payoff is [`KernelFootprints::required_halo`]: the halo width a
//! domain-sharded launch must exchange per axis, *proven* from what the
//! kernel actually reads and writes — consumed by the sharding layer
//! instead of the historical "one halo plane" assumption. A companion
//! pass, [`check_host_init`], walks a compiled [`HostProgram`]'s command
//! list in queue order and flags buffers read before any initializing
//! upload or kernel store (uninit reads).

use crate::arith::{expand, ArithExpr, RangeEnv, SymRange};
use crate::eval::{is_gid_atom, is_load_atom, Atoms};
use crate::host::{HostCmd, HostProgram, LaunchArg};
use crate::kast::Effects;
use crate::verify::{affine_split, AccessKind, Assumptions};
use std::fmt;

/// Footprint shape of one access site. Offsets are per grid axis
/// (innermost first); a vector shorter than the grid rank is zero on the
/// remaining axes.
#[derive(Clone, Debug, PartialEq)]
pub enum Shape {
    /// gid-linear stencil access: the work-item's own (offset-placed) cell
    /// plus constant per-axis offsets.
    Stencil {
        /// Constant offset per axis relative to the work-item's cell.
        offsets: Vec<i64>,
    },
    /// Access through a gather table: the gathered cell plus constant
    /// per-axis offsets.
    Gather {
        /// Parameter name of the gather table.
        table: String,
        /// Constant offset per axis relative to the gathered cell.
        offsets: Vec<i64>,
    },
    /// Interval-only footprint: no per-axis decomposition, but the index
    /// provably lies in the rendered symbolic range.
    Flat {
        /// Rendered lower bound (`None` when unbounded).
        lo: Option<String>,
        /// Rendered upper bound (`None` when unbounded).
        hi: Option<String>,
    },
    /// No footprint derivable.
    Opaque {
        /// Why the classification failed.
        reason: String,
    },
}

impl Shape {
    /// The constant per-axis offset vector, for shapes that have one.
    pub fn offsets(&self) -> Option<&[i64]> {
        match self {
            Shape::Stencil { offsets } | Shape::Gather { offsets, .. } => Some(offsets),
            _ => None,
        }
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Shape::Stencil { .. } => "stencil",
            Shape::Gather { .. } => "gather",
            Shape::Flat { .. } => "flat",
            Shape::Opaque { .. } => "opaque",
        }
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Shape::Stencil { offsets } => write!(f, "stencil{offsets:?}"),
            Shape::Gather { table, offsets } => write!(f, "gather({table}){offsets:?}"),
            Shape::Flat { lo, hi } => {
                let lo = lo.as_deref().unwrap_or("-inf");
                let hi = hi.as_deref().unwrap_or("+inf");
                write!(f, "flat[{lo}, {hi}]")
            }
            Shape::Opaque { reason } => write!(f, "opaque({reason})"),
        }
    }
}

/// Footprint of one access site on a global buffer.
#[derive(Clone, Debug, PartialEq)]
pub struct SiteFootprint {
    /// Access site id (the interpreter's shared load/store numbering).
    pub site: u32,
    /// Load or store.
    pub kind: AccessKind,
    /// Buffer (kernel parameter) name.
    pub buffer: String,
    /// Classified shape.
    pub shape: Shape,
}

/// All per-site footprints of one kernel, plus the grid geometry they
/// were derived against.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct KernelFootprints {
    /// Kernel name.
    pub kernel: String,
    /// Number of grid axes the stencil decomposition used (0 when no grid
    /// extents were available).
    pub rank: usize,
    /// Per-site footprints (global-buffer sites only).
    pub sites: Vec<SiteFootprint>,
}

impl KernelFootprints {
    /// The halo width the kernel requires on `axis` over the named
    /// buffers: `(below, above)` planes, the maximum reach of any load or
    /// store site relative to its anchoring cell. Errors when any site on
    /// a queried buffer has no per-axis footprint — such a kernel must
    /// not be sharded along that axis.
    pub fn required_halo(&self, buffers: &[&str], axis: usize) -> Result<(usize, usize), String> {
        let (mut below, mut above) = (0usize, 0usize);
        for s in &self.sites {
            if !buffers.contains(&s.buffer.as_str()) {
                continue;
            }
            let Some(offs) = s.shape.offsets() else {
                return Err(format!(
                    "kernel `{}` site {} ({}) on buffer `{}` has footprint {} — \
                     no per-axis offset proof, cannot derive a halo width",
                    self.kernel, s.site, s.kind, s.buffer, s.shape
                ));
            };
            let o = offs.get(axis).copied().unwrap_or(0);
            if o < 0 {
                below = below.max((-o) as usize);
            } else {
                above = above.max(o as usize);
            }
        }
        Ok((below, above))
    }
}

/// One raw access record the bounds checker hands over for
/// classification (see `crate::verify`).
#[derive(Clone)]
pub(crate) struct AccessRecord {
    pub site: u32,
    pub kind: AccessKind,
    pub buffer: String,
    pub sym: Option<ArithExpr>,
    pub renv: RangeEnv,
}

/// Grid extents the stencil decomposition matches strides against:
/// `interior_dims` when the contract declares them, else the flattened
/// launch `global_size`. Empty when neither is fully known.
fn grid_dims(asm: &Assumptions) -> Vec<ArithExpr> {
    if !asm.interior_dims.is_empty() {
        return asm.interior_dims.clone();
    }
    let dims: Vec<ArithExpr> = asm.global_size.iter().filter_map(|d| d.clone()).collect();
    if dims.len() == asm.global_size.len() {
        dims
    } else {
        Vec::new()
    }
}

/// Classifies every captured access record under the kernel's contract.
/// `atoms` holds the load atoms the records' indices mention.
pub(crate) fn classify_kernel(
    kernel: &str,
    asm: &Assumptions,
    records: &[AccessRecord],
    atoms: &Atoms,
) -> KernelFootprints {
    let dims = grid_dims(asm);
    // Row-major strides: stride_d = Π_{e<d} dims_e, expanded to canonical
    // monomial form so coefficient matching is syntactic first.
    let mut strides = Vec::with_capacity(dims.len());
    let mut acc = ArithExpr::one();
    for d in &dims {
        strides.push(expand(&acc));
        acc = acc * d.clone();
    }
    let monos: Vec<ArithExpr> = strides.clone();
    let sites = records
        .iter()
        .map(|r| SiteFootprint {
            site: r.site,
            kind: r.kind,
            buffer: r.buffer.clone(),
            shape: classify(r, asm, atoms, &strides, &monos),
        })
        .collect();
    KernelFootprints { kernel: kernel.to_string(), rank: dims.len(), sites }
}

fn classify(
    r: &AccessRecord,
    asm: &Assumptions,
    atoms: &Atoms,
    strides: &[ArithExpr],
    monos: &[ArithExpr],
) -> Shape {
    let Some(sym) = &r.sym else {
        return Shape::Opaque { reason: "index is not an affine/tracked expression".into() };
    };
    let m = expand(sym);
    let Some((pairs, base)) = affine_split(&m) else {
        return flat(&m, &r.renv);
    };
    // Attempt 1 — stencil: every atom is a work-item id whose coefficient
    // is the row-major stride of its axis, and the atom-free residue
    // (minus the slab placement term) decomposes into per-axis constant
    // offsets.
    if !pairs.is_empty()
        && !strides.is_empty()
        && pairs.iter().all(|(n, _)| is_gid_atom(n))
        && pairs.iter().all(|(n, c)| {
            axis_of(n)
                .is_some_and(|d| strides.get(d).is_some_and(|s| *c == *s || r.renv.prove_eq(c, s)))
        })
    {
        // Subtract the slab placement: a shift_gid kernel anchors axis d
        // at `gid_d + offset_d`, so the constant `offset_d·stride_d` in
        // the residue is placement, not stencil reach.
        let mut residue = base.clone();
        for (d, s) in strides.iter().enumerate() {
            let off = asm.gid_offsets.get(d).copied().unwrap_or(0);
            if off != 0 {
                residue = residue - ArithExpr::Cst(off) * s.clone();
            }
        }
        if let Some(offsets) = decompose(&expand(&residue), monos) {
            return Shape::Stencil { offsets };
        }
        return flat(&m, &r.renv);
    }
    // Attempt 2 — gather: exactly one opaque load atom with coefficient 1
    // anchors the access at the gathered cell; the residue decomposes
    // into per-axis offsets (trivially so when it is zero).
    if let [(name, c)] = pairs.as_slice() {
        if is_load_atom(name) && matches!(c, ArithExpr::Cst(1)) {
            if let Some(table) = atoms.get(name).map(|info| info.buffer.clone()) {
                let res = expand(&base);
                let offsets = if res == ArithExpr::zero() {
                    Some(Vec::new())
                } else {
                    decompose(&res, monos)
                };
                if let Some(offsets) = offsets {
                    return Shape::Gather { table, offsets };
                }
            }
        }
    }
    flat(&m, &r.renv)
}

/// The axis of a `%gidD` atom.
fn axis_of(atom: &str) -> Option<usize> {
    atom.strip_prefix("%gid").and_then(|d| d.parse().ok())
}

/// Interval fallback: the site's range facts bound the raw index map.
fn flat(m: &ArithExpr, renv: &RangeEnv) -> Shape {
    let r: SymRange = renv.range_of(m);
    Shape::Flat { lo: r.lo.map(|e| format!("{e}")), hi: r.hi.map(|e| format!("{e}")) }
}

/// Decomposes an atom-free expanded residue into integer coefficients
/// over the stride monomials `monos` (`monos[0]` is the constant 1):
/// `residue = Σ offsets[d]·monos[d]`, or `None` when any summand matches
/// no stride.
fn decompose(residue: &ArithExpr, monos: &[ArithExpr]) -> Option<Vec<i64>> {
    if monos.is_empty() {
        return (*residue == ArithExpr::zero()).then(Vec::new);
    }
    let mut offsets = vec![0i64; monos.len()];
    let terms: Vec<ArithExpr> = match residue {
        ArithExpr::Sum(ts) => ts.iter().cloned().collect(),
        other => vec![other.clone()],
    };
    for t in terms {
        let (d, c) = match_term(&t, monos)?;
        offsets[d] += c;
    }
    Some(offsets)
}

/// Matches one expanded summand against the stride monomials: a bare
/// constant is axis 0; `mono` is `(d, 1)`; `mono·c` (canonical product
/// order puts the constant factor last) is `(d, c)`.
fn match_term(t: &ArithExpr, monos: &[ArithExpr]) -> Option<(usize, i64)> {
    if let ArithExpr::Cst(c) = t {
        return Some((0, *c));
    }
    for (d, mono) in monos.iter().enumerate().skip(1) {
        if t == mono {
            return Some((d, 1));
        }
        if let ArithExpr::Prod(fs) = t {
            if let Some(ArithExpr::Cst(c)) = fs.last().cloned() {
                let core: Vec<ArithExpr> = fs[..fs.len() - 1].to_vec();
                let core = match core.as_slice() {
                    [one] => one.clone(),
                    _ => ArithExpr::mul(core),
                };
                if core == *mono {
                    return Some((d, c));
                }
            }
        }
    }
    None
}

// ---- host-program read-before-write pass ----

/// One buffer read before any initializing write, found by
/// [`check_host_init`].
#[derive(Clone, Debug, PartialEq)]
pub struct UninitRead {
    /// Index of the offending command in [`HostProgram::cmds`].
    pub cmd: usize,
    /// Device slot name.
    pub buffer: String,
    /// Kernel name for launch reads, or the command kind.
    pub reader: String,
}

impl fmt::Display for UninitRead {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cmd {}: `{}` reads buffer `{}` before any initializing write",
            self.cmd, self.reader, self.buffer
        )
    }
}

/// Walks a host program's command list in queue order, tracking per slot
/// whether the buffer has received an initializing write (an upload, a zero
/// fill, or a launch whose kernel stores to it), and flags every read of a
/// still-uninitialized buffer. The tracking is region-insensitive and
/// deliberately conservative *against false positives*: any partial write
/// counts as initialization — the element-precise complement is the
/// runtime shadow sanitizer.
pub fn check_host_init(prog: &HostProgram) -> Vec<UninitRead> {
    let access: Vec<Effects> = prog.kernels.iter().map(|k| Effects::of(&k.kernel.body)).collect();
    let mut init: Vec<&str> = Vec::new();
    let mut findings = Vec::new();
    for (ci, cmd) in prog.cmds.iter().enumerate() {
        match cmd {
            HostCmd::Alloc { dev, zeroed, .. } => {
                if *zeroed {
                    init.push(dev);
                }
            }
            HostCmd::CopyIn { dev, .. } => init.push(dev),
            HostCmd::Launch { kernel, args, .. } => {
                let k = &prog.kernels[*kernel];
                let fx = &access[*kernel];
                // Parameter order and argument order coincide; first pass
                // flags reads, second marks writes (a kernel that both
                // reads and writes an uninit buffer is still a finding).
                let bufs = || {
                    args.iter().enumerate().filter_map(|(i, a)| match a {
                        LaunchArg::Buf(name) => Some((i, name.as_str())),
                        _ => None,
                    })
                };
                for (pi, slot) in bufs() {
                    if fx.loads.contains(&pi) && !init.contains(&slot) {
                        findings.push(UninitRead {
                            cmd: ci,
                            buffer: slot.to_string(),
                            reader: k.kernel.name.clone(),
                        });
                    }
                }
                init.extend(bufs().filter(|(pi, _)| fx.stores.contains(pi)).map(|(_, s)| s));
            }
            HostCmd::CopyOut { dev, .. } => {
                if !init.contains(&dev.as_str()) {
                    findings.push(UninitRead {
                        cmd: ci,
                        buffer: dev.clone(),
                        reader: "CopyOut".into(),
                    });
                }
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kast::{KExpr, KStmt, Kernel, KernelParam, MemRef};
    use crate::scalar::BinOp;
    use crate::types::ScalarKind;
    use crate::verify::{verify_kernel, BufferFacts};

    /// 1-D 3-point stencil: `out[gid] = a[gid-1] + a[gid] + a[gid+1]`
    /// under an interior guard.
    fn stencil_1d() -> (Kernel, Assumptions) {
        let gid = KExpr::GlobalId(0);
        let at = |off: i32| KExpr::load(MemRef::Param(1), gid.clone() + KExpr::int(off));
        let k = Kernel {
            name: "s3".into(),
            params: vec![
                KernelParam::global_buf("out", ScalarKind::F32),
                KernelParam::global_buf("a", ScalarKind::F32),
                KernelParam::scalar("N", ScalarKind::I32),
            ],
            body: vec![
                KStmt::return_if(KExpr::bin(
                    BinOp::Ge,
                    gid.clone() + KExpr::int(1),
                    KExpr::var("N") - KExpr::int(1),
                )),
                KStmt::return_if(KExpr::bin(BinOp::Lt, gid.clone(), KExpr::int(1))),
                KStmt::Store {
                    mem: MemRef::Param(0),
                    idx: gid.clone(),
                    value: at(-1) + at(0) + at(1),
                },
            ],
            work_dim: 1,
        };
        let n = ArithExpr::var("N");
        let asm = Assumptions {
            global_size: vec![Some(n.clone())],
            size_bounds: vec![("N".into(), 3)],
            buffers: [
                ("out".to_string(), BufferFacts::sized(n.clone())),
                ("a".to_string(), BufferFacts::sized(n)),
            ]
            .into_iter()
            .collect(),
            ..Default::default()
        };
        (k.resolve_real(ScalarKind::F32), asm)
    }

    #[test]
    fn stencil_offsets_and_halo() {
        let (k, asm) = stencil_1d();
        let rep = verify_kernel(&k, &asm);
        let fp = &rep.footprints;
        assert_eq!(fp.rank, 1);
        let shapes: Vec<&Shape> =
            fp.sites.iter().filter(|s| s.buffer == "a").map(|s| &s.shape).collect();
        assert_eq!(shapes.len(), 3, "{fp:?}");
        assert!(shapes.contains(&&Shape::Stencil { offsets: vec![-1] }));
        assert!(shapes.contains(&&Shape::Stencil { offsets: vec![0] }));
        assert!(shapes.contains(&&Shape::Stencil { offsets: vec![1] }));
        assert_eq!(fp.required_halo(&["a"], 0), Ok((1, 1)));
        assert_eq!(fp.required_halo(&["out"], 0), Ok((0, 0)));
        assert!(fp.required_halo(&["a", "out"], 0).is_ok());
    }

    #[test]
    fn gather_store_has_zero_offsets() {
        // `out[bidx[gid]] = 0` — a gather-anchored store with no reach.
        let k = Kernel {
            name: "g".into(),
            params: vec![
                KernelParam::global_buf("out", ScalarKind::F32),
                KernelParam::global_buf("bidx", ScalarKind::I32),
                KernelParam::scalar("N", ScalarKind::I32),
            ],
            body: vec![KStmt::Store {
                mem: MemRef::Param(0),
                idx: KExpr::load(MemRef::Param(1), KExpr::GlobalId(0)),
                value: KExpr::real(0.0),
            }],
            work_dim: 1,
        };
        let n = ArithExpr::var("N");
        let asm = Assumptions {
            global_size: vec![Some(ArithExpr::var("numB"))],
            size_bounds: vec![("N".into(), 1), ("numB".into(), 1)],
            buffers: [
                ("out".to_string(), BufferFacts::sized(n.clone())),
                (
                    "bidx".to_string(),
                    BufferFacts::sized(ArithExpr::var("numB"))
                        .with_values(SymRange::new(ArithExpr::Cst(0), n - ArithExpr::one())),
                ),
            ]
            .into_iter()
            .collect(),
            ..Default::default()
        };
        let rep = verify_kernel(&k.resolve_real(ScalarKind::F32), &asm);
        let store =
            rep.footprints.sites.iter().find(|s| s.kind == AccessKind::Store).expect("store site");
        match &store.shape {
            Shape::Gather { table, offsets } => {
                assert_eq!(table, "bidx");
                assert!(offsets.is_empty());
            }
            other => panic!("expected gather, got {other}"),
        }
        assert_eq!(rep.footprints.required_halo(&["out"], 2), Ok((0, 0)));
    }

    #[test]
    fn wide_stencil_rejected_by_narrow_halo_budget() {
        // z-reach 2 must not fit a 1-plane halo.
        let (mut k, mut asm) = stencil_1d();
        // Widen: add a load at gid+2.
        if let KStmt::Store { value, .. } = &mut k.body[2] {
            *value =
                value.clone() + KExpr::load(MemRef::Param(1), KExpr::GlobalId(0) + KExpr::int(2));
        }
        asm.size_bounds = vec![("N".into(), 5)];
        let rep = verify_kernel(&k, &asm);
        assert_eq!(rep.footprints.required_halo(&["a"], 0), Ok((1, 2)));
    }

    #[test]
    fn flat_site_blocks_halo_proof() {
        // `out[gid*gid]` is not affine in gid — no per-axis footprint.
        let k = Kernel {
            name: "q".into(),
            params: vec![
                KernelParam::global_buf("out", ScalarKind::F32),
                KernelParam::scalar("N", ScalarKind::I32),
            ],
            body: vec![KStmt::Store {
                mem: MemRef::Param(0),
                idx: KExpr::GlobalId(0) * KExpr::GlobalId(0),
                value: KExpr::real(0.0),
            }],
            work_dim: 1,
        };
        let asm = Assumptions {
            global_size: vec![Some(ArithExpr::var("N"))],
            size_bounds: vec![("N".into(), 1)],
            buffers: [("out".to_string(), BufferFacts::sized(ArithExpr::var("N")))]
                .into_iter()
                .collect(),
            ..Default::default()
        };
        let rep = verify_kernel(&k.resolve_real(ScalarKind::F32), &asm);
        let halo = rep.footprints.required_halo(&["out"], 0);
        assert!(halo.is_err());
        let err = halo.unwrap_err();
        assert!(err.contains("`q`") && err.contains("`out`"), "{err}");
    }
}
