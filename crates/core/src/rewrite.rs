//! Semantic-preserving rewrite rules (§III of the paper).
//!
//! LIFT optimises by rewriting one pattern program into another with the
//! same semantics — that is how a single high-level expression is lowered
//! and tuned for different hardware. This module implements the classic
//! structural rules on this IR:
//!
//! | rule | rewrite |
//! |---|---|
//! | map-fusion        | `map f (map g x)` → `map (f ∘ g) x` |
//! | map-id            | `map id x` → `x` |
//! | split-join        | `join (split n x)` → `x` |
//! | join-split        | `split n (join x)` → `x` (when the inner length is `n`) |
//! | pad-pad           | `pad l₁ r₁ (pad l₂ r₂ x)` → `pad (l₁+l₂) (r₁+r₂) x` (same kind) |
//! | pad-map           | `pad (map f x)` → `map f (pad x)` (`f` pads only, same kind) |
//! | crop-pad          | `crop m (pad m m x)` → `x` |
//! | crop-map          | `crop m (map f x)` → `map f (crop m x)` |
//! | let-inline        | `let p = trivial in b` → `b[p := trivial]` |
//!
//! Every pattern descends one array level and an n-D form is a nest of
//! them (`pad2 = map pad ∘ pad`), so each rule holds at every depth: the
//! two commutes bring the levels of two n-D pads (or a crop and a pad)
//! together, map-fusion joins their maps, and pad-pad / crop-pad finish
//! inside.
//!
//! Rules are applied bottom-up to a fixpoint by [`optimize`]. Rewritten
//! trees contain fresh node ids, so all analysis passes re-run cleanly.
//! Equivalence is property-tested end-to-end in `tests/prop_rewrite.rs`
//! (original and rewritten programs are lowered and executed and must agree
//! exactly, on 1-D arrays and on 2-D and 3-D grids).

use crate::ir::{self, Expr, ExprKind, ExprRef, Lambda, MapKind, PadKind, ParamId};

/// Substitutes every reference to parameter `pid` in `e` with `rep`
/// (capture is impossible: parameter ids are globally unique).
pub fn subst_param(e: &ExprRef, pid: ParamId, rep: &ExprRef) -> ExprRef {
    match &e.kind {
        ExprKind::Param(p) if p.id == pid => rep.clone(),
        kind => Expr::new(kind.map_children(|x| subst_param(x, pid, rep))),
    }
}

/// True when `f` returns its parameter.
fn is_identity(f: &Lambda) -> bool {
    matches!(&f.body.kind, ExprKind::Param(p) if p.id == f.params[0].id)
}

/// True when `e` is parameter `p` under pads of kind `kind` and maps of
/// them: a function taking a `kind`-padding of its input to one of its
/// output, so an outer pad of that kind commutes with mapping it.
fn pads_only(e: &ExprRef, kind: PadKind, p: ParamId) -> bool {
    match &e.kind {
        ExprKind::Param(q) => q.id == p,
        ExprKind::Pad { kind: k, input, .. } => *k == kind && pads_only(input, kind, p),
        ExprKind::Map { f, input, .. } => {
            pads_only(input, kind, p) && pads_only(&f.body, kind, f.params[0].id)
        }
        _ => false,
    }
}

/// True when `e` is safe to duplicate by let-inlining.
fn is_trivial(e: &ExprRef) -> bool {
    matches!(e.kind, ExprKind::Param(_) | ExprKind::Literal(_) | ExprKind::SizeVal(_))
}

/// One bottom-up rewrite pass; returns the (possibly unchanged) expression
/// and whether anything fired.
fn pass(e: &ExprRef) -> (ExprRef, bool) {
    // Rewrite children first.
    let (e, mut changed) = rebuild_children(e);
    // Then try root rules.
    let rewritten = match &e.kind {
        // map id x → x
        ExprKind::Map { f, input, .. } if is_identity(f) => Some(input.clone()),
        // map f (map g y) → map (f ∘ g) y — keep the *outer* execution
        // level; only fuse when the inner map is sequential or the levels
        // agree (a Glb map consumed by another map must not silently lose
        // its parallelism).
        ExprKind::Map { kind, f, input } => match &input.kind {
            ExprKind::Map { kind: inner_kind, f: g, input: y }
                if inner_kind == kind || *inner_kind == MapKind::Seq =>
            {
                let fused_body = subst_param(&f.body, f.params[0].id, &g.body);
                let fused = Lambda { params: g.params.clone(), body: fused_body };
                Some(ir::map(*kind, y.clone(), fused))
            }
            _ => None,
        },
        // join (split n x) → x
        ExprKind::Join { input } => match &input.kind {
            ExprKind::Split { input: x, .. } => Some(x.clone()),
            _ => None,
        },
        // split n (join x) → x when x : [[T; n]; m]
        ExprKind::Split { chunk, input } => match &input.kind {
            ExprKind::Join { input: x } => {
                // We need x's inner length; typecheck the subtree (cheap) —
                // failure just means "don't fire".
                match crate::typecheck::check(x) {
                    Ok(t) => {
                        let ty = t.of(x);
                        match ty.elem().and_then(|e| e.len()) {
                            Some(n) if n == chunk => Some(x.clone()),
                            _ => None,
                        }
                    }
                    Err(_) => None,
                }
            }
            _ => None,
        },
        ExprKind::Pad { left, right, kind, input } => match &input.kind {
            // pad-pad merge
            ExprKind::Pad { left: l2, right: r2, kind: k2, input: x } if kind == k2 => {
                Some(ir::pad(left + l2, right + r2, *kind, x.clone()))
            }
            // pad (map f y) → map f (pad y), `f` padding with the same kind
            ExprKind::Map { kind: mk, f, input: y }
                if pads_only(&f.body, *kind, f.params[0].id) =>
            {
                Some(ir::map(*mk, ir::pad(*left, *right, *kind, y.clone()), f.clone()))
            }
            _ => None,
        },
        ExprKind::Crop { margin, input } => match &input.kind {
            // crop m (pad m m x) → x
            ExprKind::Pad { left, right, input: x, .. } if left == margin && right == margin => {
                Some(x.clone())
            }
            // crop (map f y) → map f (crop y)
            ExprKind::Map { kind, f, input: y } => {
                Some(ir::map(*kind, ir::crop(*margin, y.clone()), f.clone()))
            }
            _ => None,
        },
        // let-inline trivial bindings
        ExprKind::Let { param, value, body } if is_trivial(value) => {
            Some(subst_param(body, param.id, value))
        }
        _ => None,
    };
    match rewritten {
        Some(r) => {
            changed = true;
            (r, changed)
        }
        None => (e, changed),
    }
}

/// Rebuilds a node from rewritten children; the node itself when no rule
/// fired below it.
fn rebuild_children(e: &ExprRef) -> (ExprRef, bool) {
    let mut changed = false;
    let kind = e.kind.map_children(|x| {
        let (r, c) = pass(x);
        changed |= c;
        r
    });
    if changed {
        (Expr::new(kind), true)
    } else {
        (e.clone(), false)
    }
}

/// The overlapped-tiling rewrite for 1-D stencils (the headline
/// optimisation of the authors' companion stencil paper, TACO '20 \[8\] in
/// the reproduced paper's references):
///
/// ```text
/// mapGlb f (slide k 1 x)
///   → mapWrg (tileWin → mapLcl f (slide k 1 (toLocal tileWin)))
///            (slide (T+k−1) T x)
/// ```
///
/// Each workgroup stages one tile of `T + k − 1` input elements (the tile
/// plus its stencil halo) into local memory with a cooperative load, then
/// computes `T` outputs from it — converting `k` global reads per output
/// into roughly one. Requires the output length to divide by `T` (the
/// launcher enforces exact groups). Returns `None` when the expression does
/// not have the `map (slide k 1 …)` shape.
///
/// This is a *tuning* rewrite (it changes the execution strategy, not the
/// semantics), so it is applied explicitly rather than by [`optimize`].
pub fn overlapped_tile_1d(e: &ExprRef, tile: i64) -> Option<ExprRef> {
    let ExprKind::Map { kind: MapKind::Glb, f, input } = &e.kind else {
        return None;
    };
    let ExprKind::Slide { size: k, step: 1, input: source } = &input.kind else {
        return None;
    };
    let outer = ir::slide(tile + k - 1, tile, source.clone());
    let tile_param = crate::ir::ParamDef::untyped("tileWin");
    let windows = ir::slide(*k, 1, ir::to_local(tile_param.to_expr()));
    let inner = ir::map(MapKind::Lcl, windows, f.clone());
    Some(ir::map(MapKind::Wrg, outer, Lambda { params: vec![tile_param], body: inner }))
}

/// Applies all rules bottom-up until no rule fires (bounded at `max_passes`
/// to guarantee termination even if a future rule pair oscillates).
pub fn optimize(e: &ExprRef) -> ExprRef {
    let max_passes = 16;
    let mut cur = e.clone();
    for _ in 0..max_passes {
        let (next, changed) = pass(&cur);
        cur = next;
        if !changed {
            break;
        }
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::funs;
    use crate::ir::{self, PadKind, ParamDef};
    use crate::scalar::Lit;
    use crate::typecheck::check;
    use crate::types::Type;

    #[test]
    fn map_id_eliminated() {
        let a = ParamDef::typed("a", Type::array(Type::real(), "N"));
        let e = ir::map_glb(a.to_expr(), "x", |x| x);
        let o = optimize(&e);
        assert!(matches!(o.kind, ExprKind::Param(_)), "{:?}", o.kind);
    }

    #[test]
    fn map_fusion_fires() {
        let a = ParamDef::typed("a", Type::array(Type::real(), "N"));
        let add = funs::add();
        let add2 = add.clone();
        let inner =
            ir::map_seq(a.to_expr(), "x", |x| ir::call(&add, vec![x, ir::lit(Lit::real(1.0))]));
        let e = ir::map_seq(inner, "y", |y| ir::call(&add2, vec![y, ir::lit(Lit::real(2.0))]));
        let o = optimize(&e);
        // one map, body contains both additions
        match &o.kind {
            ExprKind::Map { input, f, .. } => {
                assert!(matches!(input.kind, ExprKind::Param(_)));
                let dbg = format!("{:?}", f.body.kind);
                assert!(dbg.matches("Call").count() >= 2, "{dbg}");
            }
            other => panic!("expected fused map, got {other:?}"),
        }
        // and it still type checks
        check(&o).unwrap();
    }

    #[test]
    fn fusion_preserves_parallel_level() {
        // map_glb over map_seq fuses keeping Glb.
        let a = ParamDef::typed("a", Type::array(Type::real(), "N"));
        let add = funs::add();
        let inner = ir::map_seq(a.to_expr(), "x", |x| ir::call(&add, vec![x.clone(), x]));
        let e = ir::map_glb(inner, "y", |y| y.clone());
        let o = optimize(&e);
        // map-id also fires on the outer, leaving the fused/simplified map.
        match &o.kind {
            ExprKind::Map { kind, .. } => {
                // The surviving map is the inner Seq one (outer was id).
                assert!(matches!(kind, crate::ir::MapKind::Seq));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn split_join_cancels() {
        let a = ParamDef::typed("a", Type::array(Type::real(), 12usize));
        let e = ir::join(ir::split(4usize, a.to_expr()));
        let o = optimize(&e);
        assert!(matches!(o.kind, ExprKind::Param(_)));
    }

    #[test]
    fn join_split_cancels_when_sizes_match() {
        let a = ParamDef::typed("a", Type::array(Type::array(Type::real(), 4usize), 3usize));
        let e = ir::split(4usize, ir::join(a.to_expr()));
        let o = optimize(&e);
        assert!(matches!(o.kind, ExprKind::Param(_)), "{:?}", o.kind);
        // mismatched chunk must NOT fire
        let e2 = ir::split(6usize, ir::join(a.to_expr()));
        let o2 = optimize(&e2);
        assert!(matches!(o2.kind, ExprKind::Split { .. }));
    }

    #[test]
    fn pads_merge() {
        let a = ParamDef::typed("a", Type::array(Type::real(), "N"));
        let e = ir::pad(1, 2, PadKind::Clamp, ir::pad(3, 4, PadKind::Clamp, a.to_expr()));
        let o = optimize(&e);
        match &o.kind {
            ExprKind::Pad { left: 4, right: 6, .. } => {}
            other => panic!("expected merged pad, got {other:?}"),
        }
    }

    #[test]
    fn mixed_pad_kinds_do_not_merge() {
        let a = ParamDef::typed("a", Type::array(Type::real(), "N"));
        let e = ir::pad(
            1,
            1,
            PadKind::Clamp,
            ir::pad(1, 1, PadKind::Constant(Lit::real(0.0)), a.to_expr()),
        );
        let o = optimize(&e);
        match &o.kind {
            ExprKind::Pad { input, .. } => assert!(matches!(input.kind, ExprKind::Pad { .. })),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn crop_of_pad_cancels() {
        let a = ParamDef::typed("a", Type::array3(Type::real(), "Nx", "Ny", "Nz"));
        let e = ir::crop3(1, ir::pad3(1, PadKind::Clamp, a.to_expr()));
        let o = optimize(&e);
        assert!(matches!(o.kind, ExprKind::Param(_)));
    }

    #[test]
    fn trivial_lets_inline() {
        let a = ParamDef::typed("a", Type::array(Type::real(), "N"));
        let add = funs::add();
        let e = ir::map_glb(a.to_expr(), "x", |x| {
            ir::let_in("y", x, |y| ir::call(&add, vec![y.clone(), y]))
        });
        let o = optimize(&e);
        fn has_let(e: &ExprRef) -> bool {
            match &e.kind {
                ExprKind::Let { .. } => true,
                ExprKind::Map { f, input, .. } => has_let(&f.body) || has_let(input),
                ExprKind::Call { args, .. } => args.iter().any(has_let),
                _ => false,
            }
        }
        assert!(!has_let(&o));
    }

    #[test]
    fn optimize_is_idempotent() {
        let a = ParamDef::typed("a", Type::array(Type::real(), 12usize));
        let e = ir::join(ir::split(4usize, ir::map_glb(a.to_expr(), "x", |x| x)));
        let once = optimize(&e);
        let twice = optimize(&once);
        assert_eq!(format!("{:?}", once.kind), format!("{:?}", twice.kind));
    }

    #[test]
    fn rc_sharing_is_safe() {
        // Rewriting must not mutate shared subtrees.
        let a = ParamDef::typed("a", Type::array(Type::real(), 12usize));
        let shared = ir::split(4usize, a.to_expr());
        let e = ir::join(shared.clone());
        let _ = optimize(&e);
        assert!(matches!(shared.kind, ExprKind::Split { .. }));
        let _ = std::rc::Rc::strong_count(&shared);
    }
}
