//! Lowering: pattern IR → kernel AST.
//!
//! This is the code-generation stage of §III-A: after type checking, views
//! are constructed for every expression and collapsed into indexed loads and
//! stores while the pattern structure becomes loops and NDRange guards.
//!
//! The top level of a kernel body must be a parallel `map` (1-D) or `map3`
//! (3-D), optionally wrapped in a `WriteTo` that re-routes the kernel output
//! into one of its inputs. Inside the element function:
//!
//! * value-producing elements are stored through the output view;
//! * `WriteTo` elements (and tuples of them — FD-MM's multi-output) emit
//!   stores through their own destination views and allocate nothing;
//! * the `Concat(Skip(idx), …, Skip(rest))` idiom becomes a single store at
//!   a runtime offset, exactly as in §IV-B of the paper.

use crate::arith::ArithExpr;
use crate::ir::{ExprKind, ExprRef, Lambda, MapKind, ParamDef, ParamId};
use crate::kast::{KExpr, KStmt, Kernel, KernelParam, MemRef};
use crate::memory::{self, MemError, NameGen, OutputPlan};
use crate::scalar::{BinOp, SExpr, UserFun};
use crate::simplify::simplify_kernel;
use crate::typecheck::{check, TypeError, Typed};
use crate::types::{ScalarKind, Type};
use crate::verify::Assumptions;
use crate::view::{View, ViewError};
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

/// Where each kernel parameter comes from at launch time.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgSpec {
    /// Bound to the program input with this [`ParamId`] (buffers and scalar
    /// inputs alike).
    Input(ParamId, String),
    /// A symbolic size variable, bound from the launch environment.
    Size(String),
    /// An output buffer the runtime must allocate, of the given (symbolic)
    /// type.
    Output(String, Type),
}

/// A lowered kernel plus everything needed to launch it.
#[derive(Debug, Clone)]
pub struct LoweredKernel {
    /// The generated kernel.
    pub kernel: Kernel,
    /// One entry per kernel parameter, in order.
    pub args: Vec<ArgSpec>,
    /// Global NDRange size per dimension (innermost first), symbolic.
    pub global_size: Vec<ArithExpr>,
    /// Required workgroup size (kernels with `Wrg`/`Lcl` maps and local
    /// memory); `None` lets the runtime pick.
    pub local_size: Option<ArithExpr>,
}

/// Code-generation error.
#[derive(Debug, Clone)]
pub struct LowerError(pub String);

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lowering error: {}", self.0)
    }
}

impl std::error::Error for LowerError {}

impl From<ViewError> for LowerError {
    fn from(e: ViewError) -> Self {
        LowerError(e.0)
    }
}

impl From<TypeError> for LowerError {
    fn from(e: TypeError) -> Self {
        LowerError(e.to_string())
    }
}

impl From<MemError> for LowerError {
    fn from(e: MemError) -> Self {
        LowerError(e.0)
    }
}

fn err<T>(msg: impl Into<String>) -> Result<T, LowerError> {
    Err(LowerError(msg.into()))
}

struct Ctx<'a> {
    typed: &'a Typed,
    bindings: HashMap<ParamId, View>,
    names: NameGen,
    /// Extent of the `Lcl` maps seen so far (the kernel's workgroup size).
    lcl_size: Option<ArithExpr>,
}

impl<'a> Ctx<'a> {
    fn binding(&self, p: &Rc<ParamDef>) -> Result<View, LowerError> {
        self.bindings
            .get(&p.id)
            .cloned()
            .ok_or_else(|| LowerError(format!("parameter `{}` has no binding", p.name)))
    }

    /// True for expressions that are free to duplicate in generated code.
    fn trivial(e: &KExpr) -> bool {
        matches!(e, KExpr::Lit(_) | KExpr::Var(_) | KExpr::GlobalId(_))
    }

    /// Binds `e` to a scalar temporary unless it is already trivial; returns
    /// the expression to use in its place.
    fn bind_temp(&mut self, e: KExpr, kind: ScalarKind, out: &mut Vec<KStmt>) -> KExpr {
        if Self::trivial(&e) {
            return e;
        }
        let name = self.names.fresh("tmp");
        out.push(KStmt::DeclScalar { name: name.clone(), kind, init: Some(e) });
        KExpr::Var(name)
    }

    /// Inlines a user function: each argument is bound to a fresh temporary
    /// (so loads are not duplicated), then the body is substituted.
    fn inline_userfun(&mut self, f: &UserFun, args: Vec<KExpr>, out: &mut Vec<KStmt>) -> KExpr {
        let bound: Vec<KExpr> = args
            .into_iter()
            .zip(&f.params)
            .map(|(a, (_, kind))| self.bind_temp(a, *kind, out))
            .collect();
        sexpr_to_kexpr(&f.body, &bound)
    }

    /// Produces a scalar kernel expression for `e`, emitting prerequisite
    /// statements into `out`.
    fn gen_scalar(&mut self, e: &ExprRef, out: &mut Vec<KStmt>) -> Result<KExpr, LowerError> {
        match &e.kind {
            ExprKind::Literal(l) => Ok(KExpr::Lit(*l)),
            ExprKind::SizeVal(a) => Ok(KExpr::from_arith(a)),
            ExprKind::Call { f, args } => {
                let mut kargs = Vec::with_capacity(args.len());
                for a in args {
                    kargs.push(self.gen_scalar(a, out)?);
                }
                Ok(self.inline_userfun(f, kargs, out))
            }
            ExprKind::Let { param, value, body } => {
                self.bind_let(param, value, out)?;
                self.gen_scalar(body, out)
            }
            ExprKind::ReduceSeq { f, init, input } => self.gen_reduce(f, init, input, out, e),
            _ => {
                let v = self.view_of(e, out)?;
                Ok(v.as_scalar()?)
            }
        }
    }

    fn gen_reduce(
        &mut self,
        f: &Lambda,
        init: &ExprRef,
        input: &ExprRef,
        out: &mut Vec<KStmt>,
        whole: &ExprRef,
    ) -> Result<KExpr, LowerError> {
        let acc_kind = match self.typed.of(whole) {
            Type::Scalar(k) => *k,
            other => return err(format!("reduceSeq accumulator must be scalar, got {other}")),
        };
        let init_e = self.gen_scalar(init, out)?;
        let acc = self.names.fresh("acc");
        out.push(KStmt::DeclScalar { name: acc.clone(), kind: acc_kind, init: Some(init_e) });
        let iv = self.view_of(input, out)?;
        let n = match self.typed.of(input) {
            Type::Array(_, n) => n.clone(),
            other => return err(format!("reduceSeq over non-array {other}")),
        };
        let var = self.names.fresh("r");
        let mut body = Vec::new();
        let elem_view = iv.access(KExpr::var(&var))?;
        assert_eq!(f.params.len(), 2);
        self.bindings.insert(f.params[0].id, View::Expr(KExpr::var(&acc), acc_kind));
        self.bindings.insert(f.params[1].id, elem_view);
        let new_acc = self.gen_scalar(&f.body, &mut body)?;
        body.push(KStmt::Assign { name: acc.clone(), value: new_acc });
        out.push(KStmt::For {
            var,
            begin: KExpr::int(0),
            end: KExpr::from_arith(&n),
            step: KExpr::int(1),
            body,
        });
        Ok(KExpr::var(acc))
    }

    /// Binds a `let` parameter: scalars become named temporaries, arrays
    /// become view aliases (or private materialisations under `ToPrivate`).
    fn bind_let(
        &mut self,
        param: &Rc<ParamDef>,
        value: &ExprRef,
        out: &mut Vec<KStmt>,
    ) -> Result<(), LowerError> {
        let vt = self.typed.of(value).clone();
        match vt {
            Type::Scalar(kind) => {
                let v = self.gen_scalar(value, out)?;
                let v = if Self::trivial(&v) {
                    v
                } else {
                    let name = self.names.fresh(&sanitize(&param.name));
                    out.push(KStmt::DeclScalar { name: name.clone(), kind, init: Some(v) });
                    KExpr::Var(name)
                };
                self.bindings.insert(param.id, View::Expr(v, kind));
                Ok(())
            }
            _ => {
                let v = self.view_of(value, out)?;
                self.bindings.insert(param.id, v);
                Ok(())
            }
        }
    }

    /// Materialises an array expression into a fresh private array and
    /// returns its memory view.
    fn materialize_private(
        &mut self,
        inner: &ExprRef,
        out: &mut Vec<KStmt>,
    ) -> Result<View, LowerError> {
        let ty = self.typed.of(inner).clone();
        let (elem, n) = match &ty {
            Type::Array(e, n) => (e.as_ref().clone(), n.clone()),
            other => return err(format!("toPrivate of non-array {other}")),
        };
        let kind = match &elem {
            Type::Scalar(k) => *k,
            other => return err(format!("toPrivate supports scalar elements, got {other}")),
        };
        let name = self.names.fresh("priv");
        out.push(KStmt::DeclPrivArray { name: name.clone(), kind, len: KExpr::from_arith(&n) });
        let view = View::mem(MemRef::Priv(name), ty);
        self.emit_into(inner, Some(view.clone()), out)?;
        Ok(view)
    }

    /// Materialises an array expression into workgroup-local memory with a
    /// cooperative load (`for (i = lid; i < len; i += lsize)`) followed by a
    /// barrier, and returns its memory view.
    fn materialize_local(
        &mut self,
        inner: &ExprRef,
        out: &mut Vec<KStmt>,
    ) -> Result<View, LowerError> {
        let ty = self.typed.of(inner).clone();
        let (elem, n) = match &ty {
            Type::Array(e, n) => (e.as_ref().clone(), n.clone()),
            other => return err(format!("toLocal of non-array {other}")),
        };
        let kind = match &elem {
            Type::Scalar(k) => *k,
            other => return err(format!("toLocal supports scalar elements, got {other}")),
        };
        let name = self.names.fresh("tile");
        out.push(KStmt::DeclLocalArray { name: name.clone(), kind, len: KExpr::from_arith(&n) });
        // cooperative load: each local item copies a strided share
        let src_view = self.view_of(inner, out)?;
        let var = self.names.fresh("co");
        let src = src_view.access(KExpr::var(&var))?;
        let dst = View::mem(MemRef::Local(name.clone()), ty.clone()).access(KExpr::var(&var))?;
        let body = vec![dst.store(src.as_scalar()?)?];
        out.push(KStmt::For {
            var,
            begin: KExpr::LocalId(0),
            end: KExpr::from_arith(&n),
            step: KExpr::LocalSize(0),
            body,
        });
        out.push(KStmt::Barrier);
        Ok(View::mem(MemRef::Local(name), ty))
    }

    /// Builds the input view of a data-layout expression, emitting any code
    /// needed for runtime indices and private materialisations.
    fn view_of(&mut self, e: &ExprRef, out: &mut Vec<KStmt>) -> Result<View, LowerError> {
        match &e.kind {
            ExprKind::Param(p) => self.binding(p),
            ExprKind::Literal(l) => Ok(View::ConstLit(*l)),
            ExprKind::SizeVal(a) => Ok(View::Expr(KExpr::from_arith(a), ScalarKind::I32)),
            ExprKind::Tuple(parts) => {
                let vs: Result<Vec<View>, LowerError> =
                    parts.iter().map(|p| self.view_of(p, out)).collect();
                Ok(View::Tuple(vs?))
            }
            ExprKind::Get { tuple, index } => Ok(self.view_of(tuple, out)?.tuple_get(*index)?),
            ExprKind::At { array, index } => {
                let idx = self.gen_scalar(index, out)?;
                Ok(self.view_of(array, out)?.access(idx)?)
            }
            ExprKind::Slice { array, start, stride, .. } => {
                let base = self.view_of(array, out)?;
                let start = self.gen_scalar(start, out)?;
                Ok(View::Gather { base: Box::new(base), start, stride: KExpr::from_arith(stride) })
            }
            ExprKind::Iota { .. } => Ok(View::IotaV),
            ExprKind::Zip(parts) => {
                let vs: Result<Vec<View>, LowerError> =
                    parts.iter().map(|p| self.view_of(p, out)).collect();
                Ok(View::ZipV { parts: vs?, levels: 1 })
            }
            ExprKind::Zip2(parts) => {
                let vs: Result<Vec<View>, LowerError> =
                    parts.iter().map(|p| self.view_of(p, out)).collect();
                Ok(View::ZipV { parts: vs?, levels: 2 })
            }
            ExprKind::Zip3(parts) => {
                let vs: Result<Vec<View>, LowerError> =
                    parts.iter().map(|p| self.view_of(p, out)).collect();
                Ok(View::ZipV { parts: vs?, levels: 3 })
            }
            ExprKind::Slide { step, input, .. } => Ok(View::SlideV {
                base: Box::new(self.view_of(input, out)?),
                step: *step,
                dims: 1,
                ws: vec![],
                ds: vec![],
            }),
            ExprKind::Slide2 { step, input, .. } => Ok(View::SlideV {
                base: Box::new(self.view_of(input, out)?),
                step: *step,
                dims: 2,
                ws: vec![],
                ds: vec![],
            }),
            ExprKind::Slide3 { step, input, .. } => Ok(View::SlideV {
                base: Box::new(self.view_of(input, out)?),
                step: *step,
                dims: 3,
                ws: vec![],
                ds: vec![],
            }),
            ExprKind::Pad { left, right, kind, input } => {
                let n = match self.typed.of(input) {
                    Type::Array(_, n) => n.clone(),
                    other => return err(format!("pad over non-array {other}")),
                };
                Ok(View::PadV {
                    base: Box::new(self.view_of(input, out)?),
                    left: *left,
                    right: *right,
                    dims: 1,
                    lens: vec![n],
                    kind: *kind,
                    idxs: vec![],
                })
            }
            ExprKind::Pad2 { amount, kind, input } => {
                let (nx, ny) = dims2(self.typed.of(input))
                    .ok_or_else(|| LowerError("pad2 over non-2D array".into()))?;
                Ok(View::PadV {
                    base: Box::new(self.view_of(input, out)?),
                    left: *amount,
                    right: *amount,
                    dims: 2,
                    lens: vec![ny, nx],
                    kind: *kind,
                    idxs: vec![],
                })
            }
            ExprKind::Pad3 { amount, kind, input } => {
                let (nx, ny, nz) = dims3(self.typed.of(input))
                    .ok_or_else(|| LowerError("pad3 over non-3D array".into()))?;
                Ok(View::PadV {
                    base: Box::new(self.view_of(input, out)?),
                    left: *amount,
                    right: *amount,
                    dims: 3,
                    lens: vec![nz, ny, nx],
                    kind: *kind,
                    idxs: vec![],
                })
            }
            ExprKind::Crop3 { margin, input } => Ok(View::CropV {
                base: Box::new(self.view_of(input, out)?),
                margin: *margin,
                remaining: 3,
            }),
            ExprKind::Split { chunk, input } => {
                Ok(View::SplitV { base: Box::new(self.view_of(input, out)?), chunk: chunk.clone() })
            }
            ExprKind::Join { input } => {
                let inner = match self.typed.of(input) {
                    Type::Array(elem, _) => match elem.as_ref() {
                        Type::Array(_, m) => m.clone(),
                        other => return err(format!("join over non-nested array {other}")),
                    },
                    other => return err(format!("join over non-array {other}")),
                };
                Ok(View::JoinV { base: Box::new(self.view_of(input, out)?), inner })
            }
            ExprKind::ArrayCons { elem, .. } => {
                let kind = match self.typed.of(elem) {
                    Type::Scalar(k) => *k,
                    other => return err(format!("arrayCons of non-scalar {other}")),
                };
                let v = self.gen_scalar(elem, out)?;
                let v = self.bind_temp(v, kind, out);
                Ok(View::Broadcast(v, kind))
            }
            ExprKind::ToPrivate(inner) => self.materialize_private(inner, out),
            ExprKind::ToLocal(inner) => self.materialize_local(inner, out),
            ExprKind::Let { param, value, body } => {
                self.bind_let(param, value, out)?;
                self.view_of(body, out)
            }
            ExprKind::Call { f, .. } => {
                let kind = f.ret;
                let v = self.gen_scalar(e, out)?;
                Ok(View::Expr(v, kind))
            }
            ExprKind::ReduceSeq { .. } => {
                let kind = match self.typed.of(e) {
                    Type::Scalar(k) => *k,
                    other => return err(format!("reduce result not scalar: {other}")),
                };
                let v = self.gen_scalar(e, out)?;
                Ok(View::Expr(v, kind))
            }
            ExprKind::Map { .. } | ExprKind::Map2 { .. } | ExprKind::Map3 { .. } => {
                err("a map used as an input must be materialised with to_private \
                 (LIFT would fuse it; this generator requires explicit materialisation)")
            }
            ExprKind::WriteTo { .. } | ExprKind::Concat(_) | ExprKind::Skip { .. } => {
                err("WriteTo/Concat/Skip cannot appear in input (view) position")
            }
        }
    }

    /// Emits code computing `e` into the destination view `out_view`
    /// (`None` when `e` is pure side-effect).
    fn emit_into(
        &mut self,
        e: &ExprRef,
        out_view: Option<View>,
        out: &mut Vec<KStmt>,
    ) -> Result<(), LowerError> {
        match &e.kind {
            ExprKind::Let { param, value, body } => {
                self.bind_let(param, value, out)?;
                self.emit_into(body, out_view, out)
            }
            ExprKind::WriteTo { dest, value } => {
                let dv = self.view_of(dest, out)?;
                self.emit_into(value, Some(dv), out)
            }
            ExprKind::Tuple(parts) if memory::is_side_effecting(e) => {
                for p in parts {
                    self.emit_into(p, None, out)?;
                }
                Ok(())
            }
            ExprKind::Concat(parts) => {
                let ov = out_view.ok_or_else(|| {
                    LowerError("concat needs a destination (wrap in WriteTo or allocate)".into())
                })?;
                let mut offset = KExpr::int(0);
                for p in parts {
                    if let ExprKind::Skip { len, .. } = &p.kind {
                        let l = self.gen_scalar(len, out)?;
                        offset = offset + l;
                        continue;
                    }
                    let pv = View::Gather {
                        base: Box::new(ov.clone()),
                        start: offset.clone(),
                        stride: KExpr::int(1),
                    };
                    self.emit_into(p, Some(pv), out)?;
                    let n = match self.typed.of(p) {
                        Type::Array(_, n) => n.clone(),
                        other => return err(format!("concat part is not an array: {other}")),
                    };
                    offset = offset + KExpr::from_arith(&n);
                }
                Ok(())
            }
            ExprKind::Skip { .. } => Ok(()), // generates no code (§IV-B)
            ExprKind::ArrayCons { elem, n } => {
                let ov = out_view
                    .ok_or_else(|| LowerError("arrayCons needs a destination".into()))?;
                let v = self.gen_scalar(elem, out)?;
                match n.as_cst() {
                    Some(1) => {
                        let slot = ov.access(KExpr::int(0))?;
                        out.push(slot.store(v)?);
                        Ok(())
                    }
                    _ => {
                        let kind = match self.typed.of(elem) {
                            Type::Scalar(k) => *k,
                            other => return err(format!("arrayCons of non-scalar {other}")),
                        };
                        let v = self.bind_temp(v, kind, out);
                        let var = self.names.fresh("c");
                        let slot = ov.access(KExpr::var(&var))?;
                        let body = vec![slot.store(v)?];
                        out.push(KStmt::For {
                            var,
                            begin: KExpr::int(0),
                            end: KExpr::from_arith(n),
                            step: KExpr::int(1),
                            body,
                        });
                        Ok(())
                    }
                }
            }
            ExprKind::Map { kind: MapKind::Seq, f, input } => {
                let iv = self.view_of(input, out)?;
                let n = match self.typed.of(input) {
                    Type::Array(_, n) => n.clone(),
                    other => return err(format!("map over non-array {other}")),
                };
                let var = self.names.fresh("i");
                let mut body = Vec::new();
                let elem_view = iv.access(KExpr::var(&var))?;
                self.bindings.insert(f.params[0].id, elem_view);
                if memory::is_side_effecting(&f.body) {
                    self.emit_into(&f.body, None, &mut body)?;
                } else {
                    let ov = out_view
                        .ok_or_else(|| LowerError("value-producing map needs a destination".into()))?;
                    let slot = ov.access(KExpr::var(&var))?;
                    self.emit_into(&f.body, Some(slot), &mut body)?;
                }
                out.push(KStmt::For {
                    var,
                    begin: KExpr::int(0),
                    end: KExpr::from_arith(&n),
                    step: KExpr::int(1),
                    body,
                });
                Ok(())
            }
            ExprKind::Map { kind: MapKind::Lcl, f, input } => {
                // one element per local work-item: idx = get_local_id(0)
                let iv = self.view_of(input, out)?;
                let n = match self.typed.of(input) {
                    Type::Array(_, n) => n.clone(),
                    other => return err(format!("map over non-array {other}")),
                };
                match &self.lcl_size {
                    None => self.lcl_size = Some(n.clone()),
                    Some(prev) if *prev == n => {}
                    Some(prev) => {
                        return err(format!(
                            "all Lcl maps in a kernel must share one extent: {prev} vs {n}"
                        ))
                    }
                }
                let lid = KExpr::LocalId(0);
                let elem_view = iv.access(lid.clone())?;
                self.bindings.insert(f.params[0].id, elem_view);
                let mut inner_stmts = Vec::new();
                if memory::is_side_effecting(&f.body) {
                    self.emit_into(&f.body, None, &mut inner_stmts)?;
                } else {
                    let ov = out_view.ok_or_else(|| {
                        LowerError("value-producing local map needs a destination".into())
                    })?;
                    let slot = ov.access(lid)?;
                    self.emit_into(&f.body, Some(slot), &mut inner_stmts)?;
                }
                out.append(&mut inner_stmts);
                Ok(())
            }
            ExprKind::Map { kind: MapKind::Glb, .. }
            | ExprKind::Map { kind: MapKind::Wrg, .. }
            | ExprKind::Map2 { kind: MapKind::Glb, .. }
            | ExprKind::Map3 { kind: MapKind::Glb, .. } => {
                err("nested Glb/Wrg maps are not supported; only the kernel's top-level map is group/global parallel")
            }
            ExprKind::Map2 { kind: _, .. } | ExprKind::Map3 { kind: _, .. } => {
                err("sequential or local map2/map3 inside a kernel is not supported")
            }
            ExprKind::ToPrivate(inner) => self.emit_into(inner, out_view, out),
            ExprKind::ToLocal(inner) => self.emit_into(inner, out_view, out),
            _ => {
                let ov = out_view
                    .ok_or_else(|| LowerError("expression needs a destination".into()))?;
                match self.typed.of(e).clone() {
                    // Array-valued layout expression (a slice, zip, param…):
                    // copy element-wise through its view.
                    Type::Array(_, n) => {
                        let iv = self.view_of(e, out)?;
                        let var = self.names.fresh("k");
                        let src = iv.access(KExpr::var(&var))?;
                        let dst = ov.access(KExpr::var(&var))?;
                        let body = vec![dst.store(src.as_scalar()?)?];
                        out.push(KStmt::For {
                            var,
                            begin: KExpr::int(0),
                            end: KExpr::from_arith(&n),
                            step: KExpr::int(1),
                            body,
                        });
                        Ok(())
                    }
                    // Scalar-producing expression stored through the view.
                    _ => {
                        let v = self.gen_scalar(e, out)?;
                        out.push(ov.store(v)?);
                        Ok(())
                    }
                }
            }
        }
    }
}

/// Replaces characters that cannot appear in C identifiers.
fn sanitize(name: &str) -> String {
    name.chars().map(|c| if c.is_alphanumeric() || c == '_' { c } else { '_' }).collect()
}

/// Substitutes `args` into a user-function body.
fn sexpr_to_kexpr(e: &SExpr, args: &[KExpr]) -> KExpr {
    match e {
        SExpr::Param(i) => args[*i].clone(),
        SExpr::Lit(l) => KExpr::Lit(*l),
        SExpr::Bin(op, a, b) => KExpr::bin(*op, sexpr_to_kexpr(a, args), sexpr_to_kexpr(b, args)),
        SExpr::Un(op, a) => KExpr::Un(*op, Box::new(sexpr_to_kexpr(a, args))),
        SExpr::Select(c, t, f) => {
            KExpr::select(sexpr_to_kexpr(c, args), sexpr_to_kexpr(t, args), sexpr_to_kexpr(f, args))
        }
        SExpr::Call(i, call_args) => {
            KExpr::Call(*i, call_args.iter().map(|a| sexpr_to_kexpr(a, args)).collect())
        }
        SExpr::Cast(k, a) => KExpr::Cast(*k, Box::new(sexpr_to_kexpr(a, args))),
    }
}

/// Extracts (nx, ny) from a 2-D array type.
fn dims2(t: &Type) -> Option<(ArithExpr, ArithExpr)> {
    let Type::Array(l1, ny) = t else { return None };
    let Type::Array(_, nx) = l1.as_ref() else { return None };
    Some((nx.clone(), ny.clone()))
}

/// Extracts (nx, ny, nz) from a 3-D array type.
fn dims3(t: &Type) -> Option<(ArithExpr, ArithExpr, ArithExpr)> {
    let Type::Array(l2, nz) = t else { return None };
    let Type::Array(l1, ny) = l2.as_ref() else { return None };
    let Type::Array(_, nx) = l1.as_ref() else { return None };
    Some((nx.clone(), ny.clone(), nz.clone()))
}

/// Collects size variables appearing in embedded arithmetic (e.g.
/// `SizeVal`, slice strides) that never surface in any type.
fn size_vars_of_expr(e: &ExprRef, out: &mut Vec<String>) {
    let mut add = |a: &ArithExpr| {
        for v in a.free_vars() {
            if !v.starts_with("skip") && !out.contains(&v) {
                out.push(v);
            }
        }
    };
    match &e.kind {
        ExprKind::SizeVal(a) | ExprKind::Iota { n: a } => add(a),
        ExprKind::Slice { array, start, stride, len } => {
            add(stride);
            add(len);
            size_vars_of_expr(array, out);
            size_vars_of_expr(start, out);
        }
        ExprKind::Split { chunk, input } => {
            add(chunk);
            size_vars_of_expr(input, out);
        }
        ExprKind::ArrayCons { elem, n } => {
            add(n);
            size_vars_of_expr(elem, out);
        }
        ExprKind::Param(_) | ExprKind::Literal(_) => {}
        ExprKind::Call { args, .. } => args.iter().for_each(|a| size_vars_of_expr(a, out)),
        ExprKind::Tuple(parts)
        | ExprKind::Zip(parts)
        | ExprKind::Zip2(parts)
        | ExprKind::Zip3(parts)
        | ExprKind::Concat(parts) => parts.iter().for_each(|p| size_vars_of_expr(p, out)),
        ExprKind::Get { tuple: x, .. }
        | ExprKind::ToPrivate(x)
        | ExprKind::ToLocal(x)
        | ExprKind::Join { input: x }
        | ExprKind::Slide { input: x, .. }
        | ExprKind::Slide2 { input: x, .. }
        | ExprKind::Slide3 { input: x, .. }
        | ExprKind::Pad { input: x, .. }
        | ExprKind::Pad2 { input: x, .. }
        | ExprKind::Pad3 { input: x, .. }
        | ExprKind::Crop3 { input: x, .. }
        | ExprKind::Skip { len: x, .. } => size_vars_of_expr(x, out),
        ExprKind::At { array, index } => {
            size_vars_of_expr(array, out);
            size_vars_of_expr(index, out);
        }
        ExprKind::Let { value, body, .. } => {
            size_vars_of_expr(value, out);
            size_vars_of_expr(body, out);
        }
        ExprKind::Map { f, input, .. }
        | ExprKind::Map2 { f, input, .. }
        | ExprKind::Map3 { f, input, .. } => {
            size_vars_of_expr(input, out);
            size_vars_of_expr(&f.body, out);
        }
        ExprKind::ReduceSeq { f, init, input } => {
            size_vars_of_expr(init, out);
            size_vars_of_expr(input, out);
            size_vars_of_expr(&f.body, out);
        }
        ExprKind::WriteTo { dest, value } => {
            size_vars_of_expr(dest, out);
            size_vars_of_expr(value, out);
        }
    }
}

/// Collects symbolic size variables mentioned in a type.
fn size_vars_of_type(t: &Type, out: &mut Vec<String>) {
    match t {
        Type::Scalar(_) => {}
        Type::Tuple(parts) => parts.iter().for_each(|p| size_vars_of_type(p, out)),
        Type::Array(e, n) => {
            for v in n.free_vars() {
                if !v.starts_with("skip") && !out.contains(&v) {
                    out.push(v);
                }
            }
            size_vars_of_type(e, out);
        }
    }
}

/// Lowers a LIFT program to a kernel.
///
/// `params` are the program inputs (buffers and scalars); `body` must be a
/// parallel `map`/`map3`, optionally wrapped in `WriteTo` and `let`s.
/// `real` resolves the precision-generic `Real` scalar kind.
///
/// The collapsed views are simplified before the kernel is returned
/// ([`crate::simplify`]) under `≥ 1` size bounds ([`size_bounds`]): every
/// consumer — the OpenCL printer, the static verifier, the virtual device —
/// sees the simplified form only.
pub fn lower_kernel(
    name: &str,
    params: &[Rc<ParamDef>],
    body: &ExprRef,
    real: ScalarKind,
) -> Result<LoweredKernel, LowerError> {
    lower_kernel_under(name, params, body, real, &size_bounds).map(|(lowered, _)| lowered)
}

/// Derives a kernel's launch contract from the program's inputs and its raw
/// lowering ([`lower_kernel_under`]).
pub type ContractFn<'a> = &'a dyn Fn(&[Rc<ParamDef>], &LoweredKernel) -> Assumptions;

/// The contract of a kernel whose launch is otherwise unknown: `≥ 1` per
/// size argument.
pub fn size_bounds(_: &[Rc<ParamDef>], lowered: &LoweredKernel) -> Assumptions {
    let size_bounds = lowered
        .args
        .iter()
        .filter_map(|a| match a {
            ArgSpec::Size(v) => Some((v.clone(), 1)),
            _ => None,
        })
        .collect();
    Assumptions { size_bounds, ..Default::default() }
}

/// Lowers a program and simplifies it under the launch contract `contract`
/// derives from the raw lowering; returns the kernel and that contract.
pub fn lower_kernel_under(
    name: &str,
    params: &[Rc<ParamDef>],
    body: &ExprRef,
    real: ScalarKind,
    contract: ContractFn,
) -> Result<(LoweredKernel, Assumptions), LowerError> {
    let mut lowered = lower_kernel_raw(name, params, body, real)?;
    let contract = contract(params, &lowered);
    lowered.kernel = simplify_kernel(&lowered.kernel, &contract);
    Ok((lowered, contract))
}

/// [`lower_kernel`] without its final simplification: the collapsed views
/// exactly as the view system emits them, for the simplifier's equivalence
/// tests. Nothing prints this form.
pub fn lower_kernel_raw(
    name: &str,
    params: &[Rc<ParamDef>],
    body: &ExprRef,
    real: ScalarKind,
) -> Result<LoweredKernel, LowerError> {
    let typed = check(body)?;
    let mut kparams: Vec<KernelParam> = Vec::new();
    let mut args: Vec<ArgSpec> = Vec::new();
    let mut ctx =
        Ctx { typed: &typed, bindings: HashMap::new(), names: NameGen::new(), lcl_size: None };

    // 1. user parameters
    let mut size_vars: Vec<String> = Vec::new();
    for p in params {
        let ty =
            p.ty.clone()
                .ok_or_else(|| LowerError(format!("kernel input `{}` must be typed", p.name)))?;
        size_vars_of_type(&ty, &mut size_vars);
        match &ty {
            Type::Scalar(k) => {
                kparams.push(KernelParam::scalar(sanitize(&p.name), *k));
            }
            _ => {
                let kind = ty.scalar_kind().ok_or_else(|| {
                    LowerError(format!("buffer `{}` must have a uniform scalar kind", p.name))
                })?;
                kparams.push(KernelParam::global_buf(sanitize(&p.name), kind));
            }
        }
        args.push(ArgSpec::Input(p.id, p.name.clone()));
        let idx = kparams.len() - 1;
        let view = match &ty {
            Type::Scalar(k) => View::Expr(KExpr::var(sanitize(&p.name)), *k),
            _ => View::mem(MemRef::Param(idx), ty.clone()),
        };
        ctx.bindings.insert(p.id, view);
    }

    // also collect size vars from every inferred type (e.g. iota/slice
    // bounds) and from arithmetic embedded in the program (`SizeVal`,
    // slice strides) that never surfaces in a type
    for t in typed.expr.values() {
        size_vars_of_type(t, &mut size_vars);
    }
    size_vars_of_expr(body, &mut size_vars);
    size_vars.sort();
    size_vars.dedup();
    // remove size vars that shadow a scalar user parameter name
    size_vars.retain(|v| !kparams.iter().any(|p| p.name == *v));
    for v in &size_vars {
        kparams.push(KernelParam::scalar(v.clone(), ScalarKind::I32));
        args.push(ArgSpec::Size(v.clone()));
    }

    // 2. peel the optional top-level WriteTo
    let mut stmts: Vec<KStmt> = Vec::new();
    let (outer_dest, map_expr) = match &body.kind {
        ExprKind::WriteTo { dest, value } => (Some(dest.clone()), value.clone()),
        _ => (None, body.clone()),
    };

    // 3. decide output allocation. dims: 1 = 1-D global, 3 = 3-D global,
    // 0 = workgroup mode (one group per element).
    let (f, input, dims) = match &map_expr.kind {
        ExprKind::Map { kind: MapKind::Glb, f, input } => (f, input, 1u8),
        ExprKind::Map2 { kind: MapKind::Glb, f, input } => (f, input, 2u8),
        ExprKind::Map3 { kind: MapKind::Glb, f, input } => (f, input, 3u8),
        ExprKind::Map { kind: MapKind::Wrg, f, input } => (f, input, 0u8),
        _ => return err(
            "kernel body must be a top-level parallel map/map3/mapWrg (optionally in a WriteTo)",
        ),
    };
    let map_ty = typed.of(&map_expr).clone();
    let plan = memory::plan_output(&f.body, &map_ty, &typed)?;
    let out_root: Option<View> = if let Some(dest) = &outer_dest {
        Some(ctx.view_of(dest, &mut stmts)?)
    } else {
        match &plan {
            OutputPlan::InPlace => None,
            OutputPlan::Alloc(ty) => {
                let kind = ty.scalar_kind().ok_or_else(|| {
                    LowerError("output type must have a uniform scalar kind".into())
                })?;
                kparams.push(KernelParam::global_buf("out", kind));
                args.push(ArgSpec::Output("out".into(), ty.clone()));
                Some(View::mem(MemRef::Param(kparams.len() - 1), ty.clone()))
            }
        }
    };

    // 4. NDRange bounds and guards
    let input_ty = typed.of(input).clone();
    let mut global_size: Vec<ArithExpr> = match dims {
        1 => {
            let n = match &input_ty {
                Type::Array(_, n) => n.clone(),
                other => return err(format!("map over non-array {other}")),
            };
            vec![n]
        }
        2 => {
            let (nx, ny) =
                dims2(&input_ty).ok_or_else(|| LowerError("map2 over non-2D array".into()))?;
            vec![nx, ny]
        }
        3 => {
            let (nx, ny, nz) =
                dims3(&input_ty).ok_or_else(|| LowerError("map3 over non-3D array".into()))?;
            vec![nx, ny, nz]
        }
        _ => {
            // workgroup mode: one group per chunk; the launcher runs exactly
            // G groups of the kernel's local size, so no guard is needed.
            let g = match &input_ty {
                Type::Array(_, n) => n.clone(),
                other => return err(format!("mapWrg over non-array {other}")),
            };
            vec![g]
        }
    };
    if dims != 0 {
        for (d, n) in global_size.iter().enumerate() {
            stmts.push(KStmt::return_if(KExpr::bin(
                BinOp::Ge,
                KExpr::GlobalId(d as u8),
                KExpr::from_arith(n),
            )));
        }
    }

    // 5. bind the element and emit the body
    let input_view = ctx.view_of(input, &mut stmts)?;
    let (elem_view, elem_out) = match dims {
        1 => {
            let gid = KExpr::GlobalId(0);
            let ev = input_view.access(gid.clone())?;
            let ov = match &out_root {
                Some(v) => Some(v.clone().access(gid)?),
                None => None,
            };
            (ev, ov)
        }
        2 => {
            let (gx, gy) = (KExpr::GlobalId(0), KExpr::GlobalId(1));
            let ev = input_view.access(gy.clone())?.access(gx.clone())?;
            let ov = match &out_root {
                Some(v) => Some(v.clone().access(gy)?.access(gx)?),
                None => None,
            };
            (ev, ov)
        }
        3 => {
            let (gx, gy, gz) = (KExpr::GlobalId(0), KExpr::GlobalId(1), KExpr::GlobalId(2));
            let ev = input_view.access(gz.clone())?.access(gy.clone())?.access(gx.clone())?;
            let ov = match &out_root {
                Some(v) => Some(v.clone().access(gz)?.access(gy)?.access(gx)?),
                None => None,
            };
            (ev, ov)
        }
        _ => {
            let grp = KExpr::GroupId(0);
            let ev = input_view.access(grp.clone())?;
            let ov = match &out_root {
                Some(v) => Some(v.clone().access(grp)?),
                None => None,
            };
            (ev, ov)
        }
    };
    ctx.bindings.insert(f.params[0].id, elem_view);
    if memory::is_side_effecting(&f.body) {
        ctx.emit_into(&f.body, None, &mut stmts)?;
    } else {
        ctx.emit_into(&f.body, elem_out, &mut stmts)?;
    }

    let mut local_size = None;
    if dims == 0 {
        let t = ctx
            .lcl_size
            .clone()
            .ok_or_else(|| LowerError("a mapWrg kernel needs at least one mapLcl inside".into()))?;
        // total work-items = groups × local size
        let g = global_size.pop().expect("one dim");
        global_size = vec![g * t.clone()];
        local_size = Some(t);
    }
    let work_dim = if dims == 0 { 1 } else { dims };
    let kernel =
        Kernel { name: name.into(), params: kparams, body: stmts, work_dim }.resolve_real(real);
    Ok(LoweredKernel { kernel, args, global_size, local_size })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::funs;
    use crate::ir::*;
    use crate::scalar::Lit;

    #[test]
    fn simple_map_lowers_with_allocated_output() {
        let a = ParamDef::typed("a", Type::array(Type::real(), "N"));
        let prog = map_glb(a.to_expr(), "x", |x| call(&funs::add(), vec![x.clone(), x]));
        let lk = lower_kernel("k", &[a], &prog, ScalarKind::F32).unwrap();
        assert_eq!(lk.kernel.work_dim, 1);
        assert_eq!(lk.global_size, vec![ArithExpr::var("N")]);
        // params: a, N, out
        assert_eq!(lk.kernel.params.len(), 3);
        assert!(matches!(lk.args[2], ArgSpec::Output(_, _)));
        // must contain a store to the out buffer
        let has_store =
            lk.kernel.body.iter().any(|s| matches!(s, KStmt::Store { mem: MemRef::Param(2), .. }));
        assert!(has_store, "body: {:?}", lk.kernel.body);
    }

    #[test]
    fn zip_map_reads_both_inputs() {
        let a = ParamDef::typed("A", Type::array(Type::real(), "N"));
        let b = ParamDef::typed("B", Type::array(Type::real(), "N"));
        let prog = map_glb(zip(vec![a.to_expr(), b.to_expr()]), "p", |p| {
            call(&funs::add(), vec![get(p.clone(), 0), get(p, 1)])
        });
        let lk = lower_kernel("sum2", &[a, b], &prog, ScalarKind::F32).unwrap();
        let src = format!("{:?}", lk.kernel.body);
        assert!(src.contains("Param(0)") && src.contains("Param(1)"), "{src}");
    }

    #[test]
    fn in_place_concat_skip_idiom() {
        // Map(idx => WriteTo(data, Concat(Skip(idx), ArrayCons(v,1), Skip(rest)))) << indices
        let indices = ParamDef::typed("indices", Type::array(Type::i32(), "numB"));
        let data = ParamDef::typed("data", Type::array(Type::real(), "N"));
        let d2 = data.clone();
        let prog = map_glb(indices.to_expr(), "idx", move |idx| {
            let upd = call(&funs::add(), vec![at(d2.to_expr(), idx.clone()), lit(Lit::real(1.0))]);
            write_to(
                d2.to_expr(),
                concat(vec![
                    skip(idx.clone(), Type::real()),
                    array_cons(upd, 1usize),
                    skip(call(&funs::restlen(), vec![size_val("N"), idx]), Type::real()),
                ]),
            )
        });
        let lk = lower_kernel("inplace", &[indices, data], &prog, ScalarKind::F32).unwrap();
        // No out param was allocated: params are indices, data, N, numB
        assert!(lk.args.iter().all(|a| !matches!(a, ArgSpec::Output(_, _))));
        // There is exactly one global store, into `data` (param index 1).
        fn count_stores(b: &[KStmt], n: &mut usize) {
            for s in b {
                match s {
                    KStmt::Store { mem: MemRef::Param(1), .. } => *n += 1,
                    KStmt::Store { .. } => panic!("store to unexpected buffer"),
                    KStmt::For { body, .. } => count_stores(body, n),
                    KStmt::If { then_, else_, .. } => {
                        count_stores(then_, n);
                        count_stores(else_, n);
                    }
                    _ => {}
                }
            }
        }
        let mut n = 0;
        count_stores(&lk.kernel.body, &mut n);
        assert_eq!(n, 1);
    }

    #[test]
    fn map3_stencil_lowers_to_3d_kernel() {
        let prev = ParamDef::typed("prev", Type::array3(Type::real(), "Nx", "Ny", "Nz"));
        let curr = ParamDef::typed("curr", Type::array3(Type::real(), "Nx", "Ny", "Nz"));
        let c2 = curr.clone();
        let prog = map3_glb(
            zip3(vec![
                prev.to_expr(),
                slide3(3, 1, pad3(1, PadKind::Constant(Lit::real(0.0)), c2.to_expr())),
            ]),
            "m",
            |m| {
                let w = get(m.clone(), 1);
                let center = at(at(at(w, lit(Lit::i32(1))), lit(Lit::i32(1))), lit(Lit::i32(1)));
                call(&funs::sub(), vec![center, get(m, 0)])
            },
        );
        let lk = lower_kernel("st", &[prev, curr], &prog, ScalarKind::F64).unwrap();
        assert_eq!(lk.kernel.work_dim, 3);
        assert_eq!(lk.global_size.len(), 3);
        assert_eq!(lk.global_size[0], ArithExpr::var("Nx"));
    }

    #[test]
    fn reduce_seq_generates_loop() {
        let a = ParamDef::typed("a", Type::array(Type::real(), 8usize));
        let prog = map_glb(slide(3, 1, a.to_expr()), "w", |w| {
            reduce_seq(lit(Lit::real(0.0)), w, |acc, x| call(&funs::add(), vec![acc, x]))
        });
        let lk = lower_kernel("red", &[a], &prog, ScalarKind::F32).unwrap();
        let has_for = lk.kernel.body.iter().any(|s| matches!(s, KStmt::For { .. }));
        assert!(has_for);
    }

    #[test]
    fn multi_output_tuple_of_writeto() {
        let idxs = ParamDef::typed("idxs", Type::array(Type::i32(), "numB"));
        let a = ParamDef::typed("a", Type::array(Type::real(), "N"));
        let b = ParamDef::typed("b", Type::array(Type::real(), "N"));
        let (a2, b2) = (a.clone(), b.clone());
        let prog = map_glb(idxs.to_expr(), "idx", move |idx| {
            tuple(vec![
                write_to(at(a2.to_expr(), idx.clone()), lit(Lit::real(1.0))),
                write_to(at(b2.to_expr(), idx), lit(Lit::real(2.0))),
            ])
        });
        let lk = lower_kernel("multi", &[idxs, a, b], &prog, ScalarKind::F32).unwrap();
        let src = format!("{:?}", lk.kernel.body);
        // stores into both buffers
        assert!(src.matches("Store").count() >= 2, "{src}");
        assert!(lk.args.iter().all(|x| !matches!(x, ArgSpec::Output(_, _))));
    }

    #[test]
    fn rejects_untyped_kernel_input() {
        let p = ParamDef::untyped("x");
        let prog = map_glb(p.to_expr(), "e", |e| e);
        assert!(lower_kernel("bad", &[p], &prog, ScalarKind::F32).is_err());
    }

    #[test]
    fn rejects_non_map_body() {
        let a = ParamDef::typed("a", Type::array(Type::real(), "N"));
        let prog = a.to_expr();
        assert!(lower_kernel("bad", &[a], &prog, ScalarKind::F32).is_err());
    }

    #[test]
    fn size_vars_become_scalar_params() {
        let a = ParamDef::typed("a", Type::array(Type::real(), "N"));
        let prog = map_glb(a.to_expr(), "x", |x| x);
        let lk = lower_kernel("k", &[a], &prog, ScalarKind::F32).unwrap();
        assert!(lk.kernel.params.iter().any(|p| p.name == "N" && !p.is_buffer));
    }
}
