//! Lowering: pattern IR → kernel AST.
//!
//! This is the code-generation stage of §III-A: after type checking, views
//! are constructed for every expression and collapsed into indexed loads and
//! stores while the pattern structure becomes loops and NDRange guards.
//!
//! The top level of a kernel body must be a nest of one to three parallel
//! `map`s, each the body of the one above (a 1-, 2- or 3-D NDRange, the
//! outermost map on the last dimension), or a `mapWrg`, optionally wrapped
//! in a `WriteTo` that re-routes the kernel output into one of its inputs.
//! A `map` in input position whose body only rearranges data (its view
//! needs no code) is a view ([`View::MapV`]). Inside the element function:
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
use crate::typecheck::{check, IdMap, TypeError, Typed};
use crate::types::{ScalarKind, Type};
use crate::verify::Assumptions;
use crate::view::{View, ViewError};
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
    bindings: IdMap<ParamId, View>,
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

    /// Materialises an array expression into a fresh private array, or into
    /// workgroup-local memory with a cooperative load (`for (i = lid; i <
    /// len; i += lsize)`) followed by a barrier, and returns its memory view.
    fn materialize(
        &mut self,
        inner: &ExprRef,
        local: bool,
        out: &mut Vec<KStmt>,
    ) -> Result<View, LowerError> {
        let what = if local { "toLocal" } else { "toPrivate" };
        let ty = self.typed.of(inner).clone();
        let (kind, len) = match &ty {
            Type::Array(e, n) => match **e {
                Type::Scalar(k) => (k, KExpr::from_arith(n)),
                ref other => return err(format!("{what} supports scalar elements, got {other}")),
            },
            other => return err(format!("{what} of non-array {other}")),
        };
        if !local {
            let name = self.names.fresh("priv");
            out.push(KStmt::DeclPrivArray { name: name.clone(), kind, len });
            let view = View::mem(MemRef::Priv(name), ty);
            self.emit_into(inner, Some(view.clone()), out)?;
            return Ok(view);
        }
        let name = self.names.fresh("tile");
        out.push(KStmt::DeclLocalArray { name: name.clone(), kind, len: len.clone() });
        // cooperative load: each local item copies a strided share
        let src_view = self.view_of(inner, out)?;
        let var = self.names.fresh("co");
        let tile = View::mem(MemRef::Local(name), ty);
        let src = src_view.access(KExpr::var(&var))?;
        let body = vec![tile.clone().access(KExpr::var(&var))?.store(src.as_scalar()?)?];
        let (begin, step) = (KExpr::LocalId(0), KExpr::LocalSize(0));
        out.push(KStmt::For { var, begin, end: len, step, body });
        out.push(KStmt::Barrier);
        Ok(tile)
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
                Ok(View::Gather { base: Rc::new(base), start, stride: KExpr::from_arith(stride) })
            }
            ExprKind::Iota { .. } => Ok(View::IotaV),
            ExprKind::Zip(parts) => {
                let vs: Result<Vec<View>, LowerError> =
                    parts.iter().map(|p| self.view_of(p, out)).collect();
                Ok(View::ZipV(vs?))
            }
            ExprKind::Slide { step, input, .. } => Ok(View::SlideV {
                base: Rc::new(self.view_of(input, out)?),
                step: *step,
                window: None,
            }),
            ExprKind::Pad { left, kind, input, .. } => {
                let len = self.typed.of(input).len().cloned();
                let len = len.ok_or_else(|| LowerError("pad over a non-array".into()))?;
                let base = Rc::new(self.view_of(input, out)?);
                Ok(View::PadV { base, left: *left, len, kind: *kind })
            }
            ExprKind::Crop { margin, input } => Ok(View::Gather {
                base: Rc::new(self.view_of(input, out)?),
                start: KExpr::int(*margin as i32),
                stride: KExpr::int(1),
            }),
            ExprKind::Transpose(input) => {
                Ok(View::TransposeV { base: Rc::new(self.view_of(input, out)?), first: None })
            }
            ExprKind::Split { chunk, input } => {
                Ok(View::SplitV { base: Rc::new(self.view_of(input, out)?), chunk: chunk.clone() })
            }
            ExprKind::Join { input } => {
                let inner = match self.typed.of(input) {
                    Type::Array(elem, _) => match elem.as_ref() {
                        Type::Array(_, m) => m.clone(),
                        other => return err(format!("join over non-nested array {other}")),
                    },
                    other => return err(format!("join over non-array {other}")),
                };
                Ok(View::JoinV { base: Rc::new(self.view_of(input, out)?), inner })
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
            ExprKind::ToPrivate(inner) => self.materialize(inner, false, out),
            ExprKind::ToLocal(inner) => self.materialize(inner, true, out),
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
            // a map whose body only rearranges data: its body's view needs no code
            ExprKind::Map { f, input, .. } => {
                let base = Rc::new(self.view_of(input, out)?);
                let param = f.params[0].id;
                self.bindings.insert(param, View::Hole(param));
                let mut code = Vec::new();
                match self.view_of(&f.body, &mut code) {
                    Ok(body) if code.is_empty() => {
                        Ok(View::MapV { base, param, body: Rc::new(body) })
                    }
                    _ => err("a map that computes, used as an input, must be materialised with \
                         to_private (LIFT would fuse it; this generator requires explicit \
                         materialisation)"),
                }
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
                        base: Rc::new(ov.clone()),
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
                let ov =
                    out_view.ok_or_else(|| LowerError("arrayCons needs a destination".into()))?;
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
            ExprKind::Map { kind: kind @ (MapKind::Seq | MapKind::Lcl), f, input } => {
                let iv = self.view_of(input, out)?;
                let n = match self.typed.of(input) {
                    Type::Array(_, n) => n.clone(),
                    other => return err(format!("map over non-array {other}")),
                };
                // a loop, or one element per local work-item: get_local_id(0)
                let idx = if *kind == MapKind::Seq {
                    KExpr::var(self.names.fresh("i"))
                } else {
                    match &self.lcl_size {
                        None => self.lcl_size = Some(n.clone()),
                        Some(prev) if *prev == n => {}
                        Some(prev) => {
                            return err(format!(
                                "all Lcl maps in a kernel must share one extent: {prev} vs {n}"
                            ))
                        }
                    }
                    KExpr::LocalId(0)
                };
                let mut body = Vec::new();
                self.bindings.insert(f.params[0].id, iv.access(idx.clone())?);
                if memory::is_side_effecting(&f.body) {
                    self.emit_into(&f.body, None, &mut body)?;
                } else {
                    let ov = out_view.ok_or_else(|| {
                        LowerError("value-producing map needs a destination".into())
                    })?;
                    self.emit_into(&f.body, Some(ov.access(idx.clone())?), &mut body)?;
                }
                match idx {
                    KExpr::Var(var) => out.push(KStmt::For {
                        var,
                        begin: KExpr::int(0),
                        end: KExpr::from_arith(&n),
                        step: KExpr::int(1),
                        body,
                    }),
                    _ => out.append(&mut body),
                }
                Ok(())
            }
            ExprKind::Map { .. } => err(
                "inside a kernel a map is a mapSeq or mapLcl; only the kernel's top-level nest \
                 of up to three maps is group/global parallel",
            ),
            ExprKind::ToPrivate(inner) => self.emit_into(inner, out_view, out),
            ExprKind::ToLocal(inner) => self.emit_into(inner, out_view, out),
            _ => {
                let ov =
                    out_view.ok_or_else(|| LowerError("expression needs a destination".into()))?;
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

/// Collects size variables appearing in arithmetic embedded in the
/// program (e.g. `SizeVal`, slice strides).
fn size_vars_of_expr(e: &ExprRef, out: &mut Vec<String>) {
    let arith: &[&ArithExpr] = match &e.kind {
        ExprKind::SizeVal(a) | ExprKind::Iota { n: a } => &[a],
        ExprKind::Slice { stride, len, .. } => &[stride, len],
        ExprKind::Split { chunk: a, .. } | ExprKind::ArrayCons { n: a, .. } => &[a],
        ExprKind::Skip { elem, .. } => {
            size_vars_of_type(elem, out);
            &[]
        }
        _ => &[],
    };
    for v in arith.iter().flat_map(|a| a.free_vars()) {
        if !v.starts_with("skip") && !out.contains(&v) {
            out.push(v);
        }
    }
    e.kind.for_each_child(|c| size_vars_of_expr(c, out));
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
/// nest of up to three parallel `map`s or a `mapWrg`, optionally wrapped in `WriteTo`
/// and `let`s.
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
        Ctx { typed: &typed, bindings: IdMap::default(), names: NameGen::new(), lcl_size: None };

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

    // also collect size vars from arithmetic embedded in the program
    // (`SizeVal`, iota and slice bounds, skip element types): every other
    // length a type inference derives is built from these and the inputs'
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

    // 3. the top-level map nest, outermost first: up to three `Glb` maps,
    // each the body of the one above, or one `Wrg` map (one group per
    // element)
    let mut nest: Vec<(&Lambda, &ExprRef)> = Vec::new();
    let mut wrg = false;
    let mut cur = &map_expr;
    while let ExprKind::Map { kind, f, input } = &cur.kind {
        match kind {
            MapKind::Glb if !wrg && nest.len() < 3 => {}
            MapKind::Wrg if nest.is_empty() => wrg = true,
            _ => break,
        }
        nest.push((f, input));
        cur = &f.body;
    }
    let Some(&(f, _)) = nest.last() else {
        return err("kernel body must be a top-level parallel map nest or a mapWrg \
                    (optionally in a WriteTo)");
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

    // 4. NDRange bounds and guards, innermost dimension first
    let mut global_size = Vec::with_capacity(nest.len());
    for (_, input) in nest.iter().rev() {
        let n = typed.of(input).len().cloned();
        global_size.push(n.ok_or_else(|| LowerError("map over a non-array".into()))?);
    }
    // workgroup mode: one group per chunk; the launcher runs exactly G
    // groups of the kernel's local size, so no guard is needed.
    if !wrg {
        for (d, n) in global_size.iter().enumerate() {
            stmts.push(KStmt::return_if(KExpr::bin(
                BinOp::Ge,
                KExpr::GlobalId(d as u8),
                KExpr::from_arith(n),
            )));
        }
    }

    // 5. bind each level's element, outermost first, and emit the body
    let mut elem_out = out_root;
    for (k, (lambda, input)) in nest.iter().enumerate() {
        let id = if wrg { KExpr::GroupId(0) } else { KExpr::GlobalId((nest.len() - 1 - k) as u8) };
        let elem_view = ctx.view_of(input, &mut stmts)?.access(id.clone())?;
        elem_out = elem_out.map(|v| v.access(id)).transpose()?;
        ctx.bindings.insert(lambda.params[0].id, elem_view);
    }
    let dest = if memory::is_side_effecting(&f.body) { None } else { elem_out };
    ctx.emit_into(&f.body, dest, &mut stmts)?;

    let mut local_size = None;
    if wrg {
        let t = ctx
            .lcl_size
            .clone()
            .ok_or_else(|| LowerError("a mapWrg kernel needs at least one mapLcl inside".into()))?;
        // total work-items = groups × local size
        let g = global_size.pop().expect("one dim");
        global_size = vec![g * t.clone()];
        local_size = Some(t);
    }
    let work_dim = global_size.len() as u8;
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
        let mut n = 0;
        for s in &lk.kernel.body {
            s.for_each_stmt(&mut |s| match s {
                KStmt::Store { mem: MemRef::Param(1), .. } => n += 1,
                KStmt::Store { .. } => panic!("store to unexpected buffer"),
                _ => {}
            });
        }
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
