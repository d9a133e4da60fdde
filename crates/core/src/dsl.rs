//! A textual front-end for the pattern IR.
//!
//! LIFT "is not intended for directly writing applications … it is meant to
//! be targeted by DSLs or libraries" (§III of the paper). This module is
//! the smallest such front-end: an s-expression surface syntax that parses
//! into [`crate::ir`] expressions, so kernels can be written as text,
//! loaded at run time, and fed through the same
//! typecheck → views → lowering pipeline as builder-constructed programs.
//!
//! ## Syntax
//!
//! ```text
//! (kernel add2
//!   (params (a (array real N)))
//!   (map-glb a (x) (+ x 2.0)))
//! ```
//!
//! * **Types**: `real`, `int`, `(array T len)`, `(array3 T nx ny nz)`;
//!   lengths are integers or size-variable symbols.
//! * **Patterns**: `map-glb`, `map-seq`, `map-wrg`, `map-lcl`, `map2-glb`,
//!   `map3-glb` (`(map-… input (x) body)`), `zip`, `zip2`, `zip3`,
//!   `slide k s x`, `slide2 k s x`, `slide3 k s x`,
//!   `pad l r kind x` (`kind` = `clamp` or a literal), `pad2 a kind x`,
//!   `pad3 a kind x`, `crop3 m x`, `transpose x`, `split n x`, `join x`,
//!   `(reduce (acc x) body init input)`. The 2-D and 3-D forms build the
//!   nests of 1-D patterns their [`crate::ir`] builders do: `map3-glb` is
//!   three nested `map-glb`s, `pad2` is `map pad ∘ pad`.
//! * **Data**: `(at arr idx)`, `(slice arr start stride len)`,
//!   `(get tup i)`, `(tuple …)`, `(iota n)`, `(size-val n)`,
//!   `(let (name value) body)`, `to-private`, `to-local`.
//! * **New primitives**: `(concat …)`, `(skip len real|int)`,
//!   `(array-cons e n)`, `(write-to dest value)`.
//! * **Scalars**: `(+ - * /)`, comparisons `(< <= > >= = !=)`,
//!   `(select c t f)`, `(min a b)`, `(max a b)`, `(sqrt x)`, `(fabs x)`,
//!   `(neg x)`, `(real x)` / `(int x)` casts. Integer literals are `int`,
//!   literals with a decimal point are precision-generic `real`.

use crate::arith::ArithExpr;
use crate::ir::{self, ExprKind, ExprRef, Lambda, MapKind, PadKind, ParamDef};
use crate::scalar::{BinOp, Intrinsic, Lit, SExpr, UserFun};
use crate::types::{ScalarKind, Type};
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

/// Parse error with a byte offset into the source.
#[derive(Debug, Clone)]
pub struct ParseError {
    /// Byte position.
    pub at: usize,
    /// Description.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

fn perr<T>(at: usize, msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError { at, msg: msg.into() })
}

// ---------------------------------------------------------------------------
// S-expressions
// ---------------------------------------------------------------------------

/// A parsed s-expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Sexp {
    /// Symbol token.
    Sym(String, usize),
    /// Integer literal.
    Int(i64, usize),
    /// Float literal (contains a `.` or exponent).
    Float(f64, usize),
    /// Parenthesised list.
    List(Vec<Sexp>, usize),
}

impl Sexp {
    fn at(&self) -> usize {
        match self {
            Sexp::Sym(_, p) | Sexp::Int(_, p) | Sexp::Float(_, p) | Sexp::List(_, p) => *p,
        }
    }

    fn sym(&self) -> Option<&str> {
        match self {
            Sexp::Sym(s, _) => Some(s),
            _ => None,
        }
    }
}

/// Tokenises and parses one s-expression (plus trailing whitespace).
pub fn parse_sexp(src: &str) -> Result<Sexp, ParseError> {
    let bytes = src.as_bytes();
    let mut pos = 0usize;
    let sexp = parse_one(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return perr(pos, "trailing input after expression");
    }
    Ok(sexp)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    loop {
        while *pos < b.len() && (b[*pos] as char).is_whitespace() {
            *pos += 1;
        }
        if *pos < b.len() && b[*pos] == b';' {
            while *pos < b.len() && b[*pos] != b'\n' {
                *pos += 1;
            }
        } else {
            return;
        }
    }
}

fn parse_one(b: &[u8], pos: &mut usize) -> Result<Sexp, ParseError> {
    skip_ws(b, pos);
    if *pos >= b.len() {
        return perr(*pos, "unexpected end of input");
    }
    let start = *pos;
    match b[*pos] {
        b'(' => {
            *pos += 1;
            let mut items = Vec::new();
            loop {
                skip_ws(b, pos);
                if *pos >= b.len() {
                    return perr(start, "unclosed parenthesis");
                }
                if b[*pos] == b')' {
                    *pos += 1;
                    return Ok(Sexp::List(items, start));
                }
                items.push(parse_one(b, pos)?);
            }
        }
        b')' => perr(*pos, "unexpected `)`"),
        _ => {
            let tok_start = *pos;
            while *pos < b.len()
                && !(b[*pos] as char).is_whitespace()
                && b[*pos] != b'('
                && b[*pos] != b')'
                && b[*pos] != b';'
            {
                *pos += 1;
            }
            let tok = &b[tok_start..*pos];
            let s = std::str::from_utf8(tok)
                .map_err(|_| ParseError { at: tok_start, msg: "invalid UTF-8 token".into() })?;
            if let Ok(v) = s.parse::<i64>() {
                Ok(Sexp::Int(v, tok_start))
            } else if s.contains('.') || s.contains('e') || s.contains('E') {
                match s.parse::<f64>() {
                    Ok(v) => Ok(Sexp::Float(v, tok_start)),
                    Err(_) => Ok(Sexp::Sym(s.to_string(), tok_start)),
                }
            } else {
                Ok(Sexp::Sym(s.to_string(), tok_start))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Types
// ---------------------------------------------------------------------------

fn parse_len(s: &Sexp) -> Result<ArithExpr, ParseError> {
    match s {
        Sexp::Int(v, _) => Ok(ArithExpr::cst(*v)),
        Sexp::Sym(n, _) => Ok(ArithExpr::var(n.as_str())),
        other => perr(other.at(), "array length must be an integer or a size variable"),
    }
}

fn parse_type(s: &Sexp) -> Result<Type, ParseError> {
    match s {
        Sexp::Sym(n, p) => match n.as_str() {
            "real" => Ok(Type::real()),
            "int" => Ok(Type::i32()),
            "f32" => Ok(Type::f32()),
            "f64" => Ok(Type::f64()),
            other => perr(*p, format!("unknown type `{other}`")),
        },
        Sexp::List(items, p) => match items.first().and_then(Sexp::sym) {
            Some("array") if items.len() == 3 => {
                Ok(Type::array(parse_type(&items[1])?, parse_len(&items[2])?))
            }
            Some("array3") if items.len() == 5 => Ok(Type::array3(
                parse_type(&items[1])?,
                parse_len(&items[2])?,
                parse_len(&items[3])?,
                parse_len(&items[4])?,
            )),
            _ => perr(*p, "expected (array T n) or (array3 T nx ny nz)"),
        },
        other => perr(other.at(), "expected a type"),
    }
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

/// A parsed kernel: name, typed parameters, body.
#[derive(Debug)]
pub struct DslKernel {
    /// Kernel name.
    pub name: String,
    /// Parameters in order.
    pub params: Vec<Rc<ParamDef>>,
    /// Body expression.
    pub body: ExprRef,
}

impl DslKernel {
    /// Lowers the parsed kernel at the given precision.
    pub fn lower(
        &self,
        real: ScalarKind,
    ) -> Result<crate::lower::LoweredKernel, crate::lower::LowerError> {
        crate::lower::lower_kernel(&self.name, &self.params, &self.body, real)
    }
}

struct Scope {
    names: HashMap<String, ExprRef>,
}

fn bin_fun(name: &str, op: BinOp, pred: bool) -> Rc<UserFun> {
    let ret = if pred { ScalarKind::Bool } else { ScalarKind::Real };
    UserFun::new(
        name,
        vec![("a", ScalarKind::Real), ("b", ScalarKind::Real)],
        ret,
        SExpr::Bin(op, SExpr::p(0).into(), SExpr::p(1).into()),
    )
}

/// Parses a whole `(kernel …)` form.
pub fn parse_kernel(src: &str) -> Result<DslKernel, ParseError> {
    let sexp = parse_sexp(src)?;
    let Sexp::List(items, p) = &sexp else {
        return perr(sexp.at(), "expected (kernel …)");
    };
    if items.first().and_then(Sexp::sym) != Some("kernel") || items.len() != 4 {
        return perr(*p, "expected (kernel NAME (params …) BODY)");
    }
    let name = items[1]
        .sym()
        .ok_or_else(|| ParseError {
            at: items[1].at(),
            msg: "kernel name must be a symbol".into(),
        })?
        .to_string();
    let Sexp::List(pitems, pp) = &items[2] else {
        return perr(items[2].at(), "expected (params …)");
    };
    if pitems.first().and_then(Sexp::sym) != Some("params") {
        return perr(*pp, "expected (params …)");
    }
    let mut params = Vec::new();
    let mut scope = Scope { names: HashMap::new() };
    for decl in &pitems[1..] {
        let Sexp::List(d, dp) = decl else {
            return perr(decl.at(), "expected (name TYPE)");
        };
        if d.len() != 2 {
            return perr(*dp, "expected (name TYPE)");
        }
        let pname = d[0].sym().ok_or_else(|| ParseError {
            at: d[0].at(),
            msg: "parameter name must be a symbol".into(),
        })?;
        let ty = parse_type(&d[1])?;
        let pd = ParamDef::typed(pname, ty);
        scope.names.insert(pname.to_string(), pd.to_expr());
        params.push(pd);
    }
    let body = parse_expr(&items[3], &mut scope)?;
    Ok(DslKernel { name, params, body })
}

fn expect_args(items: &[Sexp], n: usize, form: &str, p: usize) -> Result<(), ParseError> {
    if items.len() != n + 1 {
        return perr(p, format!("`{form}` expects {n} argument(s), got {}", items.len() - 1));
    }
    Ok(())
}

fn parse_lambda1(binder: &Sexp, body: &Sexp, scope: &mut Scope) -> Result<Lambda, ParseError> {
    let Sexp::List(vars, vp) = binder else {
        return perr(binder.at(), "expected a binder list like (x)");
    };
    if vars.len() != 1 {
        return perr(*vp, "map lambdas bind exactly one variable");
    }
    let vname = vars[0]
        .sym()
        .ok_or_else(|| ParseError { at: vars[0].at(), msg: "binder must be a symbol".into() })?;
    let pd = ParamDef::untyped(vname);
    let shadow = scope.names.insert(vname.to_string(), pd.to_expr());
    let b = parse_expr(body, scope)?;
    match shadow {
        Some(old) => {
            scope.names.insert(vname.to_string(), old);
        }
        None => {
            scope.names.remove(vname);
        }
    }
    Ok(Lambda { params: vec![pd], body: b })
}

fn parse_pad_kind(s: &Sexp) -> Result<PadKind, ParseError> {
    match s {
        Sexp::Sym(n, _) if n == "clamp" => Ok(PadKind::Clamp),
        Sexp::Int(v, _) => Ok(PadKind::Constant(Lit::i32(*v as i32))),
        Sexp::Float(v, _) => Ok(PadKind::Constant(Lit::real(*v))),
        other => perr(other.at(), "pad kind must be `clamp` or a literal"),
    }
}

fn small_int(s: &Sexp) -> Result<i64, ParseError> {
    match s {
        Sexp::Int(v, _) => Ok(*v),
        other => perr(other.at(), "expected an integer literal"),
    }
}

fn parse_expr(s: &Sexp, scope: &mut Scope) -> Result<ExprRef, ParseError> {
    match s {
        Sexp::Int(v, _) => Ok(ir::lit(Lit::i32(*v as i32))),
        Sexp::Float(v, _) => Ok(ir::lit(Lit::real(*v))),
        Sexp::Sym(n, p) => scope
            .names
            .get(n)
            .cloned()
            .ok_or_else(|| ParseError { at: *p, msg: format!("unbound name `{n}`") }),
        Sexp::List(items, p) => {
            let head = items
                .first()
                .and_then(Sexp::sym)
                .ok_or_else(|| ParseError { at: *p, msg: "expected an operator symbol".into() })?;
            let a = |i: usize| &items[i];
            match head {
                // ---- maps ----
                "map-glb" | "map-seq" | "map-wrg" | "map-lcl" | "map2-glb" | "map3-glb" => {
                    expect_args(items, 3, head, *p)?;
                    let input = parse_expr(a(1), scope)?;
                    let lam = parse_lambda1(a(2), a(3), scope)?;
                    Ok(match head {
                        "map-seq" => ir::map(MapKind::Seq, input, lam),
                        "map-wrg" => ir::map(MapKind::Wrg, input, lam),
                        "map-lcl" => ir::map(MapKind::Lcl, input, lam),
                        "map2-glb" => ir::map_glb(input, "row", |r| ir::map(MapKind::Glb, r, lam)),
                        "map3-glb" => ir::map_glb(input, "plane", |p| {
                            ir::map_glb(p, "row", |r| ir::map(MapKind::Glb, r, lam))
                        }),
                        _ => ir::map(MapKind::Glb, input, lam),
                    })
                }
                "reduce" => {
                    expect_args(items, 4, head, *p)?;
                    let Sexp::List(vars, vp) = a(1) else {
                        return perr(a(1).at(), "expected (acc x) binder");
                    };
                    if vars.len() != 2 {
                        return perr(*vp, "reduce binds (acc x)");
                    }
                    let an = vars[0]
                        .sym()
                        .ok_or_else(|| ParseError { at: vars[0].at(), msg: "binder".into() })?;
                    let xn = vars[1]
                        .sym()
                        .ok_or_else(|| ParseError { at: vars[1].at(), msg: "binder".into() })?;
                    let pa = ParamDef::untyped(an);
                    let px = ParamDef::untyped(xn);
                    let sa = scope.names.insert(an.to_string(), pa.to_expr());
                    let sx = scope.names.insert(xn.to_string(), px.to_expr());
                    let body = parse_expr(a(2), scope)?;
                    restore(scope, an, sa);
                    restore(scope, xn, sx);
                    let init = parse_expr(a(3), scope)?;
                    let input = parse_expr(a(4), scope)?;
                    Ok(ir::Expr::new(ExprKind::ReduceSeq {
                        f: Lambda { params: vec![pa, px], body },
                        init,
                        input,
                    }))
                }
                // ---- layout ----
                "zip" | "zip2" | "zip3" => {
                    let parts: Result<Vec<ExprRef>, ParseError> =
                        items[1..].iter().map(|x| parse_expr(x, scope)).collect();
                    let build = match head {
                        "zip2" => ir::zip2,
                        "zip3" => ir::zip3,
                        _ => ir::zip,
                    };
                    Ok(build(parts?))
                }
                "slide" | "slide2" | "slide3" => {
                    expect_args(items, 3, head, *p)?;
                    let (size, step) = (small_int(a(1))?, small_int(a(2))?);
                    let build = match head {
                        "slide2" => ir::slide2,
                        "slide3" => ir::slide3,
                        _ => ir::slide,
                    };
                    Ok(build(size, step, parse_expr(a(3), scope)?))
                }
                "pad" => {
                    expect_args(items, 4, head, *p)?;
                    let (left, right) = (small_int(a(1))?, small_int(a(2))?);
                    let kind = parse_pad_kind(a(3))?;
                    Ok(ir::pad(left, right, kind, parse_expr(a(4), scope)?))
                }
                // `(pad2 a kind x)` / `(pad3 a kind x)`: `a` on every side
                "pad2" | "pad3" => {
                    expect_args(items, 3, head, *p)?;
                    let (amount, kind) = (small_int(a(1))?, parse_pad_kind(a(2))?);
                    let build = if head == "pad2" { ir::pad2 } else { ir::pad3 };
                    Ok(build(amount, kind, parse_expr(a(3), scope)?))
                }
                "crop3" => {
                    expect_args(items, 2, head, *p)?;
                    Ok(ir::crop3(small_int(a(1))?, parse_expr(a(2), scope)?))
                }
                "transpose" => {
                    expect_args(items, 1, head, *p)?;
                    Ok(ir::transpose(parse_expr(a(1), scope)?))
                }
                "split" => {
                    expect_args(items, 2, head, *p)?;
                    Ok(ir::split(parse_len(a(1))?, parse_expr(a(2), scope)?))
                }
                "join" => {
                    expect_args(items, 1, head, *p)?;
                    Ok(ir::join(parse_expr(a(1), scope)?))
                }
                // ---- data ----
                "at" => {
                    expect_args(items, 2, head, *p)?;
                    Ok(ir::at(parse_expr(a(1), scope)?, parse_expr(a(2), scope)?))
                }
                "slice" => {
                    expect_args(items, 4, head, *p)?;
                    Ok(ir::slice(
                        parse_expr(a(1), scope)?,
                        parse_expr(a(2), scope)?,
                        parse_len(a(3))?,
                        parse_len(a(4))?,
                    ))
                }
                "get" => {
                    expect_args(items, 2, head, *p)?;
                    Ok(ir::get(parse_expr(a(1), scope)?, small_int(a(2))? as usize))
                }
                "tuple" => {
                    let parts: Result<Vec<ExprRef>, ParseError> =
                        items[1..].iter().map(|x| parse_expr(x, scope)).collect();
                    Ok(ir::tuple(parts?))
                }
                "iota" => {
                    expect_args(items, 1, head, *p)?;
                    Ok(ir::iota(parse_len(a(1))?))
                }
                "size-val" => {
                    expect_args(items, 1, head, *p)?;
                    Ok(ir::size_val(parse_len(a(1))?))
                }
                "let" => {
                    expect_args(items, 2, head, *p)?;
                    let Sexp::List(bind, bp) = a(1) else {
                        return perr(a(1).at(), "expected (name value)");
                    };
                    if bind.len() != 2 {
                        return perr(*bp, "expected (name value)");
                    }
                    let n = bind[0]
                        .sym()
                        .ok_or_else(|| ParseError { at: bind[0].at(), msg: "binder".into() })?;
                    let value = parse_expr(&bind[1], scope)?;
                    let pd = ParamDef::untyped(n);
                    let shadow = scope.names.insert(n.to_string(), pd.to_expr());
                    let body = parse_expr(a(2), scope)?;
                    restore(scope, n, shadow);
                    Ok(ir::Expr::new(ExprKind::Let { param: pd, value, body }))
                }
                "to-private" => {
                    expect_args(items, 1, head, *p)?;
                    Ok(ir::to_private(parse_expr(a(1), scope)?))
                }
                "to-local" => {
                    expect_args(items, 1, head, *p)?;
                    Ok(ir::to_local(parse_expr(a(1), scope)?))
                }
                // ---- the paper's primitives ----
                "concat" => {
                    let parts: Result<Vec<ExprRef>, ParseError> =
                        items[1..].iter().map(|x| parse_expr(x, scope)).collect();
                    Ok(ir::concat(parts?))
                }
                "skip" => {
                    expect_args(items, 2, head, *p)?;
                    let len = parse_expr(a(1), scope)?;
                    let ty = parse_type(a(2))?;
                    Ok(ir::skip(len, ty))
                }
                "array-cons" => {
                    expect_args(items, 2, head, *p)?;
                    Ok(ir::array_cons(parse_expr(a(1), scope)?, parse_len(a(2))?))
                }
                "write-to" => {
                    expect_args(items, 2, head, *p)?;
                    Ok(ir::write_to(parse_expr(a(1), scope)?, parse_expr(a(2), scope)?))
                }
                // ---- scalars ----
                "+" | "-" | "*" | "/" => {
                    expect_args(items, 2, head, *p)?;
                    let op = match head {
                        "+" => BinOp::Add,
                        "-" => BinOp::Sub,
                        "*" => BinOp::Mul,
                        _ => BinOp::Div,
                    };
                    let f = bin_fun(op_name(head), op, false);
                    Ok(ir::call(&f, vec![parse_expr(a(1), scope)?, parse_expr(a(2), scope)?]))
                }
                "<" | "<=" | ">" | ">=" | "=" | "!=" => {
                    expect_args(items, 2, head, *p)?;
                    let op = match head {
                        "<" => BinOp::Lt,
                        "<=" => BinOp::Le,
                        ">" => BinOp::Gt,
                        ">=" => BinOp::Ge,
                        "=" => BinOp::Eq,
                        _ => BinOp::Ne,
                    };
                    let f = bin_fun(op_name(head), op, true);
                    Ok(ir::call(&f, vec![parse_expr(a(1), scope)?, parse_expr(a(2), scope)?]))
                }
                "select" => {
                    expect_args(items, 3, head, *p)?;
                    let f = UserFun::new(
                        "selectF",
                        vec![
                            ("c", ScalarKind::Bool),
                            ("t", ScalarKind::Real),
                            ("e", ScalarKind::Real),
                        ],
                        ScalarKind::Real,
                        SExpr::select(SExpr::p(0), SExpr::p(1), SExpr::p(2)),
                    );
                    Ok(ir::call(
                        &f,
                        vec![
                            parse_expr(a(1), scope)?,
                            parse_expr(a(2), scope)?,
                            parse_expr(a(3), scope)?,
                        ],
                    ))
                }
                "min" | "max" => {
                    expect_args(items, 2, head, *p)?;
                    let i = if head == "min" { Intrinsic::Min } else { Intrinsic::Max };
                    let f = UserFun::new(
                        head,
                        vec![("a", ScalarKind::Real), ("b", ScalarKind::Real)],
                        ScalarKind::Real,
                        SExpr::Call(i, vec![SExpr::p(0), SExpr::p(1)]),
                    );
                    Ok(ir::call(&f, vec![parse_expr(a(1), scope)?, parse_expr(a(2), scope)?]))
                }
                "sqrt" | "fabs" | "exp" | "log" | "sin" | "cos" => {
                    expect_args(items, 1, head, *p)?;
                    let i = match head {
                        "sqrt" => Intrinsic::Sqrt,
                        "fabs" => Intrinsic::Fabs,
                        "exp" => Intrinsic::Exp,
                        "log" => Intrinsic::Log,
                        "sin" => Intrinsic::Sin,
                        _ => Intrinsic::Cos,
                    };
                    let f = UserFun::new(
                        head,
                        vec![("x", ScalarKind::Real)],
                        ScalarKind::Real,
                        SExpr::Call(i, vec![SExpr::p(0)]),
                    );
                    Ok(ir::call(&f, vec![parse_expr(a(1), scope)?]))
                }
                "neg" => {
                    expect_args(items, 1, head, *p)?;
                    let f = UserFun::new(
                        "negF",
                        vec![("x", ScalarKind::Real)],
                        ScalarKind::Real,
                        -SExpr::p(0),
                    );
                    Ok(ir::call(&f, vec![parse_expr(a(1), scope)?]))
                }
                "real" | "int" => {
                    expect_args(items, 1, head, *p)?;
                    let (from, to) = if head == "real" {
                        (ScalarKind::I32, ScalarKind::Real)
                    } else {
                        (ScalarKind::Real, ScalarKind::I32)
                    };
                    let f = UserFun::new(
                        if head == "real" { "toReal" } else { "toInt" },
                        vec![("x", from)],
                        to,
                        SExpr::cast(to, SExpr::p(0)),
                    );
                    Ok(ir::call(&f, vec![parse_expr(a(1), scope)?]))
                }
                other => perr(*p, format!("unknown form `{other}`")),
            }
        }
    }
}

fn op_name(sym: &str) -> &'static str {
    match sym {
        "+" => "addF",
        "-" => "subF",
        "*" => "mulF",
        "/" => "divF",
        "<" => "ltF",
        "<=" => "leF",
        ">" => "gtF",
        ">=" => "geF",
        "=" => "eqF",
        _ => "neF",
    }
}

fn restore(scope: &mut Scope, name: &str, shadow: Option<ExprRef>) {
    match shadow {
        Some(old) => {
            scope.names.insert(name.to_string(), old);
        }
        None => {
            scope.names.remove(name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::typecheck::check;

    #[test]
    fn sexp_parser_basics() {
        let s = parse_sexp("(a (b 1 2.5) c) ; comment\n").unwrap();
        let Sexp::List(items, _) = s else { panic!() };
        assert_eq!(items.len(), 3);
        assert_eq!(items[0].sym(), Some("a"));
        let Sexp::List(inner, _) = &items[1] else { panic!() };
        assert_eq!(inner[1], Sexp::Int(1, 6));
        assert!(matches!(inner[2], Sexp::Float(v, _) if v == 2.5));
    }

    #[test]
    fn unbalanced_parens_error() {
        assert!(parse_sexp("(a (b)").is_err());
        assert!(parse_sexp("a)").is_err());
    }

    #[test]
    fn simple_kernel_parses_and_lowers() {
        let k = parse_kernel(
            "(kernel add2
               (params (a (array real N)))
               (map-glb a (x) (+ x 2.0)))",
        )
        .unwrap();
        assert_eq!(k.name, "add2");
        check(&k.body).unwrap();
        let lk = k.lower(ScalarKind::F32).unwrap();
        let src = crate::opencl::emit_kernel(&lk.kernel);
        assert!(src.contains("__kernel void add2"), "{src}");
        assert!(src.contains("+ 2.0f"), "{src}");
    }

    #[test]
    fn stencil_kernel_parses() {
        let k = parse_kernel(
            "(kernel blur
               (params (a (array real N)))
               (map-glb (slide 3 1 (pad 1 1 clamp a)) (w)
                 (reduce (acc x) (+ acc x) 0.0 w)))",
        )
        .unwrap();
        check(&k.body).unwrap();
        k.lower(ScalarKind::F64).unwrap();
    }

    #[test]
    fn in_place_kernel_parses() {
        let k = parse_kernel(
            "(kernel scatter
               (params (indices (array int numB)) (data (array real N)))
               (map-glb indices (idx)
                 (write-to data
                   (concat (skip idx real)
                           (array-cons (+ (at data idx) 1.0) 1)
                           (skip (- (- (size-val N) idx) 1) real)))))",
        )
        .unwrap();
        check(&k.body).unwrap();
        let lk = k.lower(ScalarKind::F32).unwrap();
        assert!(lk.args.iter().all(|a| !matches!(a, crate::lower::ArgSpec::Output(_, _))));
    }

    #[test]
    fn let_scoping_shadows_and_restores() {
        let k = parse_kernel(
            "(kernel sc
               (params (a (array real N)))
               (map-glb a (x)
                 (let (y (* x 2.0)) (+ y x))))",
        )
        .unwrap();
        check(&k.body).unwrap();
    }

    #[test]
    fn unbound_name_is_reported() {
        let e = parse_kernel("(kernel bad (params (a (array real N))) (map-glb zz (x) x))");
        assert!(e.is_err());
        assert!(e.unwrap_err().msg.contains("unbound name `zz`"));
    }

    #[test]
    fn unknown_form_is_reported() {
        let e = parse_kernel("(kernel bad (params) (frobnicate 1 2))");
        assert!(e.unwrap_err().msg.contains("unknown form"));
    }

    #[test]
    fn tuple_and_zip_parse() {
        let k = parse_kernel(
            "(kernel z
               (params (a (array real N)) (b (array real N)))
               (map-glb (zip a b) (t) (+ (get t 0) (get t 1))))",
        )
        .unwrap();
        check(&k.body).unwrap();
        k.lower(ScalarKind::F32).unwrap();
    }

    #[test]
    fn workgroup_forms_parse() {
        let k = parse_kernel(
            "(kernel tiled
               (params (a (array real 256)))
               (map-wrg (slide 34 32 (pad 1 1 clamp a)) (tile)
                 (map-lcl (slide 3 1 (to-local tile)) (w)
                   (reduce (acc x) (+ acc x) 0.0 w))))",
        )
        .unwrap();
        check(&k.body).unwrap();
        let lk = k.lower(ScalarKind::F32).unwrap();
        assert!(lk.local_size.is_some());
    }

    /// The lowering error of a kernel with inputs `a : [real; N]` and
    /// `g : [[[real; N]; N]; N]` and body `body`.
    fn lower_error(body: &str) -> String {
        let src = format!("(kernel k (params (a (array real N)) (g (array3 real N N N))) {body})");
        let k = parse_kernel(&src).expect("parses");
        k.lower(ScalarKind::F32).expect_err("malformed layout is rejected").to_string()
    }

    #[test]
    fn zip_of_one_array_is_a_type_error() {
        let e = lower_error("(map-glb (zip a) (t) (get t 0))");
        assert!(e.contains("type error") && e.contains("zip needs at least two arrays"), "{e}");
        let e = lower_error("(map3-glb (zip3 g) (t) (get t 0))");
        assert!(e.contains("zip needs at least two arrays"), "{e}");
    }

    #[test]
    fn slide_by_zero_is_a_type_error() {
        let e = lower_error("(map-glb (slide 3 0 a) (w) (at w 0))");
        assert!(e.contains("type error") && e.contains("slide needs size ≥ 1 and step ≥ 1"), "{e}");
        let e = lower_error("(map3-glb (slide3 0 1 g) (w) 1.0)");
        assert!(e.contains("slide needs size ≥ 1"), "{e}");
    }

    #[test]
    fn negative_pad_is_a_type_error() {
        let e = lower_error("(map-glb (pad -2 0 clamp a) (x) x)");
        assert!(e.contains("type error") && e.contains("pad amounts must be ≥ 0"), "{e}");
        let e = lower_error("(map3-glb (pad3 -1 0.0 g) (x) x)");
        assert!(e.contains("pad amounts must be ≥ 0"), "{e}");
    }

    #[test]
    fn transpose_of_a_flat_array_is_a_type_error() {
        let e = lower_error("(map-glb (transpose a) (r) (at r 0))");
        assert!(
            e.contains("type error") && e.contains("transpose expects an array of arrays"),
            "{e}"
        );
        // of a grid it swaps the outer two levels
        let k = parse_kernel(
            "(kernel t (params (g (array (array real 3) 5))) (map2-glb (transpose g) (x) x))",
        )
        .unwrap();
        let lk = k.lower(ScalarKind::F32).unwrap();
        assert_eq!(lk.global_size, vec![ArithExpr::cst(5), ArithExpr::cst(3)]);
    }
}
