//! The scalar-function language: executable bodies for LIFT user functions.
//!
//! Real LIFT embeds user functions as opaque OpenCL C strings. We cannot do
//! that here — generated kernels must *execute* on the `vgpu` substrate — so
//! user functions carry a small, typed expression body with precise f32/f64
//! semantics. The OpenCL emitter prints the same body as C, keeping the
//! "generated code" deliverable intact.

use crate::types::ScalarKind;
use serde::Serialize;
use std::fmt;
use std::rc::Rc;

/// A runtime scalar value. Arithmetic is performed in the value's own
/// precision so `vgpu` results are bit-identical to a native f32/f64 kernel.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub enum Value {
    /// 32-bit float.
    F32(f32),
    /// 64-bit float.
    F64(f64),
    /// 32-bit signed integer.
    I32(i32),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// The kind of this value.
    pub fn kind(self) -> ScalarKind {
        match self {
            Value::F32(_) => ScalarKind::F32,
            Value::F64(_) => ScalarKind::F64,
            Value::I32(_) => ScalarKind::I32,
            Value::Bool(_) => ScalarKind::Bool,
        }
    }

    /// Lossy conversion to f64 (for display / diagnostics only).
    pub fn as_f64(self) -> f64 {
        match self {
            Value::F32(v) => v as f64,
            Value::F64(v) => v,
            Value::I32(v) => v as f64,
            Value::Bool(b) => b as i32 as f64,
        }
    }

    /// Integer view; floats truncate (C cast semantics).
    pub fn as_i64(self) -> i64 {
        match self {
            Value::F32(v) => v as i64,
            Value::F64(v) => v as i64,
            Value::I32(v) => v as i64,
            Value::Bool(b) => b as i64,
        }
    }

    /// The boolean view (C truthiness).
    pub fn truthy(self) -> bool {
        match self {
            Value::F32(v) => v != 0.0,
            Value::F64(v) => v != 0.0,
            Value::I32(v) => v != 0,
            Value::Bool(b) => b,
        }
    }

    /// Cast to `kind` with C conversion semantics.
    pub fn cast(self, kind: ScalarKind) -> Value {
        match kind {
            ScalarKind::F32 => Value::F32(self.as_f64() as f32),
            ScalarKind::F64 => Value::F64(self.as_f64()),
            ScalarKind::I32 => Value::I32(self.as_i64() as i32),
            ScalarKind::Bool => Value::Bool(self.truthy()),
            ScalarKind::Real => panic!("cannot cast to unresolved Real"),
        }
    }

    /// Zero of the given kind.
    pub fn zero(kind: ScalarKind) -> Value {
        match kind {
            ScalarKind::F32 => Value::F32(0.0),
            ScalarKind::F64 => Value::F64(0.0),
            ScalarKind::I32 => Value::I32(0),
            ScalarKind::Bool => Value::Bool(false),
            ScalarKind::Real => panic!("cannot make a zero of unresolved Real"),
        }
    }
}

/// A literal in the IR. Floating literals of kind [`ScalarKind::Real`] are
/// stored as f64 and narrowed when the program is lowered at a concrete
/// precision.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Lit {
    /// Payload (f64 holds all i32 and f32 values exactly).
    pub value: f64,
    /// Kind, possibly the precision-generic `Real`.
    pub kind: ScalarKind,
}

impl Lit {
    /// A precision-generic float literal.
    pub fn real(v: f64) -> Lit {
        Lit { value: v, kind: ScalarKind::Real }
    }

    /// An i32 literal.
    pub fn i32(v: i32) -> Lit {
        Lit { value: v as f64, kind: ScalarKind::I32 }
    }

    /// An f32 literal.
    pub fn f32(v: f32) -> Lit {
        Lit { value: v as f64, kind: ScalarKind::F32 }
    }

    /// An f64 literal.
    pub fn f64(v: f64) -> Lit {
        Lit { value: v, kind: ScalarKind::F64 }
    }

    /// Resolve to a runtime value, mapping `Real` through `real`.
    pub fn to_value(self, real: ScalarKind) -> Value {
        match self.kind.resolve_real(real) {
            ScalarKind::F32 => Value::F32(self.value as f32),
            ScalarKind::F64 => Value::F64(self.value),
            ScalarKind::I32 => Value::I32(self.value as i32),
            ScalarKind::Bool => Value::Bool(self.value != 0.0),
            ScalarKind::Real => unreachable!(),
        }
    }
}

/// Binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (float) / truncating (int).
    Div,
    /// Remainder (ints only).
    Rem,
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
    /// Logical and (short-circuit not modelled; operands are values).
    And,
    /// Logical or.
    Or,
}

impl BinOp {
    /// C spelling.
    pub fn c_symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }

    /// True for comparison / logical operators (result kind is Bool).
    pub fn is_predicate(self) -> bool {
        matches!(
            self,
            BinOp::Eq
                | BinOp::Ne
                | BinOp::Lt
                | BinOp::Le
                | BinOp::Gt
                | BinOp::Ge
                | BinOp::And
                | BinOp::Or
        )
    }

    /// Whether this op counts as one floating-point operation when applied
    /// to float operands (used by the `vgpu` performance counters).
    pub fn is_flop(self) -> bool {
        matches!(self, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div)
    }
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not.
    Not,
}

/// Built-in math intrinsics (mapped to OpenCL built-ins when printed).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Intrinsic {
    /// Square root.
    Sqrt,
    /// Absolute value.
    Fabs,
    /// Natural exponential.
    Exp,
    /// Natural logarithm.
    Log,
    /// Sine.
    Sin,
    /// Cosine.
    Cos,
    /// Two-argument minimum.
    Min,
    /// Two-argument maximum.
    Max,
    /// Fused `a*b+c` (evaluated unfused here; one mul + one add).
    Fma,
}

impl Intrinsic {
    /// C/OpenCL spelling.
    pub fn c_name(self) -> &'static str {
        match self {
            Intrinsic::Sqrt => "sqrt",
            Intrinsic::Fabs => "fabs",
            Intrinsic::Exp => "exp",
            Intrinsic::Log => "log",
            Intrinsic::Sin => "sin",
            Intrinsic::Cos => "cos",
            // OpenCL's generic `min`/`max` cover both integer and floating
            // gentypes (unlike C's `fmin`), and clamp-pad indices are ints.
            Intrinsic::Min => "min",
            Intrinsic::Max => "max",
            Intrinsic::Fma => "fma",
        }
    }

    /// Arity.
    pub fn arity(self) -> usize {
        match self {
            Intrinsic::Min | Intrinsic::Max => 2,
            Intrinsic::Fma => 3,
            _ => 1,
        }
    }
}

/// A scalar expression: the body language of [`UserFun`].
#[derive(Clone, Debug, PartialEq)]
pub enum SExpr {
    /// Reference to the n-th function parameter.
    Param(usize),
    /// Literal.
    Lit(Lit),
    /// Binary operation.
    Bin(BinOp, Rc<SExpr>, Rc<SExpr>),
    /// Unary operation.
    Un(UnOp, Rc<SExpr>),
    /// `cond ? then : else`.
    Select(Rc<SExpr>, Rc<SExpr>, Rc<SExpr>),
    /// Intrinsic call.
    Call(Intrinsic, Vec<SExpr>),
    /// C-style cast.
    Cast(ScalarKind, Rc<SExpr>),
}

impl SExpr {
    /// Parameter reference.
    pub fn p(i: usize) -> SExpr {
        SExpr::Param(i)
    }

    /// Precision-generic float literal.
    pub fn real(v: f64) -> SExpr {
        SExpr::Lit(Lit::real(v))
    }

    /// i32 literal.
    pub fn int(v: i32) -> SExpr {
        SExpr::Lit(Lit::i32(v))
    }

    /// Ternary select.
    pub fn select(c: SExpr, t: SExpr, f: SExpr) -> SExpr {
        SExpr::Select(Rc::new(c), Rc::new(t), Rc::new(f))
    }

    /// Cast.
    pub fn cast(kind: ScalarKind, e: SExpr) -> SExpr {
        SExpr::Cast(kind, Rc::new(e))
    }

    /// Comparison helper.
    pub fn cmp(op: BinOp, a: SExpr, b: SExpr) -> SExpr {
        debug_assert!(op.is_predicate());
        SExpr::Bin(op, Rc::new(a), Rc::new(b))
    }

    /// Evaluates with the given arguments. `real` resolves precision-generic
    /// literals. Mixed float/int operands promote to the float operand's
    /// kind, mirroring C's usual arithmetic conversions (restricted to the
    /// kinds we support).
    pub fn eval(&self, args: &[Value], real: ScalarKind) -> Value {
        match self {
            SExpr::Param(i) => args[*i],
            SExpr::Lit(l) => l.to_value(real),
            SExpr::Bin(op, a, b) => {
                let va = a.eval(args, real);
                let vb = b.eval(args, real);
                eval_bin(*op, va, vb)
            }
            SExpr::Un(op, a) => {
                let v = a.eval(args, real);
                match op {
                    UnOp::Neg => match v {
                        Value::F32(x) => Value::F32(-x),
                        Value::F64(x) => Value::F64(-x),
                        Value::I32(x) => Value::I32(-x),
                        Value::Bool(_) => panic!("negation of bool"),
                    },
                    UnOp::Not => Value::Bool(!v.truthy()),
                }
            }
            SExpr::Select(c, t, f) => {
                if c.eval(args, real).truthy() {
                    t.eval(args, real)
                } else {
                    f.eval(args, real)
                }
            }
            SExpr::Call(i, call_args) => {
                let vals: Vec<Value> = call_args.iter().map(|a| a.eval(args, real)).collect();
                eval_intrinsic(*i, &vals)
            }
            SExpr::Cast(kind, a) => a.eval(args, real).cast(kind.resolve_real(real)),
        }
    }
}

/// Usual arithmetic conversions for our 4 kinds: if either side is f64 →
/// f64; else if either is f32 → f32; else i32. Bools promote to i32.
fn promote(a: Value, b: Value) -> (Value, Value, ScalarKind) {
    use ScalarKind::*;
    let ka = a.kind();
    let kb = b.kind();
    let target = if ka == F64 || kb == F64 {
        F64
    } else if ka == F32 || kb == F32 {
        F32
    } else {
        I32
    };
    (a.cast(target), b.cast(target), target)
}

/// Evaluates a binary operator on two values with C-style promotion.
/// Exposed for the `vgpu` interpreter, which shares these exact semantics.
pub fn eval_bin(op: BinOp, a: Value, b: Value) -> Value {
    let (a, b, k) = promote(a, b);
    macro_rules! arith {
        ($f:expr, $g:expr) => {
            match k {
                ScalarKind::F32 => {
                    let (Value::F32(x), Value::F32(y)) = (a, b) else { unreachable!() };
                    Value::F32($f(x, y))
                }
                ScalarKind::F64 => {
                    let (Value::F64(x), Value::F64(y)) = (a, b) else { unreachable!() };
                    Value::F64($f(x, y))
                }
                ScalarKind::I32 => {
                    let (Value::I32(x), Value::I32(y)) = (a, b) else { unreachable!() };
                    Value::I32($g(x, y))
                }
                _ => unreachable!(),
            }
        };
    }
    macro_rules! pred {
        ($f:expr) => {
            match k {
                ScalarKind::F32 => {
                    let (Value::F32(x), Value::F32(y)) = (a, b) else { unreachable!() };
                    Value::Bool($f(&x, &y))
                }
                ScalarKind::F64 => {
                    let (Value::F64(x), Value::F64(y)) = (a, b) else { unreachable!() };
                    Value::Bool($f(&x, &y))
                }
                ScalarKind::I32 => {
                    let (Value::I32(x), Value::I32(y)) = (a, b) else { unreachable!() };
                    Value::Bool($f(&x, &y))
                }
                _ => unreachable!(),
            }
        };
    }
    match op {
        BinOp::Add => arith!(|x, y| x + y, |x: i32, y: i32| x.wrapping_add(y)),
        BinOp::Sub => arith!(|x, y| x - y, |x: i32, y: i32| x.wrapping_sub(y)),
        BinOp::Mul => arith!(|x, y| x * y, |x: i32, y: i32| x.wrapping_mul(y)),
        BinOp::Div => arith!(|x, y| x / y, |x: i32, y: i32| x / y),
        BinOp::Rem => match k {
            ScalarKind::I32 => {
                let (Value::I32(x), Value::I32(y)) = (a, b) else { unreachable!() };
                Value::I32(x % y)
            }
            _ => panic!("% on float operands"),
        },
        BinOp::Eq => pred!(|x, y| x == y),
        BinOp::Ne => pred!(|x, y| x != y),
        BinOp::Lt => pred!(|x, y| x < y),
        BinOp::Le => pred!(|x, y| x <= y),
        BinOp::Gt => pred!(|x, y| x > y),
        BinOp::Ge => pred!(|x, y| x >= y),
        BinOp::And => Value::Bool(a.truthy() && b.truthy()),
        BinOp::Or => Value::Bool(a.truthy() || b.truthy()),
    }
}

/// Evaluates a math intrinsic. Exposed for the `vgpu` interpreter.
pub fn eval_intrinsic(i: Intrinsic, vals: &[Value]) -> Value {
    fn unary32(f: impl Fn(f32) -> f32, g: impl Fn(f64) -> f64, v: Value) -> Value {
        match v {
            Value::F32(x) => Value::F32(f(x)),
            Value::F64(x) => Value::F64(g(x)),
            other => Value::F64(g(other.as_f64())),
        }
    }
    match i {
        Intrinsic::Sqrt => unary32(f32::sqrt, f64::sqrt, vals[0]),
        Intrinsic::Fabs => unary32(f32::abs, f64::abs, vals[0]),
        Intrinsic::Exp => unary32(f32::exp, f64::exp, vals[0]),
        Intrinsic::Log => unary32(f32::ln, f64::ln, vals[0]),
        Intrinsic::Sin => unary32(f32::sin, f64::sin, vals[0]),
        Intrinsic::Cos => unary32(f32::cos, f64::cos, vals[0]),
        Intrinsic::Min => {
            let (a, b, k) = promote(vals[0], vals[1]);
            match k {
                ScalarKind::F32 => Value::F32(a.as_f64().min(b.as_f64()) as f32),
                ScalarKind::I32 => Value::I32(a.as_i64().min(b.as_i64()) as i32),
                _ => Value::F64(a.as_f64().min(b.as_f64())),
            }
        }
        Intrinsic::Max => {
            let (a, b, k) = promote(vals[0], vals[1]);
            match k {
                ScalarKind::F32 => Value::F32(a.as_f64().max(b.as_f64()) as f32),
                ScalarKind::I32 => Value::I32(a.as_i64().max(b.as_i64()) as i32),
                _ => Value::F64(a.as_f64().max(b.as_f64())),
            }
        }
        Intrinsic::Fma => match promote(vals[0], vals[1]) {
            (Value::F32(a), Value::F32(b), _) => Value::F32(a * b + vals[2].as_f64() as f32),
            (a, b, _) => Value::F64(a.as_f64() * b.as_f64() + vals[2].as_f64()),
        },
    }
}

/// A named scalar user function: the LIFT `UserFun`, with an executable body.
#[derive(Clone, Debug, PartialEq)]
pub struct UserFun {
    /// Name used in generated code.
    pub name: String,
    /// Parameter names and kinds (kinds may be `Real`).
    pub params: Vec<(String, ScalarKind)>,
    /// Result kind (may be `Real`).
    pub ret: ScalarKind,
    /// Executable body.
    pub body: SExpr,
}

impl UserFun {
    /// Builds a user function; `params` supplies `(name, kind)` pairs that
    /// the body refers to positionally via [`SExpr::Param`].
    pub fn new(
        name: impl Into<String>,
        params: Vec<(&str, ScalarKind)>,
        ret: ScalarKind,
        body: SExpr,
    ) -> Rc<UserFun> {
        Rc::new(UserFun {
            name: name.into(),
            params: params.into_iter().map(|(n, k)| (n.to_string(), k)).collect(),
            ret,
            body,
        })
    }

    /// Evaluates the function.
    pub fn eval(&self, args: &[Value], real: ScalarKind) -> Value {
        assert_eq!(
            args.len(),
            self.params.len(),
            "user function `{}` called with {} args, expects {}",
            self.name,
            args.len(),
            self.params.len()
        );
        let out = self.body.eval(args, real);
        out.cast(self.ret.resolve_real(real))
    }
}

impl fmt::Display for UserFun {
    /// Prints the signature only; bodies are pretty-printed by
    /// `crate::opencl`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, (n, k)) in self.params.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} {}", k.c_name(), n)?;
        }
        write!(f, ") -> {}", self.ret.c_name())
    }
}

// Convenience operator overloads for building bodies.
impl std::ops::Add for SExpr {
    type Output = SExpr;
    fn add(self, rhs: SExpr) -> SExpr {
        SExpr::Bin(BinOp::Add, Rc::new(self), Rc::new(rhs))
    }
}
impl std::ops::Sub for SExpr {
    type Output = SExpr;
    fn sub(self, rhs: SExpr) -> SExpr {
        SExpr::Bin(BinOp::Sub, Rc::new(self), Rc::new(rhs))
    }
}
impl std::ops::Mul for SExpr {
    type Output = SExpr;
    fn mul(self, rhs: SExpr) -> SExpr {
        SExpr::Bin(BinOp::Mul, Rc::new(self), Rc::new(rhs))
    }
}
impl std::ops::Div for SExpr {
    type Output = SExpr;
    fn div(self, rhs: SExpr) -> SExpr {
        SExpr::Bin(BinOp::Div, Rc::new(self), Rc::new(rhs))
    }
}
impl std::ops::Neg for SExpr {
    type Output = SExpr;
    fn neg(self) -> SExpr {
        SExpr::Un(UnOp::Neg, Rc::new(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_arithmetic_is_f32() {
        let e = SExpr::real(0.1) + SExpr::real(0.2);
        let v = e.eval(&[], ScalarKind::F32);
        assert_eq!(v, Value::F32(0.1f32 + 0.2f32));
    }

    #[test]
    fn f64_arithmetic_is_f64() {
        let e = SExpr::real(0.1) + SExpr::real(0.2);
        let v = e.eval(&[], ScalarKind::F64);
        assert_eq!(v, Value::F64(0.1f64 + 0.2f64));
    }

    #[test]
    fn int_float_promotes() {
        let e = SExpr::int(3) * SExpr::real(0.5);
        assert_eq!(e.eval(&[], ScalarKind::F64), Value::F64(1.5));
    }

    #[test]
    fn select_picks_branch() {
        let e = SExpr::select(
            SExpr::cmp(BinOp::Gt, SExpr::p(0), SExpr::int(0)),
            SExpr::real(1.0),
            SExpr::real(-1.0),
        );
        assert_eq!(e.eval(&[Value::I32(5)], ScalarKind::F64), Value::F64(1.0));
        assert_eq!(e.eval(&[Value::I32(-5)], ScalarKind::F64), Value::F64(-1.0));
    }

    #[test]
    fn userfun_casts_result() {
        let f = UserFun::new("trunc", vec![("x", ScalarKind::F64)], ScalarKind::I32, SExpr::p(0));
        assert_eq!(f.eval(&[Value::F64(3.9)], ScalarKind::F64), Value::I32(3));
    }

    #[test]
    fn intrinsics_match_std() {
        let e = SExpr::Call(Intrinsic::Sqrt, vec![SExpr::p(0)]);
        assert_eq!(e.eval(&[Value::F32(2.0)], ScalarKind::F32), Value::F32(2.0f32.sqrt()));
        assert_eq!(e.eval(&[Value::F64(2.0)], ScalarKind::F64), Value::F64(2.0f64.sqrt()));
    }

    #[test]
    fn min_max_on_ints() {
        let e = SExpr::Call(Intrinsic::Min, vec![SExpr::p(0), SExpr::p(1)]);
        assert_eq!(e.eval(&[Value::I32(3), Value::I32(7)], ScalarKind::F32), Value::I32(3));
    }

    #[test]
    fn integer_div_truncates() {
        let e = SExpr::p(0) / SExpr::p(1);
        assert_eq!(e.eval(&[Value::I32(7), Value::I32(2)], ScalarKind::F32), Value::I32(3));
    }

    #[test]
    fn cast_real_resolves() {
        let e = SExpr::cast(ScalarKind::Real, SExpr::int(1));
        assert_eq!(e.eval(&[], ScalarKind::F32), Value::F32(1.0));
        assert_eq!(e.eval(&[], ScalarKind::F64), Value::F64(1.0));
    }

    #[test]
    fn value_cast_roundtrip() {
        assert_eq!(Value::F64(2.5).cast(ScalarKind::I32), Value::I32(2));
        assert_eq!(Value::I32(1).cast(ScalarKind::Bool), Value::Bool(true));
        assert_eq!(Value::Bool(true).cast(ScalarKind::F32), Value::F32(1.0));
    }

    #[test]
    fn logical_ops() {
        let e = SExpr::cmp(BinOp::And, SExpr::p(0), SExpr::p(1));
        assert_eq!(
            e.eval(&[Value::Bool(true), Value::Bool(false)], ScalarKind::F32),
            Value::Bool(false)
        );
    }
}
