//! The LIFT type system: scalars, tuples and statically-sized arrays.
//!
//! Array lengths are symbolic [`ArithExpr`]s, so one program covers every
//! room size; concrete dimensions are bound only when a kernel is launched.
//! The abstract [`ScalarKind::Real`] lets a single program be generated for
//! both single and double precision, matching the paper's f32/f64 sweeps.

use crate::arith::ArithExpr;
use std::fmt;
use std::rc::Rc;

/// Primitive scalar kinds.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ScalarKind {
    /// 32-bit float.
    F32,
    /// 64-bit float.
    F64,
    /// 32-bit signed integer.
    I32,
    /// Boolean (emitted as `int` in OpenCL C).
    Bool,
    /// Precision-generic floating point, resolved to [`ScalarKind::F32`] or
    /// [`ScalarKind::F64`] by [`Type::resolve_real`] before code generation.
    Real,
}

impl ScalarKind {
    /// Size in bytes once resolved; `Real` panics (resolve first).
    pub fn byte_size(self) -> usize {
        match self {
            ScalarKind::F32 => 4,
            ScalarKind::F64 => 8,
            ScalarKind::I32 => 4,
            ScalarKind::Bool => 4,
            ScalarKind::Real => panic!("ScalarKind::Real must be resolved before byte_size()"),
        }
    }

    /// The OpenCL C spelling of this scalar.
    pub fn c_name(self) -> &'static str {
        match self {
            ScalarKind::F32 => "float",
            ScalarKind::F64 => "double",
            ScalarKind::I32 => "int",
            ScalarKind::Bool => "int",
            ScalarKind::Real => "real",
        }
    }

    /// Replaces `Real` with the given concrete float kind.
    pub fn resolve_real(self, real: ScalarKind) -> ScalarKind {
        debug_assert!(matches!(real, ScalarKind::F32 | ScalarKind::F64));
        match self {
            ScalarKind::Real => real,
            other => other,
        }
    }

    /// True for `F32`, `F64` and unresolved `Real`.
    pub fn is_float(self) -> bool {
        matches!(self, ScalarKind::F32 | ScalarKind::F64 | ScalarKind::Real)
    }
}

/// A LIFT type.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Type {
    /// A primitive scalar.
    Scalar(ScalarKind),
    /// A tuple of heterogeneous components.
    Tuple(Vec<Type>),
    /// An array with a symbolic length.
    Array(Rc<Type>, ArithExpr),
}

impl Type {
    /// Shorthand for `Scalar(F32)`.
    pub fn f32() -> Type {
        Type::Scalar(ScalarKind::F32)
    }

    /// Shorthand for `Scalar(F64)`.
    pub fn f64() -> Type {
        Type::Scalar(ScalarKind::F64)
    }

    /// Shorthand for `Scalar(I32)`.
    pub fn i32() -> Type {
        Type::Scalar(ScalarKind::I32)
    }

    /// Shorthand for the precision-generic float scalar.
    pub fn real() -> Type {
        Type::Scalar(ScalarKind::Real)
    }

    /// An array of `elem` with length `n`.
    pub fn array(elem: Type, n: impl Into<ArithExpr>) -> Type {
        Type::Array(Rc::new(elem), n.into())
    }

    /// A 2-level nested array: `[[T; nx]; ny]` (row-major, x contiguous).
    pub fn array2(elem: Type, nx: impl Into<ArithExpr>, ny: impl Into<ArithExpr>) -> Type {
        Type::array(Type::array(elem, nx), ny)
    }

    /// A 3-level nested array: `[[ [T; nx]; ny]; nz]` — the shape of a 3-D
    /// grid stored z-major (matches the paper's `z*Nx*Ny + y*Nx + x`
    /// linearisation).
    pub fn array3(
        elem: Type,
        nx: impl Into<ArithExpr>,
        ny: impl Into<ArithExpr>,
        nz: impl Into<ArithExpr>,
    ) -> Type {
        Type::array(Type::array(Type::array(elem, nx), ny), nz)
    }

    /// A tuple type.
    pub fn tuple(parts: Vec<Type>) -> Type {
        Type::Tuple(parts)
    }

    /// The element type, if this is an array.
    pub fn elem(&self) -> Option<&Type> {
        match self {
            Type::Array(e, _) => Some(e),
            _ => None,
        }
    }

    /// The length, if this is an array.
    pub fn len(&self) -> Option<&ArithExpr> {
        match self {
            Type::Array(_, n) => Some(n),
            _ => None,
        }
    }

    /// The underlying scalar kind if this type is built from a single scalar
    /// kind (arrays of arrays of one scalar); `None` for mixed tuples.
    pub fn scalar_kind(&self) -> Option<ScalarKind> {
        match self {
            Type::Scalar(k) => Some(*k),
            Type::Array(e, _) => e.scalar_kind(),
            Type::Tuple(parts) => {
                let mut k = None;
                for p in parts {
                    let pk = p.scalar_kind()?;
                    match k {
                        None => k = Some(pk),
                        Some(prev) if prev == pk => {}
                        _ => return None,
                    }
                }
                k
            }
        }
    }

    /// Total number of scalars in one value of this type (symbolic).
    pub fn scalar_count(&self) -> ArithExpr {
        match self {
            Type::Scalar(_) => ArithExpr::one(),
            Type::Tuple(parts) => ArithExpr::add(parts.iter().map(|p| p.scalar_count()).collect()),
            Type::Array(e, n) => e.scalar_count() * n.clone(),
        }
    }

    /// Replaces every `Real` scalar with `real` (F32 or F64).
    pub fn resolve_real(&self, real: ScalarKind) -> Type {
        match self {
            Type::Scalar(k) => Type::Scalar(k.resolve_real(real)),
            Type::Tuple(parts) => Type::Tuple(parts.iter().map(|p| p.resolve_real(real)).collect()),
            Type::Array(e, n) => Type::Array(Rc::new(e.resolve_real(real)), n.clone()),
        }
    }

    /// True if any scalar inside is the unresolved `Real`.
    pub fn has_real(&self) -> bool {
        match self {
            Type::Scalar(k) => *k == ScalarKind::Real,
            Type::Tuple(parts) => parts.iter().any(Type::has_real),
            Type::Array(e, _) => e.has_real(),
        }
    }
}

impl fmt::Debug for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Scalar(k) => write!(f, "{}", k.c_name()),
            Type::Tuple(parts) => {
                write!(f, "(")?;
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Type::Array(e, n) => write!(f, "[{e}; {n}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_sizes() {
        assert_eq!(ScalarKind::F32.byte_size(), 4);
        assert_eq!(ScalarKind::F64.byte_size(), 8);
        assert_eq!(ScalarKind::I32.byte_size(), 4);
    }

    #[test]
    #[should_panic]
    fn real_size_panics_unresolved() {
        ScalarKind::Real.byte_size();
    }

    #[test]
    fn resolve_real_scalar() {
        assert_eq!(ScalarKind::Real.resolve_real(ScalarKind::F64), ScalarKind::F64);
        assert_eq!(ScalarKind::I32.resolve_real(ScalarKind::F64), ScalarKind::I32);
    }

    #[test]
    fn array3_shape() {
        let t = Type::array3(Type::real(), "Nx", "Ny", "Nz");
        let nz = t.len().unwrap();
        assert_eq!(format!("{nz}"), "Nz");
        let inner = t.elem().unwrap().elem().unwrap();
        assert_eq!(format!("{}", inner.len().unwrap()), "Nx");
    }

    #[test]
    fn scalar_count_multiplies() {
        let t = Type::array3(Type::real(), 4usize, 5usize, 6usize);
        assert_eq!(t.scalar_count().as_cst(), Some(120));
    }

    #[test]
    fn tuple_scalar_count_adds() {
        let t = Type::tuple(vec![Type::f32(), Type::array(Type::f32(), 3usize)]);
        assert_eq!(t.scalar_count().as_cst(), Some(4));
    }

    #[test]
    fn resolve_real_deep() {
        let t = Type::array(Type::tuple(vec![Type::real(), Type::i32()]), "N");
        let r = t.resolve_real(ScalarKind::F64);
        assert!(!r.has_real());
        assert_eq!(r.scalar_kind(), None); // mixed tuple
    }

    #[test]
    fn scalar_kind_uniform() {
        let t = Type::array(Type::array(Type::f64(), 2usize), 3usize);
        assert_eq!(t.scalar_kind(), Some(ScalarKind::F64));
    }

    #[test]
    fn display_roundtrippable_enough() {
        let t = Type::array(Type::f32(), "N");
        assert_eq!(format!("{t}"), "[float; N]");
    }
}
