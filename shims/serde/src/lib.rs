//! Offline shim for `serde`: `Serialize` defined directly over an owned
//! JSON tree ([`json::Value`]) instead of serde's serializer visitors. The
//! workspace only ever serialises to JSON (via the `serde_json` shim) and
//! reads JSON back as a [`json::Value`], so the tree model covers the full
//! surface while staying a few hundred lines.
//!
//! The derive macro (re-exported from `serde_derive`) generates `to_json`
//! implementations honouring the `#[serde(...)]` attributes the workspace
//! uses: `tag`, `rename_all = "snake_case"`, and `flatten`.

pub use serde_derive::Serialize;

pub mod json;

use json::{Number, Value};

/// A value that can render itself as a JSON tree.
pub trait Serialize {
    /// This value as JSON.
    fn to_json(&self) -> Value;
}

// ---------------------------------------------------------------------------
// Serialize impls
// ---------------------------------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_json(&self) -> Value {
        (**self).to_json()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_json(&self) -> Value {
        (**self).to_json()
    }
}

macro_rules! ser_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json(&self) -> Value {
                Value::Number(Number::PosInt(*self as u64))
            }
        }
    )*};
}

ser_uint!(u8, u16, u32, u64, usize);

macro_rules! ser_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json(&self) -> Value {
                let v = *self as i64;
                if v >= 0 {
                    Value::Number(Number::PosInt(v as u64))
                } else {
                    Value::Number(Number::NegInt(v))
                }
            }
        }
    )*};
}

ser_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_json(&self) -> Value {
        Value::Number(Number::Float(*self))
    }
}

impl Serialize for f32 {
    fn to_json(&self) -> Value {
        // Shortest-roundtrip f32 text, re-read as f64, so `1.1f32` prints as
        // "1.1" (as real serde_json does) rather than the f64 widening.
        let s = format!("{self}");
        Value::Number(Number::Float(s.parse::<f64>().unwrap_or(*self as f64)))
    }
}

impl Serialize for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for str {
    fn to_json(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Serialize for String {
    fn to_json(&self) -> Value {
        Value::String(self.clone())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_json(&self) -> Value {
        match self {
            Some(x) => x.to_json(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_json).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_json).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_json).collect())
    }
}

macro_rules! ser_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_json(&self) -> Value {
                Value::Array(vec![$(self.$n.to_json()),+])
            }
        }
    )*};
}

ser_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

impl<V: Serialize> Serialize for std::collections::BTreeMap<String, V> {
    fn to_json(&self) -> Value {
        Value::Object(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }
}

impl<V: Serialize> Serialize for std::collections::HashMap<String, V> {
    fn to_json(&self) -> Value {
        let mut entries: Vec<(String, Value)> =
            self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Object(entries)
    }
}

impl Serialize for Value {
    fn to_json(&self) -> Value {
        self.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::json::{parse, Value};
    use super::Serialize;

    /// `v` printed and parsed back is the tree it was printed from.
    fn reparses(v: &impl Serialize) -> bool {
        parse(&v.to_json().to_compact_string()).unwrap() == v.to_json()
    }

    #[test]
    fn primitive_roundtrips() {
        assert!(reparses(&42u64) && reparses(&-7i32) && reparses(&1234.5678e-3f64));
        assert_eq!(Option::<u32>::None.to_json(), Value::Null);
        assert!(reparses(&vec![(1u64, 2u64), (3, 4)]));
        assert_eq!(parse("-7").unwrap().as_i64(), Some(-7));
    }

    #[test]
    fn f32_serialises_shortest() {
        assert_eq!(format!("{}", 1.1f32.to_json()), "1.1");
        assert_eq!(parse("1.1").unwrap().as_f64().map(|x| x as f32), Some(1.1f32));
    }
}
