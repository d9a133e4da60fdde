//! Offline shim for `serde_json`, backed by the serde shim's JSON tree
//! (`serde::json::Value`). Provides the surface this workspace uses:
//! `json!`, `to_string`, `to_string_pretty`, `to_writer`, `from_str`,
//! `to_value`, and `Value`/`Number`/`Error` re-exports.

pub use serde::json::{Error, Map, Number, Value};

/// Serialises `value` to its JSON tree. Infallible in the tree model (the
/// real serde_json returns `Result`; no caller here inspects the error arm).
pub fn to_value<T: serde::Serialize + ?Sized>(value: &T) -> Value {
    value.to_json()
}

/// Compact JSON text for `value`.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(value.to_json().to_compact_string())
}

/// Pretty JSON text (2-space indent) for `value`.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(value.to_json().to_pretty_string())
}

/// Writes compact JSON for `value` into `writer`.
pub fn to_writer<W: std::io::Write, T: serde::Serialize + ?Sized>(
    mut writer: W,
    value: &T,
) -> Result<(), Error> {
    writer
        .write_all(to_string(value)?.as_bytes())
        .map_err(|e| Error::custom(format!("write failed: {e}")))
}

/// Parses JSON text into a [`Value`] (the one type this workspace reads
/// JSON into; the bound lets callers name it by inference, as with the real
/// crate).
pub fn from_str<T: From<Value>>(s: &str) -> Result<T, Error> {
    serde::json::parse(s).map(T::from)
}

/// Builds a [`Value`] from JSON-ish syntax. Keys must be string literals;
/// values may be nested objects/arrays, `null`, booleans, or any
/// `Serialize` expression.
#[macro_export]
macro_rules! json {
    ($($tt:tt)+) => {
        $crate::json_internal!($($tt)+)
    };
}

/// Implementation muncher for [`json!`] — not public API.
#[macro_export]
#[doc(hidden)]
macro_rules! json_internal {
    //////////////////// arrays ////////////////////
    (@array [$($elems:expr,)*]) => {
        vec![$($elems,)*]
    };
    (@array [$($elems:expr,)*] null $(, $($rest:tt)*)?) => {
        $crate::json_internal!(@array [$($elems,)* $crate::Value::Null,] $($($rest)*)?)
    };
    (@array [$($elems:expr,)*] true $(, $($rest:tt)*)?) => {
        $crate::json_internal!(@array [$($elems,)* $crate::Value::Bool(true),] $($($rest)*)?)
    };
    (@array [$($elems:expr,)*] false $(, $($rest:tt)*)?) => {
        $crate::json_internal!(@array [$($elems,)* $crate::Value::Bool(false),] $($($rest)*)?)
    };
    (@array [$($elems:expr,)*] [$($arr:tt)*] $(, $($rest:tt)*)?) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!([$($arr)*]),] $($($rest)*)?)
    };
    (@array [$($elems:expr,)*] {$($map:tt)*} $(, $($rest:tt)*)?) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!({$($map)*}),] $($($rest)*)?)
    };
    (@array [$($elems:expr,)*] $next:expr , $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::to_value(&$next),] $($rest)*)
    };
    (@array [$($elems:expr,)*] $last:expr) => {
        $crate::json_internal!(@array [$($elems,)* $crate::to_value(&$last),])
    };

    //////////////////// objects ////////////////////
    // End of input.
    (@object $object:ident () ()) => {};
    // Entry with a nested-object value.
    (@object $object:ident ($key:tt) (: {$($map:tt)*} $(, $($rest:tt)*)?)) => {
        $object.push(($key.to_string(), $crate::json_internal!({$($map)*})));
        $crate::json_internal!(@object $object () ($($($rest)*)?));
    };
    // Entry with a nested-array value.
    (@object $object:ident ($key:tt) (: [$($arr:tt)*] $(, $($rest:tt)*)?)) => {
        $object.push(($key.to_string(), $crate::json_internal!([$($arr)*])));
        $crate::json_internal!(@object $object () ($($($rest)*)?));
    };
    // Entry with a `null` / bool value.
    (@object $object:ident ($key:tt) (: null $(, $($rest:tt)*)?)) => {
        $object.push(($key.to_string(), $crate::Value::Null));
        $crate::json_internal!(@object $object () ($($($rest)*)?));
    };
    (@object $object:ident ($key:tt) (: true $(, $($rest:tt)*)?)) => {
        $object.push(($key.to_string(), $crate::Value::Bool(true)));
        $crate::json_internal!(@object $object () ($($($rest)*)?));
    };
    (@object $object:ident ($key:tt) (: false $(, $($rest:tt)*)?)) => {
        $object.push(($key.to_string(), $crate::Value::Bool(false)));
        $crate::json_internal!(@object $object () ($($($rest)*)?));
    };
    // Entry with an expression value, more entries follow.
    (@object $object:ident ($key:tt) (: $value:expr , $($rest:tt)*)) => {
        $object.push(($key.to_string(), $crate::to_value(&$value)));
        $crate::json_internal!(@object $object () ($($rest)*));
    };
    // Final entry with an expression value.
    (@object $object:ident ($key:tt) (: $value:expr)) => {
        $object.push(($key.to_string(), $crate::to_value(&$value)));
    };
    // Take the next key (a string literal).
    (@object $object:ident () ($key:tt $($rest:tt)*)) => {
        $crate::json_internal!(@object $object ($key) ($($rest)*));
    };

    //////////////////// entry points ////////////////////
    (null) => { $crate::Value::Null };
    (true) => { $crate::Value::Bool(true) };
    (false) => { $crate::Value::Bool(false) };
    ([]) => { $crate::Value::Array(vec![]) };
    ([ $($tt:tt)+ ]) => { $crate::Value::Array($crate::json_internal!(@array [] $($tt)+)) };
    ({}) => { $crate::Value::Object(Vec::new()) };
    ({ $($tt:tt)+ }) => {
        $crate::Value::Object({
            let mut object: Vec<(String, $crate::Value)> = Vec::new();
            $crate::json_internal!(@object object () ($($tt)+));
            object
        })
    };
    ($other:expr) => { $crate::to_value(&$other) };
}

#[cfg(test)]
// `json!` object expansion is one `push` per literal entry; only this
// crate's own tests see the expansion as local code, so the lint is
// allowed here (downstream crates get the external-macro exemption).
#[allow(clippy::vec_init_then_push)]
mod tests {
    use super::*;

    #[test]
    fn json_macro_shapes() {
        let name = "kernel_a";
        let v = json!({
            "traceEvents": [
                { "ph": "X", "name": name, "dur": 12.5, "args": { "track": 3u32 } },
                { "ph": "M", "flag": true, "opt": Option::<u64>::None },
            ],
            "empty_obj": {},
            "empty_arr": [],
            "nothing": null,
        });
        assert_eq!(v.pointer("/traceEvents/0/name").unwrap().as_str(), Some("kernel_a"));
        assert_eq!(v.pointer("/traceEvents/0/args/track").unwrap().as_u64(), Some(3));
        assert_eq!(v.pointer("/traceEvents/1/flag").unwrap().as_bool(), Some(true));
        assert!(v.pointer("/traceEvents/1/opt").unwrap().is_null());
        assert!(v.get("empty_obj").unwrap().is_object());
        assert!(v.get("nothing").unwrap().is_null());
    }

    #[test]
    fn string_roundtrip() {
        let v = json!({ "a": [1u64, 2u64], "b": "x" });
        let text = to_string(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(v, back);
        let pretty = to_string_pretty(&v).unwrap();
        let back2: Value = from_str(&pretty).unwrap();
        assert_eq!(v, back2);
    }

    #[test]
    fn writer_and_io_error_conversion() {
        fn io_path() -> std::io::Result<Vec<u8>> {
            let mut out = Vec::new();
            to_writer(&mut out, &json!({ "k": 1u64 }))?;
            Ok(out)
        }
        assert_eq!(io_path().unwrap(), br#"{"k":1}"#.to_vec());
    }
}
