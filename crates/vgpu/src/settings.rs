//! The one policy for the `VGPU_*` environment settings: an unset variable
//! means the default, and so does a value the setting does not accept — but
//! that one says so on stderr. A typo in a CI leg (`VGPU_SANITIZE=shadwo`,
//! `VGPU_DEVICES=two`) must not pass without sanitising or sharding. The
//! default runtime reads each variable once per process
//! ([`crate::runtime::Settings::from_env`]), so a rejected value warns once.

/// A variable's raw value in the process environment.
pub(crate) fn env(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

/// The value of variable `name`, as `var` looks it up ([`env`], or a table
/// in tests) and `parse` reads it (trimmed): `None` when it is unset, and
/// when `parse` rejects it — then after one stderr line naming the
/// `accepted` values.
pub(crate) fn setting<T>(
    var: &dyn Fn(&str) -> Option<String>,
    name: &str,
    accepted: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Option<T> {
    let value = var(name)?;
    let parsed = parse(value.trim());
    if parsed.is_none() {
        eprintln!(
            "vgpu: unrecognised {name} value `{value}` (accepted: {accepted}); running the default"
        );
    }
    parsed
}

/// `parse` for the settings that take a count: a positive integer.
pub(crate) fn positive(v: &str) -> Option<usize> {
    v.parse().ok().filter(|&n| n > 0)
}

#[cfg(test)]
mod tests {
    use crate::runtime::Settings;
    use crate::{Engine, TraceMode};

    fn parse(vars: &[(&str, &str)]) -> Settings {
        let var = |name: &str| vars.iter().find(|(n, _)| *n == name).map(|(_, v)| v.to_string());
        Settings::from_lookup(&var)
    }

    #[test]
    fn unset_is_the_default_accepted_parses_and_rejected_is_the_default() {
        assert_eq!(parse(&[]), Settings::default());
        let all = parse(&[
            ("VGPU_ENGINE", "diff"),
            ("VGPU_TRACE", " Chrome "),
            ("VGPU_SANITIZE", "SHADOW"),
            ("VGPU_DEVICES", "3"),
        ]);
        let want = Settings {
            engine: Engine::Differential,
            trace: TraceMode::Chrome,
            shadow: true,
            devices: 3,
        };
        assert_eq!(all, want);
        let typos = parse(&[
            ("VGPU_ENGINE", "fastt"),
            ("VGPU_TRACE", "chrom"),
            ("VGPU_SANITIZE", "shadwo"),
            ("VGPU_DEVICES", "0"),
        ]);
        assert_eq!(typos, Settings::default(), "a rejected value runs the default");
        for retired in ["json", "jsonl"] {
            assert_eq!(parse(&[("VGPU_TRACE", retired)]), Settings::default(), "{retired}");
        }
    }
}
