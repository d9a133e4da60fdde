//! The one policy for the `VGPU_*` environment settings: an unset variable
//! means the default, and so does a value the setting does not accept — but
//! that one says so on stderr. A typo in a CI leg (`VGPU_SANITIZE=shadwo`,
//! `VGPU_DEVICES=two`) must not pass without sanitising or sharding.

use parking_lot::Mutex;

/// Variables whose rejected value has been reported.
static WARNED: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

/// The value of environment variable `name` as `parse` reads it (trimmed):
/// `None` when it is unset, and when `parse` rejects it — then after one
/// stderr line per variable per process naming the `accepted` values.
pub(crate) fn setting<T>(
    name: &'static str,
    accepted: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Option<T> {
    let value = std::env::var(name).ok()?;
    let parsed = parse(value.trim());
    if parsed.is_none() {
        let mut warned = WARNED.lock();
        if !warned.contains(&name) {
            warned.push(name);
            eprintln!(
                "vgpu: unrecognised {name} value `{value}` (accepted: {accepted}); \
                 running the default"
            );
        }
    }
    parsed
}

/// `parse` for the settings that take a count: a positive integer.
pub(crate) fn positive(v: &str) -> Option<usize> {
    v.parse().ok().filter(|&n| n > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_is_none_accepted_parses_and_rejected_warns_once() {
        const NAME: &str = "VGPU_SETTINGS_UNIT_TEST";
        let on = |v: &str| (v == "on").then_some(true);
        let warnings = || WARNED.lock().iter().filter(|n| **n == NAME).count();
        std::env::remove_var(NAME);
        assert_eq!(setting(NAME, "on", on), None);
        std::env::set_var(NAME, " on ");
        assert_eq!(setting(NAME, "on", on), Some(true));
        assert_eq!(warnings(), 0, "neither unset nor accepted warns");
        std::env::set_var(NAME, "onn");
        assert_eq!(setting(NAME, "on", on), None);
        assert_eq!(setting(NAME, "on", on), None);
        assert_eq!(warnings(), 1, "one line per variable per process");
        std::env::remove_var(NAME);
    }
}
