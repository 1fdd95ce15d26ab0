//! Command-line flag parsing shared by the binaries under `src/bin/`.
//!
//! A flag's value is the argument right after its name. A value that is
//! missing or does not parse reads as absent, so the caller's default
//! applies.

use std::str::FromStr;

/// The value after `name`, parsed as `T` (`String` and `PathBuf` take it
/// verbatim); `None` when the flag is absent or its value does not parse.
pub fn flag<T: FromStr>(args: &[String], name: &str) -> Option<T> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

/// Whether the valueless switch `name` is present.
pub fn bool_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn values_parse_or_read_as_absent() {
        let a = args("--rounds 4 --seed x --out dir --recover --last");
        assert_eq!(flag::<u64>(&a, "--rounds"), Some(4));
        assert_eq!(flag::<f32>(&a, "--rounds"), Some(4.0));
        assert_eq!(flag::<u64>(&a, "--seed"), None, "unparsable is absent");
        assert_eq!(flag::<String>(&a, "--out").as_deref(), Some("dir"));
        assert_eq!(flag::<u64>(&a, "--wave"), None);
        assert_eq!(flag::<String>(&a, "--last"), None, "no value after it");
        assert!(bool_flag(&a, "--recover"));
        assert!(!bool_flag(&a, "--drill"));
    }
}
