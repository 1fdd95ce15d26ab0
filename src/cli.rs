//! Command-line flag parsing shared by the binaries under `src/bin/`.
//!
//! Each binary declares what it accepts in a [`Spec`], and its `main`
//! passes the arguments through [`checked`]: `--help`, `-h` and any
//! argument the spec does not accept print the usage and exit 2, so a
//! mistyped or retired flag never runs a different mode. A flag's value is
//! the argument right after its name, and may not be another flag. A value
//! that does not parse reads as absent, so the caller's default applies.

use std::str::FromStr;

/// What one binary (or subcommand) accepts.
pub struct Spec {
    /// Printed, with the error, on a usage error.
    pub usage: &'static str,
    /// Flags that take the argument after them as their value.
    pub valued: &'static [&'static str],
    /// Valueless switches.
    pub switches: &'static [&'static str],
    /// How many positional arguments may appear among the flags.
    pub positionals: usize,
}

/// The positional arguments of `args` in order, or an error naming the
/// first argument `spec` does not accept: an unknown flag, a valued flag
/// followed by no value or by another flag, or one positional too many.
pub fn check<'a>(args: &'a [String], spec: &Spec) -> Result<Vec<&'a str>, String> {
    let known = |a: &str| spec.valued.contains(&a) || spec.switches.contains(&a);
    let mut positionals = Vec::new();
    let mut rest = args.iter().map(String::as_str);
    while let Some(arg) = rest.next() {
        if spec.valued.contains(&arg) {
            if rest.next().is_none_or(known) {
                return Err(format!("{arg} needs a value"));
            }
        } else if !spec.switches.contains(&arg) {
            if arg.starts_with('-') || positionals.len() == spec.positionals {
                return Err(format!("unknown argument '{arg}'"));
            }
            positionals.push(arg);
        }
    }
    Ok(positionals)
}

/// [`check`] for a binary's `main`: on `--help`, `-h` or a usage error,
/// print the error and the usage to stderr and exit 2.
pub fn checked<'a>(args: &'a [String], spec: &Spec) -> Vec<&'a str> {
    if !args.iter().any(|a| a == "--help" || a == "-h") {
        match check(args, spec) {
            Ok(positionals) => return positionals,
            Err(e) => eprintln!("{e}"),
        }
    }
    eprintln!("{}", spec.usage);
    std::process::exit(2)
}

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

    #[test]
    fn only_known_flags_values_and_positionals_pass() {
        let serve = Spec {
            usage: "usage: serve",
            valued: &["--requests", "--out"],
            switches: &["--health-bench"],
            positionals: 0,
        };
        let none: Vec<&str> = Vec::new();
        assert_eq!(
            check(&args("--health-bench --out d"), &serve),
            Ok(none.clone())
        );
        assert_eq!(check(&[], &serve), Ok(none.clone()));
        assert_eq!(
            check(&args("--saturate --requests 32 --out d"), &serve),
            Err("unknown argument '--saturate'".to_owned()),
            "a retired mode is a usage error"
        );
        assert_eq!(
            check(&args("--out d stray"), &serve),
            Err("unknown argument 'stray'".to_owned())
        );
        assert_eq!(
            check(&args("--out --health-bench"), &serve),
            Err("--out needs a value".to_owned()),
            "a flag is never taken as another flag's value"
        );
        assert_eq!(
            check(&args("--health-bench --out"), &serve),
            Err("--out needs a value".to_owned())
        );
        assert_eq!(check(&args("--out -x"), &serve), Ok(none));

        let train = Spec {
            usage: "usage: train MODEL ASPECT",
            valued: &["--seed"],
            switches: &["--guard"],
            positionals: 2,
        };
        assert_eq!(
            check(&args("DAR --seed 7 aroma --guard"), &train),
            Ok(vec!["DAR", "aroma"])
        );
        assert_eq!(
            check(&args("DAR aroma palate"), &train),
            Err("unknown argument 'palate'".to_owned())
        );
        assert_eq!(
            check(&args("DAR -g"), &train),
            Err("unknown argument '-g'".to_owned())
        );
    }
}
