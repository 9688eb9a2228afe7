//! Tiny command-line argument parsing shared by the experiment binaries.
//!
//! Hand-rolled (`--key value` pairs only) to stay within the approved
//! dependency set. Each binary passes the keys it reads, and any other
//! key is refused, so a misspelt or retired flag cannot silently fall
//! back to its default.

use crate::setup::{CityKind, Scale};
use std::collections::BTreeMap;

/// Parsed `--key value` arguments.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: BTreeMap<String, String>,
}

impl Args {
    /// Parses raw arguments (excluding `argv[0]`) as `--key value`
    /// pairs whose keys are all in `accepted`. The error names the bad
    /// argument; for an unknown key it also lists `accepted`.
    pub fn try_parse<I: IntoIterator<Item = String>>(
        raw: I,
        accepted: &[&str],
    ) -> Result<Self, String> {
        let mut values = BTreeMap::new();
        let mut it = raw.into_iter();
        while let Some(key) = it.next() {
            let Some(name) = key.strip_prefix("--") else {
                return Err(format!("expected --key, got {key:?}"));
            };
            if !accepted.contains(&name) {
                let keys: Vec<String> = accepted.iter().map(|k| format!("--{k}")).collect();
                return Err(format!(
                    "unknown option --{name}; accepted: {}",
                    keys.join(" ")
                ));
            }
            let Some(value) = it.next() else {
                return Err(format!("missing value for --{name}"));
            };
            values.insert(name.to_string(), value);
        }
        Ok(Self { values })
    }

    /// [`Args::try_parse`], printing the error and exiting 2 on failure.
    pub fn parse<I: IntoIterator<Item = String>>(raw: I, accepted: &[&str]) -> Self {
        Self::try_parse(raw, accepted).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2)
        })
    }

    /// Parses the process arguments; see [`Args::parse`].
    pub fn from_env(accepted: &[&str]) -> Self {
        Self::parse(std::env::args().skip(1), accepted)
    }

    /// Raw string lookup.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// `--scale test|bench|paper`, default bench.
    pub fn scale(&self) -> Scale {
        self.get("scale")
            .map(|s| Scale::parse(s).unwrap_or_else(|| panic!("bad --scale {s:?}")))
            .unwrap_or(Scale::Bench)
    }

    /// `--city nyc|sg`, with a caller-chosen default.
    pub fn city(&self, default: CityKind) -> CityKind {
        self.get("city")
            .map(|s| CityKind::parse(s).unwrap_or_else(|| panic!("bad --city {s:?}")))
            .unwrap_or(default)
    }

    /// `--seed N`, default 42.
    pub fn seed(&self) -> u64 {
        self.get("seed")
            .map(|s| s.parse().unwrap_or_else(|_| panic!("bad --seed {s:?}")))
            .unwrap_or(42)
    }

    /// Generic numeric lookup with default.
    pub fn f64_or(&self, key: &str, default: f64) -> f64 {
        self.get(key)
            .map(|s| s.parse().unwrap_or_else(|_| panic!("bad --{key} {s:?}")))
            .unwrap_or(default)
    }

    /// Generic integer lookup with default.
    pub fn usize_or(&self, key: &str, default: usize) -> usize {
        self.get(key)
            .map(|s| s.parse().unwrap_or_else(|_| panic!("bad --{key} {s:?}")))
            .unwrap_or(default)
    }

    /// Boolean flag (the parser is strictly `--key value`, so flags take
    /// an explicit value): `--key 1|true|yes` → true, `0|false|no` or
    /// absent → false.
    pub fn flag(&self, key: &str) -> bool {
        matches!(self.get(key), Some("1") | Some("true") | Some("yes"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEYS: &[&str] = &["scale", "seed", "city", "memory", "verbose"];

    fn try_parse(args: &[&str]) -> Result<Args, String> {
        Args::try_parse(args.iter().map(|s| s.to_string()), KEYS)
    }

    fn parse(args: &[&str]) -> Args {
        try_parse(args).unwrap()
    }

    #[test]
    fn parses_key_value_pairs() {
        let a = parse(&["--scale", "test", "--seed", "7"]);
        assert_eq!(a.scale(), Scale::Test);
        assert_eq!(a.seed(), 7);
    }

    #[test]
    fn defaults_apply() {
        let a = parse(&[]);
        assert_eq!(a.scale(), Scale::Bench);
        assert_eq!(a.seed(), 42);
        assert_eq!(a.city(CityKind::Nyc), CityKind::Nyc);
        assert_eq!(a.f64_or("alpha", 1.0), 1.0);
        assert_eq!(a.usize_or("figure", 4), 4);
    }

    #[test]
    fn flags_take_explicit_values() {
        let a = parse(&["--memory", "1", "--verbose", "no"]);
        assert!(a.flag("memory"));
        assert!(!a.flag("verbose"));
        assert!(!a.flag("absent"));
    }

    #[test]
    fn city_override() {
        let a = parse(&["--city", "sg"]);
        assert_eq!(a.city(CityKind::Nyc), CityKind::Sg);
    }

    #[test]
    fn positional_arguments_rejected() {
        assert_eq!(
            try_parse(&["bench"]).unwrap_err(),
            "expected --key, got \"bench\""
        );
    }

    #[test]
    fn dangling_key_rejected() {
        assert_eq!(
            try_parse(&["--scale"]).unwrap_err(),
            "missing value for --scale"
        );
    }

    #[test]
    fn unknown_keys_are_rejected_by_name() {
        let err = try_parse(&["--scale", "test", "--shards", "4"]).unwrap_err();
        assert_eq!(
            err,
            "unknown option --shards; accepted: --scale --seed --city --memory --verbose"
        );
        // A key is checked before its value is read.
        assert!(try_parse(&["--zipf"]).unwrap_err().contains("--zipf"));
    }

    #[test]
    #[should_panic(expected = "bad --scale")]
    fn bad_scale_rejected() {
        parse(&["--scale", "galactic"]).scale();
    }
}
