//! The one argument parser of the `repro` binary. Strict: a malformed
//! value, an unknown flag or an unknown experiment is an error, never a
//! silent fall-back to a default.

use crate::{DEFAULT_SF, EXPERIMENTS};
use std::path::PathBuf;

/// Default fault seed when neither `--seed` nor `CHAOS_SEED_BASE` is set.
pub const DEFAULT_SEED: u64 = 42;

/// Everything settable from the command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// `--sf`: scale factor; `None` = each experiment's own default.
    pub sf: Option<f64>,
    /// `--seed` (else `CHAOS_SEED_BASE`, else 42): fault-plan seed of
    /// `faults` and `resilience`.
    pub seed: u64,
    /// `--query`: the one TPC-H query `profile` runs (default: all 22).
    pub query: Option<u32>,
    /// `--out`: artifact directory of `profile`.
    pub out: PathBuf,
}

/// One-paragraph usage text, printed to stderr with every parse error.
pub fn usage() -> String {
    let names: Vec<String> = EXPERIMENTS
        .iter()
        .map(|e| {
            if e.default_sf == DEFAULT_SF {
                e.name.to_string()
            } else {
                format!("{} (SF {})", e.name, e.default_sf)
            }
        })
        .collect();
    format!(
        "usage: repro <experiment|all> [--sf F] [--seed N] [--query N] [--out DIR]\n\
         experiments: {}\n\
         --sf F      scale factor (default {DEFAULT_SF} unless noted above)\n\
         --seed N    fault seed of faults/resilience (default: $CHAOS_SEED_BASE, else {DEFAULT_SEED})\n\
         --query N   profile only TPC-H QN, 1-22 (default: all)\n\
         --out DIR   profile's artifact directory (default target/profile)",
        names.join(" ")
    )
}

/// Parse `repro`'s arguments (without the program name) into the experiment name (or
/// `"all"`) and its [`Args`]. `env_seed` is the value of `CHAOS_SEED_BASE`,
/// if set.
pub fn parse_args(
    argv: impl IntoIterator<Item = String>,
    env_seed: Option<String>,
) -> Result<(String, Args), String> {
    fn value<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Result<T, String> {
        let v = v.ok_or_else(|| format!("{flag} takes a value"))?;
        v.parse()
            .map_err(|_| format!("malformed value for {flag}: {v}"))
    }
    let mut argv = argv.into_iter();
    let command = argv.next().ok_or("no experiment named")?;
    if command != "all" && !EXPERIMENTS.iter().any(|e| e.name == command) {
        return Err(format!("unknown experiment: {command}"));
    }
    let mut args = Args {
        sf: None,
        seed: match env_seed {
            Some(v) => value("CHAOS_SEED_BASE", Some(v))?,
            None => DEFAULT_SEED,
        },
        query: None,
        out: PathBuf::from("target/profile"),
    };
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--sf" => {
                let sf: f64 = value(&flag, argv.next())?;
                if !(sf.is_finite() && sf > 0.0) {
                    return Err(format!("--sf must be a positive number, got {sf}"));
                }
                args.sf = Some(sf);
            }
            "--seed" => args.seed = value(&flag, argv.next())?,
            "--query" => {
                let q: u32 = value(&flag, argv.next())?;
                if !(1..=22).contains(&q) {
                    return Err(format!("no such TPC-H query: Q{q}"));
                }
                args.query = Some(q);
            }
            "--out" => args.out = value(&flag, argv.next())?,
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok((command, args))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str, env: Option<&str>) -> Result<(String, Args), String> {
        parse_args(
            line.split_whitespace().map(String::from),
            env.map(String::from),
        )
    }

    #[test]
    fn defaults_come_from_the_experiment_table() {
        let (command, args) = parse("figure4", None).unwrap();
        assert_eq!(command, "figure4");
        assert_eq!(
            args,
            Args {
                sf: None,
                seed: 42,
                query: None,
                out: "target/profile".into()
            }
        );
        let default_sf = |name: &str| {
            let e = EXPERIMENTS.iter().find(|e| e.name == name).unwrap();
            args.sf.unwrap_or(e.default_sf)
        };
        assert_eq!(default_sf("figure4"), 0.05);
        assert_eq!(default_sf("morsel"), 0.5);
        assert_eq!(default_sf("profile"), 0.01);
    }

    #[test]
    fn every_flag_overrides_its_default() {
        let (command, args) =
            parse("all --sf 0.1 --seed 7 --query 6 --out /tmp/p", Some("1000")).unwrap();
        assert_eq!(command, "all");
        assert_eq!(args.sf, Some(0.1));
        assert_eq!(args.seed, 7, "--seed wins over CHAOS_SEED_BASE");
        assert_eq!(args.query, Some(6));
        assert_eq!(args.out, PathBuf::from("/tmp/p"));
    }

    #[test]
    fn seed_falls_back_to_chaos_seed_base() {
        assert_eq!(parse("faults", Some("2000")).unwrap().1.seed, 2000);
        assert_eq!(parse("faults", None).unwrap().1.seed, DEFAULT_SEED);
    }

    #[test]
    fn malformed_unknown_and_missing_are_rejected() {
        for (line, env, needle) in [
            ("", None, "no experiment"),
            ("figure9", None, "unknown experiment"),
            ("--sf 0.1", None, "unknown experiment"),
            ("figure4 --sf abc", None, "malformed value for --sf"),
            ("figure4 --sf -1", None, "positive"),
            ("figure4 --sf", None, "--sf takes a value"),
            ("figure4 --fs 0.1", None, "unknown argument: --fs"),
            ("figure4 extra", None, "unknown argument: extra"),
            ("faults --seed x", None, "malformed value for --seed"),
            ("faults", Some("abc"), "malformed value for CHAOS_SEED_BASE"),
            ("profile --query six", None, "malformed value for --query"),
            ("profile --query 23", None, "no such TPC-H query"),
            ("profile --out", None, "--out takes a value"),
        ] {
            let err = parse(line, env).expect_err(line);
            assert!(err.contains(needle), "`{line}`: {err}");
        }
    }
}
