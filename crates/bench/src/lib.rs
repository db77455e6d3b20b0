//! # sirius-bench — the harness that regenerates every table and figure
//!
//! One binary, `repro <experiment>`, prints any of the paper's artifacts
//! (`table1`, `figure1`, `figure4`, `figure5`, `table2`) or of this
//! repository's ablations (`interconnect`, `morsel`, `memory`, `faults`,
//! `pipelines`, `fusion`, `serve`, `resilience`, `encoding`, `plancache`,
//! `profile`), and `repro all` prints them all. Every experiment is a row
//! of [`EXPERIMENTS`] and runs over one [`Lab`] — generated TPC-H data plus
//! the DuckDB planner, built at most once per scale factor per process.
//! EXPERIMENTS.md's measured blocks are this binary's stdout
//! (`scripts/regen_experiments.sh`). Wall-clock time is not measured
//! here: the separate `perfbench/` workspace records it.
//!
//! All printed times are simulated device time. Absolute milliseconds
//! depend on the scale factor (model time is linear in data volume, so
//! ratios match the paper's SF100 shapes at any SF); `figure4` and `table2`
//! also print an SF100-extrapolated column.

#![warn(missing_docs)]

pub mod ablations;
mod args;
mod lab;
pub mod paper;
pub mod profile;
pub mod serving;

pub use args::{parse_args, usage, Args};
pub use lab::{Lab, NODES};
use std::io::{self, Write};

/// Default scale factor (fast enough for a laptop, large enough that
/// per-kernel launch overhead is realistic noise).
pub const DEFAULT_SF: f64 = 0.05;

/// Scale factor of the morsel-parallelism ablation: large enough that
/// per-morsel memory time dominates kernel-launch overhead, so stream
/// overlap — not fixed dispatch cost — decides the measurement (lineitem ≈
/// 3M rows → four ~750k-row morsels at the default size).
pub const MORSEL_SF: f64 = 0.5;

/// One `repro` subcommand.
pub struct Experiment {
    /// Subcommand name.
    pub name: &'static str,
    /// Scale factor it runs at when `--sf` is absent.
    pub default_sf: f64,
    /// Prints the experiment to the writer, panicking if a shape it asserts
    /// does not hold.
    pub run: fn(&Lab, &Args, &mut dyn Write) -> io::Result<()>,
}

const fn experiment(
    name: &'static str,
    default_sf: f64,
    run: fn(&Lab, &Args, &mut dyn Write) -> io::Result<()>,
) -> Experiment {
    Experiment {
        name,
        default_sf,
        run,
    }
}

/// Every experiment, in the order `repro all` runs them.
pub const EXPERIMENTS: [Experiment; 16] = [
    experiment("table1", DEFAULT_SF, paper::table1),
    experiment("figure1", DEFAULT_SF, paper::figure1),
    experiment("figure4", DEFAULT_SF, paper::figure4),
    experiment("figure5", DEFAULT_SF, paper::figure5),
    experiment("table2", DEFAULT_SF, paper::table2),
    experiment("interconnect", DEFAULT_SF, ablations::interconnect),
    experiment("morsel", MORSEL_SF, ablations::morsel),
    experiment("memory", DEFAULT_SF, ablations::memory),
    experiment("faults", DEFAULT_SF, ablations::faults),
    experiment("pipelines", DEFAULT_SF, ablations::pipelines),
    experiment("fusion", DEFAULT_SF, ablations::fusion),
    experiment("serve", DEFAULT_SF, serving::serve),
    experiment("resilience", DEFAULT_SF, serving::resilience),
    experiment("encoding", DEFAULT_SF, ablations::encoding),
    experiment("plancache", DEFAULT_SF, ablations::plancache),
    experiment("profile", 0.01, profile::profile),
];

/// Run experiment `command` (or every one, for `"all"`) into `out`. This is
/// the only place a [`Lab`] is made outside tests and benches, one per
/// distinct scale factor, so a run generates TPC-H once per scale factor
/// however many experiments share it.
pub fn run(command: &str, args: &Args, out: &mut dyn Write) -> io::Result<()> {
    let mut labs: Vec<Lab> = Vec::new();
    for e in EXPERIMENTS
        .iter()
        .filter(|e| command == "all" || command == e.name)
    {
        let sf = args.sf.unwrap_or(e.default_sf);
        let at = match labs.iter().position(|lab| lab.sf() == sf) {
            Some(at) => at,
            None => {
                labs.push(Lab::new(sf));
                labs.len() - 1
            }
        };
        (e.run)(&labs[at], args, out)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn data_free_experiments_never_build_the_lab() {
        let lab = Lab::new(DEFAULT_SF);
        let args = parse_args(["all".to_string()], None).unwrap().1;
        let mut out = Vec::new();
        for e in &EXPERIMENTS[..2] {
            (e.run)(&lab, &args, &mut out).unwrap();
        }
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("Table 1: Comparison of CPU and GPU Instances\n"));
        assert!(text.contains("\nFigure 1: Recent hardware trends\n"));
        assert!(!lab.is_built(), "table1/figure1 must not generate TPC-H");
    }

    /// `repro <name>` commands a document quotes: `--bin repro -- <name>` in
    /// a command line and `<!-- repro: <name> … -->` on a generated block
    /// (a `<placeholder>` after either is not a name).
    fn quoted(doc: &str) -> BTreeSet<&str> {
        ["--bin repro -- ", "<!-- repro: "]
            .iter()
            .flat_map(|marker| doc.split(marker).skip(1))
            .filter_map(|rest| rest.split(|c: char| !c.is_ascii_alphanumeric()).next())
            .filter(|name| !name.is_empty())
            .collect()
    }

    #[test]
    fn declared_experiments_are_the_documented_ones() {
        let declared: BTreeSet<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        assert_eq!(declared.len(), EXPERIMENTS.len(), "duplicate name");
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        for file in ["EXPERIMENTS.md", "README.md"] {
            let doc = std::fs::read_to_string(format!("{root}/{file}")).unwrap();
            let mut documented = quoted(&doc);
            documented.remove("all");
            assert_eq!(documented, declared, "{file} vs EXPERIMENTS");
        }
    }
}
