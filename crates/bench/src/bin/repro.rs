//! `repro <experiment|all> [--sf F] [--seed N] [--query N] [--out DIR]` —
//! regenerate one of the paper's tables and figures or one of this
//! repository's ablations (or all of them) on stdout. A bad invocation
//! prints the reason and the usage to stderr and exits 2; an experiment
//! whose asserted shape does not hold panics.

fn main() {
    let seed = std::env::var("CHAOS_SEED_BASE").ok();
    let (command, args) =
        sirius_bench::parse_args(std::env::args().skip(1), seed).unwrap_or_else(|reason| {
            eprintln!("repro: {reason}\n{}", sirius_bench::usage());
            std::process::exit(2)
        });
    sirius_bench::run(&command, &args, &mut std::io::stdout().lock()).expect("write the report");
}
