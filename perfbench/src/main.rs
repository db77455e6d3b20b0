//! `perf` — the repo's two-clock benchmark.
//!
//! ```text
//! perf --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//! perf --all [--seed <n>] [--seconds <s>]
//! perf --selfcheck [--workload <name>] [--seed <n>]
//! ```
//!
//! One run sets a workload up from the seed, executes its fixed op list in
//! passes for `--seconds`, checks every op's output against the
//! `sirius-exec-cpu` oracle, and prints one JSON object as the last line of
//! standard output: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. A table of the same numbers goes to standard
//! error. `README.md` in this directory defines every metric and workload.

mod alloc;
mod json;
mod metrics;
mod oracle;
mod probes;
mod spans;
mod stats;
mod workloads;

use metrics::{Values, END_TO_END, PER_LAYER};
use spans::Tracer;
use stats::PassTimes;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{PassResult, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest passes a phase measures, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// Share of `--seconds` the traced run gives to each of its two phases
/// (untraced passes, then traced passes); the rest is for the probes.
const TRACED_PHASE_SHARE: f64 = 0.4;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    all: bool,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 25.0,
        trace: false,
        trace_out: None,
        all: false,
        selfcheck: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} takes {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number of seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or("--seconds takes a number in (0, 600]")?;
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value("a file path")?)),
            "--all" => args.all = true,
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &args.workload {
        if !workloads::NAMES.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w}; choose one of {}",
                workloads::NAMES.join(", ")
            ));
        }
    } else if !args.all && !args.selfcheck {
        return Err("give --workload <name>, --all or --selfcheck".into());
    }
    Ok(args)
}

/// One finished run: the contract's result fields.
struct RunResult {
    attempted: u64,
    failed: u64,
    values: Values,
}

impl RunResult {
    /// Every op passed and every printed metric is a usable number.
    fn correct(&self, catalog: &[metrics::MetricDef]) -> bool {
        self.failed == 0 && catalog.iter().all(|d| self.values.get(d.name).is_finite())
    }
}

/// One measured pass.
struct Measured {
    pass: PassResult,
    /// Per-layer values of the pass (traced passes only).
    layers: Values,
    /// Index of the pass's first span (traced passes only).
    first_span: usize,
}

/// Repeat passes until `seconds` of wall time have gone by (at least
/// `MIN_PASSES`).
fn measure(w: &mut dyn Workload, seconds: f64, mut tracer: Option<&mut Tracer>) -> Vec<Measured> {
    let t0 = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || t0.elapsed().as_secs_f64() < seconds {
        let first_span = tracer.as_deref().map_or(0, |t| t.spans().len());
        let (pass, layers) = match tracer.as_deref_mut() {
            None => w.pass(None),
            Some(t) => {
                let span = t.enter("pass", 0);
                let out = w.pass(Some(t));
                t.exit(span);
                out
            }
        };
        passes.push(Measured {
            pass,
            layers,
            first_span,
        });
    }
    passes
}

fn pass_times(passes: &[Measured]) -> PassTimes {
    let walls: Vec<f64> = passes.iter().map(|m| m.pass.wall.as_secs_f64()).collect();
    PassTimes::of(&walls)
}

fn totals(w: &dyn Workload, passes: &[Measured]) -> (u64, u64) {
    (
        w.ops_per_pass() * passes.len() as u64,
        passes.iter().map(|m| m.pass.failed).sum(),
    )
}

/// The untraced run: end-to-end metrics.
fn run_untraced(name: &str, seed: u64, seconds: f64) -> RunResult {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut workload = None;
    for _ in 0..SETUPS {
        // Free the previous copy first, so the process holds one at a time.
        drop(workload.take());
        let t0 = Instant::now();
        workload = workloads::setup(name, seed, false);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut w = workload.expect("workload name was validated");

    let passes = measure(w.as_mut(), seconds, None);
    let ops = w.ops_per_pass() as f64;
    let times = pass_times(&passes);
    let first = &passes[0].pass;
    let drifting = passes.iter().filter(|m| m.pass.sim != first.sim).count();

    let mut values = Values::default();
    values.set("setup_s", stats::median(&setups));
    values.set("wall_qps", ops / times.best);
    // Simulated and allocator metrics come from the first timed pass: the
    // number of passes a run fits depends on the host, the state after
    // exactly one warm-up pass does not.
    let mut op_sim_ms: Vec<f64> = first.op_sim.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    op_sim_ms.sort_by(f64::total_cmp);
    values.set("sim_qps", ops / first.sim.as_secs_f64());
    values.set(
        "sim_p95_ms",
        if op_sim_ms.is_empty() {
            f64::NAN
        } else {
            stats::nearest_rank(&op_sim_ms, 0.95)
        },
    );
    values.set("allocs_per_op", first.alloc.calls as f64 / ops);
    // How far an op pushes the heap above where it started (mean over the
    // pass's ops, median over passes), not the process's high-water mark:
    // that one is mostly the generated tables, whose footprint steps by a
    // quarter from one seed to the next.
    values.set(
        "peak_heap_mb",
        median_of(&passes, |m| m.pass.mean_op_peak_bytes / 1e6),
    );

    eprintln!(
        "{name} seed {seed}: {} passes of {ops} ops in {:.1} s timed; pass best {:.1} ms, \
         p50 {:.1} ms, p90 {:.1} ms, noise ratio {:.3}; set-ups {setups:.3?} s; \
         {drifting} passes differ from the first in simulated time",
        passes.len(),
        passes
            .iter()
            .map(|m| m.pass.wall.as_secs_f64())
            .sum::<f64>(),
        times.best * 1e3,
        times.p50 * 1e3,
        times.p90 * 1e3,
        times.noise_ratio(),
    );
    let (attempted, failed) = totals(w.as_ref(), &passes);
    RunResult {
        attempted,
        failed,
        values,
    }
}

/// Median over passes of `f(pass)`.
fn median_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    stats::median(&items.iter().map(f).collect::<Vec<f64>>())
}

/// The traced run: per-layer metrics, and the Chrome trace if asked for.
fn run_traced(name: &str, seed: u64, seconds: f64, trace_out: Option<&PathBuf>) -> RunResult {
    let mut w = workloads::setup(name, seed, true).expect("workload name was validated");
    let resident_mb = alloc::live_bytes() as f64 / 1e6;
    let ops = w.ops_per_pass() as f64;
    let phase = seconds * TRACED_PHASE_SHARE;

    let plain = measure(w.as_mut(), phase, None);
    let mut tracer = Tracer::new();
    let traced = measure(w.as_mut(), phase, Some(&mut tracer));

    let mut values = Values::default();
    let setup = w.setup_times();
    values.set("tpch.gen_s", setup.gen_s);
    values.set("exec_cpu.oracle_s", setup.oracle_s);
    values.set("core.load_s", setup.load_s);

    // Counts and simulated time taken at the span boundaries: the median
    // over the traced passes (identical passes on the stateless workloads).
    for d in PER_LAYER {
        if traced.iter().any(|m| m.layers.has(d.name)) {
            values.set(d.name, median_of(&traced, |m| m.layers.get(d.name)));
        }
    }

    // Host time per layer: self time of the layer's spans, summed over a
    // pass, median over the traced passes.
    let per_pass: Vec<_> = traced
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let end = traced
                .get(i + 1)
                .map_or(tracer.spans().len(), |next| next.first_span);
            tracer.self_ns_by_name(m.first_span..end)
        })
        .collect();
    let self_us = |names: &[&str]| {
        median_of(&per_pass, |by_name| {
            names
                .iter()
                .map(|n| by_name.get(n).copied().unwrap_or(0))
                .sum::<u64>() as f64
                / 1e3
        })
    };
    values.set("sql.lex_parse_us", self_us(&["sql.lex_parse"]));
    values.set("sql.bind_us", self_us(&["sql.bind"]));
    values.set("sql.optimize_us", self_us(&["sql.optimize"]));
    values.set("plan.validate_us", self_us(&["plan.validate"]));
    values.set("plan.fingerprint_us", self_us(&["plan.fingerprint"]));
    values.set("core.compile_us", self_us(&["core.compile"]));
    values.set(
        "core.execute_ms",
        self_us(&[
            "core.execute",
            "core.begin",
            "core.step",
            "core.materialize",
        ]) / 1e3,
    );
    let traced_times = pass_times(&traced);
    let kernels = values.get("core.kernel_launches");
    if kernels > 0.0 {
        values.set("core.wall_us_per_kernel", traced_times.p50 * 1e6 / kernels);
    }

    let times = pass_times(&plain);
    values.set("alloc.resident_mb", resident_mb);
    values.set("alloc.bytes_per_op", plain[0].pass.alloc.bytes as f64 / ops);
    values.set("wall.pass_p50_ms", times.p50 * 1e3);
    values.set("wall.pass_p90_ms", times.p90 * 1e3);
    values.set("wall.noise_ratio", times.noise_ratio());
    // Best traced pass over best untraced pass: 1.0 means tracing is free.
    values.set("trace.overhead_ratio", traced_times.best / times.best);

    values.extend(w.probes());
    values.extend(probes::run(w.data()));

    if let Some(path) = trace_out {
        match std::fs::write(path, tracer.to_chrome_json()) {
            Ok(()) => eprintln!(
                "{name}: wrote {} spans to {} (load in Perfetto or chrome://tracing)",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("{name}: cannot write {}: {e}", path.display()),
        }
    }
    eprintln!(
        "{name} seed {seed}: {} untraced and {} traced passes of {ops} ops",
        plain.len(),
        traced.len()
    );
    let (a1, f1) = totals(w.as_ref(), &plain);
    let (a2, f2) = totals(w.as_ref(), &traced);
    RunResult {
        attempted: a1 + a2,
        failed: f1 + f2,
        values,
    }
}

/// Print a run: the table on standard error, the result object on
/// standard output.
fn report(name: &str, catalog: &[metrics::MetricDef], run: &RunResult) {
    eprint!("{name}:\n{}", metrics::table(catalog, &run.values));
    println!(
        "{}",
        metrics::result_line(
            run.correct(catalog),
            run.attempted,
            run.failed,
            catalog,
            &run.values
        )
    );
}

/// Run one workload twice in this process from the same seed: the
/// simulated metrics and the failure count must be identical (the cheap
/// guard that the simulated clock does not depend on the host), and
/// `allocs_per_op` must agree within 2 %.
fn selfcheck(name: &str, seed: u64) -> bool {
    let a = run_untraced(name, seed, 1.0);
    let b = run_untraced(name, seed, 1.0);
    let mut ok = a.failed == b.failed;
    for metric in ["sim_qps", "sim_p95_ms"] {
        let (x, y) = (a.values.get(metric), b.values.get(metric));
        eprintln!("selfcheck {name}: {metric} {x} vs {y}");
        ok &= x == y && x.is_finite();
    }
    let (x, y) = (a.values.get("allocs_per_op"), b.values.get("allocs_per_op"));
    eprintln!(
        "selfcheck {name}: allocs_per_op {x} vs {y}, failed {} vs {}",
        a.failed, b.failed
    );
    ok &= (x - y).abs() <= 0.02 * x.max(y);
    println!("selfcheck {name}: {}", if ok { "ok" } else { "FAILED" });
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf: {e}");
            return ExitCode::from(2);
        }
    };
    if args.selfcheck {
        let name = args.workload.as_deref().unwrap_or("serve_mix");
        return if selfcheck(name, args.seed) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    if args.all {
        // The command for people and CI: every workload, both runs; fails
        // if any op of the baseline fails.
        let mut failed = 0;
        for name in workloads::NAMES {
            let run = run_untraced(name, args.seed, args.seconds);
            report(name, END_TO_END, &run);
            failed += run.failed;
            let run = run_traced(name, args.seed, args.seconds, None);
            report(name, PER_LAYER, &run);
            failed += run.failed;
        }
        return if failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    // The driver's command: one workload, one run. Failed ops are reported
    // through `failed` and `correct`, not through the exit code.
    let name = args.workload.as_deref().expect("checked by parse_args");
    if args.trace {
        let run = run_traced(name, args.seed, args.seconds, args.trace_out.as_ref());
        report(name, PER_LAYER, &run);
    } else {
        let run = run_untraced(name, args.seed, args.seconds);
        report(name, END_TO_END, &run);
    }
    ExitCode::SUCCESS
}
