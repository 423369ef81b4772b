//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints every figure by name with its unit, then, as the last line of
//! standard output, one JSON object: `correct`, `attempted`, `failed`
//! and the mode's metrics (end-to-end untraced, per-layer traced).
//! Exits 1 when any delivered sample was wrong or missing, and 2 when
//! the run could not be made.

use perfbench::report::{self, Metric};
use perfbench::{Options, Spec, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

/// Where work files, results and span files go, relative to the
/// directory the benchmark runs from.
const ROOT: &str = ".perfbench";

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse(args: &[String]) -> Result<Options, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Spec::named(value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        spec: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        root: PathBuf::from(ROOT),
        flip_fetch: None,
    })
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let outcome = match perfbench::run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", opts.spec.name);
            return ExitCode::from(2);
        }
    };
    for (k, v) in &outcome.provenance {
        println!("{k:<16} {v}");
    }
    print_metrics("metrics", &outcome.metrics);
    print_metrics("also measured", &outcome.extra);
    let t = &outcome.tally;
    println!(
        "delivered {} mismatched {} duplicates {} missing {}",
        t.delivered, t.mismatched, t.duplicates, t.missing
    );
    if let Some(e) = &outcome.error {
        eprintln!("perfbench: {}: {e}", opts.spec.name);
    }
    if !outcome.correct() {
        eprintln!("perfbench: {}: correctness check FAILED", opts.spec.name);
    }
    println!("{}", report::result_line(&outcome));
    ExitCode::from(outcome.exit_code() as u8)
}
