//! Command-line entry point:
//!
//! ```text
//! perfbench --workload <huge-2t|layered-1t> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a readable report followed, as the last line of standard
//! output, by one JSON object: `correct`, `attempted`, `failed`, and
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`).

use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::{RunSpec, WorkloadName};
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <huge-2t|layered-1t> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<RunSpec, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WorkloadName::parse(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("--seconds must be in (0, 600], got {value:?}"))?;
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                });
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(RunSpec {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(2013),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = match parse(&args) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        spec.workload.name(),
        spec.seed,
        spec.seconds,
        u8::from(spec.trace)
    );
    let report = perfbench::run(&spec);
    for line in &report.lines {
        println!("{line}");
    }
    for problem in &report.problems {
        println!("problem: {problem}");
    }
    print!("{}", report.table());
    println!(
        "{}",
        report.json(if spec.trace { PER_LAYER } else { END_TO_END })
    );
    ExitCode::SUCCESS
}
