//! End-to-end benchmark of the datatrans serving system.
//!
//! ```text
//! cargo run --release --manifest-path e2e_bench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds its inputs from `--seed`, measures the named workload for
//! `--seconds`, checks every output, and prints human-readable lines
//! followed by one JSON result line: end-to-end metrics with `--trace 0`,
//! per-layer metrics from a traced replay with `--trace 1`. Exits non-zero
//! when a correctness check fails. See `README.md` beside this file.

mod env;
mod inproc;
mod load;
mod replay;
mod report;
mod requests;
mod stats;
mod trace;
mod wire;

use std::process::ExitCode;

use crate::report::{per_layer_metrics, Report, END_TO_END};
use crate::stats::{percentile, sorted};

/// Set-ups per run: at least [`MIN_SETUPS`], and more while their total
/// is under [`SETUP_BUDGET_S`], up to [`MAX_SETUPS`]. `setup_s` is their
/// median.
pub const MIN_SETUPS: usize = 5;
/// Most set-ups per run.
pub const MAX_SETUPS: usize = 50;
/// Seconds of set-up a run aims to spend before it stops repeating.
pub const SETUP_BUDGET_S: f64 = 1.0;

/// Whether a run that has timed `setups` should set up once more.
pub fn more_setups(setups: &[f64]) -> bool {
    setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && setups.iter().sum::<f64>() < SETUP_BUDGET_S)
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 2] = ["wire_hot_hits", "inproc_mixed_ingest"];

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Seed all inputs derive from.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Whether to run the traced per-layer replay.
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// Prints one phase's accounting: requests sent, succeeded, failed and,
/// for an open loop, how late the generator ran.
pub fn phase_summary(
    name: &str,
    sent: usize,
    ok: usize,
    failed: usize,
    lateness_us: Option<&[f64]>,
    io_error: Option<&str>,
) {
    let mut line = format!("phase {name}: sent {sent} succeeded {ok} failed {failed}");
    if let Some(lateness) = lateness_us {
        let lateness = sorted(lateness);
        line.push_str(&format!(
            " lateness_p50_us {} lateness_max_us {}",
            percentile(&lateness, 50.0).unwrap_or(0.0),
            lateness.last().copied().unwrap_or(0.0)
        ));
    }
    if let Some(e) = io_error {
        line.push_str(&format!(" socket_error \"{e}\""));
    }
    println!("{line}");
}

fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    match args.workload.as_str() {
        "wire_hot_hits" => wire::run(args, report),
        "inproc_mixed_ingest" => inproc::run(args, report),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <u64> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let stamp = env::EnvStamp::measure();
    println!("env: {}", stamp.to_json());
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut report = Report::default();
    if let Err(e) = run(&args, &mut report) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "failed_frac {} ({} failed of {} attempted)",
        stats::ratio(report.failed as f64, report.attempted as f64),
        report.failed,
        report.attempted
    );
    let names: Vec<(String, &'static str)> = if args.trace {
        per_layer_metrics()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect()
    };
    if args.trace {
        for (name, unit) in &names {
            println!(
                "layer {name} {} {unit}",
                report.values.get(name).copied().unwrap_or(f64::NAN)
            );
        }
    }
    let line = match report.result_line(&names) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let correct = report.correct();
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: a correctness check failed");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let args = parse_args(&argv(
            "--workload wire_hot_hits --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            args,
            Args {
                workload: "wire_hot_hits".to_owned(),
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
        assert!(parse_args(&argv("--workload nope --seed 7 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&argv(
            "--workload wire_hot_hits --seed 7 --seconds 0 --trace 0"
        ))
        .is_err());
        assert!(parse_args(&argv(
            "--workload wire_hot_hits --seed 7 --seconds 1 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&argv("--workload wire_hot_hits --seconds 1")).is_err());
    }

    #[test]
    fn setups_repeat_until_budget_or_cap() {
        assert!(more_setups(&[]));
        assert!(more_setups(&[1.0; 4]));
        assert!(!more_setups(&[1.0; 5]));
        assert!(more_setups(&[0.01; 10]));
        assert!(!more_setups(&[0.01; 50]));
        assert!(!more_setups(&[0.2; 5]));
    }
}
