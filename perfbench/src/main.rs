//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! perfbench --print-digests --workload <name>
//! ```
//!
//! A run repeats the workload's cell sequence ("a pass") on this one
//! thread for about `--seconds` of host time, checks every cell's output,
//! and prints one JSON object as its last line of standard output:
//! `--trace 0` reports the end-to-end metrics (host-time figures are
//! medians over passes), `--trace 1` the per-layer metrics from spans
//! and counts recorded around the calls into each layer. Any failed
//! check makes `correct` false and the exit code 1.

mod check;
mod host;
mod metrics;
mod pinned;
mod probes;
mod server;
mod telemetry;
mod trace;
mod workloads;

use std::process::ExitCode;
use workloads::Workload;

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                     [--out <dir>] | perfbench --print-digests --workload <name>";

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Where the traced run writes its spans.
    out: Option<std::path::PathBuf>,
    print_digests: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut out) = (None, None, None, None, None);
    let mut print_digests = false;
    while let Some(flag) = argv.next() {
        if flag == "--print-digests" {
            print_digests = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} takes a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            "--out" => out = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if print_digests {
        return Ok(Args {
            workload,
            seed: workloads::DEFAULT_SEED,
            seconds: 0.0,
            trace: false,
            out: None,
            print_digests,
        });
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
        print_digests,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.print_digests {
        return match metrics::print_digests(args.workload) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("{msg}");
                ExitCode::FAILURE
            }
        };
    }
    let outcome = if args.trace {
        metrics::traced(args.workload, args.seed, args.seconds, args.out.as_deref())
    } else {
        metrics::measured(args.workload, args.seed, args.seconds)
    };
    println!("{}", outcome.to_json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
