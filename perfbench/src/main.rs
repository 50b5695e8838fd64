//! Command-line entry point of the benchmark:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload measured_fleet --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints the simulated-output digest, then, as the last line, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`.

use memento_perfbench::report::{self, END_TO_END};
use memento_perfbench::scenario::{Size, Workload};
use std::process::ExitCode;

/// The workload seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: memento-perfbench --workload <measured_fleet|colocated_batch|\
profiled_fleet|elastic_region> [--seed N] [--seconds N] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload '{value}'"))?)
            }
            "--seed" => seed = number(&value)?,
            "--seconds" => seconds = number(&value)?.clamp(1, 600),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let size = Size::full();
    let (outcome, names) = if args.trace {
        (
            report::per_layer(args.workload, args.seed, &size),
            report::per_layer_names(),
        )
    } else {
        (
            report::end_to_end(args.workload, args.seed, args.seconds, &size),
            END_TO_END
                .iter()
                .map(|(n, u)| (n.to_string(), *u))
                .collect(),
        )
    };
    for p in &outcome.problems {
        eprintln!("check failed: {p}");
    }
    println!(
        "digest {} seed {}: {:016x}",
        args.workload.name(),
        args.seed,
        outcome.digest
    );
    println!("{}", outcome.to_json(&names));
    ExitCode::SUCCESS
}
