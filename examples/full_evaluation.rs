//! The complete evaluation: every table and figure of the paper in one
//! pass, with a JSON summary written next to the text report.
//!
//! ```sh
//! cargo run --release --example full_evaluation -- --jobs 8
//! ```
//!
//! Runs all 23 workloads under up to six system configurations (runs are
//! memoized across figures), then the fleet, contention, sensitivity and
//! ablation studies: about 8 s serial and 4 s at `--jobs 2` on a 2-vCPU
//! VM. `--jobs N` (or the `MEMENTO_JOBS` environment variable) fans
//! independent simulation points across N worker threads — the tables
//! are byte-identical at any job count; only the timing summary at the
//! end differs. The summary covers every study, each with its share of
//! the wall-clock.

use memento_experiments::{profile_run, report, ConfigKind, EvalContext};

struct Args {
    jobs: Option<usize>,
    trace: Option<std::path::PathBuf>,
}

/// Parses `--jobs N` / `--jobs=N` and `--trace PATH` from argv; a missing
/// `--jobs` defers to `MEMENTO_JOBS` and then the machine's available
/// parallelism.
fn parse_args() -> Args {
    let mut parsed = Args {
        jobs: None,
        trace: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--jobs" || arg == "-j" {
            let value = args.next().unwrap_or_else(|| usage());
            parsed.jobs = Some(parse_jobs(&value));
        } else if let Some(value) = arg.strip_prefix("--jobs=") {
            parsed.jobs = Some(parse_jobs(value));
        } else if arg == "--trace" {
            let value = args.next().unwrap_or_else(|| usage());
            parsed.trace = Some(value.into());
        } else if let Some(value) = arg.strip_prefix("--trace=") {
            parsed.trace = Some(value.into());
        } else {
            usage();
        }
    }
    parsed
}

fn parse_jobs(value: &str) -> usize {
    match value.parse() {
        Ok(n) if n >= 1 => n,
        _ => usage(),
    }
}

fn usage() -> ! {
    eprintln!("usage: full_evaluation [--jobs N] [--trace PATH]");
    std::process::exit(2);
}

fn main() {
    let args = parse_args();
    let mut ctx = EvalContext::new();
    if let Some(jobs) = args.jobs {
        ctx = ctx.with_jobs(jobs);
    }
    let full = report::run(&mut ctx).unwrap_or_else(|e| {
        eprintln!("full_evaluation: {e}");
        std::process::exit(1);
    });
    println!("{full}");

    if let Some(trace_path) = &args.trace {
        // One representative traced run on top of the evaluation: the
        // Perfetto trace plus the per-run metrics appendix.
        let spec = ctx.workload("html");
        let profiled = ctx.study("profile", |_| {
            profile_run(&spec, ConfigKind::Memento, Some(trace_path))
        });
        println!();
        println!("{profiled}");
        println!("Perfetto trace written to {}", trace_path.display());
    }

    println!();
    println!("{}", ctx.timing());

    let json = full.summary_json().to_pretty();
    let path = "evaluation_summary.json";
    if std::fs::write(path, &json).is_ok() {
        println!("headline numbers written to {path}");
    } else {
        println!("headline numbers:\n{json}");
    }
}
