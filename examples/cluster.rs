//! Cluster-scale traffic evaluation: baseline vs. Memento fleets under
//! byte-identical open-loop arrivals, at several load levels.
//!
//! ```sh
//! cargo run --release --example cluster -- --jobs 8
//! ```
//!
//! Calibrates per-(workload, config) service profiles from real machines,
//! then fans the per-(config, load) fleet simulations across `--jobs`
//! worker threads. The table is byte-identical at any job count. With
//! `--out PATH` the rendered report is also written to a file (the CI
//! smoke step archives it as an artifact).

use memento_experiments::cluster::{self, ClusterParams};
use memento_experiments::EvalContext;

struct Args {
    jobs: Option<usize>,
    invocations: Option<u64>,
    scale: Option<u64>,
    out: Option<std::path::PathBuf>,
}

/// Parses `--jobs N`, `--invocations N`, `--scale N` (workload scale
/// divisor — CI smoke runs use a large divisor to stay cheap), and
/// `--out PATH` (with `=` forms); a missing `--jobs` defers to
/// `MEMENTO_JOBS` and then the machine's available parallelism.
fn parse_args() -> Args {
    let mut parsed = Args {
        jobs: None,
        invocations: None,
        scale: None,
        out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--jobs" || arg == "-j" {
            let value = args.next().unwrap_or_else(|| usage());
            parsed.jobs = Some(parse_num(&value) as usize);
        } else if let Some(value) = arg.strip_prefix("--jobs=") {
            parsed.jobs = Some(parse_num(value) as usize);
        } else if arg == "--invocations" || arg == "-n" {
            let value = args.next().unwrap_or_else(|| usage());
            parsed.invocations = Some(parse_num(&value));
        } else if let Some(value) = arg.strip_prefix("--invocations=") {
            parsed.invocations = Some(parse_num(value));
        } else if arg == "--scale" {
            let value = args.next().unwrap_or_else(|| usage());
            parsed.scale = Some(parse_num(&value));
        } else if let Some(value) = arg.strip_prefix("--scale=") {
            parsed.scale = Some(parse_num(value));
        } else if arg == "--out" {
            let value = args.next().unwrap_or_else(|| usage());
            parsed.out = Some(value.into());
        } else if let Some(value) = arg.strip_prefix("--out=") {
            parsed.out = Some(value.into());
        } else {
            usage();
        }
    }
    parsed
}

fn parse_num(value: &str) -> u64 {
    match value.parse() {
        Ok(n) if n >= 1 => n,
        _ => usage(),
    }
}

fn usage() -> ! {
    eprintln!("usage: cluster [--jobs N] [--invocations N] [--scale N] [--out PATH]");
    std::process::exit(2);
}

fn main() {
    let args = parse_args();
    let mut ctx = match args.scale {
        Some(divisor) => EvalContext::scaled(divisor),
        None => EvalContext::new(),
    };
    if let Some(jobs) = args.jobs {
        ctx = ctx.with_jobs(jobs);
    }
    let mut params = ClusterParams::default();
    if let Some(n) = args.invocations {
        params.invocations = n;
    }
    let report = cluster::run(&mut ctx, &cluster::DEFAULT_MIX, params)
        .expect("default cluster evaluation must be valid");
    println!("{report}");

    if let Some(path) = &args.out {
        let rendered = format!("{report}\n");
        match std::fs::write(path, rendered) {
            Ok(()) => println!("\nreport written to {}", path.display()),
            Err(e) => {
                eprintln!("failed to write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
}
