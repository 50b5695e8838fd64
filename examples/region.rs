//! Region-scale policy-matrix study: placement, keep-alive, cold-start,
//! reclamation, and autoscaling policies crossed over bursty traces.
//!
//! ```sh
//! cargo run --release --example region -- --jobs 8
//! ```
//!
//! Calibrates per-(workload, config) service profiles from real machines,
//! then fans the matrix cells across `--jobs` worker threads. The table
//! is byte-identical at any job count, with `*` marking each (trace,
//! config) group's p99 × peak-footprint Pareto front. With `--out PATH`
//! the rendered report is also written to a file (the CI smoke step
//! archives it as an artifact).

use memento_experiments::region::{self, RegionParams};
use memento_experiments::EvalContext;

struct Args {
    jobs: Option<usize>,
    invocations: Option<u64>,
    scale: Option<u64>,
    out: Option<std::path::PathBuf>,
    park_to_pm: bool,
    azure: bool,
}

/// Parses `--jobs N`, `--invocations N`, `--scale N` (workload scale
/// divisor — CI smoke runs use a large divisor to stay cheap),
/// `--out PATH` (with `=` forms), `--park-to-pm` (adds the sixth
/// persistent-memory keep-alive bundle), and `--azure` (replays the
/// checked-in Azure-style day curve as the bursty trace); a missing
/// `--jobs` defers to `MEMENTO_JOBS` and then the machine's available
/// parallelism.
fn parse_args() -> Args {
    let mut parsed = Args {
        jobs: None,
        invocations: None,
        scale: None,
        out: None,
        park_to_pm: false,
        azure: false,
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
        } else if arg == "--park-to-pm" {
            parsed.park_to_pm = true;
        } else if arg == "--azure" {
            parsed.azure = true;
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
    eprintln!(
        "usage: region [--jobs N] [--invocations N] [--scale N] [--out PATH] \
         [--park-to-pm] [--azure]"
    );
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
    let mut params = RegionParams {
        park_to_pm: args.park_to_pm,
        empirical_trace: args.azure,
        ..RegionParams::at_scale(ctx.scale_divisor())
    };
    if let Some(n) = args.invocations {
        params.invocations = n;
    }
    let report = region::run(&mut ctx, &region::DEFAULT_MIX, params)
        .expect("default region evaluation must be valid");
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
