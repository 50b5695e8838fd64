//! Multi-core contention study: the default invocation mix work-stealing-
//! scheduled over a shared-LLC/DRAM machine, baseline vs. Memento, with
//! per-workload co-location slowdowns.
//!
//! ```sh
//! cargo run --release --example multicore -- --jobs 4 --scale 4
//! ```
//!
//! The table is byte-identical at any `--jobs` count (parallelism only
//! fans the independent solo runs; each scheduled trial is one
//! deterministic machine). With `--out PATH` the rendered report is also
//! written to a file (the CI smoke step archives it as an artifact).

use memento_experiments::{multicore, EvalContext};

struct Args {
    jobs: Option<usize>,
    scale: Option<u64>,
    out: Option<std::path::PathBuf>,
}

/// Parses `--jobs N`, `--scale N` (the context's workload scale divisor;
/// the study runs at half that size, so `--scale 4` simulates workloads
/// shrunk 8×), and `--out PATH` (with `=` forms); a missing `--jobs`
/// defers to `MEMENTO_JOBS` and then the machine's available parallelism.
fn parse_args() -> Args {
    let mut parsed = Args {
        jobs: None,
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
    eprintln!("usage: multicore [--jobs N] [--scale N] [--out PATH]");
    std::process::exit(2);
}

fn main() {
    let args = parse_args();
    let mut ctx = EvalContext::scaled(args.scale.unwrap_or(1));
    if let Some(jobs) = args.jobs {
        ctx = ctx.with_jobs(jobs);
    }
    let report = multicore::run(&mut ctx, &multicore::DEFAULT_MIX)
        .expect("default contention mix is drawn from the suite");
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
