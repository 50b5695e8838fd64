//! Run the full sixteen-function suite (nine Python, four C++
//! DeathStarBench ports, three Golang ports) and print the Fig. 8 speedup
//! series with the Fig. 9 gain attribution.
//!
//! ```sh
//! cargo run --release --example serverless_function
//! ```

use memento_experiments::{breakdown, speedup, EvalContext};
use memento_workloads::suite;

fn main() {
    let mut ctx = EvalContext::new();
    let specs = suite::function_workloads();

    println!(
        "Simulating {} function workloads (baseline, Memento, Memento-no-bypass)...\n",
        specs.len()
    );
    let fig8 = speedup::run(&mut ctx, &specs);
    println!("{fig8}");
    println!();
    let fig9 = breakdown::run(&mut ctx, &specs);
    println!("{fig9}");

    println!(
        "\nfunction-average speedup: {:.3} (paper: 1.16 average, 1.08–1.28 range)",
        fig8.func_avg
    );
    let in_band = fig8
        .rows
        .iter()
        .filter(|r| (1.05..=1.35).contains(&r.speedup))
        .count();
    println!(
        "{in_band}/{} workloads inside the paper's band",
        fig8.rows.len()
    );
}
