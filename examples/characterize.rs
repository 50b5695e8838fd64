//! The §2.2 memory-management characterization: allocation sizes (Fig. 2),
//! malloc-free distances (Fig. 3), the joint distribution (Table 1), and
//! the user/kernel cycle split (Table 2).
//!
//! ```sh
//! cargo run --release --example characterize
//! ```

use memento_experiments::{characterization, EvalContext};

fn main() {
    let mut ctx = EvalContext::new();
    let specs = ctx.workloads();

    let ch = characterization::run(&mut ctx, &specs);
    println!("{ch}");
    println!();

    println!("(simulating the baseline for Table 2 — this runs all 23 workloads)");
    let mm = characterization::mm_breakdown(&mut ctx, &specs);
    println!("{mm}");

    println!("\nPaper reference: 93% of function allocations ≤512B; 71% freed within");
    println!("16 same-class allocations; 61% small+short-lived (Table 1); Python");
    println!("48/52 user/kernel, C++ 96/4, Golang 56/44 (Table 2).");
}
