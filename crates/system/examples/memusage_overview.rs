//! Prints each suite workload's aggregate user and kernel pages and its
//! mmap count under Memento next to the baseline (Memento/baseline).
use memento_system::{Machine, SystemConfig};
use memento_workloads::{spec::Category, suite};
fn main() {
    for spec in suite::all_workloads() {
        let run = |cfg| {
            let mut machine = Machine::new(cfg);
            if spec.category == Category::Function {
                machine.run(&spec)
            } else {
                machine.run_invocations(&spec, 3).steady
            }
        };
        let (b, m) = (run(SystemConfig::baseline()), run(SystemConfig::memento()));
        println!(
            "{:<12} user {:>5}/{:<5} kernel {:>4}/{:<4} mmaps {:>4}/{:<4}",
            spec.name,
            m.user_pages_agg,
            b.user_pages_agg,
            m.kernel_pages_agg,
            b.kernel_pages_agg,
            m.kernel.mmaps,
            b.kernel.mmaps
        );
    }
}
