//! Prints one row per suite workload: Memento's speedup, the baseline's
//! memory-management share and user/kernel split, the bandwidth
//! reduction, HOT hit rates, relative memory use and page faults, then
//! the geomean speedup over the functions.
use memento_system::{stats, Machine, SystemConfig};
use memento_workloads::{spec::Category, suite};

fn main() {
    println!(
        "{:<12} {:>7} {:>6} {:>7} {:>7} {:>7} {:>7} {:>7} {:>6}",
        "name", "speedup", "mm%", "u/k", "bwred", "hotA", "hotF", "memuse", "faults"
    );
    let mut speedups = Vec::new();
    for spec in suite::all_workloads() {
        let function = spec.category == Category::Function;
        let run = |cfg| {
            let mut machine = Machine::new(cfg);
            if function {
                machine.run(&spec)
            } else {
                machine.run_invocations(&spec, 3).steady
            }
        };
        let (base, mem) = (run(SystemConfig::baseline()), run(SystemConfig::memento()));
        let s = stats::speedup(&base, &mem);
        let bw = stats::bandwidth_reduction(&base, &mem);
        let hot = mem.hot.expect("a Memento run reports its HOT stats");
        let usage = (mem.user_pages_agg + mem.kernel_pages_agg) as f64
            / (base.user_pages_agg + base.kernel_pages_agg).max(1) as f64;
        println!(
            "{:<12} {:>7.3} {:>6.1} {:>3.0}/{:<3.0} {:>7.3} {:>7.4} {:>7.4} {:>7.3} {:>6}",
            spec.name,
            s,
            base.mm_fraction() * 100.0,
            base.user_mm_share() * 100.0,
            base.kernel_mm_share() * 100.0,
            bw,
            hot.alloc.hit_rate(),
            hot.free.hit_rate(),
            usage,
            base.kernel.page_faults
        );
        if function {
            speedups.push(s);
        }
    }
    println!("func geomean speedup: {:.3}", stats::geomean(&speedups));
}
