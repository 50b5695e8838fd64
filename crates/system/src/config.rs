//! System configurations for every evaluated design point.

use memento_cache::MemSystemConfig;
use memento_core::device::MementoConfig;
use memento_kernel::costs::KernelCosts;
use memento_sanitizer::SanitizerConfig;

/// Observability settings: where the Perfetto trace goes and how often the
/// heap profiler samples. Enabling tracing is untimed and cycle-invisible —
/// simulated statistics are byte-identical with or without it.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceConfig {
    /// Where to write the Chrome/Perfetto `trace_event` JSON at run end;
    /// `None` keeps the trace in memory (inspect via `Machine::tracer`).
    pub path: Option<std::path::PathBuf>,
    /// Take one heap-profile sample per core every this many simulated
    /// cycles.
    pub sample_every: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            path: None,
            sample_every: 100_000,
        }
    }
}

/// Which memory-management design the machine runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Mode {
    /// The software stack: language allocator + kernel (the paper's
    /// baseline).
    Baseline,
    /// The Memento hardware (with its own feature toggles).
    Memento(MementoConfig),
    /// §6.7: an idealized Mallacc — userspace malloc acceleration with a
    /// zero-latency, always-hitting cache; kernel costs unchanged; C++
    /// only in the paper, but the machine will run any workload.
    IdealMallacc,
}

/// A complete system configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct SystemConfig {
    /// Memory-management design point.
    pub mode: Mode,
    /// Cache/DRAM geometry (Table 3 defaults; the iso-storage study swaps
    /// the L1D).
    pub mem: MemSystemConfig,
    /// Kernel cost model.
    pub kernel_costs: KernelCosts,
    /// Pass `MAP_POPULATE` to every allocator mmap (§6.6 study).
    pub populate: bool,
    /// Cycles per instruction for plain application compute (4-issue OOO
    /// abstraction: 0.5).
    pub cpi: f64,
    /// Memory-level-parallelism discount on *application data accesses*:
    /// an out-of-order core overlaps independent loads/stores, so only
    /// this fraction of their latency lands on the critical path.
    /// Allocator metadata walks and kernel work stay fully serialized
    /// (pointer chases and privileged code don't overlap).
    pub touch_overlap: f64,
    /// Simulated physical memory in bytes.
    pub phys_mem_bytes: u64,
    /// Fixed container-setup cycles prepended to the run (cold starts,
    /// §6.6); zero for the default warm-start methodology.
    pub coldstart_cycles: u64,
    /// The paper's §4 future-work extension: an enhanced GC that uses
    /// Memento to *proactively* free dead ephemeral objects at death time
    /// (via `obj-free`) instead of deferring them to the next mark-sweep
    /// cycle, trading a little obj-free work for lower cache pressure.
    /// Only meaningful for GC'd runtimes under Memento.
    pub proactive_gc_free: bool,
    /// Shadow-heap sanitizer (Memento modes only). `None` is zero-cost:
    /// the device logs no events and no shadow state exists. `Some` turns
    /// on untimed auditing — simulated statistics are byte-identical
    /// either way.
    pub sanitizer: Option<SanitizerConfig>,
    /// Cycle-attributed tracing + metrics + heap profiling. `None` is
    /// zero-cost (no spans recorded, no samples taken). `Some` records a
    /// Perfetto trace and a metrics appendix — untimed, so simulated
    /// statistics are byte-identical either way.
    pub trace: Option<TraceConfig>,
}

impl SystemConfig {
    /// The paper's baseline system.
    pub fn baseline() -> Self {
        SystemConfig {
            mode: Mode::Baseline,
            mem: MemSystemConfig::paper_default(1),
            kernel_costs: KernelCosts::calibrated(),
            populate: false,
            cpi: 0.5,
            touch_overlap: 0.4,
            phys_mem_bytes: 2 << 30,
            coldstart_cycles: 0,
            proactive_gc_free: false,
            sanitizer: None,
            trace: None,
        }
    }

    /// This configuration with tracing on, writing the Perfetto JSON to
    /// `path` when the run finishes.
    pub fn traced(self, path: impl Into<std::path::PathBuf>) -> Self {
        SystemConfig {
            trace: Some(TraceConfig {
                path: Some(path.into()),
                ..TraceConfig::default()
            }),
            ..self
        }
    }

    /// This configuration with tracing on but no output file — the trace
    /// and metrics stay readable on the machine (used by tests).
    pub fn traced_in_memory(self) -> Self {
        SystemConfig {
            trace: Some(TraceConfig::default()),
            ..self
        }
    }

    /// The full Memento system (paper defaults: bypass on).
    pub fn memento() -> Self {
        SystemConfig {
            mode: Mode::Memento(MementoConfig::paper_default()),
            ..Self::baseline()
        }
    }

    /// Memento with the main-memory bypass disabled (Fig. 9/10 component
    /// attribution).
    pub fn memento_no_bypass() -> Self {
        SystemConfig {
            mode: Mode::Memento(MementoConfig {
                bypass_enabled: false,
                ..MementoConfig::paper_default()
            }),
            ..Self::baseline()
        }
    }

    /// §6.1 iso-storage: baseline whose L1D gets the HOT's SRAM (36 KB,
    /// 9-way).
    pub fn iso_storage() -> Self {
        SystemConfig {
            mem: MemSystemConfig::iso_storage(1),
            ..Self::baseline()
        }
    }

    /// §6.7 idealized Mallacc.
    pub fn ideal_mallacc() -> Self {
        SystemConfig {
            mode: Mode::IdealMallacc,
            ..Self::baseline()
        }
    }

    /// The §4 future-work extension: Memento plus a GC that proactively
    /// frees dead ephemeral objects through `obj-free`.
    pub fn memento_proactive_gc() -> Self {
        SystemConfig {
            proactive_gc_free: true,
            ..Self::memento()
        }
    }

    /// Memento with the shadow-heap sanitizer auditing every run.
    pub fn memento_sanitized() -> Self {
        SystemConfig {
            sanitizer: Some(SanitizerConfig::default()),
            ..Self::memento()
        }
    }

    /// Sanitized Memento plus the softalloc differential oracle (slowest,
    /// strongest checking — used by the differential test suite).
    pub fn memento_sanitized_oracle() -> Self {
        SystemConfig {
            sanitizer: Some(SanitizerConfig::with_oracle()),
            ..Self::memento()
        }
    }

    /// §6.6 `MAP_POPULATE` baseline.
    pub fn baseline_populate() -> Self {
        SystemConfig {
            populate: true,
            ..Self::baseline()
        }
    }

    /// This configuration with `n` cores. Each core gets a private
    /// L1I/L1D/L2, TLB, page walker, and (under Memento) HOT; the LLC,
    /// DRAM, kernel, and the hardware page pool stay shared. With `n = 1`
    /// the machine is identical to the single-core configuration.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn with_cores(mut self, n: usize) -> Self {
        assert!(n > 0, "a machine needs at least one core");
        self.mem.cores = n;
        self
    }

    /// Cores (each with private L1/L2/TLB/HOT): the memory system's core
    /// count, the one place it is set.
    pub fn cores(&self) -> usize {
        self.mem.cores
    }

    /// Whether this configuration runs the Memento hardware.
    pub fn is_memento(&self) -> bool {
        matches!(self.mode, Mode::Memento(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_where_expected() {
        assert!(!SystemConfig::baseline().is_memento());
        assert!(SystemConfig::memento().is_memento());
        assert!(SystemConfig::memento().sanitizer.is_none());
        assert!(SystemConfig::memento_sanitized().is_memento());
        assert_eq!(
            SystemConfig::memento_sanitized().sanitizer,
            Some(SanitizerConfig::default())
        );
        assert!(SystemConfig::memento_sanitized_oracle()
            .sanitizer
            .is_some_and(|s| s.oracle));
        assert!(SystemConfig::baseline_populate().populate);
        assert!(SystemConfig::memento().trace.is_none());
        let traced = SystemConfig::memento().traced("/tmp/t.json");
        assert_eq!(
            traced.trace.as_ref().and_then(|t| t.path.clone()),
            Some(std::path::PathBuf::from("/tmp/t.json"))
        );
        assert!(SystemConfig::baseline().traced_in_memory().trace.is_some());
        assert_eq!(SystemConfig::iso_storage().mem.l1d.size_bytes, 36 * 1024);
        match SystemConfig::memento_no_bypass().mode {
            Mode::Memento(cfg) => assert!(!cfg.bypass_enabled),
            _ => panic!("expected memento mode"),
        }
    }

    #[test]
    fn baseline_matches_table3() {
        let cfg = SystemConfig::baseline();
        assert_eq!(cfg.mem.l1d.size_bytes, 32 * 1024);
        assert_eq!(cfg.mem.l2.size_bytes, 256 * 1024);
        assert_eq!(cfg.mem.llc.size_bytes, 2 * 1024 * 1024);
        assert_eq!(cfg.cpi, 0.5);
    }
}
