//! Full-evaluation report: every table and figure in one pass, plus a
//! JSON export for EXPERIMENTS.md regeneration.

use crate::context::{ConfigKind, EvalContext};
use crate::error::ExperimentError;
use crate::sharding::SimPoint;
use crate::{
    ablation, arena_list, bandwidth, breakdown, characterization, cluster, comparisons,
    config_table, hot, memusage, multicore, pricing, region, sensitivity, speedup,
};
use memento_simcore::json::Value;
use memento_workloads::spec::{Category, Language};
use std::fmt;

/// The complete evaluation.
pub struct FullReport {
    /// Table 3.
    pub config: config_table::ConfigTable,
    /// Figs. 2/3 + Table 1.
    pub characterization: characterization::CharacterizationResult,
    /// Table 2.
    pub mm_breakdown: characterization::MmBreakdownResult,
    /// Fig. 8.
    pub speedup: speedup::SpeedupResult,
    /// Fig. 9.
    pub breakdown: breakdown::BreakdownResult,
    /// Fig. 10.
    pub bandwidth: bandwidth::BandwidthResult,
    /// Fig. 11.
    pub memusage: memusage::MemUsageResult,
    /// Fig. 12.
    pub hot: hot::HotResult,
    /// Fig. 13.
    pub arena_list: arena_list::ArenaListResult,
    /// Fig. 14.
    pub pricing: pricing::PricingResult,
    /// §6.1.
    pub iso: comparisons::IsoStorageResult,
    /// §6.7.
    pub mallacc: comparisons::MallaccResult,
    /// §6.6 populate.
    pub populate: sensitivity::PopulateResult,
    /// §6.6 fragmentation.
    pub fragmentation: sensitivity::FragmentationResult,
    /// Extension: cluster-scale traffic (tail latency + fleet footprint).
    pub cluster: cluster::ClusterReport,
    /// Extension: multi-core contention (work-stealing co-location).
    pub multicore: multicore::MulticoreResult,
    /// Extension: region policy matrix (autoscaling, snapshot restores,
    /// pressure reclamation, size-aware keep-alive; Pareto fronts).
    pub region: region::RegionReport,
    /// §6.6 multi-process HOT flushing.
    pub multiprocess: sensitivity::MultiprocessResult,
    /// §6.6 cold starts.
    pub coldstart: sensitivity::ColdstartResult,
    /// §6.6 allocator tuning.
    pub tuning: sensitivity::TuningResult,
    /// Extension: design-choice ablations.
    pub ablation: ablation::AblationResult,
    /// §4 extension: proactive GC frees.
    pub proactive_gc: ablation::ProactiveGcResult,
}

/// Prefetches every simulation point the full report's paper figures
/// need, fanning them across the context's worker pool in one balanced
/// sweep. Figures then read the memo cache, so the report is
/// byte-identical at any job count.
fn prefetch_all(ctx: &mut EvalContext) {
    let mut points: Vec<SimPoint> = Vec::new();
    for spec in ctx.workloads() {
        let mut kinds = vec![
            ConfigKind::Baseline,
            ConfigKind::Memento,
            ConfigKind::MementoNoBypass,
        ];
        if spec.category == Category::Function {
            // §6.1 iso-storage and §6.6 populate cover the functions.
            kinds.extend([ConfigKind::IsoStorage, ConfigKind::BaselinePopulate]);
            if spec.language == Language::Cpp {
                // §6.7 Mallacc covers the C++ functions.
                kinds.push(ConfigKind::IdealMallacc);
            }
        }
        points.extend(kinds.into_iter().map(|k| SimPoint::new(spec.clone(), k)));
    }
    ctx.prefetch(points);
}

/// Runs the complete evaluation, every study timed in the context
/// (reusing memoized runs and calibrations across studies).
pub fn run(ctx: &mut EvalContext) -> Result<FullReport, ExperimentError> {
    ctx.study("prefetch", prefetch_all);
    let suite = ctx.workloads();
    let s = &suite;
    let multiprocess_specs = ctx.try_workloads(&["aes", "jl", "bfs", "mk"])?;
    let mallacc_specs = ctx.try_workloads(&["US", "UM", "CM", "MI"])?;
    // Cold-start and allocator tuning build fresh machines per row, so
    // they run on representative subsets rather than the whole suite.
    let cold_specs = ctx.try_workloads(&["html", "US", "bfs-go"])?;
    let tune_specs = ctx.try_workloads(&["html", "mk"])?;
    Ok(FullReport {
        config: ctx.study("Table 3", |_| config_table::run()),
        characterization: ctx.study("Figs. 2-3, Table 1", |c| characterization::run(c, s)),
        mm_breakdown: ctx.study("Table 2", |c| characterization::mm_breakdown(c, s)),
        speedup: ctx.study("Fig. 8", |c| speedup::run(c, s)),
        breakdown: ctx.study("Fig. 9", |c| breakdown::run(c, s)),
        bandwidth: ctx.study("Fig. 10", |c| bandwidth::run(c, s)),
        memusage: ctx.study("Fig. 11", |c| memusage::run(c, s)),
        hot: ctx.study("Fig. 12", |c| hot::run(c, s)),
        arena_list: ctx.study("Fig. 13", |c| arena_list::run(c, s)),
        pricing: ctx.study("Fig. 14", |c| pricing::run(c, s)),
        iso: ctx.study("iso-storage", |c| comparisons::iso_storage(c, s)),
        mallacc: ctx.study("Mallacc", |c| comparisons::mallacc(c, &mallacc_specs)),
        populate: ctx.study("populate", |c| sensitivity::populate(c, s)),
        fragmentation: ctx.study("fragmentation", |c| sensitivity::fragmentation(c, s)),
        cluster: ctx.study("cluster", |c| {
            cluster::run(c, &cluster::DEFAULT_MIX, cluster::ClusterParams::default())
        })?,
        multicore: ctx.study("multicore", |c| multicore::run(c, &multicore::DEFAULT_MIX))?,
        region: ctx.study("region", |c| {
            let params = region::RegionParams::at_scale(c.scale_divisor());
            region::run(c, &region::DEFAULT_MIX, params)
        })?,
        multiprocess: ctx.study("multiprocess", |c| {
            sensitivity::multiprocess(c, &multiprocess_specs, 4000)
        }),
        coldstart: ctx.study("cold start", |c| sensitivity::coldstart(c, &cold_specs)),
        tuning: ctx.study("tuning", |c| sensitivity::tuning(c, &tune_specs)),
        ablation: ctx.study("ablation", |c| ablation::run(c, &["html", "US", "bfs-go"]))?,
        proactive_gc: ctx.study("proactive GC", |c| {
            ablation::proactive_gc(c, &["html-go", "bfs-go", "aes-go"])
        })?,
    })
}

impl FullReport {
    /// Key headline numbers as JSON (for archival/regression tracking).
    pub fn summary_json(&self) -> Value {
        let mut doc = Value::object();
        doc.set("func_avg_speedup", self.speedup.func_avg)
            .set("data_avg_speedup", self.speedup.data_avg)
            .set("pltf_avg_speedup", self.speedup.pltf_avg)
            .set("func_bandwidth_reduction", self.bandwidth.func_avg)
            .set("bypass_bandwidth_share", self.bandwidth.bypass_avg)
            .set("hot_alloc_hit", self.hot.func_alloc_avg)
            .set("hot_free_hit", self.hot.func_free_avg)
            .set("max_arena_list_alloc_rate", self.arena_list.max_alloc_rate)
            .set("runtime_pricing_saving", self.pricing.runtime_saving_avg)
            .set(
                "end_to_end_pricing_saving",
                self.pricing.end_to_end_saving_avg,
            )
            .set("iso_storage_avg", self.iso.iso_avg)
            .set("mallacc_avg", self.mallacc.mallacc_avg)
            .set("mallacc_memento_avg", self.mallacc.memento_avg)
            .set("memusage_func_total", self.memusage.func_avg.2)
            .set("memusage_data_total", self.memusage.data_avg.2)
            .set("memusage_pltf_total", self.memusage.pltf_avg.2)
            .set("pool_refills", self.memusage.pool.refills as f64)
            .set(
                "pool_frames_granted",
                self.memusage.pool.frames_granted as f64,
            )
            .set(
                "pool_frames_recycled",
                self.memusage.pool.frames_recycled as f64,
            )
            .set(
                "pool_frames_returned",
                self.memusage.pool.frames_returned as f64,
            )
            .set("pool_overflows", self.memusage.pool.overflows as f64)
            .set(
                "speedups",
                Value::Array(
                    self.speedup
                        .rows
                        .iter()
                        .map(|r| {
                            let mut row = Value::object();
                            row.set("name", r.name.as_str()).set("speedup", r.speedup);
                            row
                        })
                        .collect(),
                ),
            );
        let peak = self.cluster.peak_load();
        doc.set("cluster_peak_load", peak.utilization)
            .set("cluster_baseline_p99_us", peak.baseline.p99_us)
            .set("cluster_memento_p99_us", peak.memento.p99_us)
            .set("cluster_baseline_peak_mb", peak.baseline.peak_mb)
            .set("cluster_memento_peak_mb", peak.memento.peak_mb)
            .set("cluster_baseline_rejected", peak.baseline.rejected as f64)
            .set("cluster_memento_rejected", peak.memento.rejected as f64);
        doc.set("multicore_cores", self.multicore.cores as f64)
            .set("multicore_solo_avg", self.multicore.solo_avg)
            .set("multicore_colocated_avg", self.multicore.colocated_avg)
            .set("multicore_slowdown_avg", self.multicore.slowdown_avg)
            .set("multicore_steals", self.multicore.sched.steals as f64)
            .set(
                "multicore_dram_queue_cycles",
                self.multicore.dram_queue_cycles as f64,
            )
            .set(
                "multicore_slowdowns",
                Value::Array(
                    self.multicore
                        .rows
                        .iter()
                        .map(|r| {
                            let mut row = Value::object();
                            row.set("name", r.name.as_str())
                                .set("colocated", r.colocated)
                                .set("slowdown", r.slowdown);
                            row
                        })
                        .collect(),
                ),
            );
        doc.set("region_invocations", self.region.params.invocations as f64)
            .set(
                "region_memento_on_flash_front",
                if self.region.memento_on_flash_front {
                    1.0
                } else {
                    0.0
                },
            )
            .set(
                "region_fronts",
                Value::Array(
                    self.region
                        .front_rows()
                        .iter()
                        .map(|r| {
                            let mut row = Value::object();
                            row.set("trace", r.trace.as_str())
                                .set("policy", r.policy.as_str())
                                .set("config", r.config.as_str())
                                .set("p99_us", r.p99_us)
                                .set("peak_mb", r.peak_mb);
                            row
                        })
                        .collect(),
                ),
            );
        doc
    }
}

impl fmt::Display for FullReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.config)?;
        writeln!(f)?;
        writeln!(f, "{}", self.characterization)?;
        writeln!(f)?;
        writeln!(f, "{}", self.mm_breakdown)?;
        writeln!(f)?;
        writeln!(f, "{}", self.speedup)?;
        writeln!(f)?;
        writeln!(f, "{}", self.breakdown)?;
        writeln!(f)?;
        writeln!(f, "{}", self.bandwidth)?;
        writeln!(f)?;
        writeln!(f, "{}", self.memusage)?;
        writeln!(f)?;
        writeln!(f, "{}", self.hot)?;
        writeln!(f)?;
        writeln!(f, "{}", self.arena_list)?;
        writeln!(f)?;
        writeln!(f, "{}", self.pricing)?;
        writeln!(f)?;
        writeln!(f, "{}", self.iso)?;
        writeln!(f)?;
        writeln!(f, "{}", self.mallacc)?;
        writeln!(f)?;
        writeln!(f, "{}", self.populate)?;
        writeln!(f)?;
        writeln!(f, "{}", self.fragmentation)?;
        writeln!(f)?;
        writeln!(f, "{}", self.cluster)?;
        writeln!(f)?;
        writeln!(f, "{}", self.multicore)?;
        writeln!(f)?;
        writeln!(f, "{}", self.region)?;
        writeln!(f)?;
        writeln!(f, "{}", self.multiprocess)?;
        writeln!(f)?;
        write!(f, "{}", self.coldstart)?;
        writeln!(f)?;
        write!(f, "{}", self.tuning)?;
        writeln!(f)?;
        writeln!(f, "{}", self.ablation)?;
        writeln!(f)?;
        write!(f, "{}", self.proactive_gc)
    }
}
