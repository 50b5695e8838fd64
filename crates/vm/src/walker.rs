//! Hardware page-table walker.
//!
//! On a TLB miss the MMU walks the radix tree rooted at CR3 (or, for
//! addresses inside the Memento region, at the MPTR register — that walk is
//! driven by `memento-core`, which reuses the per-level address arithmetic
//! here). Each level costs one real memory access through the cache
//! hierarchy, so hot page-table lines are cheap and cold ones pay DRAM
//! latency, exactly the behaviour that makes page faults expensive in the
//! baseline.

use crate::pagetable::Pte;
use memento_cache::{AccessKind, MemSystem};
use memento_obs::Log2Hist;
use memento_simcore::addr::{PhysAddr, VirtAddr};
use memento_simcore::cycles::Cycles;
use memento_simcore::physmem::{Frame, PhysMem};
use memento_simcore::stats::HitMiss;

/// Why a walk ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalkOutcome {
    /// Translation found; carries the mapped frame.
    Mapped(Frame),
    /// An entry at `level` was not present (page fault in the baseline;
    /// on-demand construction point for Memento). Level 0 is the leaf.
    NotPresent {
        /// Level of the missing entry (3 = root table entry, 0 = leaf PTE).
        level: u8,
        /// Physical address of the missing entry.
        entry_addr: PhysAddr,
    },
}

/// Result of a hardware page walk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalkResult {
    /// Outcome (mapped or faulting level).
    pub outcome: WalkOutcome,
    /// Cycles spent reading page-table entries.
    pub cycles: Cycles,
}

/// Walker statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalkerStats {
    /// Completed walks ending in a translation (hit) vs. a fault (miss).
    pub walks: HitMiss,
    /// Page-table entry reads issued to the memory system.
    pub pte_reads: u64,
}

/// The hardware page walker. Stateless except for statistics.
#[derive(Clone, Debug, Default)]
pub struct PageWalker {
    stats: WalkerStats,
    depth: Log2Hist,
}

impl PageWalker {
    /// Creates a walker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> WalkerStats {
        self.stats
    }

    /// Distribution of PTE reads per walk (4 = full four-level walk, fewer
    /// when an upper-level entry is not present).
    pub fn depth_hist(&self) -> &Log2Hist {
        &self.depth
    }

    /// Walks the table rooted at `root` for `va`, issuing one memory access
    /// per level via `mem_sys` on behalf of `core`.
    pub fn walk(
        &mut self,
        mem_sys: &mut MemSystem,
        mem: &PhysMem,
        core: usize,
        root: Frame,
        va: VirtAddr,
    ) -> WalkResult {
        let mut cycles = Cycles::ZERO;
        let mut table = root;
        let mut reads = 0u64;
        let mut level = 3u8;
        loop {
            let entry_addr = table.base_addr().add(va.pt_index(level) as u64 * 8);
            cycles += mem_sys.access(core, AccessKind::Read, entry_addr).cycles;
            self.stats.pte_reads += 1;
            reads += 1;
            let pte = Pte::from_raw(mem.read_u64(entry_addr));
            if !pte.present() {
                self.stats.walks.miss();
                self.depth.record(reads);
                return WalkResult {
                    outcome: WalkOutcome::NotPresent { level, entry_addr },
                    cycles,
                };
            }
            if level == 0 {
                self.stats.walks.hit();
                self.depth.record(reads);
                return WalkResult {
                    outcome: WalkOutcome::Mapped(pte.frame()),
                    cycles,
                };
            }
            table = pte.frame();
            level -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagetable::{PageTable, PtePerms};
    use memento_cache::MemSystemConfig;

    fn setup() -> (PhysMem, MemSystem, PageTable, PageWalker) {
        let mut mem = PhysMem::new(8 << 20);
        let pt = PageTable::new(&mut mem).unwrap();
        let sys = MemSystem::new(MemSystemConfig::paper_default(1));
        (mem, sys, pt, PageWalker::new())
    }

    #[test]
    fn walk_finds_mapping() {
        let (mut mem, mut sys, mut pt, mut walker) = setup();
        let frame = mem.alloc_frame().unwrap();
        let va = VirtAddr::new(0x1234_5000);
        pt.map_boot(&mut mem, va, frame, PtePerms::rw()).unwrap();
        let res = walker.walk(&mut sys, &mem, 0, pt.root(), va);
        assert_eq!(res.outcome, WalkOutcome::Mapped(frame));
        assert!(res.cycles > Cycles::ZERO);
        assert_eq!(walker.stats().pte_reads, 4);
        assert_eq!(walker.stats().walks.hits, 1);
    }

    #[test]
    fn walk_reports_missing_level() {
        let (mem, mut sys, pt, mut walker) = setup();
        let res = walker.walk(&mut sys, &mem, 0, pt.root(), VirtAddr::new(0x9000));
        match res.outcome {
            WalkOutcome::NotPresent { level, .. } => assert_eq!(level, 3),
            other => panic!("expected fault, got {other:?}"),
        }
        assert_eq!(walker.stats().walks.misses, 1);
    }

    #[test]
    fn missing_leaf_reports_level_zero() {
        let (mut mem, mut sys, mut pt, mut walker) = setup();
        let frame = mem.alloc_frame().unwrap();
        // Map one page, then walk its neighbour: path exists, leaf missing.
        pt.map_boot(&mut mem, VirtAddr::new(0x1000), frame, PtePerms::rw())
            .unwrap();
        let res = walker.walk(&mut sys, &mem, 0, pt.root(), VirtAddr::new(0x2000));
        match res.outcome {
            WalkOutcome::NotPresent { level, entry_addr } => {
                assert_eq!(level, 0);
                assert_eq!(
                    entry_addr,
                    pt.entry_addr(&mem, VirtAddr::new(0x2000), 0).unwrap()
                );
            }
            other => panic!("expected leaf fault, got {other:?}"),
        }
    }

    #[test]
    fn repeated_walks_get_cheaper() {
        let (mut mem, mut sys, mut pt, mut walker) = setup();
        let frame = mem.alloc_frame().unwrap();
        let va = VirtAddr::new(0x4000_0000);
        pt.map_boot(&mut mem, va, frame, PtePerms::rw()).unwrap();
        let cold = walker.walk(&mut sys, &mem, 0, pt.root(), va);
        let warm = walker.walk(&mut sys, &mem, 0, pt.root(), va);
        assert!(warm.cycles < cold.cycles, "PTE lines now cached");
    }
}
