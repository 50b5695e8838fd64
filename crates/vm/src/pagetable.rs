//! 4-level radix page tables stored in simulated physical memory.
//!
//! Entries follow the x86-64 long-mode shape: bit 0 present, bit 1 writable,
//! bit 63 no-execute, bits 12..=50 the frame base. Tables are genuine data in
//! [`PhysMem`], so the hardware walker and Memento's on-demand table
//! construction read and write the same bytes the OS does.

use memento_simcore::addr::{PhysAddr, VirtAddr};
use memento_simcore::physmem::{Frame, PhysMem};
use std::fmt;

/// Number of entries per table page (4096 / 8).
pub const ENTRIES_PER_TABLE: usize = 512;

/// Leaf permissions (read access is implied by presence).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PtePerms {
    /// Page may be written.
    pub writable: bool,
    /// Page may be executed.
    pub executable: bool,
}

impl PtePerms {
    /// Readable + writable + no-execute: the only combination Memento's page
    /// allocator hands out (paper §3.2 — heap memory only).
    pub const fn rw() -> Self {
        PtePerms {
            writable: true,
            executable: false,
        }
    }

    /// Read-only, no-execute.
    pub const fn ro() -> Self {
        PtePerms {
            writable: false,
            executable: false,
        }
    }

    /// Readable + executable (text pages).
    pub const fn rx() -> Self {
        PtePerms {
            writable: false,
            executable: true,
        }
    }
}

/// A page-table entry.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct Pte(u64);

impl Pte {
    const PRESENT: u64 = 1 << 0;
    const WRITABLE: u64 = 1 << 1;
    const NX: u64 = 1 << 63;
    const ADDR_MASK: u64 = 0x000f_ffff_ffff_f000;

    /// The all-zero (not present) entry.
    pub const EMPTY: Pte = Pte(0);

    /// Creates an entry from its raw bits.
    pub const fn from_raw(raw: u64) -> Self {
        Pte(raw)
    }

    /// Raw bits.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Builds a non-leaf entry pointing at the next-level table.
    pub fn table(frame: Frame) -> Self {
        Pte(Self::PRESENT | Self::WRITABLE | (frame.base_addr().raw() & Self::ADDR_MASK))
    }

    /// Builds a leaf entry mapping a data frame with `perms`.
    pub fn leaf(frame: Frame, perms: PtePerms) -> Self {
        let mut bits = Self::PRESENT | (frame.base_addr().raw() & Self::ADDR_MASK);
        if perms.writable {
            bits |= Self::WRITABLE;
        }
        if !perms.executable {
            bits |= Self::NX;
        }
        Pte(bits)
    }

    /// Whether the entry is present.
    pub const fn present(self) -> bool {
        self.0 & Self::PRESENT != 0
    }

    /// Whether the mapped page is writable.
    pub const fn writable(self) -> bool {
        self.0 & Self::WRITABLE != 0
    }

    /// Whether the mapped page is no-execute.
    pub const fn no_execute(self) -> bool {
        self.0 & Self::NX != 0
    }

    /// The frame the entry points to.
    pub fn frame(self) -> Frame {
        Frame::containing(PhysAddr::new(self.0 & Self::ADDR_MASK))
    }
}

impl fmt::Debug for Pte {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.present() {
            return write!(f, "Pte(not-present)");
        }
        write!(
            f,
            "Pte({} r{}{})",
            self.frame(),
            if self.writable() { "w" } else { "-" },
            if self.no_execute() { "-" } else { "x" },
        )
    }
}

/// A successful translation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Translation {
    /// The mapped frame.
    pub frame: Frame,
    /// Leaf permissions.
    pub perms: PtePerms,
    /// Physical address of the leaf PTE (for invalidation/repair).
    pub pte_addr: PhysAddr,
}

/// Errors from mapping operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MapError {
    /// The frame source could not provide a table page.
    OutOfTableFrames,
    /// The virtual page is already mapped.
    AlreadyMapped,
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::OutOfTableFrames => f.write_str("no frames available for page tables"),
            MapError::AlreadyMapped => f.write_str("virtual page already mapped"),
        }
    }
}

impl std::error::Error for MapError {}

/// Result of an unmap: the removed mapping (if any) plus table pages that
/// became empty and were freed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UnmapResult {
    /// The removed mapping: data frame, permissions and the address of the
    /// leaf PTE that was cleared. `None` when nothing was mapped.
    pub leaf: Option<Translation>,
    /// Table pages freed because they became empty.
    pub freed_tables: Vec<Frame>,
}

/// A 4-level page table rooted at a physical frame.
#[derive(Clone, Debug)]
pub struct PageTable {
    root: Frame,
    /// Table pages currently allocated (including the root).
    table_pages: u64,
}

impl PageTable {
    /// Allocates a fresh root from boot memory.
    ///
    /// # Errors
    ///
    /// Returns `None`-like error if boot memory is exhausted.
    pub fn new(mem: &mut PhysMem) -> Result<Self, MapError> {
        let root = mem.alloc_frame().map_err(|_| MapError::OutOfTableFrames)?;
        mem.zero_frame(root);
        Ok(PageTable {
            root,
            table_pages: 1,
        })
    }

    /// Wraps an existing root frame (already zeroed by the caller).
    pub fn with_root(root: Frame) -> Self {
        PageTable {
            root,
            table_pages: 1,
        }
    }

    /// The root frame (what CR3 / MPTR holds).
    pub fn root(&self) -> Frame {
        self.root
    }

    /// Number of table pages currently allocated, including the root.
    pub fn table_pages(&self) -> u64 {
        self.table_pages
    }

    /// Records a table page added by an external constructor (Memento's
    /// hardware page allocator writes entries directly during walks), so
    /// later [`PageTable::unmap`] accounting stays consistent.
    pub fn note_external_table(&mut self) {
        self.table_pages += 1;
    }

    /// Physical address of the entry for `va` at `level` within the current
    /// tree, or `None` if an intermediate table is missing. Level 3 is the
    /// root, level 0 the leaf.
    pub fn entry_addr(&self, mem: &PhysMem, va: VirtAddr, level: u8) -> Option<PhysAddr> {
        let mut table = self.root;
        for lvl in (level..=3).rev() {
            let addr = table.base_addr().add(va.pt_index(lvl) as u64 * 8);
            if lvl == level {
                return Some(addr);
            }
            let pte = Pte::from_raw(mem.read_u64(addr));
            if !pte.present() {
                return None;
            }
            table = pte.frame();
        }
        // lint:allow(panic-in-lib): the range loop always reaches the target level and returns
        unreachable!("loop covers level..=3");
    }

    /// Maps `va -> frame` with `perms`, allocating intermediate tables from
    /// `table_source`.
    ///
    /// # Errors
    ///
    /// [`MapError::AlreadyMapped`] if a leaf exists;
    /// [`MapError::OutOfTableFrames`] if `table_source` runs dry.
    pub fn map(
        &mut self,
        mem: &mut PhysMem,
        va: VirtAddr,
        frame: Frame,
        perms: PtePerms,
        table_source: &mut dyn FnMut(&mut PhysMem) -> Option<Frame>,
    ) -> Result<(), MapError> {
        let mut table = self.root;
        for lvl in (1..=3).rev() {
            let addr = table.base_addr().add(va.pt_index(lvl) as u64 * 8);
            let pte = Pte::from_raw(mem.read_u64(addr));
            table = if pte.present() {
                pte.frame()
            } else {
                let new_table = table_source(mem).ok_or(MapError::OutOfTableFrames)?;
                mem.zero_frame(new_table);
                mem.write_u64(addr, Pte::table(new_table).raw());
                self.table_pages += 1;
                new_table
            };
        }
        let leaf_addr = table.base_addr().add(va.pt_index(0) as u64 * 8);
        if Pte::from_raw(mem.read_u64(leaf_addr)).present() {
            return Err(MapError::AlreadyMapped);
        }
        mem.write_u64(leaf_addr, Pte::leaf(frame, perms).raw());
        Ok(())
    }

    /// Convenience mapping that takes intermediate tables from boot memory.
    ///
    /// # Errors
    ///
    /// Same as [`PageTable::map`].
    pub fn map_boot(
        &mut self,
        mem: &mut PhysMem,
        va: VirtAddr,
        frame: Frame,
        perms: PtePerms,
    ) -> Result<(), MapError> {
        self.map(mem, va, frame, perms, &mut |m| m.alloc_frame().ok())
    }

    /// Software translation (no timing, no TLB).
    pub fn translate(&self, mem: &PhysMem, va: VirtAddr) -> Option<Translation> {
        let leaf_addr = self.entry_addr(mem, va, 0)?;
        let pte = Pte::from_raw(mem.read_u64(leaf_addr));
        pte.present().then(|| Self::translation(pte, leaf_addr))
    }

    fn translation(leaf: Pte, pte_addr: PhysAddr) -> Translation {
        Translation {
            frame: leaf.frame(),
            perms: PtePerms {
                writable: leaf.writable(),
                executable: !leaf.no_execute(),
            },
            pte_addr,
        }
    }

    fn table_is_empty(mem: &PhysMem, table: Frame) -> bool {
        mem.frame_is_zero(table)
    }

    /// Unmaps `va`, returning the removed mapping and any table pages freed
    /// because they became empty. Missing mappings unmap to an empty result.
    /// One walk serves both: callers charge the leaf-PTE write at
    /// `leaf.pte_addr` instead of translating first.
    pub fn unmap(&mut self, mem: &mut PhysMem, va: VirtAddr) -> UnmapResult {
        // The walk path, root first: (table frame, entry address) per level.
        let mut path = [(self.root, PhysAddr::new(0)); 4];
        let mut table = self.root;
        let mut pte = Pte::EMPTY;
        for (depth, lvl) in (0..=3).rev().enumerate() {
            let addr = table.base_addr().add(va.pt_index(lvl) as u64 * 8);
            path[depth] = (table, addr);
            pte = Pte::from_raw(mem.read_u64(addr));
            if !pte.present() {
                return UnmapResult::default();
            }
            table = pte.frame();
        }
        let leaf_addr = path[3].1;
        mem.write_u64(leaf_addr, 0);
        let mut result = UnmapResult {
            leaf: Some(Self::translation(pte, leaf_addr)),
            freed_tables: Vec::new(),
        };
        // Free empty tables bottom-up (never the root).
        for depth in (1..path.len()).rev() {
            let (table_frame, _) = path[depth];
            if !Self::table_is_empty(mem, table_frame) {
                break;
            }
            mem.write_u64(path[depth - 1].1, 0);
            mem.release_frame(table_frame);
            result.freed_tables.push(table_frame);
            self.table_pages -= 1;
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memento_simcore::addr::PAGE_SIZE;

    fn setup() -> (PhysMem, PageTable) {
        let mut mem = PhysMem::new(4 << 20);
        let pt = PageTable::new(&mut mem).unwrap();
        (mem, pt)
    }

    #[test]
    fn map_translate_roundtrip() {
        let (mut mem, mut pt) = setup();
        let frame = mem.alloc_frame().unwrap();
        let va = VirtAddr::new(0x5555_0000_1000);
        pt.map_boot(&mut mem, va, frame, PtePerms::rw()).unwrap();
        let t = pt.translate(&mem, va).unwrap();
        assert_eq!(t.frame, frame);
        assert!(t.perms.writable);
        assert!(!t.perms.executable);
        assert!(pt.translate(&mem, va.add(PAGE_SIZE as u64)).is_none());
    }

    #[test]
    fn table_page_accounting() {
        let (mut mem, mut pt) = setup();
        assert_eq!(pt.table_pages(), 1);
        let frame = mem.alloc_frame().unwrap();
        pt.map_boot(&mut mem, VirtAddr::new(0x1000), frame, PtePerms::rw())
            .unwrap();
        // Root + 3 intermediates.
        assert_eq!(pt.table_pages(), 4);
        // A neighbouring page reuses the whole path.
        let f2 = mem.alloc_frame().unwrap();
        pt.map_boot(&mut mem, VirtAddr::new(0x2000), f2, PtePerms::rw())
            .unwrap();
        assert_eq!(pt.table_pages(), 4);
    }

    #[test]
    fn double_map_rejected() {
        let (mut mem, mut pt) = setup();
        let frame = mem.alloc_frame().unwrap();
        let va = VirtAddr::new(0x4000);
        pt.map_boot(&mut mem, va, frame, PtePerms::rw()).unwrap();
        assert_eq!(
            pt.map_boot(&mut mem, va, frame, PtePerms::rw()),
            Err(MapError::AlreadyMapped)
        );
    }

    #[test]
    fn unmap_returns_frame_and_frees_tables() {
        let (mut mem, mut pt) = setup();
        let frame = mem.alloc_frame().unwrap();
        let va = VirtAddr::new(0x6000_0000_0000);
        pt.map_boot(&mut mem, va, frame, PtePerms::rw()).unwrap();
        assert_eq!(pt.table_pages(), 4);
        let leaf_addr = pt.translate(&mem, va).unwrap().pte_addr;
        let res = pt.unmap(&mut mem, va);
        let leaf = res.leaf.unwrap();
        assert_eq!(leaf.frame, frame);
        assert_eq!(leaf.pte_addr, leaf_addr, "unmap reports the cleared PTE");
        assert!(leaf.perms.writable && !leaf.perms.executable);
        assert_eq!(res.freed_tables.len(), 3, "all intermediates emptied");
        assert_eq!(pt.table_pages(), 1);
        assert!(pt.translate(&mem, va).is_none());
    }

    #[test]
    fn unmap_keeps_shared_tables() {
        let (mut mem, mut pt) = setup();
        let f1 = mem.alloc_frame().unwrap();
        let f2 = mem.alloc_frame().unwrap();
        let va1 = VirtAddr::new(0x1000);
        let va2 = VirtAddr::new(0x2000);
        pt.map_boot(&mut mem, va1, f1, PtePerms::rw()).unwrap();
        pt.map_boot(&mut mem, va2, f2, PtePerms::rw()).unwrap();
        let res = pt.unmap(&mut mem, va1);
        assert_eq!(res.leaf.map(|t| t.frame), Some(f1));
        assert!(res.freed_tables.is_empty(), "leaf table still holds va2");
        assert!(pt.translate(&mem, va2).is_some());
    }

    #[test]
    fn unmap_missing_is_noop() {
        let (mut mem, mut pt) = setup();
        let res = pt.unmap(&mut mem, VirtAddr::new(0x0dea_d000));
        assert_eq!(res, UnmapResult::default());
    }

    /// The 512-word scan `table_is_empty` used before
    /// [`PhysMem::frame_is_zero`]: the oracle for which tables are empty.
    fn table_is_empty_by_words(mem: &PhysMem, table: Frame) -> bool {
        (0..ENTRIES_PER_TABLE as u64).all(|i| mem.read_u64(table.base_addr().add(i * 8)) == 0)
    }

    /// Non-root tables reachable from the root, by reading every entry.
    fn reachable_tables(mem: &PhysMem, table: Frame, level: u8) -> u64 {
        if level == 0 {
            return 0;
        }
        (0..ENTRIES_PER_TABLE as u64)
            .map(|i| Pte::from_raw(mem.read_u64(table.base_addr().add(i * 8))))
            .filter(|pte| pte.present())
            .map(|pte| 1 + reachable_tables(mem, pte.frame(), level - 1))
            .sum()
    }

    #[test]
    fn unmap_frees_exactly_the_tables_the_word_scan_calls_empty() {
        for seed in 1..=6u64 {
            let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let mut next = move || {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng
            };
            let (mut mem, mut pt) = setup();
            let mut freed = [0; 4];
            for step in 0..400u64 {
                let r = next();
                // Two slots per level, the first and the last of the table,
                // so tables empty out often and a scan that skips either
                // end of a page misses live entries.
                let slot = |bits: u64| (bits & 1) * (ENTRIES_PER_TABLE as u64 - 1);
                let va = VirtAddr::new(
                    (slot(r) << 12)
                        | (slot(r >> 8) << 21)
                        | (slot(r >> 16) << 30)
                        | (((r >> 24) & 1) * 255) << 39,
                );
                // Alternate map-heavy and unmap-heavy phases of 50 steps, so
                // whole subtrees fill and then drain.
                let map_heavy = step / 50 % 2 == 0;
                if map_heavy == ((r >> 40) % 8 != 0) {
                    let frame = Frame::from_number(100_000 + step);
                    let _ = pt.map_boot(&mut mem, va, frame, PtePerms::rw());
                } else {
                    // Predict the frees with the oracle on a copy: clear the
                    // leaf, then walk up while the word scan finds the table
                    // empty.
                    let mut oracle = mem.clone();
                    let mut expected = Vec::new();
                    if let Some(t) = pt.translate(&mem, va) {
                        oracle.write_u64(t.pte_addr, 0);
                        for level in 0..3 {
                            let entry = pt.entry_addr(&mem, va, level).unwrap();
                            let table = Frame::containing(entry);
                            if !table_is_empty_by_words(&oracle, table) {
                                break;
                            }
                            let parent = pt.entry_addr(&mem, va, level + 1).unwrap();
                            oracle.write_u64(parent, 0);
                            expected.push(table);
                        }
                    }
                    let before = pt.table_pages();
                    let res = pt.unmap(&mut mem, va);
                    assert_eq!(res.freed_tables, expected, "seed {seed} step {step}");
                    assert_eq!(pt.table_pages(), before - expected.len() as u64);
                    freed[expected.len()] += 1;
                }
                assert_eq!(
                    pt.table_pages(),
                    1 + reachable_tables(&mem, pt.root(), 3),
                    "seed {seed} step {step}: table_pages() vs the tree"
                );
            }
            assert!(
                freed.iter().all(|&n| n > 0),
                "seed {seed}: unmaps by tables freed {freed:?}"
            );
        }
    }

    #[test]
    fn map_out_of_table_frames() {
        let (mut mem, mut pt) = setup();
        let frame = mem.alloc_frame().unwrap();
        let err = pt.map(
            &mut mem,
            VirtAddr::new(0x9000_0000),
            frame,
            PtePerms::rw(),
            &mut |_| None,
        );
        assert_eq!(err, Err(MapError::OutOfTableFrames));
    }

    #[test]
    fn pte_bit_layout() {
        let frame = Frame::from_number(0x1234);
        let leaf = Pte::leaf(frame, PtePerms::rw());
        assert!(leaf.present());
        assert!(leaf.writable());
        assert!(leaf.no_execute());
        assert_eq!(leaf.frame(), frame);
        let text = Pte::leaf(frame, PtePerms::rx());
        assert!(!text.writable());
        assert!(!text.no_execute());
        let table = Pte::table(frame);
        assert!(table.present() && table.writable());
        assert!(!Pte::EMPTY.present());
        assert_eq!(format!("{:?}", Pte::EMPTY), "Pte(not-present)");
    }

    #[test]
    fn entry_addr_levels() {
        let (mut mem, mut pt) = setup();
        let frame = mem.alloc_frame().unwrap();
        let va = VirtAddr::new(0x7000);
        assert!(pt.entry_addr(&mem, va, 3).is_some(), "root always present");
        assert!(pt.entry_addr(&mem, va, 0).is_none(), "no path yet");
        pt.map_boot(&mut mem, va, frame, PtePerms::rw()).unwrap();
        let leaf_addr = pt.entry_addr(&mem, va, 0).unwrap();
        assert_eq!(
            pt.translate(&mem, va).unwrap().pte_addr,
            leaf_addr,
            "translate and entry_addr agree"
        );
    }
}
