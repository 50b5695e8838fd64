//! Virtual-memory areas and per-process address-space layout.

use memento_simcore::addr::{VirtAddr, PAGE_SIZE};
use memento_simcore::physmem::PhysMem;
use memento_vm::pagetable::PageTable;
use std::collections::BTreeMap;
use std::fmt;

/// Base of the anonymous-mmap region (grows upward).
pub const MMAP_BASE: u64 = 0x7f00_0000_0000;

/// One virtual-memory area: a contiguous, page-aligned `[start, end)` range.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Vma {
    /// Inclusive start (page-aligned).
    pub start: VirtAddr,
    /// Exclusive end (page-aligned).
    pub end: VirtAddr,
    /// Whether the area was created with `MAP_POPULATE`.
    pub populated: bool,
}

impl Vma {
    /// Length in bytes.
    pub fn len(&self) -> u64 {
        self.end.offset_from(self.start)
    }

    /// True when zero-length (never constructed by `mmap`).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Number of pages spanned.
    pub fn pages(&self) -> u64 {
        self.len() / PAGE_SIZE as u64
    }

    /// Whether `va` falls inside the area.
    pub fn contains(&self, va: VirtAddr) -> bool {
        va >= self.start && va < self.end
    }
}

impl fmt::Display for Vma {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vma[{}..{})", self.start, self.end)
    }
}

/// Errors from address-space operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VmaError {
    /// `munmap` range does not exactly match an existing VMA (returned by
    /// the strict [`AddressSpace::remove`]; [`AddressSpace::remove_range`]
    /// splits instead).
    NoExactMatch,
    /// The range does not lie inside any mapping.
    NotMapped,
}

impl fmt::Display for VmaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmaError::NoExactMatch => f.write_str("munmap range does not match a mapping"),
            VmaError::NotMapped => f.write_str("munmap range is not mapped"),
        }
    }
}

impl std::error::Error for VmaError {}

/// A process address space: VMAs plus the regular page table (CR3).
#[derive(Clone, Debug)]
pub struct AddressSpace {
    /// The process's regular page table.
    pub page_table: PageTable,
    vmas: BTreeMap<u64, Vma>,
    mmap_cursor: u64,
}

impl AddressSpace {
    /// Creates an address space with a fresh page-table root taken from
    /// boot memory. Only safe *before* a frame allocator takes ownership of
    /// the remaining frames — the kernel uses
    /// [`AddressSpace::with_page_table`] instead.
    ///
    /// # Panics
    ///
    /// Panics if boot memory for the root is exhausted.
    pub fn new(mem: &mut PhysMem) -> Self {
        Self::with_page_table(PageTable::new(mem).expect("boot memory for page-table root"))
    }

    /// Creates an address space around an existing (zeroed) page table.
    pub fn with_page_table(page_table: PageTable) -> Self {
        AddressSpace {
            page_table,
            vmas: BTreeMap::new(),
            mmap_cursor: MMAP_BASE,
        }
    }

    /// Reserves a fresh page-aligned region of `len` bytes (rounded up) and
    /// records the VMA. This is the VA-assignment half of `mmap`.
    pub fn reserve(&mut self, len: u64, populated: bool) -> Vma {
        let len = VirtAddr::new(len)
            .page_align_up()
            .raw()
            .max(PAGE_SIZE as u64);
        let start = VirtAddr::new(self.mmap_cursor);
        let end = start.add(len);
        self.mmap_cursor = end.raw();
        let vma = Vma {
            start,
            end,
            populated,
        };
        self.vmas.insert(start.raw(), vma);
        vma
    }

    /// Removes the VMA exactly covering `[start, start + len)`.
    ///
    /// # Errors
    ///
    /// [`VmaError::NoExactMatch`] when no such mapping exists.
    pub fn remove(&mut self, start: VirtAddr, len: u64) -> Result<Vma, VmaError> {
        let len = VirtAddr::new(len)
            .page_align_up()
            .raw()
            .max(PAGE_SIZE as u64);
        match self.vmas.get(&start.raw()) {
            Some(vma) if vma.len() == len => {
                Ok(self.vmas.remove(&start.raw()).expect("checked present"))
            }
            _ => Err(VmaError::NoExactMatch),
        }
    }

    /// Removes `[start, start + len)` like Linux `munmap`: the range may
    /// cover a whole VMA, a prefix/suffix (the VMA shrinks), or an interior
    /// window (the VMA splits in two). The range must lie within a single
    /// mapping.
    ///
    /// # Errors
    ///
    /// [`VmaError::NotMapped`] when no single VMA covers the whole range.
    pub fn remove_range(&mut self, start: VirtAddr, len: u64) -> Result<Vma, VmaError> {
        let len = VirtAddr::new(len)
            .page_align_up()
            .raw()
            .max(PAGE_SIZE as u64);
        let start = start.page_base();
        let end = start.add(len);
        let vma = *self.find(start).ok_or(VmaError::NotMapped)?;
        if end > vma.end {
            return Err(VmaError::NotMapped);
        }
        self.vmas.remove(&vma.start.raw());
        if vma.start < start {
            // Keep the left remainder.
            self.vmas.insert(
                vma.start.raw(),
                Vma {
                    start: vma.start,
                    end: start,
                    populated: vma.populated,
                },
            );
        }
        if end < vma.end {
            // Keep the right remainder.
            self.vmas.insert(
                end.raw(),
                Vma {
                    start: end,
                    end: vma.end,
                    populated: vma.populated,
                },
            );
        }
        Ok(Vma {
            start,
            end,
            populated: vma.populated,
        })
    }

    /// Finds the VMA containing `va`.
    pub fn find(&self, va: VirtAddr) -> Option<&Vma> {
        self.vmas
            .range(..=va.raw())
            .next_back()
            .map(|(_, vma)| vma)
            .filter(|vma| vma.contains(va))
    }

    /// Number of live VMAs.
    pub fn vma_count(&self) -> usize {
        self.vmas.len()
    }

    /// Iterates over live VMAs in address order.
    pub fn iter(&self) -> impl Iterator<Item = &Vma> {
        self.vmas.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> (PhysMem, AddressSpace) {
        let mut mem = PhysMem::new(1 << 20);
        let asp = AddressSpace::new(&mut mem);
        (mem, asp)
    }

    #[test]
    fn reserve_is_page_aligned_and_disjoint() {
        let (_mem, mut asp) = space();
        let a = asp.reserve(100, false);
        let b = asp.reserve(8192, false);
        assert!(a.start.is_page_aligned());
        assert_eq!(a.len(), PAGE_SIZE as u64, "rounded up to one page");
        assert_eq!(b.len(), 8192);
        assert!(a.end <= b.start, "regions do not overlap");
        assert_eq!(asp.vma_count(), 2);
    }

    #[test]
    fn find_hits_interior_addresses() {
        let (_mem, mut asp) = space();
        let vma = asp.reserve(3 * PAGE_SIZE as u64, false);
        assert_eq!(asp.find(vma.start), Some(&vma));
        assert_eq!(asp.find(vma.start.add(5000)), Some(&vma));
        assert_eq!(asp.find(vma.end), None, "end is exclusive");
        assert_eq!(asp.find(VirtAddr::new(0x1000)), None);
    }

    #[test]
    fn remove_requires_exact_range() {
        let (_mem, mut asp) = space();
        let vma = asp.reserve(2 * PAGE_SIZE as u64, false);
        assert_eq!(
            asp.remove(vma.start, PAGE_SIZE as u64),
            Err(VmaError::NoExactMatch)
        );
        assert_eq!(
            asp.remove(vma.start.add(64), vma.len()),
            Err(VmaError::NoExactMatch)
        );
        assert_eq!(asp.remove(vma.start, vma.len()), Ok(vma));
        assert_eq!(asp.vma_count(), 0);
    }

    #[test]
    fn vma_geometry() {
        let vma = Vma {
            start: VirtAddr::new(0x1000),
            end: VirtAddr::new(0x4000),
            populated: true,
        };
        assert_eq!(vma.pages(), 3);
        assert!(!vma.is_empty());
        assert_eq!(format!("{vma}"), "vma[0x1000..0x4000)");
    }

    #[test]
    fn remove_range_splits_interior() {
        let (_mem, mut asp) = space();
        let vma = asp.reserve(8 * PAGE_SIZE as u64, false);
        // Punch out pages 2..4.
        let hole_start = vma.start.add(2 * PAGE_SIZE as u64);
        let removed = asp.remove_range(hole_start, 2 * PAGE_SIZE as u64).unwrap();
        assert_eq!(removed.start, hole_start);
        assert_eq!(removed.pages(), 2);
        assert_eq!(asp.vma_count(), 2, "split into left and right remainders");
        assert!(asp.find(vma.start).is_some());
        assert!(asp.find(hole_start).is_none(), "hole unmapped");
        assert!(asp.find(vma.start.add(5 * PAGE_SIZE as u64)).is_some());
    }

    #[test]
    fn remove_range_trims_prefix_and_suffix() {
        let (_mem, mut asp) = space();
        let vma = asp.reserve(4 * PAGE_SIZE as u64, false);
        asp.remove_range(vma.start, PAGE_SIZE as u64).unwrap();
        assert!(asp.find(vma.start).is_none());
        let rest = *asp
            .find(vma.start.add(PAGE_SIZE as u64))
            .expect("suffix kept");
        assert_eq!(rest.pages(), 3);
        let last_page = vma.start.add(3 * PAGE_SIZE as u64);
        asp.remove_range(last_page, PAGE_SIZE as u64).unwrap();
        let mid = *asp
            .find(vma.start.add(PAGE_SIZE as u64))
            .expect("middle kept");
        assert_eq!(mid.pages(), 2);
    }

    #[test]
    fn remove_range_whole_vma() {
        let (_mem, mut asp) = space();
        let vma = asp.reserve(2 * PAGE_SIZE as u64, true);
        let removed = asp.remove_range(vma.start, vma.len()).unwrap();
        assert_eq!(removed, vma);
        assert_eq!(asp.vma_count(), 0);
    }

    #[test]
    fn remove_range_rejects_cross_vma() {
        let (_mem, mut asp) = space();
        let a = asp.reserve(2 * PAGE_SIZE as u64, false);
        let _b = asp.reserve(2 * PAGE_SIZE as u64, false);
        assert_eq!(
            asp.remove_range(a.start, 3 * PAGE_SIZE as u64),
            Err(VmaError::NotMapped),
            "range spanning two VMAs is rejected (single-mapping model)"
        );
        assert_eq!(
            asp.remove_range(VirtAddr::new(0x1000), PAGE_SIZE as u64),
            Err(VmaError::NotMapped)
        );
    }

    #[test]
    fn populated_flag_preserved() {
        let (_mem, mut asp) = space();
        let vma = asp.reserve(PAGE_SIZE as u64, true);
        assert!(asp.find(vma.start).unwrap().populated);
    }
}
