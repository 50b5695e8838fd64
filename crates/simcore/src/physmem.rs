//! Sparse simulated physical memory.
//!
//! [`PhysMem`] stores real bytes for every page that has ever been touched,
//! which lets higher layers keep genuine data structures in "DRAM": page
//! tables are walked by reading actual page-table entries, allocator free
//! lists are actual linked lists, and Memento arena headers are actual
//! bitmaps. Timing is *not* modeled here — the cache/DRAM crates charge
//! latency; this crate only provides storage and capacity accounting.

use crate::addr::{PhysAddr, PAGE_SIZE};
use crate::hash::BuildIntHasher;
use std::collections::HashMap;
use std::fmt;

/// A physical page frame, identified by frame number.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Frame(u64);

impl Frame {
    /// Creates a frame from its frame number.
    pub const fn from_number(n: u64) -> Self {
        Frame(n)
    }

    /// Creates the frame containing the given physical address.
    pub const fn containing(addr: PhysAddr) -> Self {
        Frame(addr.page_number())
    }

    /// The frame number.
    pub const fn number(self) -> u64 {
        self.0
    }

    /// Physical address of the first byte of the frame.
    pub const fn base_addr(self) -> PhysAddr {
        PhysAddr::new(self.0 * PAGE_SIZE as u64)
    }
}

impl fmt::Display for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "frame#{}", self.0)
    }
}

/// Error returned when physical memory is exhausted.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct OutOfMemory;

impl fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("simulated physical memory exhausted")
    }
}

impl std::error::Error for OutOfMemory {}

/// Sparse byte-level model of physical memory.
///
/// Pages materialize (zero-filled) on first write. A built-in bump allocator
/// hands out boot-reserved frames; the OS buddy allocator (in
/// `memento-kernel`) manages everything above the boot watermark.
///
/// # Examples
///
/// ```
/// use memento_simcore::physmem::PhysMem;
///
/// let mut mem = PhysMem::new(16 * 4096);
/// let f = mem.alloc_frame().unwrap();
/// let addr = f.base_addr().add(8);
/// mem.write_u64(addr, 7);
/// assert_eq!(mem.read_u64(addr), 7);
/// ```
#[derive(Clone)]
pub struct PhysMem {
    pages: HashMap<u64, Box<[u8; PAGE_SIZE]>, BuildIntHasher>,
    total_frames: u64,
    boot_next: u64,
}

impl PhysMem {
    /// Creates a physical memory of `bytes` capacity (rounded down to whole
    /// pages).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is smaller than one page.
    pub fn new(bytes: u64) -> Self {
        let total_frames = bytes / PAGE_SIZE as u64;
        assert!(
            total_frames >= 1,
            "physical memory must hold at least one page"
        );
        PhysMem {
            pages: HashMap::default(),
            total_frames,
            boot_next: 0,
        }
    }

    /// Total number of frames in the machine.
    pub fn total_frames(&self) -> u64 {
        self.total_frames
    }

    /// Number of frames that have materialized backing storage (were written
    /// at least once).
    pub fn touched_frames(&self) -> usize {
        self.pages.len()
    }

    /// Allocates the next boot-reserved frame via the built-in bump
    /// allocator. Used for early structures (e.g. page-table roots) and by
    /// unit tests; the OS buddy allocator owns frames above
    /// [`PhysMem::boot_watermark`].
    ///
    /// # Errors
    ///
    /// Returns [`OutOfMemory`] if the bump pointer reaches capacity.
    pub fn alloc_frame(&mut self) -> Result<Frame, OutOfMemory> {
        if self.boot_next >= self.total_frames {
            return Err(OutOfMemory);
        }
        let frame = Frame::from_number(self.boot_next);
        self.boot_next += 1;
        Ok(frame)
    }

    /// First frame number not handed out by the boot bump allocator.
    pub fn boot_watermark(&self) -> u64 {
        self.boot_next
    }

    /// Reserves `n` boot frames at once, returning the first.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfMemory`] if fewer than `n` frames remain.
    pub fn alloc_frames(&mut self, n: u64) -> Result<Frame, OutOfMemory> {
        if self.boot_next + n > self.total_frames {
            return Err(OutOfMemory);
        }
        let frame = Frame::from_number(self.boot_next);
        self.boot_next += n;
        Ok(frame)
    }

    fn page_mut(&mut self, frame_number: u64) -> &mut [u8; PAGE_SIZE] {
        debug_assert!(
            frame_number < self.total_frames,
            "access beyond physical memory: frame {frame_number} of {}",
            self.total_frames
        );
        self.pages
            .entry(frame_number)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
    }

    /// Reads an aligned 64-bit word. Untouched memory reads as zero.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `addr` is not 8-byte aligned or beyond capacity.
    pub fn read_u64(&self, addr: PhysAddr) -> u64 {
        debug_assert_eq!(addr.raw() % 8, 0, "unaligned u64 read at {addr}");
        match self.pages.get(&addr.page_number()) {
            Some(page) => {
                let off = addr.page_offset() as usize;
                u64::from_le_bytes(page[off..off + 8].try_into().expect("8 bytes"))
            }
            None => 0,
        }
    }

    /// Writes an aligned 64-bit word, materializing the page if needed.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `addr` is not 8-byte aligned or beyond capacity.
    pub fn write_u64(&mut self, addr: PhysAddr, value: u64) {
        debug_assert_eq!(addr.raw() % 8, 0, "unaligned u64 write at {addr}");
        let off = addr.page_offset() as usize;
        let page = self.page_mut(addr.page_number());
        page[off..off + 8].copy_from_slice(&value.to_le_bytes());
    }

    /// Reads a single byte.
    pub fn read_u8(&self, addr: PhysAddr) -> u8 {
        match self.pages.get(&addr.page_number()) {
            Some(page) => page[addr.page_offset() as usize],
            None => 0,
        }
    }

    /// Writes a single byte, materializing the page if needed.
    pub fn write_u8(&mut self, addr: PhysAddr, value: u8) {
        let off = addr.page_offset() as usize;
        self.page_mut(addr.page_number())[off] = value;
    }

    /// Whether every byte of `frame` is zero, with one page lookup rather
    /// than one per word. Untouched and released frames are zero.
    pub fn frame_is_zero(&self, frame: Frame) -> bool {
        static ZERO_PAGE: [u8; PAGE_SIZE] = [0; PAGE_SIZE];
        self.pages
            .get(&frame.number())
            .is_none_or(|page| **page == ZERO_PAGE)
    }

    /// Zero-fills an entire frame (used when recycling pages and when the
    /// Memento page allocator zeroes fresh page-table pages).
    pub fn zero_frame(&mut self, frame: Frame) {
        if let Some(page) = self.pages.get_mut(&frame.number()) {
            page.fill(0);
        }
        // An untouched page already reads as zero; nothing to do.
    }

    /// Drops backing storage for a frame (page content becomes zero again).
    /// Models returning a page to the free pool.
    pub fn release_frame(&mut self, frame: Frame) {
        self.pages.remove(&frame.number());
    }
}

impl fmt::Debug for PhysMem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PhysMem")
            .field("total_frames", &self.total_frames)
            .field("touched_frames", &self.pages.len())
            .field("boot_watermark", &self.boot_next)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip() {
        let mut mem = PhysMem::new(8 * PAGE_SIZE as u64);
        let addr = PhysAddr::new(3 * PAGE_SIZE as u64 + 16);
        assert_eq!(mem.read_u64(addr), 0);
        mem.write_u64(addr, u64::MAX);
        assert_eq!(mem.read_u64(addr), u64::MAX);
        mem.write_u8(addr, 0xab);
        assert_eq!(mem.read_u8(addr), 0xab);
    }

    #[test]
    fn bump_allocator_exhausts() {
        let mut mem = PhysMem::new(2 * PAGE_SIZE as u64);
        assert_eq!(mem.alloc_frame().unwrap().number(), 0);
        assert_eq!(mem.alloc_frame().unwrap().number(), 1);
        assert_eq!(mem.alloc_frame(), Err(OutOfMemory));
        assert_eq!(mem.boot_watermark(), 2);
    }

    #[test]
    fn alloc_frames_contiguous() {
        let mut mem = PhysMem::new(16 * PAGE_SIZE as u64);
        let f = mem.alloc_frames(4).unwrap();
        assert_eq!(f.number(), 0);
        assert_eq!(mem.alloc_frame().unwrap().number(), 4);
        assert!(mem.alloc_frames(100).is_err());
    }

    #[test]
    fn zero_and_release() {
        let mut mem = PhysMem::new(4 * PAGE_SIZE as u64);
        let f = mem.alloc_frame().unwrap();
        mem.write_u64(f.base_addr(), 99);
        mem.zero_frame(f);
        assert_eq!(mem.read_u64(f.base_addr()), 0);
        mem.write_u64(f.base_addr(), 7);
        assert_eq!(mem.touched_frames(), 1);
        mem.release_frame(f);
        assert_eq!(mem.touched_frames(), 0);
        assert_eq!(mem.read_u64(f.base_addr()), 0);
    }

    #[test]
    fn frame_is_zero_cases() {
        let mut mem = PhysMem::new(4 * PAGE_SIZE as u64);
        let f = mem.alloc_frame().unwrap();
        assert!(mem.frame_is_zero(f), "untouched frame");
        let last_word = f.base_addr().add(PAGE_SIZE as u64 - 8);
        mem.write_u64(last_word, 1 << 63);
        assert!(!mem.frame_is_zero(f), "nonzero last word");
        mem.write_u64(last_word, 0);
        assert_eq!(mem.touched_frames(), 1);
        assert!(mem.frame_is_zero(f), "materialized but rewritten to zero");
        mem.write_u8(f.base_addr(), 3);
        assert!(!mem.frame_is_zero(f), "nonzero first byte");
        mem.release_frame(f);
        assert!(mem.frame_is_zero(f), "released frame");
        let other = mem.alloc_frame().unwrap();
        mem.write_u64(other.base_addr(), 5);
        assert!(
            mem.frame_is_zero(f),
            "a neighbour's data is not this frame's"
        );
    }

    #[test]
    fn frame_geometry() {
        let f = Frame::from_number(5);
        assert_eq!(f.base_addr(), PhysAddr::new(5 * PAGE_SIZE as u64));
        assert_eq!(
            Frame::containing(PhysAddr::new(5 * PAGE_SIZE as u64 + 77)),
            f
        );
        assert_eq!(format!("{f}"), "frame#5");
    }

    #[test]
    fn untouched_reads_zero_everywhere() {
        let mem = PhysMem::new(1024 * PAGE_SIZE as u64);
        assert_eq!(mem.read_u64(PhysAddr::new(512 * PAGE_SIZE as u64)), 0);
        assert_eq!(mem.read_u8(PhysAddr::new(13)), 0);
        assert_eq!(mem.touched_frames(), 0);
    }
}
