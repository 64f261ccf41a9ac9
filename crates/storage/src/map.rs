//! The logical-page map.
//!
//! Logical pages are the currency between the file/VM systems and the
//! storage manager. The map records where each page's current copy lives:
//! a DRAM write-buffer frame, a flash address, or nowhere yet (a hole that
//! reads as zeros). The map itself lives in DRAM and is rebuilt by
//! [`crate::recovery`] after a battery failure.
//!
//! The map sits on [`DenseIndex`]: page ids are structured
//! `(ino << 32) | index` values, so lookups are two array indexes rather
//! than hash-map probes, iteration order is deterministic, and ids past
//! the dense bound ([`DEFAULT_DENSE_PAGES`]) fall back to a sorted
//! overflow map. The flash-resident page count is maintained on every
//! mutation, making [`PageMap::flash_pages`] O(1).

use crate::dense::DenseIndex;

/// A logical page number.
pub type PageId = u64;

/// Where a page's authoritative copy currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Location {
    /// Dirty in the DRAM write buffer, at this frame index.
    Dram(usize),
    /// Stable in flash at this byte address.
    Flash(u64),
}

/// Default dense-slot bound: covers 32 MB of 512-byte pages per file
/// window, far beyond anything the simulated machines hold live.
pub const DEFAULT_DENSE_PAGES: u64 = 1 << 16;

/// The in-DRAM page map with a global write sequence.
#[derive(Debug)]
pub struct PageMap {
    index: DenseIndex<Location>,
    /// Pages whose location is flash, maintained on every mutation.
    flash: usize,
    seq: u64,
}

impl Default for PageMap {
    fn default() -> Self {
        PageMap::new()
    }
}

impl PageMap {
    /// Creates an empty map with the default dense bound.
    pub fn new() -> Self {
        PageMap::with_dense_pages(DEFAULT_DENSE_PAGES)
    }

    /// Creates an empty map whose dense windows hold `dense_pages` slots
    /// each; ids beyond that use the overflow map.
    pub fn with_dense_pages(dense_pages: u64) -> Self {
        PageMap {
            index: DenseIndex::new(dense_pages),
            flash: 0,
            seq: 0,
        }
    }

    /// Looks up a page.
    #[inline]
    pub fn get(&self, page: PageId) -> Option<Location> {
        self.index.get(page)
    }

    /// Installs or replaces a page's location.
    pub fn set(&mut self, page: PageId, loc: Location) {
        let old = self.index.insert(page, loc);
        if matches!(old, Some(Location::Flash(_))) {
            self.flash -= 1;
        }
        if matches!(loc, Location::Flash(_)) {
            self.flash += 1;
        }
    }

    /// Removes a page, returning its old location.
    pub fn remove(&mut self, page: PageId) -> Option<Location> {
        let old = self.index.remove(page);
        if matches!(old, Some(Location::Flash(_))) {
            self.flash -= 1;
        }
        old
    }

    /// Number of mapped pages.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Next value of the global write sequence (monotonic; identifies the
    /// newest copy of a page during recovery).
    pub fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// Highest sequence issued so far.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Restores the sequence counter after recovery.
    pub fn restore_seq(&mut self, seq: u64) {
        self.seq = self.seq.max(seq);
    }

    /// Drops every entry (battery death). Window capacity is kept: the
    /// same files are usually re-mapped right after recovery.
    pub fn clear(&mut self) {
        self.index.clear();
        self.flash = 0;
    }

    /// Iterates over `(page, location)` pairs in deterministic order:
    /// dense windows ascending (slots ascending within each), then the
    /// overflow map in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (PageId, Location)> + '_ {
        self.index.iter()
    }

    /// Pages currently resident in flash. O(1): the count is maintained
    /// by `set`/`remove`; debug builds reconcile it against a full scan.
    pub fn flash_pages(&self) -> usize {
        debug_assert_eq!(
            self.flash,
            self.scan_flash_pages(),
            "maintained flash-page counter diverged from a full scan"
        );
        self.flash
    }

    /// Full-scan flash count, for reconciliation in tests and debug
    /// builds.
    fn scan_flash_pages(&self) -> usize {
        self.iter()
            .filter(|(_, l)| matches!(l, Location::Flash(_)))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_remove() {
        let mut m = PageMap::new();
        assert!(m.get(7).is_none());
        m.set(7, Location::Dram(3));
        assert_eq!(m.get(7), Some(Location::Dram(3)));
        m.set(7, Location::Flash(4096));
        assert_eq!(m.get(7), Some(Location::Flash(4096)));
        assert_eq!(m.remove(7), Some(Location::Flash(4096)));
        assert!(m.is_empty());
    }

    #[test]
    fn sequence_is_monotonic() {
        let mut m = PageMap::new();
        let a = m.next_seq();
        let b = m.next_seq();
        assert!(b > a);
        m.restore_seq(100);
        assert!(m.next_seq() > 100);
        // Restoring backwards never regresses.
        m.restore_seq(5);
        assert!(m.next_seq() > 100);
    }

    #[test]
    fn flash_pages_counts_only_flash() {
        let mut m = PageMap::new();
        m.set(1, Location::Dram(0));
        m.set(2, Location::Flash(0));
        m.set(3, Location::Flash(512));
        assert_eq!(m.flash_pages(), 2);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn flash_counter_tracks_every_transition() {
        let mut m = PageMap::new();
        m.set(9, Location::Flash(0));
        assert_eq!(m.flash_pages(), 1);
        // Flash → DRAM transition decrements.
        m.set(9, Location::Dram(1));
        assert_eq!(m.flash_pages(), 0);
        // DRAM → flash increments again; remove decrements.
        m.set(9, Location::Flash(512));
        assert_eq!(m.flash_pages(), 1);
        m.remove(9);
        assert_eq!(m.flash_pages(), 0);
        m.set(4, Location::Flash(0));
        m.clear();
        assert_eq!(m.flash_pages(), 0);
        assert!(m.is_empty());
    }

    #[test]
    fn structured_ids_use_dense_windows_and_overflow() {
        let mut m = PageMap::with_dense_pages(8);
        let file_page = (3u64 << 32) | 5; // dense: window 3, slot 5
        let past_bound = (3u64 << 32) | 8; // slot ≥ bound → overflow
        let swap = 0xFFFF_FFFF_0000_0002; // high window → overflow
        m.set(file_page, Location::Dram(0));
        m.set(past_bound, Location::Flash(512));
        m.set(swap, Location::Flash(1024));
        assert_eq!(m.get(file_page), Some(Location::Dram(0)));
        assert_eq!(m.get(past_bound), Some(Location::Flash(512)));
        assert_eq!(m.get(swap), Some(Location::Flash(1024)));
        assert_eq!(m.len(), 3);
        assert_eq!(m.flash_pages(), 2);
        assert_eq!(m.remove(past_bound), Some(Location::Flash(512)));
        assert_eq!(m.remove(swap), Some(Location::Flash(1024)));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn iteration_is_deterministic_and_ordered() {
        let mut m = PageMap::with_dense_pages(16);
        let ids = [
            (1u64 << 32) | 3,
            (1u64 << 32) | 1,
            7,
            0xFFFF_FFFF_0000_0001,
            (2u64 << 32) | 200, // overflow (slot ≥ 16)
        ];
        for (i, &id) in ids.iter().enumerate() {
            m.set(id, Location::Dram(i));
        }
        let order: Vec<PageId> = m.iter().map(|(p, _)| p).collect();
        assert_eq!(
            order,
            vec![
                7,
                (1u64 << 32) | 1,
                (1u64 << 32) | 3,
                (2u64 << 32) | 200,
                0xFFFF_FFFF_0000_0001,
            ]
        );
    }
}
