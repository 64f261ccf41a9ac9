//! Flash segment table for the log-structured layout.
//!
//! Each segment is one erase block, divided into page-sized slots. Every
//! data slot carries a small header (logical page id + global write
//! sequence) programmed together with the data, the way JFFS-style flash
//! file systems make every node self-describing — that is what makes
//! recovery after battery death possible without any central table.
//! Deletions are made durable by *tombstone slots*: page-sized log entries
//! batching (page, seq) deletion records, so a deleted file cannot
//! resurrect from a stale copy during recovery.
//!
//! Blocks that exceed their erase endurance are *retired*: the segment
//! drops out of rotation and capacity shrinks, mirroring how the device
//! model fails the block.

use crate::dense::DenseIndex;
use crate::map::PageId;
use ssmc_sim::SimTime;
use std::collections::BTreeMap;

/// Header programmed with each data slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotMeta {
    /// The logical page stored in the slot.
    pub page: PageId,
    /// Global write sequence at the time of the program; recovery keeps
    /// the highest sequence per page.
    pub seq: u64,
    /// CRC-32 of the page bytes programmed with this header. Recovery
    /// recomputes it from the flash array; a mismatch means the program
    /// was torn by power loss and the slot must be discarded.
    pub crc: u32,
}

/// A slot's lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// Never programmed since the last erase.
    Empty,
    /// Holds the current copy of a page.
    Live(SlotMeta),
    /// Holds a stale copy (page rewritten or deleted); reclaimed by GC.
    Dead(SlotMeta),
    /// Holds batched deletion tombstones: records `first..first + len`
    /// of its segment's [`Segment::tombstones`] store.
    Tomb {
        /// Index of the slot's first record in the store.
        first: usize,
        /// Number of records the slot carries.
        len: usize,
    },
}

/// A segment's lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegState {
    /// Erased and ready to open.
    Free,
    /// Accepting appends.
    Open,
    /// Full (or closed early); GC candidate.
    Closed,
    /// Being erased; unusable until the erase completes.
    ErasePending,
    /// Block worn out; permanently out of rotation.
    Retired,
}

/// Per-segment bookkeeping.
#[derive(Debug)]
pub struct Segment {
    /// Lifecycle state.
    pub state: SegState,
    /// One entry per slot.
    pub slots: Vec<Slot>,
    /// Next slot to append into.
    pub next_slot: usize,
    /// Live slot count (tombstone slots are never "live").
    pub live: usize,
    /// Most recent append instant (the "age" input to cost-benefit GC).
    pub youngest_write: SimTime,
    /// Deletion records of this segment's tombstone slots, in slot order
    /// — the only copy; each [`Slot::Tomb`] names its range here.
    pub tombstones: Vec<(PageId, u64)>,
}

impl Segment {
    fn new(slots: usize) -> Self {
        Segment {
            state: SegState::Free,
            slots: vec![Slot::Empty; slots],
            next_slot: 0,
            live: 0,
            youngest_write: SimTime::ZERO,
            tombstones: Vec::new(),
        }
    }

    /// Whether every slot has been programmed.
    pub fn is_full(&self) -> bool {
        self.next_slot >= self.slots.len()
    }

    /// Slots still available for appends.
    pub fn slots_free(&self) -> usize {
        self.slots.len() - self.next_slot
    }

    /// Fraction of slots holding live pages.
    pub fn utilization(&self) -> f64 {
        if self.slots.is_empty() {
            0.0
        } else {
            self.live as f64 / self.slots.len() as f64
        }
    }

    /// Appends the live slot metas (with their slot indices) to `out`.
    /// The GC copy loop calls this once per victim with a recycled
    /// scratch vector, so cleaning allocates nothing in steady state.
    // lint: hot-path
    pub fn live_slots_into(&self, out: &mut Vec<(usize, SlotMeta)>) {
        for (i, s) in self.slots.iter().enumerate() {
            if let Slot::Live(m) = s {
                out.push((i, *m));
            }
        }
    }

    /// The deletion records of the surviving tombstone slots, in slot
    /// order. A slot recovery discarded as torn is `Empty`, so its
    /// records drop out here without touching the store.
    pub fn tomb_records(&self) -> impl Iterator<Item = (PageId, u64)> + '_ {
        self.slots
            .iter()
            .filter_map(|slot| match *slot {
                Slot::Tomb { first, len } => self.tombstones.get(first..first + len),
                _ => None,
            })
            .flatten()
            .copied()
    }

    /// Returns the segment to the erased state — the one "back to Free"
    /// rule. `youngest_write` is left as is: GC still ranks a segment
    /// that is opened and closed again before any append by that age.
    fn reset(&mut self) {
        self.state = SegState::Free;
        self.next_slot = 0;
        self.live = 0;
        self.tombstones.clear();
        self.slots.fill(Slot::Empty);
    }

    /// Whether the segment holds nothing, as [`Segment::reset`] leaves it.
    fn is_reset(&self) -> bool {
        self.next_slot == 0
            && self.live == 0
            && self.tombstones.is_empty()
            && self.slots.iter().all(|s| *s == Slot::Empty)
    }
}

/// The table of all log segments plus free/erase bookkeeping.
#[derive(Debug)]
pub struct SegmentTable {
    segments: Vec<Segment>,
    /// Byte address of segment 0's erase block.
    base_addr: u64,
    block_bytes: u64,
    page_size: u64,
    /// Erases in flight: (completion instant, segment index).
    pending_erase: Vec<(SimTime, usize)>,
    /// Stale (dead) copies per page, used to decide when a tombstone can
    /// finally be dropped. Dense-indexed: `kill_at` runs on every
    /// overwrite of a flash-backed page.
    dead_copies: DenseIndex<u32>,
    /// Free segments, maintained on every state transition so the GC
    /// trigger check is O(1) per operation.
    free_count: usize,
    /// Retired segments, maintained by [`SegmentTable::retire`]; part of
    /// the wear-spread cache key in the manager.
    retired_count: usize,
}

impl SegmentTable {
    /// Creates a table of `count` segments of `slots_per_segment` slots
    /// each, starting at flash byte `base_addr`.
    pub fn new(
        count: usize,
        slots_per_segment: usize,
        base_addr: u64,
        block_bytes: u64,
        page_size: u64,
    ) -> Self {
        assert!(
            slots_per_segment as u64 * page_size <= block_bytes,
            "slots exceed the erase block"
        );
        SegmentTable {
            segments: (0..count)
                .map(|_| Segment::new(slots_per_segment))
                .collect(),
            base_addr,
            block_bytes,
            page_size,
            // Sized up front so steady-state GC/erase churn never grows
            // it: every segment can have at most one pending erase.
            pending_erase: Vec::with_capacity(count),
            dead_copies: DenseIndex::new(crate::map::DEFAULT_DENSE_PAGES),
            free_count: count,
            retired_count: 0,
        }
    }

    /// Number of segments (including retired ones).
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// Whether the table has no segments.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Immutable access to a segment.
    pub fn seg(&self, idx: usize) -> &Segment {
        &self.segments[idx]
    }

    /// Free segments, O(1): the count is maintained on every state
    /// transition; debug builds reconcile it against a full scan.
    pub fn free_count(&self) -> usize {
        debug_assert_eq!(
            self.free_count,
            self.segments
                .iter()
                .filter(|s| s.state == SegState::Free)
                .count(),
            "maintained free-segment counter diverged from a full scan"
        );
        self.free_count
    }

    /// Iterates indices of segments in `state` without allocating.
    pub fn segments_in(&self, state: SegState) -> impl Iterator<Item = usize> + '_ {
        self.segments
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.state == state)
            .map(|(i, _)| i)
    }

    /// Retired segments, O(1); debug builds reconcile against a scan.
    pub fn retired_count(&self) -> usize {
        debug_assert_eq!(
            self.retired_count,
            self.segments
                .iter()
                .filter(|s| s.state == SegState::Retired)
                .count(),
            "maintained retired-segment counter diverged from a full scan"
        );
        self.retired_count
    }

    /// Total live pages across all segments.
    pub fn live_pages(&self) -> usize {
        self.segments.iter().map(|s| s.live).sum()
    }

    /// Total slot capacity across non-retired segments.
    pub fn usable_slots(&self) -> usize {
        self.segments
            .iter()
            .filter(|s| s.state != SegState::Retired)
            .map(|s| s.slots.len())
            .sum()
    }

    /// The erase-block byte address of a segment.
    pub fn block_addr(&self, seg: usize) -> u64 {
        self.base_addr + seg as u64 * self.block_bytes
    }

    /// Flash byte address of a slot.
    pub fn slot_addr(&self, seg: usize, slot: usize) -> u64 {
        self.block_addr(seg) + slot as u64 * self.page_size
    }

    /// Inverse of [`SegmentTable::slot_addr`].
    ///
    /// # Panics
    ///
    /// Panics if `addr` lies below the segment area.
    pub fn locate(&self, addr: u64) -> (usize, usize) {
        assert!(addr >= self.base_addr, "address below segment area");
        let rel = addr - self.base_addr;
        let seg = (rel / self.block_bytes) as usize;
        let slot = (rel % self.block_bytes / self.page_size) as usize;
        (seg, slot)
    }

    /// Opens a free segment for appends.
    ///
    /// # Panics
    ///
    /// Panics if the segment is not free.
    pub fn open(&mut self, seg: usize) {
        let s = &mut self.segments[seg];
        assert_eq!(s.state, SegState::Free, "open of non-free segment");
        debug_assert!(s.is_reset(), "free segment {seg} was not reset");
        s.state = SegState::Open;
        self.free_count -= 1;
    }

    /// Appends a page to an open segment, returning the slot index used.
    ///
    /// # Panics
    ///
    /// Panics if the segment is not open or is full.
    pub fn append(&mut self, seg: usize, meta: SlotMeta, now: SimTime) -> usize {
        let s = &mut self.segments[seg];
        assert_eq!(s.state, SegState::Open, "append to non-open segment");
        assert!(!s.is_full(), "append to full segment");
        let slot = s.next_slot;
        s.slots[slot] = Slot::Live(meta);
        s.next_slot += 1;
        s.live += 1;
        s.youngest_write = now;
        slot
    }

    /// Appends a tombstone slot carrying deletion `entries`, returning the
    /// slot index used. Tombstone slots never count as live.
    ///
    /// # Panics
    ///
    /// Panics if the segment is not open or is full.
    // lint: hot-path
    pub fn append_tomb(&mut self, seg: usize, entries: &[(PageId, u64)], now: SimTime) -> usize {
        let s = &mut self.segments[seg];
        assert_eq!(s.state, SegState::Open, "append to non-open segment");
        assert!(!s.is_full(), "append to full segment");
        let slot = s.next_slot;
        s.slots[slot] = Slot::Tomb {
            first: s.tombstones.len(),
            len: entries.len(),
        };
        s.tombstones.extend_from_slice(entries);
        s.next_slot += 1;
        s.youngest_write = now;
        slot
    }

    /// Discards a slot whose on-flash payload failed its CRC check: the
    /// program was torn by power loss, so the record never happened.
    /// Recovery-only — liveness and dead-copy accounting are left to the
    /// [`SegmentTable::recover_liveness`] rebuild that follows, which
    /// recomputes both from scratch and skips `Empty` slots. A discarded
    /// tombstone slot's records (never durable) drop out of
    /// [`Segment::tomb_records`] with it.
    pub fn invalidate_slot(&mut self, seg: usize, slot: usize) {
        self.segments[seg].slots[slot] = Slot::Empty;
    }

    /// Permanently retires a *free* segment whose block wore out during a
    /// post-recovery scrub erase. Unlike [`SegmentTable::retire`]
    /// there is no metadata to release: the segment holds nothing.
    ///
    /// # Panics
    ///
    /// Panics if the segment is not free.
    pub fn retire_free(&mut self, seg: usize) {
        assert_eq!(
            self.segments[seg].state,
            SegState::Free,
            "retire_free of non-free segment"
        );
        self.free_count -= 1;
        self.segments[seg].state = SegState::Retired;
        self.retired_count += 1;
    }

    /// Moves a *free* segment back to erase-pending for a scrub re-erase:
    /// recovery found its block partially programmed (a torn erase), so
    /// it must be erased again before slots can be placed on it. There
    /// is no metadata to release — the segment was already free.
    ///
    /// # Panics
    ///
    /// Panics if the segment is not free.
    pub fn scrub_erase(&mut self, seg: usize, completes: SimTime) {
        assert_eq!(
            self.segments[seg].state,
            SegState::Free,
            "scrub erase of non-free segment"
        );
        self.free_count -= 1;
        self.segments[seg].state = SegState::ErasePending;
        self.pending_erase.push((completes, seg));
    }

    /// Marks the slot at `addr` dead (its page was rewritten or deleted).
    ///
    /// # Panics
    ///
    /// Panics if the slot is not live.
    pub fn kill_at(&mut self, addr: u64) {
        let (seg, slot) = self.locate(addr);
        let s = &mut self.segments[seg];
        match s.slots[slot] {
            Slot::Live(m) => {
                s.slots[slot] = Slot::Dead(m);
                s.live -= 1;
                let n = self.dead_copies.get(m.page).unwrap_or(0);
                self.dead_copies.insert(m.page, n + 1);
            }
            _ => panic!("kill of non-live slot {seg}/{slot}"),
        }
    }

    /// Whether any stale copy of `page` survives on flash (a tombstone for
    /// it must then survive too).
    pub fn has_dead_copies(&self, page: PageId) -> bool {
        self.dead_copies.get(page).is_some_and(|n| n > 0)
    }

    /// Closes an open segment.
    ///
    /// # Panics
    ///
    /// Panics if the segment is not open.
    pub fn close(&mut self, seg: usize) {
        let s = &mut self.segments[seg];
        assert_eq!(s.state, SegState::Open, "close of non-open segment");
        s.state = SegState::Closed;
    }

    /// Common bookkeeping for removing a closed, fully dead segment from
    /// circulation: forgets its stale copies. Its tombstone records stay
    /// in place until the segment is reset; the records that must outlive
    /// it were logged from [`SegmentTable::peek_carried_into`] first.
    // lint: hot-path
    fn release_metadata(&mut self, seg: usize) {
        assert_eq!(
            self.segments[seg].state,
            SegState::Closed,
            "release of non-closed segment"
        );
        assert_eq!(
            self.segments[seg].live, 0,
            "release of segment with live pages"
        );
        // Dead-copy accounting by index: `dead_copies` and `segments` are
        // both fields of self, so iterating one while mutating the other
        // needs the loop split rather than an intermediate list.
        for i in 0..self.segments[seg].slots.len() {
            let page = match &self.segments[seg].slots[i] {
                Slot::Dead(m) => m.page,
                _ => continue,
            };
            if let Some(n) = self.dead_copies.get(page) {
                if n <= 1 {
                    self.dead_copies.remove(page);
                } else {
                    self.dead_copies.insert(page, n - 1);
                }
            }
        }
    }

    /// Appends to `out` the tombstones in `seg` whose loss could
    /// resurrect a page: every record whose page still has a stale
    /// (dead) copy on flash — *including* copies inside `seg` itself.
    /// The erase path logs these durably *before* issuing the erase.
    ///
    /// This is the one carry filter. It deliberately keeps records whose
    /// only stale copies die with the segment: a *torn* erase can wipe
    /// the half of the block holding the tombstone slot while the half
    /// holding the stale data copy survives, and recovery would then
    /// pick the stale copy as the page's winner — a synced delete coming
    /// back from the dead.
    // lint: hot-path
    pub fn peek_carried_into(&self, seg: usize, out: &mut Vec<(PageId, u64)>) {
        out.extend(
            self.segments[seg]
                .tomb_records()
                .filter(|&(page, _)| self.has_dead_copies(page)),
        );
    }

    /// Begins erasing a closed segment; it becomes usable again once
    /// [`SegmentTable::reap_erased`] is called past `completes`.
    // lint: hot-path
    pub fn begin_erase(&mut self, seg: usize, completes: SimTime) {
        self.release_metadata(seg);
        self.segments[seg].state = SegState::ErasePending;
        self.pending_erase.push((completes, seg));
    }

    /// Permanently retires a worn-out closed segment.
    pub fn retire(&mut self, seg: usize) {
        self.release_metadata(seg);
        self.segments[seg].state = SegState::Retired;
        self.retired_count += 1;
    }

    /// Moves segments whose erase has completed by `now` back to the free
    /// state, returning how many were reaped. Runs on every tick and on
    /// every segment allocation, so it must not build a result list; the
    /// in-flight set is unordered (completions are reaped by deadline, not
    /// position), which makes the `swap_remove` compaction safe.
    // lint: hot-path
    pub fn reap_erased(&mut self, now: SimTime) -> usize {
        let mut reaped = 0;
        let mut i = 0;
        while i < self.pending_erase.len() {
            let (at, seg) = self.pending_erase[i];
            if at > now {
                i += 1;
                continue;
            }
            self.pending_erase.swap_remove(i);
            self.segments[seg].reset();
            self.free_count += 1;
            reaped += 1;
        }
        reaped
    }

    /// Rebuilds liveness from the on-flash headers after a battery death.
    ///
    /// For every page the highest-sequence record wins, whether it is a
    /// data slot or a deletion tombstone. Data slots that lose become
    /// `Dead`; winning data slots become `Live`. Segments that were mid-
    /// erase at the crash are treated as erased. Returns the map of live
    /// pages to their flash slot addresses — in ascending page order, so
    /// the rebuild is deterministic — plus the highest sequence seen (to
    /// restore the global write sequence).
    pub fn recover_liveness(&mut self) -> (BTreeMap<PageId, u64>, u64) {
        // Interrupted erases complete conceptually at recovery time: the
        // block contents are indeterminate, so treat them as erased.
        self.reap_erased(SimTime::MAX);

        // The write heads died with the power: half-filled open segments
        // are closed so GC can reclaim them. (Recovery has no trustworthy
        // append position to resume, and a segment left `Open` forever is
        // invisible to victim selection — a capacity leak.)
        for s in &mut self.segments {
            if s.state == SegState::Open {
                s.state = SegState::Closed;
            }
        }

        // Pass 1: find the winning sequence per page. Every data and
        // tombstone record carries a distinct sequence except copies of
        // the same record (GC relocations, re-logged tombstones), so
        // visiting a segment's tombstone records after its data slots
        // picks the same winners as one walk in slot order.
        #[derive(Clone, Copy)]
        struct Winner {
            seq: u64,
            slot: Option<(usize, usize)>,
        }
        let mut winners: BTreeMap<PageId, Winner> = BTreeMap::new();
        let mut max_seq = 0u64;
        for (si, s) in self.segments.iter().enumerate() {
            if matches!(s.state, SegState::Free | SegState::Retired) {
                continue;
            }
            for (wi, slot) in s.slots.iter().enumerate() {
                if let Slot::Live(m) | Slot::Dead(m) = slot {
                    max_seq = max_seq.max(m.seq);
                    let w = winners.entry(m.page).or_insert(Winner {
                        seq: m.seq,
                        slot: Some((si, wi)),
                    });
                    if m.seq >= w.seq {
                        *w = Winner {
                            seq: m.seq,
                            slot: Some((si, wi)),
                        };
                    }
                }
            }
            for (page, seq) in s.tomb_records() {
                max_seq = max_seq.max(seq);
                let w = winners.entry(page).or_insert(Winner { seq, slot: None });
                if seq >= w.seq {
                    *w = Winner { seq, slot: None };
                }
            }
        }

        // Pass 2: rewrite liveness and dead-copy accounting to match.
        self.dead_copies.clear();
        let mut live_map = BTreeMap::new();
        for (si, s) in self.segments.iter_mut().enumerate() {
            s.live = 0;
            if matches!(s.state, SegState::Free | SegState::Retired) {
                continue;
            }
            for (wi, slot) in s.slots.iter_mut().enumerate() {
                let meta = match slot {
                    Slot::Live(m) | Slot::Dead(m) => *m,
                    _ => continue,
                };
                let is_winner = winners
                    .get(&meta.page)
                    .is_some_and(|w| w.slot == Some((si, wi)));
                if is_winner {
                    *slot = Slot::Live(meta);
                    s.live += 1;
                } else {
                    *slot = Slot::Dead(meta);
                    let n = self.dead_copies.get(meta.page).unwrap_or(0);
                    self.dead_copies.insert(meta.page, n + 1);
                }
            }
        }
        for (page, w) in &winners {
            if let Some((si, wi)) = w.slot {
                live_map.insert(*page, self.slot_addr(si, wi));
            }
        }
        (live_map, max_seq)
    }

    /// Earliest pending-erase completion, if any.
    pub fn next_erase_completion(&self) -> Option<SimTime> {
        self.pending_erase.iter().map(|&(t, _)| t).min()
    }

    /// Number of erases in flight.
    pub fn pending_erases(&self) -> usize {
        self.pending_erase.len()
    }

    /// Recounts the whole table and panics at the first broken rule:
    ///
    /// - each segment's `live` equals its Live-slot count;
    /// - no slot at or past `next_slot` is programmed, and Free segments
    ///   are reset;
    /// - `Tomb` ranges lie in slot order inside the segment's store;
    /// - the free and retired counters equal a scan;
    /// - `dead_copies` equals a recount of the Dead slots in Open and
    ///   Closed segments.
    ///
    /// A full scan that allocates: for tests and the crash-torture
    /// harness, not the write path.
    pub fn check_invariants(&self) {
        let mut dead: BTreeMap<PageId, u32> = BTreeMap::new();
        for (i, s) in self.segments.iter().enumerate() {
            let live = s
                .slots
                .iter()
                .filter(|x| matches!(x, Slot::Live(_)))
                .count();
            assert_eq!(s.live, live, "segment {i}: live count vs Live slots");
            assert!(
                s.slots.iter().skip(s.next_slot).all(|x| *x == Slot::Empty),
                "segment {i}: programmed slot at or past next_slot {}",
                s.next_slot
            );
            assert!(
                s.state != SegState::Free || s.is_reset(),
                "segment {i}: free but not reset"
            );
            let mut end = 0;
            for slot in &s.slots {
                if let Slot::Tomb { first, len } = *slot {
                    assert!(
                        first >= end && first + len <= s.tombstones.len(),
                        "segment {i}: tombstone range {first}+{len} out of order or past the store"
                    );
                    end = first + len;
                }
                if let Slot::Dead(m) = slot {
                    if matches!(s.state, SegState::Open | SegState::Closed) {
                        *dead.entry(m.page).or_insert(0) += 1;
                    }
                }
            }
        }
        let scan = |state| self.segments.iter().filter(|s| s.state == state).count();
        assert_eq!(
            self.free_count,
            scan(SegState::Free),
            "free-segment counter"
        );
        assert_eq!(
            self.retired_count,
            scan(SegState::Retired),
            "retired-segment counter"
        );
        let tracked: BTreeMap<PageId, u32> = self.dead_copies.iter().collect();
        assert_eq!(tracked, dead, "dead-copy index vs a recount of Dead slots");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssmc_sim::SimDuration;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    fn sm(page: PageId, seq: u64) -> SlotMeta {
        SlotMeta { page, seq, crc: 0 }
    }

    fn table() -> SegmentTable {
        // 4 segments, 8 slots, blocks of 4 KiB with 512-byte pages,
        // starting at address 8192.
        SegmentTable::new(4, 8, 8192, 4096, 512)
    }

    #[test]
    fn addresses_round_trip() {
        let tb = table();
        for seg in 0..4 {
            for slot in 0..8 {
                let addr = tb.slot_addr(seg, slot);
                assert_eq!(tb.locate(addr), (seg, slot));
            }
        }
        assert_eq!(tb.slot_addr(0, 0), 8192);
        assert_eq!(tb.slot_addr(1, 2), 8192 + 4096 + 1024);
    }

    #[test]
    fn open_append_close_lifecycle() {
        let mut tb = table();
        assert_eq!(
            tb.segments_in(SegState::Free).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        tb.open(0);
        let slot = tb.append(0, sm(42, 1), t(1));
        assert_eq!(slot, 0);
        assert_eq!(tb.seg(0).live, 1);
        assert_eq!(tb.seg(0).youngest_write, t(1));
        for i in 1..8u64 {
            tb.append(
                0,
                sm(100 + i, 1 + i),
                t(2),
            );
        }
        assert!(tb.seg(0).is_full());
        assert_eq!(tb.seg(0).slots_free(), 0);
        tb.close(0);
        assert_eq!(
            tb.segments_in(SegState::Closed).collect::<Vec<_>>(),
            vec![0]
        );
        assert_eq!(tb.live_pages(), 8);
    }

    #[test]
    fn kill_marks_dead_and_tracks_copies() {
        let mut tb = table();
        tb.open(0);
        let slot = tb.append(0, sm(7, 1), t(0));
        let addr = tb.slot_addr(0, slot);
        assert!(!tb.has_dead_copies(7));
        tb.kill_at(addr);
        assert_eq!(tb.seg(0).live, 0);
        assert!(tb.has_dead_copies(7));
    }

    #[test]
    fn tomb_slots_consume_space_but_not_liveness() {
        let mut tb = table();
        tb.open(0);
        let slot = tb.append_tomb(0, &[(9, 5), (10, 6)], t(1));
        assert_eq!(slot, 0);
        assert_eq!(tb.seg(0).live, 0);
        assert_eq!(tb.seg(0).next_slot, 1);
        assert_eq!(tb.seg(0).tombstones, vec![(9, 5), (10, 6)]);
        tb.check_invariants();
    }

    #[test]
    fn invalidated_tomb_slot_drops_out_of_the_records() {
        let mut tb = table();
        tb.open(0);
        tb.append_tomb(0, &[(1, 1), (2, 2)], t(0));
        let torn = tb.append_tomb(0, &[(3, 3)], t(0));
        tb.append_tomb(0, &[(4, 4)], t(0));
        tb.invalidate_slot(0, torn);
        let records: Vec<_> = tb.seg(0).tomb_records().collect();
        assert_eq!(records, vec![(1, 1), (2, 2), (4, 4)]);
        tb.check_invariants();
    }

    #[test]
    fn erase_lifecycle_reaps_on_time() {
        let mut tb = table();
        tb.open(0);
        let s = tb.append(0, sm(1, 1), t(0));
        tb.kill_at(tb.slot_addr(0, s));
        tb.close(0);
        tb.begin_erase(0, t(5));
        assert_eq!(tb.pending_erases(), 1);
        assert_eq!(tb.reap_erased(t(4)), 0);
        tb.check_invariants();
        assert_eq!(tb.reap_erased(t(5)), 1);
        assert_eq!(tb.seg(0).state, SegState::Free);
        assert!(!tb.has_dead_copies(1));
        tb.check_invariants();
        // The reaped segment is reset and can be opened again.
        tb.open(0);
        assert_eq!(tb.seg(0).next_slot, 0);
    }

    #[test]
    fn retire_shrinks_usable_capacity() {
        let mut tb = table();
        let before = tb.usable_slots();
        tb.open(0);
        tb.close(0);
        tb.retire(0);
        assert_eq!(
            tb.segments_in(SegState::Retired).collect::<Vec<_>>(),
            vec![0]
        );
        assert_eq!(tb.usable_slots(), before - 8);
        // Retired segments never return to the free list.
        assert_eq!(
            tb.segments_in(SegState::Free).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn tombstones_carried_only_while_stale_copies_remain() {
        let carried = |tb: &SegmentTable, seg| {
            let mut out = Vec::new();
            tb.peek_carried_into(seg, &mut out);
            out
        };
        let mut tb = table();
        // Page 9's stale copy lives in segment 1; its tombstone was logged
        // in segment 0.
        tb.open(1);
        let s = tb.append(1, sm(9, 1), t(0));
        tb.kill_at(tb.slot_addr(1, s));
        tb.open(0);
        tb.append_tomb(0, &[(9, 2), (5, 2)], t(1));
        tb.close(0);
        assert_eq!(carried(&tb, 0), vec![(9, 2)]);
        tb.begin_erase(0, t(1));

        // Once segment 1 (the stale copy) is erased too, a fresh tombstone
        // can be dropped with its segment.
        tb.close(1);
        tb.begin_erase(1, t(2));
        tb.reap_erased(t(3));
        tb.open(2);
        tb.append_tomb(2, &[(9, 3)], t(4));
        tb.close(2);
        assert!(carried(&tb, 2).is_empty());
    }

    /// The carry filter keeps a record whose only stale copy sits in the
    /// victim itself: a torn erase could keep that copy and lose the
    /// tombstone.
    #[test]
    fn carry_filter_covers_the_victims_own_stale_copies() {
        let mut tb = table();
        tb.open(0);
        let s = tb.append(0, sm(9, 1), t(0));
        tb.kill_at(tb.slot_addr(0, s));
        tb.append_tomb(0, &[(9, 2)], t(1));
        tb.close(0);
        let mut out = Vec::new();
        tb.peek_carried_into(0, &mut out);
        assert_eq!(out, vec![(9, 2)]);
    }

    #[test]
    #[should_panic(expected = "dead-copy index")]
    fn invariant_check_catches_a_lost_dead_copy() {
        let mut tb = table();
        tb.open(0);
        let s = tb.append(0, sm(9, 1), t(0));
        tb.kill_at(tb.slot_addr(0, s));
        tb.check_invariants();
        tb.dead_copies.remove(9);
        tb.check_invariants();
    }

    #[test]
    #[should_panic(expected = "free but not reset")]
    fn invariant_check_catches_a_free_segment_with_contents() {
        let mut tb = table();
        tb.segments[3].tombstones.push((1, 1));
        tb.check_invariants();
    }

    #[test]
    #[should_panic(expected = "live pages")]
    fn erasing_live_segment_panics() {
        let mut tb = table();
        tb.open(0);
        tb.append(0, sm(1, 1), t(0));
        tb.close(0);
        tb.begin_erase(0, t(1));
    }

    #[test]
    fn live_slots_lists_only_live() {
        let mut tb = table();
        tb.open(0);
        tb.append(0, sm(1, 1), t(0));
        let s2 = tb.append(0, sm(2, 2), t(0));
        tb.kill_at(tb.slot_addr(0, s2));
        tb.append_tomb(0, &[(2, 3)], t(0));
        let mut live = Vec::new();
        tb.seg(0).live_slots_into(&mut live);
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].1.page, 1);
    }

    #[test]
    fn next_erase_completion_is_min() {
        let mut tb = table();
        for seg in [0, 1] {
            tb.open(seg);
            tb.close(seg);
        }
        tb.begin_erase(1, t(10));
        tb.begin_erase(0, t(3));
        assert_eq!(tb.next_erase_completion(), Some(t(3)));
    }
}
