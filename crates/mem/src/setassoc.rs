//! Set-associative, way-partitioned LLC model.
//!
//! The pool model in [`crate::llc`] captures the occupancy pathology but not
//! its *way-level* cause: on the paper's evaluation machine DDIO can allocate
//! into only 6 of the 12 LLC ways (§4.1), and CEIO sizes its credit pool from
//! that DDIO-reachable slice. This model makes the geometry explicit:
//! `S` sets × `W` ways of 64-byte lines, with the first `ddio_ways` ways of
//! every set forming the DDIO partition. I/O buffers span `ceil(bytes/64)`
//! consecutive sets (one line per set, like a physically contiguous 2 KB
//! buffer striding the index bits) and evict LRU-within-set when a set's DDIO
//! ways are full.
//!
//! The remaining `total_ways - ddio_ways` ways belong to a deterministic
//! application "antagonist" stream: every I/O insertion advances it by
//! `app_lines_per_insert` line touches at pseudo-random sets. By default it
//! stays inside its own partition and is invisible to I/O; configuring
//! `app_overlap_ways > 0` lets it allocate into the top of the DDIO partition
//! as well, evicting I/O buffers (counted in `LlcStats::app_evictions`) —
//! the I/O-vs-application contention that way-partitioning schemes such as
//! IOCA and A4 exist to arbitrate.
//!
//! Layout (DESIGN.md §15): each way is one `u64` slot word; resident
//! buffers sit in an arena with their recencies in a dense `Vec`, so LRU
//! comparisons read no map, and a buffer's lines are found by scanning the
//! DDIO ways of its consecutive sets rather than kept in a list.
//!
//! Determinism: set choice uses a pure multiplicative hash (the SplitMix64
//! finalizer [`ceio_sim::mix`]) of the buffer id / antagonist cursor, and
//! the id → arena index hashes with the same seedless mixer — no ambient
//! state, so identical traces produce identical placements on every run.
//!
//! Equivalence with the pool: with 1 set, `ddio_bytes / 64` DDIO ways, the
//! antagonist disabled, and line-multiple buffer sizes, victim selection
//! degenerates to "evict the globally least-recent buffer, whole buffers at
//! a time, never the incoming one" — exactly the pool's loop, including the
//! oversized-buffer over-capacity edge. A proptest pins this.

use std::collections::hash_map::Entry;

use ceio_sim::{mix, IdHashMap};

use crate::llc::{BufferId, LlcStats};
use crate::model::WayOccupancy;

/// Cache-line granularity of the set-associative model, in bytes.
pub const LINE_BYTES: u64 = 64;

/// Geometry and antagonist knobs for [`SetAssocLlc`], derived from
/// `MemParams` via [`crate::MemParams::set_assoc_params`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetAssocParams {
    /// Number of sets (`llc_total_bytes / (total_ways * 64)`).
    pub sets: usize,
    /// Associativity of each set.
    pub total_ways: usize,
    /// Ways `[0, ddio_ways)` of every set form the DDIO partition.
    pub ddio_ways: usize,
    /// Antagonist line touches per I/O insertion (0 disables it).
    pub app_lines_per_insert: u32,
    /// How many of the *top* DDIO ways the antagonist may also allocate
    /// into. 0 keeps the partitions disjoint (pure way-partitioning).
    pub app_overlap_ways: usize,
}

/// Slot word of a way never filled, or freed by consume/eviction.
const EMPTY: u64 = 0;
/// Tag bit of a slot word holding a line of the resident buffer whose arena
/// index is in the low bits. Other words are antagonist lines, `touch + 1`.
const IO: u64 = 1 << 63;

/// Per-buffer residency record, at a stable arena index.
#[derive(Debug, Clone, Copy)]
struct Resident {
    id: BufferId,
    /// Full buffer size in bytes (occupancy is attributed whole-buffer).
    bytes: u64,
    /// First set of the buffer's consecutive run.
    base: usize,
}

/// The way-partitioned set-associative LLC.
#[derive(Debug)]
pub struct SetAssocLlc {
    p: SetAssocParams,
    /// `sets * total_ways` slot words, set-major.
    slots: Vec<u64>,
    /// Resident buffer id → arena index (fixed-hasher lookup; never
    /// iterated).
    index: IdHashMap<BufferId, u32>,
    /// Arena of residency records; indices in `free` are unused.
    residents: Vec<Resident>,
    /// Buffer recency per arena index (refreshed on lookup, like the pool).
    seqs: Vec<u64>,
    free: Vec<u32>,
    next_seq: u64,
    /// Antagonist position: hashed to pick its next victim set.
    app_cursor: u64,
    occupancy_bytes: u64,
    /// I/O lines currently resident in each way (index = way).
    way_io_lines: Vec<u64>,
    /// Antagonist lines currently resident in each way.
    way_app_lines: Vec<u64>,
    stats: LlcStats,
}

impl SetAssocLlc {
    /// Build an empty cache with the given geometry.
    ///
    /// Geometry must be sane (`validate` on `MemParams` enforces this before
    /// construction in the normal path).
    pub fn new(p: SetAssocParams) -> SetAssocLlc {
        assert!(p.sets >= 1, "invariant: at least one set");
        assert!(
            p.ddio_ways >= 1 && p.ddio_ways <= p.total_ways,
            "invariant: 1 <= ddio_ways <= total_ways"
        );
        assert!(
            p.app_overlap_ways <= p.ddio_ways,
            "invariant: overlap cannot exceed the DDIO partition"
        );
        SetAssocLlc {
            slots: vec![EMPTY; p.sets * p.total_ways],
            way_io_lines: vec![0; p.total_ways],
            way_app_lines: vec![0; p.total_ways],
            p,
            index: IdHashMap::default(),
            residents: Vec::new(),
            seqs: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            app_cursor: 0,
            occupancy_bytes: 0,
            stats: LlcStats::default(),
        }
    }

    /// Bytes of I/O buffers currently resident.
    #[inline]
    pub fn occupancy(&self) -> u64 {
        self.occupancy_bytes
    }

    /// DDIO partition capacity in bytes (`sets * ddio_ways * 64`).
    #[inline]
    pub fn capacity(&self) -> u64 {
        (self.p.sets as u64) * (self.p.ddio_ways as u64) * LINE_BYTES
    }

    /// Number of resident I/O buffers.
    #[inline]
    pub fn resident_count(&self) -> usize {
        self.index.len()
    }

    /// Read-only statistics.
    #[inline]
    pub fn stats(&self) -> &LlcStats {
        &self.stats
    }

    /// Whether a buffer is currently resident (no statistics side effects).
    #[inline]
    pub fn contains(&self, id: BufferId) -> bool {
        self.index.contains_key(&id)
    }

    /// Per-way line counts for telemetry.
    pub fn way_occupancy(&self) -> WayOccupancy {
        WayOccupancy {
            io_lines: self.way_io_lines.clone(),
            app_lines: self.way_app_lines.clone(),
        }
    }

    /// The configured geometry.
    #[inline]
    pub fn params(&self) -> &SetAssocParams {
        &self.p
    }

    /// Slot index of way 0 of the set after the one at `row`, wrapping
    /// to set 0 after the last set.
    #[inline]
    fn next_row(&self, row: usize) -> usize {
        let next = row + self.p.total_ways;
        next * usize::from(next < self.slots.len())
    }

    /// Free all lines and occupancy of the buffer at arena index `idx`. No
    /// map, arena or statistics update — that is the caller's business.
    fn release(&mut self, idx: usize) -> Resident {
        let r = self.residents[idx];
        let tag = IO | idx as u64;
        let span = r.bytes.div_ceil(LINE_BYTES).clamp(1, self.p.sets as u64);
        let mut row = r.base * self.p.total_ways;
        for _ in 0..span {
            for way in 0..self.p.ddio_ways {
                if self.slots[row + way] == tag {
                    self.slots[row + way] = EMPTY;
                    self.way_io_lines[way] -= 1;
                }
            }
            row = self.next_row(row);
        }
        self.occupancy_bytes -= r.bytes;
        r
    }

    /// Evict the buffer at arena index `idx` whole, with statistics.
    fn evict(&mut self, idx: usize, by_app: bool, out: &mut Vec<BufferId>) {
        let r = self.release(idx);
        self.index.remove(&r.id);
        self.free.push(idx as u32);
        self.stats.evictions += 1;
        self.stats.evicted_bytes += r.bytes;
        self.stats.eviction_age_sum += self.next_seq - self.seqs[idx];
        if by_app {
            self.stats.app_evictions += 1;
        }
        out.push(r.id);
    }

    /// Claim one way in `[lo, hi)` of the set starting at slot `row`, in one
    /// pass: the first empty way, else the LRU owner's first way after
    /// evicting that owner (recencies are unique per owner). `None` if every
    /// candidate holds the `protect` word (DDIO never self-evicts).
    fn claim_way(
        &mut self,
        row: usize,
        lo: usize,
        hi: usize,
        protect: u64,
        by_app: bool,
        out: &mut Vec<BufferId>,
    ) -> Option<usize> {
        let mut victim: Option<(u64, usize)> = None;
        for way in lo..hi {
            let word = self.slots[row + way];
            if word == EMPTY {
                return Some(way);
            }
            let rec = if word & IO != 0 {
                self.seqs[(word & !IO) as usize]
            } else {
                word - 1
            };
            if word != protect && victim.is_none_or(|(best, _)| rec < best) {
                victim = Some((rec, way));
            }
        }
        let (_, way) = victim?;
        let word = self.slots[row + way];
        if word & IO != 0 {
            // Whole-buffer eviction frees this slot (and possibly others).
            self.evict((word & !IO) as usize, by_app, out);
        } else {
            self.way_app_lines[way] -= 1;
            self.slots[row + way] = EMPTY;
        }
        debug_assert_eq!(self.slots[row + way], EMPTY);
        Some(way)
    }

    /// Advance the antagonist by `app_lines_per_insert` line touches. Each
    /// touch lands in a hashed set, in ways
    /// `[ddio_ways - app_overlap_ways, total_ways)` — its own partition plus
    /// any configured overlap into the DDIO slice.
    fn advance_app(&mut self, out: &mut Vec<BufferId>) {
        let lo = self.p.ddio_ways - self.p.app_overlap_ways;
        let hi = self.p.total_ways;
        if lo >= hi {
            return; // antagonist has no ways at all
        }
        for _ in 0..self.p.app_lines_per_insert {
            let row = ((mix(self.app_cursor) as usize) % self.p.sets) * self.p.total_ways;
            self.app_cursor = self.app_cursor.wrapping_add(1);
            let touch = self.next_seq;
            self.next_seq += 1;
            let way = self
                .claim_way(row, lo, hi, EMPTY, true, out)
                .expect("invariant: no protected buffer, so a victim always exists");
            self.slots[row + way] = touch + 1;
            self.way_app_lines[way] += 1;
        }
    }

    /// DDIO insertion of a DMA-written buffer, returning the buffers it
    /// evicted (see [`SetAssocLlc::insert_into`]) in a fresh `Vec`.
    pub fn insert(&mut self, id: BufferId, bytes: u64) -> Vec<BufferId> {
        let mut evicted = Vec::new();
        self.insert_into(id, bytes, &mut evicted);
        evicted
    }

    /// DDIO insertion of a DMA-written buffer: `ceil(bytes/64)` lines at
    /// consecutive sets from a hashed base. Appends the evicted buffers to
    /// `evicted` (the antagonist's victims first, then LRU-within-set
    /// victims in placement order); their consumers will miss to DRAM.
    ///
    /// Inserting an id that is already resident refreshes its recency and
    /// size (a buffer reused for a new packet), exactly like the pool model.
    pub fn insert_into(&mut self, id: BufferId, bytes: u64, evicted: &mut Vec<BufferId>) {
        self.stats.insertions += 1;
        self.advance_app(evicted);
        let idx = match self.index.entry(id) {
            Entry::Occupied(e) => {
                let idx = *e.get() as usize;
                self.release(idx);
                idx
            }
            Entry::Vacant(e) => *e.insert(self.free.pop().unwrap_or_else(|| {
                self.residents.push(Resident { id, bytes, base: 0 });
                self.seqs.push(0);
                (self.residents.len() - 1) as u32
            })) as usize,
        };
        let base = mix(id.0) as usize % self.p.sets;
        self.residents[idx] = Resident { id, bytes, base };
        self.seqs[idx] = self.next_seq;
        self.next_seq += 1;
        let tag = IO | idx as u64;
        let mut row = base * self.p.total_ways;
        let mut overflowed = false;
        for _ in 0..bytes.div_ceil(LINE_BYTES).max(1) {
            match self.claim_way(row, 0, self.p.ddio_ways, tag, false, evicted) {
                Some(way) => {
                    self.slots[row + way] = tag;
                    self.way_io_lines[way] += 1;
                }
                // Every DDIO way of this set is already held by the incoming
                // buffer itself: it wraps the index space. The line logically
                // lands but cannot be tracked — the buffer exceeds what the
                // partition can hold, mirroring the pool's oversized edge.
                None => overflowed = true,
            }
            row = self.next_row(row);
        }
        if overflowed {
            self.stats.over_capacity_events += 1;
        }
        self.occupancy_bytes += bytes;
    }

    /// CPU lookup of a buffer: records a hit (refreshing buffer-level
    /// recency) or a miss. Returns `true` on hit.
    pub fn lookup(&mut self, id: BufferId) -> bool {
        match self.index.get(&id) {
            Some(&idx) => {
                self.stats.hits += 1;
                self.seqs[idx as usize] = self.next_seq;
                self.next_seq += 1;
                true
            }
            None => {
                self.stats.misses += 1;
                false
            }
        }
    }

    /// Remove a buffer the CPU has finished consuming (ownership returned
    /// to the buffer pool). No-op if already evicted.
    pub fn consume(&mut self, id: BufferId) {
        if let Some(idx) = self.index.remove(&id) {
            self.release(idx as usize);
            self.free.push(idx);
        }
    }

    /// A DMA write that bypasses the cache (DDIO disabled): straight to
    /// DRAM, never resident. Only the counter moves.
    pub fn bypass(&mut self, bytes: u64) {
        let _ = bytes;
        self.stats.bypasses += 1;
    }

    /// Reset statistics (keeps contents).
    pub fn clear_stats(&mut self) {
        self.stats = LlcStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(sets: usize, total_ways: usize, ddio_ways: usize) -> SetAssocLlc {
        SetAssocLlc::new(SetAssocParams {
            sets,
            total_ways,
            ddio_ways,
            app_lines_per_insert: 0,
            app_overlap_ways: 0,
        })
    }

    #[test]
    fn capacity_counts_only_ddio_ways() {
        let llc = small(16, 12, 6);
        assert_eq!(llc.capacity(), 16 * 6 * 64);
    }

    #[test]
    fn buffer_spans_consecutive_sets() {
        let mut llc = small(64, 4, 2);
        // 2 KB buffer = 32 lines = 32 distinct sets, one line each.
        assert!(llc.insert(BufferId(7), 2048).is_empty());
        let occ = llc.way_occupancy();
        assert_eq!(occ.io_lines.iter().sum::<u64>(), 32);
        assert_eq!(
            occ.io_lines[2] + occ.io_lines[3],
            0,
            "non-DDIO ways untouched"
        );
        assert_eq!(llc.occupancy(), 2048);
    }

    #[test]
    fn lru_within_set_evicts_oldest_whole_buffer() {
        // 1 set, 2 DDIO ways of one line each: third single-line insert
        // evicts the oldest.
        let mut llc = small(1, 4, 2);
        llc.insert(BufferId(1), 64);
        llc.insert(BufferId(2), 64);
        let ev = llc.insert(BufferId(3), 64);
        assert_eq!(ev, vec![BufferId(1)]);
        assert!(llc.contains(BufferId(2)) && llc.contains(BufferId(3)));
        assert_eq!(llc.stats().evictions, 1);
        assert_eq!(llc.stats().evicted_bytes, 64);
    }

    #[test]
    fn lookup_refreshes_recency() {
        let mut llc = small(1, 4, 2);
        llc.insert(BufferId(1), 64);
        llc.insert(BufferId(2), 64);
        assert!(llc.lookup(BufferId(1)));
        let ev = llc.insert(BufferId(3), 64);
        assert_eq!(ev, vec![BufferId(2)], "2 is now LRU");
    }

    #[test]
    fn eviction_in_one_set_frees_lines_in_others() {
        // 4 sets, 1 DDIO way: a 256-byte buffer (4 lines) fills every set.
        // A single-line insert evicts it whole, freeing all 4 sets.
        let mut llc = small(4, 2, 1);
        llc.insert(BufferId(1), 256);
        let ev = llc.insert(BufferId(2), 64);
        assert_eq!(ev, vec![BufferId(1)]);
        assert_eq!(llc.way_occupancy().io_lines[0], 1);
        assert_eq!(llc.occupancy(), 64);
    }

    #[test]
    fn oversized_buffer_flags_over_capacity() {
        // 2 sets x 1 DDIO way = 128 B capacity; a 256 B buffer wraps and
        // collides with itself.
        let mut llc = small(2, 2, 1);
        let ev = llc.insert(BufferId(1), 256);
        assert!(ev.is_empty(), "never evicts the incoming buffer");
        assert!(llc.contains(BufferId(1)));
        assert_eq!(llc.stats().over_capacity_events, 1);
        assert!(llc.occupancy() > llc.capacity());
    }

    #[test]
    fn consume_frees_all_lines() {
        let mut llc = small(8, 4, 2);
        llc.insert(BufferId(1), 512);
        llc.consume(BufferId(1));
        assert_eq!(llc.occupancy(), 0);
        assert_eq!(llc.way_occupancy().io_lines.iter().sum::<u64>(), 0);
        assert_eq!(llc.resident_count(), 0);
    }

    #[test]
    fn antagonist_stays_in_own_partition_without_overlap() {
        let mut llc = SetAssocLlc::new(SetAssocParams {
            sets: 16,
            total_ways: 4,
            ddio_ways: 2,
            app_lines_per_insert: 8,
            app_overlap_ways: 0,
        });
        for i in 0..64 {
            llc.insert(BufferId(i), 64);
        }
        let occ = llc.way_occupancy();
        assert_eq!(occ.app_lines[0] + occ.app_lines[1], 0);
        assert!(occ.app_lines[2] + occ.app_lines[3] > 0);
        assert_eq!(llc.stats().app_evictions, 0);
    }

    #[test]
    fn overlapping_antagonist_evicts_io() {
        let mut llc = SetAssocLlc::new(SetAssocParams {
            sets: 4,
            total_ways: 4,
            ddio_ways: 2,
            app_lines_per_insert: 8,
            app_overlap_ways: 2,
        });
        let mut evicted_total = 0;
        for i in 0..256 {
            evicted_total += llc.insert(BufferId(i), 64).len() as u64;
        }
        assert!(
            llc.stats().app_evictions > 0,
            "overlapping antagonist must evict I/O buffers"
        );
        assert!(evicted_total >= llc.stats().app_evictions);
        // Attribution: every app eviction is also a plain eviction.
        assert!(llc.stats().evictions >= llc.stats().app_evictions);
    }

    #[test]
    fn reinserting_same_id_refreshes_without_double_count() {
        let mut llc = small(8, 4, 2);
        llc.insert(BufferId(1), 512);
        llc.insert(BufferId(1), 512);
        assert_eq!(llc.occupancy(), 512);
        assert_eq!(llc.resident_count(), 1);
        assert_eq!(llc.way_occupancy().io_lines.iter().sum::<u64>(), 8);
    }

    #[test]
    fn bypass_counts_without_residency() {
        let mut llc = small(8, 4, 2);
        llc.bypass(2048);
        assert_eq!(llc.stats().bypasses, 1);
        assert_eq!(llc.occupancy(), 0);
    }

    #[test]
    fn fewer_ddio_ways_evict_earlier() {
        // Same insert trace; the 2-way cache must evict strictly more than
        // the 6-way cache — the monotone trend the ddio experiment sweeps.
        let trace: Vec<(u64, u64)> = (0..128).map(|i| (i, 256)).collect();
        let mut narrow = small(32, 8, 2);
        let mut wide = small(32, 8, 6);
        for &(id, bytes) in &trace {
            narrow.insert(BufferId(id), bytes);
            wide.insert(BufferId(id), bytes);
        }
        assert!(narrow.stats().evictions > wide.stats().evictions);
    }
}
