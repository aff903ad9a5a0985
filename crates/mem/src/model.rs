//! The [`LlcModel`] seam: one interface over the two LLC models.
//!
//! The memory controller (and everything above it: DMA retire, CPU
//! consume, HostCC's miss signal, telemetry, scope) talks to the LLC only
//! through this surface, so the pool model and the set-associative model
//! are interchangeable per run. The pool stays the default — existing
//! golden CSVs are byte-identical by construction because default-config
//! runs never construct a [`SetAssocLlc`].
//!
//! [`Llc`] is an enum rather than a boxed trait object so the controller
//! keeps `Debug`, avoids an allocation per machine, and lets call sites
//! use inherent methods without importing the trait.

use crate::llc::{BufferId, IoLlc, LlcStats};
use crate::params::{LlcModelKind, MemParams};
use crate::setassoc::SetAssocLlc;

/// Per-way line counts, reported by models that track way geometry.
///
/// Index = way. The DDIO partition is ways `[0, ddio_ways)`; I/O lines
/// outside it never occur, and application lines inside it only occur when
/// the antagonist is configured to overlap.
#[derive(Debug, Clone, Default)]
pub struct WayOccupancy {
    /// Resident I/O buffer lines per way.
    pub io_lines: Vec<u64>,
    /// Resident application (antagonist) lines per way.
    pub app_lines: Vec<u64>,
}

/// Behaviour every LLC model provides to the memory controller.
pub trait LlcModel {
    /// DDIO insertion of a DMA-written buffer; appends the buffers evicted
    /// to make room to `evicted`, in eviction order (their consumers will
    /// miss to DRAM). The caller owns and reuses the buffer.
    fn insert_into(&mut self, id: BufferId, bytes: u64, evicted: &mut Vec<BufferId>);
    /// CPU lookup: hit (refreshing recency) or miss. `true` on hit.
    fn lookup(&mut self, id: BufferId) -> bool;
    /// Remove a consumed buffer; no-op if already evicted.
    fn consume(&mut self, id: BufferId);
    /// A DMA write routed around the cache (DDIO disabled).
    fn bypass(&mut self, bytes: u64);
    /// Whether a buffer is resident (no statistics side effects).
    fn contains(&self, id: BufferId) -> bool;
    /// Bytes of I/O buffers currently resident.
    fn occupancy(&self) -> u64;
    /// Capacity of the DDIO-reachable partition in bytes.
    fn capacity(&self) -> u64;
    /// Number of resident I/O buffers.
    fn resident_count(&self) -> usize;
    /// Read-only statistics.
    fn stats(&self) -> &LlcStats;
    /// Reset statistics (keeps contents).
    fn clear_stats(&mut self);
    /// Per-way occupancy, for models with way geometry; `None` for the
    /// flat pool.
    fn way_occupancy(&self) -> Option<WayOccupancy> {
        None
    }
}

impl LlcModel for IoLlc {
    fn insert_into(&mut self, id: BufferId, bytes: u64, evicted: &mut Vec<BufferId>) {
        IoLlc::insert_into(self, id, bytes, evicted);
    }
    fn lookup(&mut self, id: BufferId) -> bool {
        IoLlc::lookup(self, id)
    }
    fn consume(&mut self, id: BufferId) {
        IoLlc::consume(self, id);
    }
    fn bypass(&mut self, bytes: u64) {
        IoLlc::bypass(self, bytes);
    }
    fn contains(&self, id: BufferId) -> bool {
        IoLlc::contains(self, id)
    }
    fn occupancy(&self) -> u64 {
        IoLlc::occupancy(self)
    }
    fn capacity(&self) -> u64 {
        IoLlc::capacity(self)
    }
    fn resident_count(&self) -> usize {
        IoLlc::resident_count(self)
    }
    fn stats(&self) -> &LlcStats {
        IoLlc::stats(self)
    }
    fn clear_stats(&mut self) {
        IoLlc::clear_stats(self);
    }
}

impl LlcModel for SetAssocLlc {
    fn insert_into(&mut self, id: BufferId, bytes: u64, evicted: &mut Vec<BufferId>) {
        SetAssocLlc::insert_into(self, id, bytes, evicted);
    }
    fn lookup(&mut self, id: BufferId) -> bool {
        SetAssocLlc::lookup(self, id)
    }
    fn consume(&mut self, id: BufferId) {
        SetAssocLlc::consume(self, id);
    }
    fn bypass(&mut self, bytes: u64) {
        SetAssocLlc::bypass(self, bytes);
    }
    fn contains(&self, id: BufferId) -> bool {
        SetAssocLlc::contains(self, id)
    }
    fn occupancy(&self) -> u64 {
        SetAssocLlc::occupancy(self)
    }
    fn capacity(&self) -> u64 {
        SetAssocLlc::capacity(self)
    }
    fn resident_count(&self) -> usize {
        SetAssocLlc::resident_count(self)
    }
    fn stats(&self) -> &LlcStats {
        SetAssocLlc::stats(self)
    }
    fn clear_stats(&mut self) {
        SetAssocLlc::clear_stats(self);
    }
    fn way_occupancy(&self) -> Option<WayOccupancy> {
        Some(SetAssocLlc::way_occupancy(self))
    }
}

/// The LLC model selected by [`MemParams::llc_model`].
#[derive(Debug)]
pub enum Llc {
    /// Seed flat LRU byte pool over the DDIO partition (default).
    Pool(IoLlc),
    /// Way-partitioned set-associative model with app contention.
    SetAssoc(Box<SetAssocLlc>),
}

/// Forward one method to whichever variant is live.
macro_rules! delegate {
    ($self:ident, $m:ident $(, $arg:expr)*) => {
        match $self {
            Llc::Pool(l) => l.$m($($arg),*),
            Llc::SetAssoc(l) => l.$m($($arg),*),
        }
    };
}

impl Llc {
    /// Build the model `p` selects, sized from `p`'s geometry.
    pub fn from_params(p: &MemParams) -> Llc {
        match p.llc_model {
            LlcModelKind::Pool => Llc::Pool(IoLlc::new(p.ddio_bytes)),
            LlcModelKind::SetAssoc => {
                Llc::SetAssoc(Box::new(SetAssocLlc::new(p.set_assoc_params())))
            }
        }
    }

    /// See [`LlcModel::insert_into`].
    pub fn insert_into(&mut self, id: BufferId, bytes: u64, evicted: &mut Vec<BufferId>) {
        delegate!(self, insert_into, id, bytes, evicted)
    }
    /// See [`LlcModel::lookup`].
    pub fn lookup(&mut self, id: BufferId) -> bool {
        delegate!(self, lookup, id)
    }
    /// See [`LlcModel::consume`].
    pub fn consume(&mut self, id: BufferId) {
        delegate!(self, consume, id)
    }
    /// See [`LlcModel::bypass`].
    pub fn bypass(&mut self, bytes: u64) {
        delegate!(self, bypass, bytes)
    }
    /// See [`LlcModel::contains`].
    pub fn contains(&self, id: BufferId) -> bool {
        delegate!(self, contains, id)
    }
    /// See [`LlcModel::occupancy`].
    pub fn occupancy(&self) -> u64 {
        delegate!(self, occupancy)
    }
    /// See [`LlcModel::capacity`].
    pub fn capacity(&self) -> u64 {
        delegate!(self, capacity)
    }
    /// See [`LlcModel::resident_count`].
    pub fn resident_count(&self) -> usize {
        delegate!(self, resident_count)
    }
    /// See [`LlcModel::stats`].
    pub fn stats(&self) -> &LlcStats {
        delegate!(self, stats)
    }
    /// See [`LlcModel::clear_stats`].
    pub fn clear_stats(&mut self) {
        delegate!(self, clear_stats)
    }
    /// Per-way occupancy when the live model has way geometry.
    pub fn way_occupancy(&self) -> Option<WayOccupancy> {
        match self {
            Llc::Pool(_) => None,
            Llc::SetAssoc(l) => Some(l.way_occupancy()),
        }
    }
    /// Bytes by which I/O occupancy currently exceeds the partition
    /// capacity (0 when within bounds) — the scope series behind the
    /// over-capacity SLO.
    pub fn over_capacity_bytes(&self) -> u64 {
        self.occupancy().saturating_sub(self.capacity())
    }
}

impl LlcModel for Llc {
    fn insert_into(&mut self, id: BufferId, bytes: u64, evicted: &mut Vec<BufferId>) {
        Llc::insert_into(self, id, bytes, evicted);
    }
    fn lookup(&mut self, id: BufferId) -> bool {
        Llc::lookup(self, id)
    }
    fn consume(&mut self, id: BufferId) {
        Llc::consume(self, id);
    }
    fn bypass(&mut self, bytes: u64) {
        Llc::bypass(self, bytes);
    }
    fn contains(&self, id: BufferId) -> bool {
        Llc::contains(self, id)
    }
    fn occupancy(&self) -> u64 {
        Llc::occupancy(self)
    }
    fn capacity(&self) -> u64 {
        Llc::capacity(self)
    }
    fn resident_count(&self) -> usize {
        Llc::resident_count(self)
    }
    fn stats(&self) -> &LlcStats {
        Llc::stats(self)
    }
    fn clear_stats(&mut self) {
        Llc::clear_stats(self);
    }
    fn way_occupancy(&self) -> Option<WayOccupancy> {
        Llc::way_occupancy(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool_params() -> MemParams {
        MemParams::default()
    }

    fn setassoc_params() -> MemParams {
        MemParams {
            llc_model: LlcModelKind::SetAssoc,
            ..MemParams::default()
        }
    }

    #[test]
    fn default_params_build_the_pool() {
        let llc = Llc::from_params(&pool_params());
        assert!(matches!(llc, Llc::Pool(_)));
        assert!(llc.way_occupancy().is_none());
    }

    #[test]
    fn setassoc_selection_builds_way_model() {
        let llc = Llc::from_params(&setassoc_params());
        assert!(matches!(llc, Llc::SetAssoc(_)));
        let occ = llc.way_occupancy().expect("way geometry present");
        assert_eq!(occ.io_lines.len(), 12);
    }

    #[test]
    fn pool_and_setassoc_default_capacity_agree() {
        // 12 MiB / 12 ways * 6 DDIO ways == the pool's 6 MiB ddio_bytes:
        // credit derivation is unchanged under the default geometry.
        let pool = Llc::from_params(&pool_params());
        let sa = Llc::from_params(&setassoc_params());
        assert_eq!(pool.capacity(), sa.capacity());
    }

    #[test]
    fn dispatch_reaches_the_live_model() {
        let mut llc = Llc::from_params(&setassoc_params());
        llc.insert_into(BufferId(1), 2048, &mut Vec::new());
        assert!(llc.contains(BufferId(1)));
        assert_eq!(llc.occupancy(), 2048);
        llc.bypass(64);
        assert_eq!(llc.stats().bypasses, 1);
        llc.consume(BufferId(1));
        assert_eq!(llc.occupancy(), 0);
        llc.clear_stats();
        assert_eq!(llc.stats().insertions, 0);
    }

    #[test]
    fn over_capacity_bytes_tracks_excess() {
        let mut llc = Llc::Pool(IoLlc::new(1024));
        assert_eq!(llc.over_capacity_bytes(), 0);
        llc.insert_into(BufferId(1), 4096, &mut Vec::new());
        assert_eq!(llc.over_capacity_bytes(), 3072);
    }
}
