//! Per-core driver service lists with a readiness index.
//!
//! Each polling core serves an ordered list of flows, round-robin. Next to
//! the list sits one bit per slot, set whenever the flow in that slot may
//! have **local backlog** — retired packets in its ordered delivery buffer
//! (`ready`) or packets parked on the NIC (`slow_queue`). A `CorePoll`
//! visits only set slots, so its cost follows the flows with work rather
//! than every flow the core has ever registered.
//!
//! The bits are a superset, not an exact mirror: the two sites that create
//! backlog set the bit, and the poll scan clears it lazily when a visited
//! flow turns out to have none. Visiting a flow without backlog is a no-op
//! under the driver-poll contract (`IoPolicy::on_driver_poll`), so a
//! stale set bit costs one visit and never changes an outcome.

use ceio_net::FlowId;

/// Bits per readiness word.
const WORD: usize = u64::BITS as usize;

/// One polling core's service list, readiness bits and poll bookkeeping.
#[derive(Debug, Default)]
pub(crate) struct ServiceList {
    /// Flows this core serves, in round-robin order. A flow's position is
    /// its *slot*, recorded in `FlowState::slot`.
    flows: Vec<FlowId>,
    /// Readiness bits, slot `i` at bit `i % 64` of word `i / 64`. Bits at
    /// or past `flows.len()` are always clear.
    ready: Vec<u64>,
    /// Round-robin cursor: the next scan starts at slot `rr % len`.
    pub(crate) rr: usize,
    /// Listed flows that have been stopped. While non-zero, each poll
    /// prunes finished-and-drained flows from the list; with every listed
    /// flow active there is nothing to prune.
    pub(crate) stopped: usize,
    /// Whether a `CorePoll` for this core is already queued.
    pub(crate) poll_queued: bool,
}

impl ServiceList {
    /// Number of listed flows.
    pub(crate) fn len(&self) -> usize {
        self.flows.len()
    }

    /// Whether the core serves no flow (a dedicated core is then free).
    pub(crate) fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// The flow in `slot`.
    pub(crate) fn flow(&self, slot: usize) -> FlowId {
        self.flows[slot]
    }

    /// The listed flows in slot order.
    pub(crate) fn flows(&self) -> &[FlowId] {
        &self.flows
    }

    /// Append `id` (unmarked) and return its slot.
    pub(crate) fn push(&mut self, id: FlowId) -> usize {
        let slot = self.flows.len();
        if slot.is_multiple_of(WORD) {
            self.ready.push(0);
        }
        self.flows.push(id);
        slot
    }

    /// Mark `slot` as possibly holding backlog.
    pub(crate) fn mark(&mut self, slot: usize) {
        debug_assert!(slot < self.flows.len());
        self.set(slot, true);
    }

    /// Clear `slot`'s mark (its flow was seen without backlog).
    pub(crate) fn unmark(&mut self, slot: usize) {
        self.set(slot, false);
    }

    fn set(&mut self, slot: usize, on: bool) {
        let bit = 1 << (slot % WORD);
        let word = &mut self.ready[slot / WORD];
        if on {
            *word |= bit;
        } else {
            *word &= !bit;
        }
    }

    /// Whether `slot` is marked.
    pub(crate) fn is_marked(&self, slot: usize) -> bool {
        self.ready[slot / WORD] & (1 << (slot % WORD)) != 0
    }

    /// The first marked slot in `from..end` (`end <= len`).
    pub(crate) fn next_marked(&self, from: usize, end: usize) -> Option<usize> {
        if from >= end {
            return None;
        }
        let mut w = from / WORD;
        let mut word = self.ready[w] & (!0u64 << (from % WORD));
        loop {
            if word != 0 {
                let slot = w * WORD + word.trailing_zeros() as usize;
                return (slot < end).then_some(slot);
            }
            w += 1;
            if w * WORD >= end {
                return None;
            }
            word = self.ready[w];
        }
    }

    /// Keep only the flows `keep` accepts, preserving their order and
    /// marks. Slots shift down; the caller re-records them.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(FlowId) -> bool) {
        let mut kept = 0;
        for slot in 0..self.flows.len() {
            let id = self.flows[slot];
            if keep(id) {
                // `kept <= slot`: bit `kept` was already read.
                let marked = self.is_marked(slot);
                self.set(kept, marked);
                self.flows[kept] = id;
                kept += 1;
            }
        }
        self.flows.truncate(kept);
        self.ready.truncate(kept.div_ceil(WORD));
        if let Some(last) = self.ready.last_mut() {
            if !kept.is_multiple_of(WORD) {
                *last &= (1 << (kept % WORD)) - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn list(n: u32) -> ServiceList {
        let mut s = ServiceList::default();
        for i in 0..n {
            assert_eq!(s.push(FlowId(i)), i as usize);
        }
        s
    }

    #[test]
    fn next_marked_scans_words_and_respects_bounds() {
        let mut s = list(200);
        assert_eq!(s.next_marked(0, 200), None);
        for slot in [3, 64, 130, 199] {
            s.mark(slot);
        }
        assert_eq!(s.next_marked(0, 200), Some(3));
        assert_eq!(s.next_marked(3, 200), Some(3));
        assert_eq!(s.next_marked(4, 200), Some(64));
        assert_eq!(s.next_marked(65, 200), Some(130));
        assert_eq!(s.next_marked(131, 200), Some(199));
        assert_eq!(s.next_marked(65, 130), None);
        assert_eq!(s.next_marked(0, 3), None);
        s.unmark(64);
        assert_eq!(s.next_marked(4, 200), Some(130));
        assert_eq!(s.next_marked(200, 200), None);
    }

    #[test]
    fn retain_compacts_flows_and_carries_marks() {
        let mut s = list(130);
        for slot in [1, 2, 65, 129] {
            s.mark(slot);
        }
        // Drop every even flow: flow 2k+1 moves to slot k.
        s.retain(|id| id.0 % 2 == 1);
        assert_eq!(s.len(), 65);
        assert_eq!(s.flow(0), FlowId(1));
        assert_eq!(s.flow(32), FlowId(65));
        let marked: Vec<usize> = (0..s.len()).filter(|&i| s.is_marked(i)).collect();
        assert_eq!(marked, vec![0, 32, 64]);
        // Nothing past the end stays marked, and pushes start clean.
        assert_eq!(s.next_marked(65, 128), None);
        let slot = s.push(FlowId(500));
        assert!(!s.is_marked(slot));
    }
}
