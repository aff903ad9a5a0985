//! Per-flow runtime state inside the host machine.
//!
//! Each flow owns a sender (generator + DCTCP), a host RX ring, a slow-path
//! queue in on-NIC memory, and an **ordered delivery buffer**: packets are
//! stamped with a per-flow NIC-arrival sequence number and the driver only
//! releases the next-in-sequence packet to the application — the software
//! ring contract of §4.2 without per-packet sorting. The buffer is a
//! window indexed by sequence offset from the delivery pointer, so a
//! retirement, a delivery and a skipped drop are each O(1); a gap simply
//! waits (DESIGN.md §16).

use ceio_mem::BufferId;
use ceio_net::{Dctcp, FlowClass, FlowSpec, Packet, TrafficGen};
use ceio_sim::{Histogram, Time, TimerToken};
use std::collections::VecDeque;

/// A packet retired into host memory, awaiting in-order delivery.
#[derive(Debug, Clone, Copy)]
pub struct ReadyPkt {
    /// The packet.
    pub pkt: Packet,
    /// Host I/O buffer holding it (LLC residency key).
    pub buf: BufferId,
    /// Instant the data became readable by the CPU.
    pub ready: Time,
    /// Whether the packet travelled the slow path.
    pub via_slow: bool,
}

/// One slot of the delivery window.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// Sequence number taken, packet not retired yet (still in the DMA or
    /// slow-path pipeline).
    Hole,
    /// Retired and readable, awaiting in-order delivery.
    Ready(ReadyPkt),
    /// Dropped after taking its sequence number: delivery steps over it.
    Skipped,
}

/// A packet parked in on-NIC memory (slow path), awaiting drain.
#[derive(Debug, Clone, Copy)]
pub struct SlowPkt {
    /// The packet.
    pub pkt: Packet,
    /// Per-flow NIC-arrival sequence number.
    pub nic_seq: u64,
    /// Instant the on-NIC memory write completes (drainable after this).
    pub ready_at_nic: Time,
}

/// Per-flow counters exported to reports.
#[derive(Debug, Default, Clone)]
pub struct FlowCounters {
    /// Packets delivered to the application.
    pub consumed_pkts: u64,
    /// Bytes delivered to the application.
    pub consumed_bytes: u64,
    /// Packets that travelled the slow path.
    pub slow_pkts: u64,
    /// Packets dropped (all causes).
    pub dropped: u64,
    /// Completed messages delivered.
    pub msgs_completed: u64,
}

/// All runtime state of one flow.
#[derive(Debug)]
pub struct FlowState {
    /// Static specification.
    pub spec: FlowSpec,
    /// Sender-side congestion controller.
    pub cca: Dctcp,
    /// Sender-side traffic generator.
    pub gen: TrafficGen,
    /// Index of the host core serving this flow.
    pub core: usize,
    /// Position of this flow in its core's service list, which keys the
    /// core's readiness index (maintained by the machine).
    pub(crate) slot: usize,
    /// Receive queue (RSS shard) this flow's fast path lands on.
    pub queue: usize,
    /// Whether the sender is still emitting.
    pub active: bool,
    /// Emission-chain epoch: an `Emit` event carrying a stale epoch is
    /// ignored, so demand retargeting can restart the chain without
    /// duplicating it.
    pub emit_epoch: u64,
    /// Token of the queued next `Emit` of the current chain, if any;
    /// cancelled on demand retargets and teardown so dead chain links
    /// never occupy the event queue. The epoch check stays as
    /// defense-in-depth.
    pub emit_timer: Option<TimerToken>,
    /// Next NIC-arrival sequence number to assign.
    pub nic_seq_next: u64,
    /// Next sequence number the driver will deliver.
    pub next_deliver_seq: u64,
    /// Ordered delivery buffer: slot `i` holds sequence
    /// `next_deliver_seq + i`. Its front is never `Skipped`.
    window: VecDeque<Slot>,
    /// Number of `Ready` slots in `window`.
    ready_len: usize,
    /// Host RX ring occupancy (entries retired, not yet consumed).
    pub ring_occupancy: u32,
    /// Descriptors reserved for packets in DMA flight toward the ring.
    pub ring_inflight: u32,
    /// Host ring capacity (from config; copied here for hot-path checks).
    pub ring_capacity: u32,
    /// Slow-path packets parked in on-NIC memory, FIFO.
    pub slow_queue: VecDeque<SlowPkt>,
    /// Slow-path packets currently in DMA-read flight toward the host.
    pub slow_fetch_inflight: u32,
    /// End-to-end latency (send → app delivery) histogram.
    pub latency: Histogram,
    /// Counters.
    pub counters: FlowCounters,
    /// Packets fully accounted for (delivered, dropped, or discarded).
    /// Unlike `counters`, never reset: `gen.emitted() - accounted` is the
    /// number of packets still somewhere in the pipeline, which keeps the
    /// serving core polling until the flow truly drains.
    pub accounted: u64,
}

impl FlowState {
    /// Fresh state for a starting flow.
    pub fn new(
        spec: FlowSpec,
        cca: Dctcp,
        gen: TrafficGen,
        core: usize,
        queue: usize,
        ring_capacity: u32,
    ) -> FlowState {
        FlowState {
            spec,
            cca,
            gen,
            core,
            slot: 0,
            queue,
            active: true,
            emit_epoch: 0,
            emit_timer: None,
            nic_seq_next: 0,
            next_deliver_seq: 0,
            window: VecDeque::new(),
            ready_len: 0,
            ring_occupancy: 0,
            ring_inflight: 0,
            ring_capacity,
            slow_queue: VecDeque::new(),
            slow_fetch_inflight: 0,
            latency: Histogram::new(),
            counters: FlowCounters::default(),
            accounted: 0,
        }
    }

    /// Assign the next NIC-arrival sequence number.
    #[inline]
    pub fn take_seq(&mut self) -> u64 {
        let s = self.nic_seq_next;
        self.nic_seq_next += 1;
        s
    }

    /// Free host-ring descriptors (capacity minus retired minus in-flight).
    #[inline]
    pub fn ring_free(&self) -> u32 {
        self.ring_capacity
            .saturating_sub(self.ring_occupancy)
            .saturating_sub(self.ring_inflight)
    }

    /// Host-ring entries outstanding (retired + in flight).
    #[inline]
    pub fn ring_outstanding(&self) -> u32 {
        self.ring_occupancy + self.ring_inflight
    }

    /// Whether this flow class is CPU-bypass.
    #[inline]
    pub fn is_bypass(&self) -> bool {
        self.spec.class == FlowClass::CpuBypass
    }

    /// The window slot of sequence `seq`, growing the window with holes.
    /// `seq` must not be stale.
    fn slot_mut(&mut self, seq: u64) -> &mut Slot {
        debug_assert!(
            seq >= self.next_deliver_seq,
            "stale sequence {seq} reached the delivery window"
        );
        let i = (seq - self.next_deliver_seq) as usize;
        if i >= self.window.len() {
            self.window.resize(i + 1, Slot::Hole);
        }
        &mut self.window[i]
    }

    /// Advance the delivery pointer over skipped slots at the front.
    fn step_over_skipped(&mut self) {
        while let Some(Slot::Skipped) = self.window.front() {
            self.window.pop_front();
            self.next_deliver_seq += 1;
        }
    }

    /// Buffer a packet retired into host memory under its NIC-arrival
    /// sequence number, taking a ring entry unless it came via the slow
    /// path. The caller filters stale sequences with [`Self::is_stale`].
    pub(crate) fn insert_ready(&mut self, seq: u64, rp: ReadyPkt) {
        let slot = self.slot_mut(seq);
        debug_assert!(matches!(slot, Slot::Hole), "sequence {seq} retired twice");
        *slot = Slot::Ready(rp);
        self.ready_len += 1;
        if !rp.via_slow {
            self.ring_occupancy += 1;
        }
    }

    /// Record that the packet holding sequence `seq` was dropped before it
    /// retired, so delivery steps over it instead of waiting forever. A
    /// skipped slot holds no ring entry and is no pending work (the drop
    /// is already accounted). No-op for a stale sequence.
    pub(crate) fn skip(&mut self, seq: u64) {
        if self.is_stale(seq) {
            return;
        }
        *self.slot_mut(seq) = Slot::Skipped;
        self.step_over_skipped();
    }

    /// Number of retired packets awaiting delivery.
    #[inline]
    pub fn ready_len(&self) -> usize {
        self.ready_len
    }

    /// The lowest-sequence retired packet awaiting delivery, if any.
    pub fn first_ready(&self) -> Option<(u64, &ReadyPkt)> {
        if self.ready_len == 0 {
            return None;
        }
        (self.next_deliver_seq..)
            .zip(&self.window)
            .find_map(|(seq, slot)| match slot {
                Slot::Ready(rp) => Some((seq, rp)),
                _ => None,
            })
    }

    /// Collect the deliverable batch at `now`: the in-sequence prefix of
    /// the delivery window whose data is readable, at most `max` packets.
    ///
    /// Delivery is per-packet for both flow classes — LineFS-style bypass
    /// consumers pipeline on arriving data. The write-with-immediate
    /// message granularity matters to *credit visibility*, which the CEIO
    /// policy models through the `msgs` count of its batch-consumed hook,
    /// not to buffer recycling.
    ///
    /// Returns the packets removed from the buffer, in delivery order.
    pub fn take_deliverable(&mut self, now: Time, max: usize) -> Vec<ReadyPkt> {
        let mut out: Vec<ReadyPkt> = Vec::new();
        while out.len() < max {
            let rp = match self.window.front() {
                Some(Slot::Ready(rp)) if rp.ready <= now => *rp,
                _ => break,
            };
            self.window.pop_front();
            self.next_deliver_seq += 1;
            self.ready_len -= 1;
            // Slow-path packets never held a fast-ring descriptor.
            if !rp.via_slow {
                debug_assert!(self.ring_occupancy > 0);
                self.ring_occupancy = self.ring_occupancy.saturating_sub(1);
            }
            out.push(rp);
            self.step_over_skipped();
        }
        out
    }

    /// Connection teardown: clear all undelivered backlog. Returns the
    /// ready packets (whose host buffers the caller must free) and the
    /// total bytes parked in on-NIC memory (to discard there). Packets
    /// still in DMA flight are skipped on arrival because their sequence
    /// numbers fall below the advanced delivery pointer.
    pub fn teardown_backlog(&mut self) -> (Vec<ReadyPkt>, u64) {
        let drained: Vec<ReadyPkt> = self
            .window
            .drain(..)
            .filter_map(|slot| match slot {
                Slot::Ready(rp) => Some(rp),
                _ => None,
            })
            .collect();
        self.ready_len = 0;
        self.accounted += drained.len() as u64 + self.slow_queue.len() as u64;
        self.next_deliver_seq = self.nic_seq_next;
        self.ring_occupancy = 0;
        let parked: u64 = self.slow_queue.iter().map(|sp| sp.pkt.bytes).sum();
        self.slow_queue.clear();
        (drained, parked)
    }

    /// Whether a retired packet belongs to backlog discarded at teardown.
    #[inline]
    pub fn is_stale(&self, nic_seq: u64) -> bool {
        nic_seq < self.next_deliver_seq
    }

    /// Whether any work could still appear for this flow (used to decide
    /// when an inactive flow's core may stop polling). Includes packets
    /// still in the network/DMA pipeline, which no local queue shows yet.
    pub fn has_pending_work(&self) -> bool {
        self.ready_len > 0
            || !self.slow_queue.is_empty()
            || self.ring_inflight > 0
            || self.slow_fetch_inflight > 0
            || self.gen.emitted() > self.accounted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceio_net::{FlowClass, FlowId, PacketId};
    use ceio_sim::{Bandwidth, Duration, Rng};
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn mk_flow(class: FlowClass) -> FlowState {
        let spec = FlowSpec::new(0, class, 512, 4, Bandwidth::gbps(25));
        let gen = TrafficGen::new(
            spec.clone(),
            ceio_net::generator::Pacing::Cbr,
            Rng::seed_from_u64(1),
            0,
        );
        let cca = Dctcp::new(spec.demand, Duration::micros(20));
        FlowState::new(spec, cca, gen, 0, 0, 64)
    }

    fn ready_pkt(seq: u64, msg_id: u64, msg_seq: u32, msg_last: bool, ready: Time) -> ReadyPkt {
        ReadyPkt {
            pkt: Packet {
                id: PacketId(seq),
                flow: FlowId(0),
                bytes: 512,
                msg_id,
                msg_seq,
                msg_last,
                sent_at: Time::ZERO,
                arrived_nic: Time::ZERO,
                ecn: false,
            },
            buf: BufferId(seq),
            ready,
            via_slow: false,
        }
    }

    fn insert(f: &mut FlowState, rp: ReadyPkt) {
        f.insert_ready(rp.pkt.id.0, rp);
    }

    #[test]
    fn delivers_in_sequence_prefix_only() {
        let mut f = mk_flow(FlowClass::CpuInvolved);
        insert(&mut f, ready_pkt(0, 0, 0, false, Time(10)));
        insert(&mut f, ready_pkt(2, 0, 2, false, Time(10))); // gap at 1
        let got = f.take_deliverable(Time(100), 16);
        assert_eq!(got.len(), 1);
        assert_eq!(f.next_deliver_seq, 1);
        // Fill the gap: both deliverable now.
        insert(&mut f, ready_pkt(1, 0, 1, false, Time(20)));
        let got = f.take_deliverable(Time(100), 16);
        assert_eq!(got.len(), 2);
        assert_eq!(f.next_deliver_seq, 3);
    }

    #[test]
    fn not_ready_packets_wait() {
        let mut f = mk_flow(FlowClass::CpuInvolved);
        insert(&mut f, ready_pkt(0, 0, 0, false, Time(1_000)));
        assert!(f.take_deliverable(Time(10), 16).is_empty());
        assert_eq!(f.take_deliverable(Time(1_000), 16).len(), 1);
    }

    #[test]
    fn batch_size_respected() {
        let mut f = mk_flow(FlowClass::CpuInvolved);
        for i in 0..40 {
            insert(&mut f, ready_pkt(i, 0, i as u32, false, Time(0)));
        }
        assert_eq!(f.take_deliverable(Time(1), 32).len(), 32);
        assert_eq!(f.take_deliverable(Time(1), 32).len(), 8);
    }

    #[test]
    fn bypass_delivers_per_packet_like_involved() {
        // Delivery is per-packet for both classes (LineFS pipelines on
        // arriving data); message boundaries matter to credit visibility
        // (policy-level), not delivery.
        let mut f = mk_flow(FlowClass::CpuBypass);
        for i in 0..3 {
            insert(&mut f, ready_pkt(i, 0, i as u32, false, Time(0)));
        }
        assert_eq!(f.take_deliverable(Time(1), 16).len(), 3);
        insert(&mut f, ready_pkt(3, 0, 3, true, Time(0)));
        let got = f.take_deliverable(Time(1), 16);
        assert_eq!(got.len(), 1);
        assert!(got[0].pkt.msg_last);
    }

    #[test]
    fn ring_accounting() {
        let mut f = mk_flow(FlowClass::CpuInvolved);
        assert_eq!(f.ring_free(), 64);
        f.ring_inflight = 4;
        insert(&mut f, ready_pkt(0, 0, 0, false, Time(0)));
        assert_eq!(f.ring_free(), 64 - 4 - 1);
        assert_eq!(f.ring_outstanding(), 5);
        f.take_deliverable(Time(1), 1);
        assert_eq!(f.ring_occupancy, 0);
    }

    #[test]
    fn seq_assignment_monotonic() {
        let mut f = mk_flow(FlowClass::CpuInvolved);
        assert_eq!(f.take_seq(), 0);
        assert_eq!(f.take_seq(), 1);
        assert_eq!(f.nic_seq_next, 2);
    }

    #[test]
    fn skipped_sequence_is_stepped_over() {
        let mut f = mk_flow(FlowClass::CpuInvolved);
        insert(&mut f, ready_pkt(1, 0, 1, false, Time(0)));
        insert(&mut f, ready_pkt(3, 0, 3, false, Time(0)));
        // Sequence 2 dropped before retiring: held behind the hole at 0.
        f.skip(2);
        assert_eq!(f.next_deliver_seq, 0);
        assert_eq!((f.ready_len(), f.ring_occupancy), (2, 2));
        // Sequence 0 dropped too: delivery steps straight to 1.
        f.skip(0);
        assert_eq!(f.next_deliver_seq, 1);
        assert_eq!(f.first_ready().map(|(seq, _)| seq), Some(1));
        let got = f.take_deliverable(Time(1), 1);
        assert_eq!(got[0].pkt.id.0, 1);
        // The batch limit was reached, but the skipped 2 is stepped over.
        assert_eq!(f.next_deliver_seq, 3);
        assert_eq!(f.take_deliverable(Time(1), 16).len(), 1);
        assert_eq!(f.next_deliver_seq, 4);
        assert!(!f.has_pending_work());
        // A stale sequence is ignored.
        f.skip(1);
        assert_eq!(f.next_deliver_seq, 4);
    }

    #[test]
    fn pending_work_detection() {
        let mut f = mk_flow(FlowClass::CpuInvolved);
        assert!(!f.has_pending_work());
        f.slow_fetch_inflight = 1;
        assert!(f.has_pending_work());
        f.slow_fetch_inflight = 0;
        insert(&mut f, ready_pkt(0, 0, 0, false, Time(0)));
        assert!(f.has_pending_work());
    }

    /// The delivery buffer as it was before the window: a `BTreeMap` keyed
    /// by sequence, a boundary scan over its contiguous prefix, and the
    /// delivery loop below that boundary. Extended only by the skip rule:
    /// a skipped sequence counts as present for the scan and the delivery
    /// pointer steps over it as soon as it reaches it.
    #[derive(Default)]
    struct Reference {
        ready: BTreeMap<u64, ReadyPkt>,
        skipped: BTreeSet<u64>,
        next_deliver_seq: u64,
        scan_next: u64,
        ring_occupancy: u32,
    }

    impl Reference {
        fn settle(&mut self) {
            while self.skipped.remove(&self.next_deliver_seq) {
                self.next_deliver_seq += 1;
            }
            self.scan_next = self.scan_next.max(self.next_deliver_seq);
        }

        fn insert(&mut self, seq: u64, rp: ReadyPkt) {
            self.ready.insert(seq, rp);
            if !rp.via_slow {
                self.ring_occupancy += 1;
            }
        }

        fn skip(&mut self, seq: u64) {
            self.skipped.insert(seq);
            self.settle();
        }

        fn take_deliverable(&mut self, now: Time, max: usize) -> Vec<ReadyPkt> {
            while self.ready.contains_key(&self.scan_next) || self.skipped.contains(&self.scan_next)
            {
                self.scan_next += 1;
            }
            let limit = self.scan_next;
            let mut out = Vec::new();
            while out.len() < max && self.next_deliver_seq < limit {
                match self.ready.get(&self.next_deliver_seq) {
                    Some(rp) if rp.ready <= now => {
                        let rp = *rp;
                        self.ready.remove(&self.next_deliver_seq);
                        self.next_deliver_seq += 1;
                        if !rp.via_slow {
                            self.ring_occupancy -= 1;
                        }
                        out.push(rp);
                        self.settle();
                    }
                    _ => break,
                }
            }
            out
        }

        fn teardown_backlog(&mut self, nic_seq_next: u64) -> Vec<ReadyPkt> {
            let drained = self.ready.values().copied().collect();
            self.ready.clear();
            self.skipped.clear();
            self.next_deliver_seq = nic_seq_next;
            self.scan_next = nic_seq_next;
            self.ring_occupancy = 0;
            drained
        }
    }

    /// One step of a random delivery trace.
    #[derive(Debug, Clone)]
    enum Step {
        /// The next packet in arrival order retires (or is dropped).
        Arrive,
        /// A driver poll at `now` taking at most `max` packets.
        Take(u64, usize),
        /// Connection teardown.
        Teardown,
    }

    fn step_strategy() -> impl Strategy<Value = Step> {
        prop_oneof![
            6 => Just(Step::Arrive),
            4 => (0u64..120, 0usize..8).prop_map(|(now, max)| Step::Take(now, max)),
            1 => Just(Step::Teardown),
        ]
    }

    /// Delivery order, batch contents and bookkeeping of two buffers.
    fn same(rp: &[ReadyPkt], rr: &[ReadyPkt]) -> bool {
        rp.len() == rr.len()
            && rp.iter().zip(rr).all(|(a, b)| {
                (a.pkt.id, a.buf, a.ready, a.via_slow) == (b.pkt.id, b.buf, b.ready, b.via_slow)
            })
    }

    fn agree(f: &FlowState, r: &Reference) -> Result<(), TestCaseError> {
        prop_assert_eq!(f.next_deliver_seq, r.next_deliver_seq);
        prop_assert_eq!(f.ring_occupancy, r.ring_occupancy);
        prop_assert_eq!(f.ready_len(), r.ready.len());
        prop_assert_eq!(f.has_pending_work(), !r.ready.is_empty());
        prop_assert_eq!(
            f.first_ready().map(|(seq, rp)| (seq, rp.pkt.id)),
            r.ready.iter().next().map(|(&seq, rp)| (seq, rp.pkt.id))
        );
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Random arrival permutations of fast and slow packets — gaps,
        /// late fills, drops, polls at any time with any batch limit and
        /// teardowns with holes — observe no difference between the window
        /// and the ordered-map reference.
        #[test]
        fn window_matches_ordered_map_reference(
            pkts in prop::collection::vec(
                (0u64..100, any::<bool>(), 0u32..8, any::<u64>()),
                1..48,
            ),
            steps in prop::collection::vec(step_strategy(), 1..160)
        ) {
            // Arrival order: a permutation of the sequence numbers.
            let mut order: Vec<u64> = (0..pkts.len() as u64).collect();
            order.sort_by_key(|&seq| (pkts[seq as usize].3, seq));
            let mut arrivals = order.into_iter();
            let mut f = mk_flow(FlowClass::CpuInvolved);
            let mut r = Reference::default();
            for step in steps.iter().cloned().chain([Step::Take(u64::MAX, usize::MAX)]) {
                match step {
                    Step::Arrive => {
                        let Some(seq) = arrivals.next() else { continue };
                        while f.nic_seq_next <= seq {
                            f.take_seq();
                        }
                        prop_assert_eq!(f.is_stale(seq), seq < r.next_deliver_seq);
                        if f.is_stale(seq) {
                            continue;
                        }
                        let (ready, via_slow, fate, _) = pkts[seq as usize];
                        if fate == 0 {
                            f.skip(seq);
                            r.skip(seq);
                        } else {
                            let mut rp = ready_pkt(seq, 0, seq as u32, false, Time(ready));
                            rp.via_slow = via_slow;
                            f.insert_ready(seq, rp);
                            r.insert(seq, rp);
                        }
                    }
                    Step::Take(now, max) => {
                        let got = f.take_deliverable(Time(now), max);
                        let want = r.take_deliverable(Time(now), max);
                        prop_assert!(same(&got, &want), "batch {:?} != {:?}", got, want);
                    }
                    Step::Teardown => {
                        let (got, parked) = f.teardown_backlog();
                        let want = r.teardown_backlog(f.nic_seq_next);
                        prop_assert!(same(&got, &want), "drained {:?} != {:?}", got, want);
                        prop_assert_eq!(parked, 0);
                    }
                }
                agree(&f, &r)?;
            }
        }
    }
}
