//! Per-flow runtime state inside the host machine.
//!
//! Each flow owns a sender (generator + DCTCP), a host RX ring, a slow-path
//! queue in on-NIC memory, and an **ordered delivery buffer**: packets are
//! stamped with a per-flow NIC-arrival sequence number and the driver only
//! releases the next-in-sequence packet to the application — the software
//! ring contract of §4.2 without per-packet sorting (in-order arrivals pop
//! in O(1); a gap simply waits).

use ceio_mem::BufferId;
use ceio_net::{Dctcp, FlowClass, FlowSpec, Packet, TrafficGen};
use ceio_sim::{Histogram, Time, TimerToken};
use std::collections::{BTreeMap, VecDeque};

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
    /// Next sequence number the boundary scan will examine (everything
    /// below is known-contiguous in `ready` or already delivered).
    scan_next: u64,
    /// Exclusive upper bound of message-complete delivery (one past the
    /// last in-order `msg_last` packet seen by the scan).
    msg_boundary: u64,
    /// Retired packets keyed by sequence number (ordered delivery buffer).
    pub ready: BTreeMap<u64, ReadyPkt>,
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
            scan_next: 0,
            msg_boundary: 0,
            ready: BTreeMap::new(),
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

    /// Collect the deliverable batch at `now`: the in-sequence prefix of
    /// `ready` whose data is readable, at most `max` packets.
    ///
    /// Delivery is per-packet for both flow classes — LineFS-style bypass
    /// consumers pipeline on arriving data. The write-with-immediate
    /// message granularity matters to *credit visibility*, which the CEIO
    /// policy models through the `msgs` count of its batch-consumed hook,
    /// not to buffer recycling.
    ///
    /// Returns the packets removed from the buffer, in delivery order.
    pub fn take_deliverable(&mut self, now: Time, max: usize) -> Vec<ReadyPkt> {
        // Advance the boundary scan over the contiguous in-order prefix.
        // Packets are inserted into `ready` at the instant they become
        // readable, so a present entry is always readable at a later poll.
        while let Some(rp) = self.ready.get(&self.scan_next) {
            if rp.pkt.msg_last {
                self.msg_boundary = self.scan_next + 1;
            }
            self.scan_next += 1;
        }
        let limit = self.scan_next;

        let mut out: Vec<ReadyPkt> = Vec::new();
        while out.len() < max && self.next_deliver_seq < limit {
            match self.ready.get(&self.next_deliver_seq) {
                Some(rp) if rp.ready <= now => {
                    let rp = *rp;
                    self.ready.remove(&self.next_deliver_seq);
                    self.next_deliver_seq += 1;
                    // Slow-path packets never held a fast-ring descriptor.
                    if !rp.via_slow {
                        debug_assert!(self.ring_occupancy > 0);
                        self.ring_occupancy = self.ring_occupancy.saturating_sub(1);
                    }
                    out.push(rp);
                }
                _ => break,
            }
        }
        out
    }

    /// Connection teardown: clear all undelivered backlog. Returns the
    /// ready packets (whose host buffers the caller must free) and the
    /// total bytes parked in on-NIC memory (to discard there). Packets
    /// still in DMA flight are skipped on arrival because their sequence
    /// numbers fall below the advanced delivery pointer.
    pub fn teardown_backlog(&mut self) -> (Vec<ReadyPkt>, u64) {
        let drained: Vec<ReadyPkt> = self.ready.values().copied().collect();
        self.accounted += drained.len() as u64 + self.slow_queue.len() as u64;
        self.ready.clear();
        self.next_deliver_seq = self.nic_seq_next;
        self.scan_next = self.nic_seq_next;
        self.msg_boundary = self.nic_seq_next;
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
        !self.ready.is_empty()
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
        let seq = rp.pkt.id.0;
        f.ready.insert(seq, rp);
        f.ring_occupancy += 1;
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
    fn pending_work_detection() {
        let mut f = mk_flow(FlowClass::CpuInvolved);
        assert!(!f.has_pending_work());
        f.slow_fetch_inflight = 1;
        assert!(f.has_pending_work());
        f.slow_fetch_inflight = 0;
        insert(&mut f, ready_pkt(0, 0, 0, false, Time(0)));
        assert!(f.has_pending_work());
    }
}
