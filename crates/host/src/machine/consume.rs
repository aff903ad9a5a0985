//! Consumption handlers: driver polls and in-order application delivery
//! (`CorePoll`), plus the slow-path DMA-read fetch they drive.

use crate::flowstate::{ReadyPkt, SlowPkt};
use crate::policy::IoPolicy;
use crate::rxq::PendingDma;
#[cfg(feature = "chaos")]
use ceio_chaos::FaultSite;
use ceio_net::{FlowClass, FlowId};
use ceio_pcie::DmaError;
use ceio_sim::{EventQueue, Time};
use ceio_telemetry::{Stage, TraceKind};

use super::{Event, Machine};

impl<P: IoPolicy> Machine<P> {
    pub(super) fn schedule_poll(&mut self, queue: &mut EventQueue<Event>, at: Time, core: usize) {
        if !self.st.core_svc[core].poll_queued {
            self.st.core_svc[core].poll_queued = true;
            queue.schedule_at(at.max(queue.now()), Event::CorePoll(core));
        }
    }

    /// Execute a slow-path fetch of up to `fetch` packets for `flow`.
    /// Returns the host-arrival instant plus the fetched batch (the caller
    /// schedules the `HostArrive` events), or `None` if nothing was fetched.
    fn do_slow_fetch(
        &mut self,
        now: Time,
        flow: FlowId,
        fetch: u32,
    ) -> Option<(Time, Vec<SlowPkt>)> {
        // Retry-backoff gate: a transiently-faulted read is retried at the
        // next driver poll after the backoff elapses. Parked packets stay
        // parked — the slow path never drops on read faults.
        if self.st.read_backoff_until > now {
            return None;
        }
        let f = self.st.flows.get_mut(&flow)?;
        let mut batch: Vec<SlowPkt> = Vec::new();
        let mut total = 0u64;
        while batch.len() < fetch as usize {
            match f.slow_queue.front() {
                Some(sp) if sp.ready_at_nic <= now => {
                    total += sp.pkt.bytes;
                    batch.push(
                        f.slow_queue
                            .pop_front()
                            .expect("invariant: loop guard ensured `slow_queue` is non-empty"),
                    );
                }
                _ => break,
            }
        }
        if batch.is_empty() {
            return None;
        }
        match self.st.dma.try_read_request(now) {
            Ok(at_nic) => {
                self.st.read_attempts = 0;
                let f = self
                    .st
                    .flows
                    .get_mut(&flow)
                    .expect("invariant: flow presence was checked earlier in this handler");
                f.slow_fetch_inflight += batch.len() as u32;
                let data_ready = self.st.onboard.read(at_nic, total);
                let at_host = self.st.dma.read_completion(data_ready, total);
                self.st
                    .trace_event(now, Some(flow.0), TraceKind::SlowFetch, batch.len() as u64);
                for sp in &batch {
                    self.st.trace_stage(
                        Some(flow.0),
                        Stage::SlowResidency,
                        now.since(sp.pkt.arrived_nic),
                    );
                }
                Some((at_host, batch))
            }
            Err(err) => {
                // Transient fault: arm a retry backoff before the next
                // driver poll may reissue. Credit stalls simply wait for a
                // read completion; either way the batch returns to the
                // queue, in order, and nothing is lost.
                if err.is_transient_fault() {
                    self.st.read_attempts += 1;
                    let timed_out = matches!(err, DmaError::ReadTimeout | DmaError::WriteTimeout);
                    let attempt = self.st.read_attempts;
                    let backoff = self.st.retry_backoff(attempt, timed_out);
                    self.st.recovery.dma_read_retries += 1;
                    self.st.recovery.dma_backoff_ns += backoff.as_nanos();
                    self.st.read_backoff_until = now + backoff;
                    self.st
                        .trace_event(now, Some(flow.0), TraceKind::DmaRetry, backoff.as_nanos());
                }
                let f = self
                    .st
                    .flows
                    .get_mut(&flow)
                    .expect("invariant: flow presence was checked earlier in this handler");
                for sp in batch.into_iter().rev() {
                    f.slow_queue.push_front(sp);
                }
                None
            }
        }
    }

    /// Intern and schedule the host arrivals of a fetched slow-path batch.
    fn schedule_slow_arrivals(
        &mut self,
        at_host: Time,
        fetched: Vec<SlowPkt>,
        queue: &mut EventQueue<Event>,
    ) {
        for sp in fetched {
            let buf = self.st.alloc_buf();
            let did = self.st.slabs.intern_dma(PendingDma {
                pkt: sp.pkt,
                buf,
                nic_seq: sp.nic_seq,
                via_slow: true,
                queue: 0,
            });
            queue.schedule_at(at_host, Event::HostArrive(did));
        }
    }

    /// Drop finished-and-drained flows from `core`'s service list and
    /// re-record the slots of the flows that remain.
    fn prune_service_list(&mut self, core: usize) {
        let flows = &self.st.flows;
        self.st.core_svc[core].retain(|id| {
            flows
                .get(&id)
                .map(|f| f.active || f.has_pending_work())
                .unwrap_or(false)
        });
        let mut stopped = 0;
        for (slot, id) in self.st.core_svc[core].flows().iter().enumerate() {
            if let Some(f) = self.st.flows.get_mut(id) {
                // A flow id restarted on another core keeps that core's slot.
                if f.core == core {
                    f.slot = slot;
                }
                stopped += usize::from(!f.active);
            }
        }
        self.st.core_svc[core].stopped = stopped;
    }

    /// Clear `slot`'s readiness mark once its flow has no local backlog
    /// (the lazy half of the readiness index).
    fn clear_if_idle(&mut self, core: usize, slot: usize, flow: FlowId) {
        let idle = self
            .st
            .flows
            .get(&flow)
            .is_none_or(|f| f.ready_len() == 0 && f.slow_queue.is_empty());
        if idle {
            self.st.core_svc[core].unmark(slot);
        }
    }

    pub(super) fn on_core_poll(&mut self, now: Time, core: usize, queue: &mut EventQueue<Event>) {
        self.st.core_svc[core].poll_queued = false;
        // Injected consumer pause: the driver thread is descheduled for a
        // while (GC pause, noisy neighbour). The poll is deferred — rings
        // and the slow path back up, exercising the backpressure path.
        #[cfg(feature = "chaos")]
        {
            let pause = self.st.chaos.as_mut().and_then(|ch| {
                ch.injector
                    .fire(FaultSite::ConsumerPause)
                    .then(|| ch.injector.plan().consumer_pause)
            });
            if let Some(pause) = pause {
                self.st.recovery.consumer_pauses += 1;
                self.st.recovery.consumer_pause_ns += pause.as_nanos();
                self.st
                    .trace_event(now, None, TraceKind::ConsumerPause, pause.as_nanos());
                self.schedule_poll(queue, now + pause, core);
                return;
            }
        }
        if self.st.core_svc[core].stopped > 0 {
            self.prune_service_list(core);
        }
        let n = self.st.core_svc[core].len();
        if n == 0 {
            return;
        }

        // Round-robin across the flows this core serves; the first flow
        // with deliverable work gets this poll's batch. Delivery always
        // precedes new slow-path fetches: a blocking recv() returns the
        // data that already landed before it issues (and waits on) another
        // DMA read, otherwise a busy slow path would starve the consumer.
        //
        // Only slots marked in the readiness index are visited, from the
        // cursor onwards and wrapping. An unmarked flow has no local
        // backlog: it could only yield an empty batch, no ordering stall
        // and no drain (the `on_driver_poll` contract), so skipping it
        // picks the same flow the full scan over every slot would.
        let start = self.st.core_svc[core].rr % n;
        let mut selected: Option<(FlowId, Vec<ReadyPkt>, FlowClass)> = None;
        let mut sync_stall: Option<Time> = None;
        'scan: for (lo, hi) in [(start, n), (0, start)] {
            let mut from = lo;
            while let Some(slot) = self.st.core_svc[core].next_marked(from, hi) {
                from = slot + 1;
                let flow_id = self.st.core_svc[core].flow(slot);
                let batch_size = self.st.cfg.cpu.batch_size;
                let (batch, gap_stall, class) = {
                    let f = self
                        .st
                        .flows
                        .get_mut(&flow_id)
                        .expect("invariant: every listed flow has state in `self.st.flows`");
                    let batch = f.take_deliverable(now, batch_size);
                    let gap_stall = batch.is_empty()
                        && f.first_ready()
                            .is_some_and(|(seq, rp)| seq != f.next_deliver_seq && rp.ready <= now);
                    (batch, gap_stall, f.spec.class)
                };
                if !batch.is_empty() {
                    // async_recv() overlap: kick the next slow-path fetch
                    // while this batch is processed (§4.2).
                    let drain = self.policy.on_driver_poll(&mut self.st, now, flow_id);
                    if drain.fetch > 0 && !drain.sync {
                        if let Some((at_host, fetched)) =
                            self.do_slow_fetch(now, flow_id, drain.fetch)
                        {
                            self.schedule_slow_arrivals(at_host, fetched, queue);
                        }
                    }
                    self.clear_if_idle(core, slot, flow_id);
                    self.st.core_svc[core].rr = (slot + 1) % n;
                    selected = Some((flow_id, batch, class));
                    break 'scan;
                }
                if gap_stall {
                    self.st.ordering_stalls += 1;
                }
                // Nothing deliverable: drain the slow path (blocking recv()
                // stalls the core until the fetch lands).
                let drain = self.policy.on_driver_poll(&mut self.st, now, flow_id);
                if drain.fetch > 0 {
                    if let Some((at_host, fetched)) = self.do_slow_fetch(now, flow_id, drain.fetch)
                    {
                        self.schedule_slow_arrivals(at_host, fetched, queue);
                        if drain.sync {
                            sync_stall = Some(at_host);
                        }
                    }
                }
                self.clear_if_idle(core, slot, flow_id);
                if sync_stall.is_some() {
                    break 'scan;
                }
            }
        }

        let Some((flow_id, batch, class)) = selected else {
            self.st.cores[core].count_poll(false);
            let next = match sync_stall {
                Some(t) => t.max(now + self.st.cfg.cpu.poll_interval),
                None => now + self.st.cfg.cpu.poll_interval,
            };
            self.schedule_poll(queue, next, core);
            return;
        };

        self.st.cores[core].count_poll(true);
        // Resolve the flow's state and app once per batch; nothing below
        // starts or stops a flow, so their positions hold for the loop.
        let flow_slot = self
            .st
            .flows
            .slot(&flow_id)
            .expect("invariant: the selected flow is listed, so it has state");
        let app_slot = self
            .st
            .apps
            .slot(&flow_id)
            .expect("invariant: every flow gets an app at Machine::build time");
        let mut t = now;
        let mut fast = 0u32;
        let mut slow = 0u32;
        let mut msgs = 0u32;
        for rp in &batch {
            // DRAM traffic of the whole batch is issued at poll start (the
            // driver prefetches descriptors/buffers ahead of the consuming
            // loop); the core still stalls for whatever has not arrived by
            // the time it reaches this packet. Charging at `now` also keeps
            // the DRAM server timeline causal across concurrent events.
            //
            // A demand miss stalls the core for at least the DRAM load
            // latency — payload reads are not software-prefetched — plus
            // whatever queueing the shared DRAM server has not drained by
            // the time the core reaches this packet (§2.2's extra cycles).
            // Slow-path buffers were retired uncached and are read from
            // DRAM, without touching the DDIO partition's statistics. They
            // are *streamed*: the driver knows the exact addresses the DMA
            // read just filled and prefetches them, so only DRAM bandwidth
            // and queueing are charged, not the demand-miss latency floor.
            let mem_stall = if rp.via_slow {
                let ready = self.st.memctrl.read_uncached(now, rp.pkt.bytes);
                ready.since(t)
            } else {
                let read = self.st.memctrl.cpu_read(now, rp.buf, rp.pkt.bytes);
                if read.hit {
                    read.ready.since(t)
                } else {
                    read.ready.since(t).max(self.st.cfg.mem.dram_base_latency)
                }
            };
            let work = self.st.apps.at_mut(app_slot).process(&rp.pkt);
            let mut dur = self.st.cfg.cpu.per_packet_overhead + mem_stall + work.cpu;
            if work.copy_bytes > 0 {
                self.st.memctrl.app_copy(now, work.copy_bytes);
                dur += self.st.cfg.copy_time(work.copy_bytes);
            }
            t = self.st.cores[core].run(t, dur);
            self.st.memctrl.consume(rp.buf);
            self.st.cores[core].count_packet();
            if rp.pkt.msg_last {
                msgs += 1;
            }
            self.st
                .trace_stage(Some(flow_id.0), Stage::RingWait, now.since(rp.ready));
            if rp.via_slow {
                slow += 1;
                self.st
                    .slow_latency
                    .record_duration(t.since(rp.pkt.sent_at));
                self.st
                    .trace_event(t, Some(flow_id.0), TraceKind::SlowDrain, rp.pkt.bytes);
            } else {
                fast += 1;
                self.st
                    .fast_latency
                    .record_duration(t.since(rp.pkt.sent_at));
                self.st
                    .trace_event(t, Some(flow_id.0), TraceKind::Delivery, rp.pkt.bytes);
            }
            self.st
                .meas
                .record_delivery(class, rp.pkt.bytes, rp.via_slow);
            let f = self.st.flows.at_mut(flow_slot);
            f.latency.record_duration(t.since(rp.pkt.sent_at));
            f.accounted += 1;
            f.counters.consumed_pkts += 1;
            f.counters.consumed_bytes += rp.pkt.bytes;
            if rp.pkt.msg_last {
                f.counters.msgs_completed += 1;
            }
        }
        // Head-pointer MMIO update closes the batch (lazy release point).
        t = self.st.cores[core].run(t, self.st.cfg.cpu.head_update);
        self.policy
            .on_batch_consumed(&mut self.st, t, flow_id, fast, slow, msgs);
        self.schedule_poll(queue, t, core);
    }
}
