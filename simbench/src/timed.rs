//! Span-recording wrappers around the two plug-in layers the machine calls
//! into: the I/O policy ([`TimedPolicy`]) and each flow's application
//! ([`TimedApp`]).
//!
//! Both forward every trait method unchanged (the wrappers test pins
//! this) and add the wall time of the timed calls to a shared [`Spans`]
//! sink. The sink also keeps `child_ns`, the policy and app time spent
//! inside the machine event being dispatched, which the traced replay
//! loop subtracts from that event's span to get the host layer's self
//! time.

use ceio_cpu::{AppWork, Application};
use ceio_host::{DrainRequest, HostState, IoPolicy, SteerDecision};
use ceio_net::{FlowId, Packet};
use ceio_nic::QueueId;
use ceio_sim::{Duration, Histogram, Time};
use ceio_telemetry::{FlightRecorder, SnapshotBuilder};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// The policy hooks [`TimedPolicy`] times: every hook the machine calls
/// with `&mut HostState` during a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hook {
    /// `IoPolicy::steer`.
    Steer,
    /// `IoPolicy::on_batch_consumed`.
    OnBatchConsumed,
    /// `IoPolicy::on_driver_poll`.
    OnDriverPoll,
    /// `IoPolicy::on_controller_poll`.
    OnControllerPoll,
    /// `IoPolicy::on_slow_arrived`.
    OnSlowArrived,
    /// `IoPolicy::on_flow_start`.
    OnFlowStart,
    /// `IoPolicy::on_flow_stop`.
    OnFlowStop,
    /// `IoPolicy::on_fast_drop`.
    OnFastDrop,
    /// `IoPolicy::on_queue_failed`.
    OnQueueFailed,
    /// `IoPolicy::on_queue_recovered`.
    OnQueueRecovered,
}

impl Hook {
    /// Every timed hook, in index order.
    pub const ALL: [Hook; 10] = [
        Hook::Steer,
        Hook::OnBatchConsumed,
        Hook::OnDriverPoll,
        Hook::OnControllerPoll,
        Hook::OnSlowArrived,
        Hook::OnFlowStart,
        Hook::OnFlowStop,
        Hook::OnFastDrop,
        Hook::OnQueueFailed,
        Hook::OnQueueRecovered,
    ];

    /// The hooks reported one by one; the rest only count towards
    /// `policy.share`.
    pub const REPORTED: [Hook; 5] = [
        Hook::Steer,
        Hook::OnBatchConsumed,
        Hook::OnDriverPoll,
        Hook::OnControllerPoll,
        Hook::OnSlowArrived,
    ];

    /// The trait method's name, used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Hook::Steer => "steer",
            Hook::OnBatchConsumed => "on_batch_consumed",
            Hook::OnDriverPoll => "on_driver_poll",
            Hook::OnControllerPoll => "on_controller_poll",
            Hook::OnSlowArrived => "on_slow_arrived",
            Hook::OnFlowStart => "on_flow_start",
            Hook::OnFlowStop => "on_flow_stop",
            Hook::OnFastDrop => "on_fast_drop",
            Hook::OnQueueFailed => "on_queue_failed",
            Hook::OnQueueRecovered => "on_queue_recovered",
        }
    }
}

/// Spans recorded by the wrappers, kept in memory as histograms of
/// nanoseconds per call.
#[derive(Debug, Clone)]
pub struct Spans {
    /// Per-hook call durations, indexed by `Hook as usize`.
    pub hooks: Vec<Histogram>,
    /// `Application::process` call durations.
    pub apps: Histogram,
    /// Policy plus app nanoseconds since the replay loop last took it.
    pub child_ns: u64,
    /// `on_driver_poll` calls that asked for a slow-path drain.
    pub drain_requests: u64,
    /// `steer` decisions that chose the slow path.
    pub slow_steers: u64,
}

impl Default for Spans {
    fn default() -> Spans {
        Spans {
            hooks: Hook::ALL.iter().map(|_| Histogram::new()).collect(),
            apps: Histogram::new(),
            child_ns: 0,
            drain_requests: 0,
            slow_steers: 0,
        }
    }
}

impl Spans {
    /// The call-duration histogram of one hook.
    pub fn hook(&self, hook: Hook) -> &Histogram {
        &self.hooks[hook as usize]
    }

    /// Total nanoseconds across every policy hook.
    pub fn policy_ns(&self) -> u128 {
        self.hooks.iter().map(Histogram::sum).sum()
    }
}

/// Shared handle to the span sink (the machine owns the wrappers, the
/// replay loop reads the sink).
pub type SpanSink = Rc<RefCell<Spans>>;

fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// An [`IoPolicy`] that forwards to `inner` and times each run-time hook.
pub struct TimedPolicy<P> {
    inner: P,
    spans: SpanSink,
}

impl<P> TimedPolicy<P> {
    /// Wrap `inner`, recording into `spans`.
    pub fn new(inner: P, spans: SpanSink) -> TimedPolicy<P> {
        TimedPolicy { inner, spans }
    }

    fn record(&self, hook: Hook, t0: Instant) {
        let ns = elapsed_ns(t0);
        let mut s = self.spans.borrow_mut();
        s.child_ns += ns;
        s.hooks[hook as usize].record(ns);
    }
}

impl<P: IoPolicy> IoPolicy for TimedPolicy<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn on_flow_start(&mut self, st: &mut HostState, now: Time, flow: FlowId) {
        let t0 = Instant::now();
        self.inner.on_flow_start(st, now, flow);
        self.record(Hook::OnFlowStart, t0);
    }
    fn on_flow_stop(&mut self, st: &mut HostState, now: Time, flow: FlowId) {
        let t0 = Instant::now();
        self.inner.on_flow_stop(st, now, flow);
        self.record(Hook::OnFlowStop, t0);
    }
    fn steer(&mut self, st: &mut HostState, now: Time, pkt: &Packet) -> SteerDecision {
        let t0 = Instant::now();
        let d = self.inner.steer(st, now, pkt);
        self.record(Hook::Steer, t0);
        if matches!(d, SteerDecision::SlowPath { .. }) {
            self.spans.borrow_mut().slow_steers += 1;
        }
        d
    }
    fn on_batch_consumed(
        &mut self,
        st: &mut HostState,
        now: Time,
        flow: FlowId,
        fast_pkts: u32,
        slow_pkts: u32,
        msgs: u32,
    ) {
        let t0 = Instant::now();
        self.inner
            .on_batch_consumed(st, now, flow, fast_pkts, slow_pkts, msgs);
        self.record(Hook::OnBatchConsumed, t0);
    }
    fn on_fast_drop(&mut self, st: &mut HostState, now: Time, flow: FlowId) {
        let t0 = Instant::now();
        self.inner.on_fast_drop(st, now, flow);
        self.record(Hook::OnFastDrop, t0);
    }
    fn on_driver_poll(&mut self, st: &mut HostState, now: Time, flow: FlowId) -> DrainRequest {
        let t0 = Instant::now();
        let d = self.inner.on_driver_poll(st, now, flow);
        self.record(Hook::OnDriverPoll, t0);
        if d.fetch > 0 {
            self.spans.borrow_mut().drain_requests += 1;
        }
        d
    }
    fn on_slow_arrived(&mut self, st: &mut HostState, now: Time, flow: FlowId, pkts: u32) {
        let t0 = Instant::now();
        self.inner.on_slow_arrived(st, now, flow, pkts);
        self.record(Hook::OnSlowArrived, t0);
    }
    fn on_controller_poll(&mut self, st: &mut HostState, now: Time) {
        let t0 = Instant::now();
        self.inner.on_controller_poll(st, now);
        self.record(Hook::OnControllerPoll, t0);
    }
    fn controller_interval(&self) -> Option<Duration> {
        self.inner.controller_interval()
    }
    fn on_queue_failed(&mut self, st: &mut HostState, now: Time, queue: QueueId) {
        let t0 = Instant::now();
        self.inner.on_queue_failed(st, now, queue);
        self.record(Hook::OnQueueFailed, t0);
    }
    fn on_queue_recovered(&mut self, st: &mut HostState, now: Time, queue: QueueId) {
        let t0 = Instant::now();
        self.inner.on_queue_recovered(st, now, queue);
        self.record(Hook::OnQueueRecovered, t0);
    }
    fn fill_metrics(&self, out: &mut SnapshotBuilder) {
        self.inner.fill_metrics(out)
    }
    fn scope_register(&self, rec: &mut FlightRecorder) {
        self.inner.scope_register(rec)
    }
    fn scope_sample(&self, rec: &mut FlightRecorder, now: Time) {
        self.inner.scope_sample(rec, now)
    }
}

/// An [`Application`] that forwards to `inner` and times `process`.
pub struct TimedApp {
    inner: Box<dyn Application>,
    spans: SpanSink,
}

impl TimedApp {
    /// Wrap `inner`, recording into `spans`.
    pub fn new(inner: Box<dyn Application>, spans: SpanSink) -> TimedApp {
        TimedApp { inner, spans }
    }
}

impl Application for TimedApp {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn process(&mut self, pkt: &Packet) -> AppWork {
        let t0 = Instant::now();
        let w = self.inner.process(pkt);
        let ns = elapsed_ns(t0);
        let mut s = self.spans.borrow_mut();
        s.child_ns += ns;
        s.apps.record(ns);
        w
    }
    fn zero_copy(&self) -> bool {
        self.inner.zero_copy()
    }
}
