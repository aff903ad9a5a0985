//! The span-recording wrappers must not change the simulation: every
//! trait method reaches the wrapped object (defaulted ones included, since
//! a wrapper that forgot one would silently run the default instead), and
//! a traced short run fingerprints identically to an untraced one.

use ceio_cpu::{AppWork, Application};
use ceio_host::{
    DrainRequest, HostConfig, HostState, IoPolicy, Machine, SteerDecision, UnmanagedPolicy,
};
use ceio_net::{FlowId, Packet, PacketId, Scenario};
use ceio_nic::QueueId;
use ceio_sim::{Duration, Time};
use ceio_telemetry::{FlightRecorder, SnapshotBuilder};
use simbench::report;
use simbench::run::{self, Profile};
use simbench::timed::{Hook, SpanSink, TimedApp, TimedPolicy};
use simbench::workloads::Workload;
use std::cell::RefCell;
use std::rc::Rc;

type Log = Rc<RefCell<Vec<&'static str>>>;

/// Logs every call and returns values no default implementation returns.
struct Recording(Log);

impl Recording {
    fn log(&self, m: &'static str) {
        self.0.borrow_mut().push(m);
    }
}

impl IoPolicy for Recording {
    fn name(&self) -> &'static str {
        self.log("name");
        "recording"
    }
    fn on_flow_start(&mut self, _: &mut HostState, _: Time, _: FlowId) {
        self.log("on_flow_start");
    }
    fn on_flow_stop(&mut self, _: &mut HostState, _: Time, _: FlowId) {
        self.log("on_flow_stop");
    }
    fn steer(&mut self, _: &mut HostState, _: Time, _: &Packet) -> SteerDecision {
        self.log("steer");
        SteerDecision::SlowPath { mark: true }
    }
    fn on_fast_drop(&mut self, _: &mut HostState, _: Time, _: FlowId) {
        self.log("on_fast_drop");
    }
    fn on_batch_consumed(&mut self, _: &mut HostState, _: Time, _: FlowId, _: u32, _: u32, _: u32) {
        self.log("on_batch_consumed");
    }
    fn on_driver_poll(&mut self, _: &mut HostState, _: Time, _: FlowId) -> DrainRequest {
        self.log("on_driver_poll");
        DrainRequest {
            fetch: 7,
            sync: true,
        }
    }
    fn on_slow_arrived(&mut self, _: &mut HostState, _: Time, _: FlowId, _: u32) {
        self.log("on_slow_arrived");
    }
    fn on_controller_poll(&mut self, _: &mut HostState, _: Time) {
        self.log("on_controller_poll");
    }
    fn controller_interval(&self) -> Option<Duration> {
        self.log("controller_interval");
        Some(Duration::micros(3))
    }
    fn on_queue_failed(&mut self, _: &mut HostState, _: Time, _: QueueId) {
        self.log("on_queue_failed");
    }
    fn on_queue_recovered(&mut self, _: &mut HostState, _: Time, _: QueueId) {
        self.log("on_queue_recovered");
    }
    fn fill_metrics(&self, _: &mut SnapshotBuilder) {
        self.log("fill_metrics");
    }
    fn scope_register(&self, _: &mut FlightRecorder) {
        self.log("scope_register");
    }
    fn scope_sample(&self, _: &mut FlightRecorder, _: Time) {
        self.log("scope_sample");
    }
}

fn packet() -> Packet {
    Packet {
        id: PacketId(1),
        flow: FlowId(0),
        bytes: 512,
        msg_id: 0,
        msg_seq: 0,
        msg_last: true,
        sent_at: Time::ZERO,
        arrived_nic: Time::ZERO,
        ecn: false,
    }
}

#[test]
fn timed_policy_forwards_every_method() {
    let log = Log::default();
    let spans = SpanSink::default();
    let mut p = TimedPolicy::new(Recording(Rc::clone(&log)), Rc::clone(&spans));
    // A machine only to own a HostState for the hooks.
    let mut sim = Machine::build(
        HostConfig::default(),
        UnmanagedPolicy,
        Scenario::new().build(),
        Box::new(|_| -> Box<dyn Application> { Box::new(RecordingApp(Log::default())) }),
    );
    let st = &mut sim.model.st;
    let (t, f, q) = (Time::ZERO, FlowId(0), QueueId::ZERO);
    let mut rec = FlightRecorder::new(Duration::micros(50), 8);

    assert_eq!(p.name(), "recording");
    p.on_flow_start(st, t, f);
    p.on_flow_stop(st, t, f);
    assert_eq!(
        p.steer(st, t, &packet()),
        SteerDecision::SlowPath { mark: true }
    );
    p.on_fast_drop(st, t, f);
    p.on_batch_consumed(st, t, f, 1, 2, 3);
    assert_eq!(
        p.on_driver_poll(st, t, f),
        DrainRequest {
            fetch: 7,
            sync: true
        }
    );
    p.on_slow_arrived(st, t, f, 4);
    p.on_controller_poll(st, t);
    assert_eq!(p.controller_interval(), Some(Duration::micros(3)));
    p.on_queue_failed(st, t, q);
    p.on_queue_recovered(st, t, q);
    p.fill_metrics(&mut SnapshotBuilder::new(t));
    p.scope_register(&mut rec);
    p.scope_sample(&mut rec, t);

    assert_eq!(
        *log.borrow(),
        [
            "name",
            "on_flow_start",
            "on_flow_stop",
            "steer",
            "on_fast_drop",
            "on_batch_consumed",
            "on_driver_poll",
            "on_slow_arrived",
            "on_controller_poll",
            "controller_interval",
            "on_queue_failed",
            "on_queue_recovered",
            "fill_metrics",
            "scope_register",
            "scope_sample",
        ]
    );
    let s = spans.borrow();
    for hook in Hook::ALL {
        assert_eq!(s.hook(hook).count(), 1, "{} timed once", hook.name());
    }
    assert_eq!((s.slow_steers, s.drain_requests), (1, 1));
}

/// Returns values no default implementation returns.
struct RecordingApp(Log);

impl Application for RecordingApp {
    fn name(&self) -> &str {
        self.0.borrow_mut().push("name");
        "recording-app"
    }
    fn process(&mut self, pkt: &Packet) -> AppWork {
        self.0.borrow_mut().push("process");
        AppWork {
            cpu: Duration::nanos(pkt.bytes),
            copy_bytes: 3,
            response_bytes: 5,
        }
    }
    fn zero_copy(&self) -> bool {
        self.0.borrow_mut().push("zero_copy");
        false
    }
}

#[test]
fn timed_app_forwards_every_method() {
    let log = Log::default();
    let spans = SpanSink::default();
    let mut app = TimedApp::new(Box::new(RecordingApp(Rc::clone(&log))), Rc::clone(&spans));
    assert_eq!(app.name(), "recording-app");
    assert_eq!(
        app.process(&packet()),
        AppWork {
            cpu: Duration::nanos(512),
            copy_bytes: 3,
            response_bytes: 5
        }
    );
    assert!(!app.zero_copy());
    assert_eq!(*log.borrow(), ["name", "process", "zero_copy"]);
    assert_eq!(spans.borrow().apps.count(), 1);
}

#[test]
fn traced_short_run_fingerprints_like_untraced_on_every_workload() {
    let spans = (Duration::micros(300), Duration::micros(500));
    for w in Workload::ALL {
        let plain = run::untraced(w, 1, spans);
        let mut prof = Profile::default();
        let traced = run::traced(w, 1, spans, &mut prof);
        assert_eq!(plain.outputs.conservation, Ok(()), "{}", w.name());
        assert_eq!(
            plain.outputs.fingerprint,
            traced.fingerprint,
            "{}: wrappers changed the outputs",
            w.name()
        );
        assert_eq!(plain.events, prof.events, "{}", w.name());
        assert!(
            prof.spans.borrow().apps.count() > 0,
            "{}: apps ran unwrapped",
            w.name()
        );
        // A different seed is a different input.
        assert_ne!(
            run::untraced(w, 2, spans).outputs.fingerprint,
            plain.outputs.fingerprint,
            "{}: the seed must reach the inputs",
            w.name()
        );
    }
}

#[test]
fn layer_counts_are_per_simulation() {
    let spans = (Duration::micros(300), Duration::micros(500));
    let (mut one, mut two) = (Profile::default(), Profile::default());
    run::traced(Workload::Kv, 1, spans, &mut one);
    for _ in 0..2 {
        run::traced(Workload::Kv, 1, spans, &mut two);
    }
    let counts = |p: &Profile| {
        report::layer_metrics(p, 1.0)
            .into_iter()
            .filter(|m| m.unit == "count")
            .map(|m| (m.name, m.value))
            .collect::<Vec<_>>()
    };
    let c = counts(&one);
    assert!(c.len() > 10 && c.iter().any(|(_, v)| *v > 0.0));
    assert_eq!(c, counts(&two));
}
