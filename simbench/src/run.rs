//! One simulation run, untraced or traced, and the checks on its outputs.
//!
//! The untraced run is the repository's own entry point
//! (`ceio_host::run_to_report`). The traced run replays that function
//! event by event so it can time the queue pop and each machine dispatch
//! separately; its modeled outputs must fingerprint identically.

use crate::timed::{SpanSink, TimedApp, TimedPolicy};
use crate::workloads::Workload;
use ceio_bench::runner::series_csv;
use ceio_host::{run_to_report, Event, IoPolicy, Machine, RunReport};
use ceio_sim::{Duration, Histogram, Model, Simulation, Time};
use ceio_telemetry::{MetricValue, Snapshot};
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

/// Snapshot counters folded into the fingerprint: modeled quantities of
/// every layer. Simulator-side counters (`ceio_sim_*`) are left out, so a
/// change that dispatches fewer events for the same model still matches.
const FINGERPRINT_COUNTERS: [&str; 18] = [
    "ceio_ingress_admitted_total",
    "ceio_ingress_dropped_total",
    "ceio_ingress_ecn_marked_total",
    "ceio_dctcp_loss_cuts_total",
    "ceio_rmt_matched_total",
    "ceio_fast_path_pkts_total",
    "ceio_slow_path_pkts_total",
    "ceio_dma_writes_total",
    "ceio_dma_reads_total",
    "ceio_pcie_transfers_total",
    "ceio_rxq_issued_total",
    "ceio_llc_hits_total",
    "ceio_llc_misses_total",
    "ceio_llc_evictions_total",
    "ceio_core_packets_total",
    "ceio_core_empty_polls_total",
    "ceio_dropped_total",
    "ceio_alert_fired_total",
];

/// The machine layers a dispatched event belongs to, named after the
/// `ceio-host` machine module that handles it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Emit`, `NicRx`: net link, DCTCP, NIC RMT (`machine/ingress.rs`).
    Ingress,
    /// `Pump`, `HostArrive`, `HostRetire`: PCIe, IIO, LLC (`machine/dma.rs`).
    Dma,
    /// `CorePoll`: driver poll and delivery (`machine/consume.rs`).
    Consume,
    /// `ScenarioStep`, `ControllerPoll`, `Watchdog` (`machine/control.rs`).
    Control,
    /// `Sample`: measurement windows.
    Measure,
    /// `Scope`: flight-recorder epochs.
    Scope,
}

impl Layer {
    /// Every layer, in index order.
    pub const ALL: [Layer; 6] = [
        Layer::Ingress,
        Layer::Dma,
        Layer::Consume,
        Layer::Control,
        Layer::Measure,
        Layer::Scope,
    ];

    /// Metric-name prefix.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Ingress => "host.ingress",
            Layer::Dma => "host.dma",
            Layer::Consume => "host.consume",
            Layer::Control => "host.control",
            Layer::Measure => "host.measure",
            Layer::Scope => "host.scope",
        }
    }

    /// The layer that handles `event`.
    pub fn of(event: &Event) -> Layer {
        match event {
            Event::Emit { .. } | Event::NicRx(_) => Layer::Ingress,
            Event::Pump(_) | Event::HostArrive(_) | Event::HostRetire(_) => Layer::Dma,
            Event::CorePoll(_) => Layer::Consume,
            Event::ScenarioStep(_) | Event::ControllerPoll | Event::Watchdog => Layer::Control,
            Event::Sample => Layer::Measure,
            Event::Scope => Layer::Scope,
        }
    }
}

/// What every run yields for the output checks.
#[derive(Debug, Clone)]
pub struct Outputs {
    /// FNV-1a fingerprint of the modeled outputs.
    pub fingerprint: u64,
    /// `Err` names the broken packet-conservation relation.
    pub conservation: Result<(), String>,
}

/// An untraced run: its host times and outputs.
#[derive(Debug, Clone)]
pub struct Untraced {
    /// Host seconds to generate inputs and build the simulation.
    pub setup_s: f64,
    /// Host seconds inside `run_to_report`.
    pub wall_s: f64,
    /// Events the run dispatched.
    pub events: u64,
    /// Output checks.
    pub outputs: Outputs,
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn hist_line(h: &Histogram) -> String {
    format!(
        "{} {} {} {} {}",
        h.count(),
        h.sum(),
        h.p50(),
        h.p99(),
        h.max()
    )
}

/// Fingerprint the modeled outputs of a finished run: the `ceio-trace`
/// CSV, the report totals and the [`FINGERPRINT_COUNTERS`].
pub fn fingerprint(report: &RunReport, snap: &Snapshot) -> u64 {
    let mut doc = series_csv(report);
    let _ = writeln!(
        doc,
        "{} {:?} {:?} {:?} {:?} {:?} {:?} {:?} {:?} {} {} {}",
        report.policy,
        report.measured,
        report.involved_mpps,
        report.involved_gbps,
        report.bypass_gbps,
        report.bypass_mpps,
        report.llc_miss_rate,
        report.fast_path_gbps,
        report.slow_path_gbps,
        report.dropped,
        report.slow_path_pkts,
        report.ordering_stalls,
    );
    for h in [
        &report.involved_latency,
        &report.bypass_latency,
        &report.fast_latency,
        &report.slow_latency,
    ] {
        let _ = writeln!(doc, "{}", hist_line(h));
    }
    for m in &snap.metrics {
        match m.value {
            MetricValue::Counter(v) if FINGERPRINT_COUNTERS.contains(&m.name.as_str()) => {
                let _ = writeln!(doc, "{}{:?} {v}", m.name, m.labels);
            }
            _ => {}
        }
    }
    let mut hash = 0xcbf2_9ce4_8422_2325;
    fnv1a(&mut hash, doc.as_bytes());
    hash
}

/// Packet conservation over every flow the run started: emitted ≥
/// accounted (delivered, dropped or discarded, lifetime) ≥ delivered +
/// dropped (measured window), and something was delivered.
pub fn conservation<P: IoPolicy>(m: &Machine<P>) -> Result<(), String> {
    let (mut emitted, mut accounted, mut delivered, mut dropped) = (0u64, 0u64, 0u64, 0u64);
    for f in m.st.flows.values() {
        emitted += f.gen.emitted();
        accounted += f.accounted;
        delivered += f.counters.consumed_pkts;
        dropped += f.counters.dropped;
    }
    if delivered == 0 {
        return Err("no packet was delivered".into());
    }
    if emitted < accounted || accounted < delivered + dropped {
        return Err(format!(
            "emitted {emitted}, accounted {accounted}, delivered {delivered} + dropped {dropped}"
        ));
    }
    Ok(())
}

fn outputs<P: IoPolicy>(m: &Machine<P>, report: &RunReport, snap: &Snapshot) -> Outputs {
    Outputs {
        fingerprint: fingerprint(report, snap),
        conservation: conservation(m),
    }
}

/// Build `workload` and run it once through `run_to_report` for the
/// simulated `(warmup, measure)` spans.
pub fn untraced(
    workload: Workload,
    seed: u64,
    (warmup, measure): (Duration, Duration),
) -> Untraced {
    let t0 = Instant::now();
    let mut sim = workload.build(seed, |p| p, |a| a);
    let setup_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let report = run_to_report(&mut sim, warmup, measure);
    let wall_s = t0.elapsed().as_secs_f64();
    let snap = sim.model.snapshot(Time::ZERO + warmup + measure);
    Untraced {
        setup_s,
        wall_s,
        events: sim.queue.dispatched_total(),
        outputs: outputs(&sim.model, &report, &snap),
    }
}

/// Per-layer host time accumulated over the traced runs of one process.
#[derive(Debug)]
pub struct Profile {
    /// Policy and app spans, written by the wrappers.
    pub spans: SpanSink,
    /// `pop_before` durations (the `sim` layer).
    pub pop: Histogram,
    /// Self time per dispatched event, indexed by `Layer as usize`.
    pub layers: Vec<Histogram>,
    /// `CorePoll` dispatches that delivered at least one packet.
    pub useful_polls: u64,
    /// Packets delivered inside `CorePoll` dispatches.
    pub polled_pkts: u64,
    /// Traced runs accumulated.
    pub runs: u64,
    /// Host nanoseconds inside the replay loops.
    pub wall_ns: u128,
    /// Events dispatched, summed over runs.
    pub events: u64,
    /// Event-queue high-water mark of the last run.
    pub queue_peak: u64,
    /// Timers cancelled, summed over runs.
    pub timers_cancelled: u64,
    /// `ceio_llc_miss_rate` of the last run's snapshot.
    pub llc_miss_rate: f64,
    /// `ceio_llc_evictions_total`, summed over runs.
    pub llc_evictions: u64,
    /// `ceio_dma_writes_total`, summed over runs.
    pub dma_writes: u64,
    /// Host ms per run spent in `Machine::snapshot` plus `to_prom_text`.
    pub snapshot_ms: Vec<f64>,
}

impl Default for Profile {
    fn default() -> Profile {
        Profile {
            spans: SpanSink::default(),
            pop: Histogram::new(),
            layers: Layer::ALL.iter().map(|_| Histogram::new()).collect(),
            useful_polls: 0,
            polled_pkts: 0,
            runs: 0,
            wall_ns: 0,
            events: 0,
            queue_peak: 0,
            timers_cancelled: 0,
            llc_miss_rate: 0.0,
            llc_evictions: 0,
            dma_writes: 0,
            snapshot_ms: Vec::new(),
        }
    }
}

fn ns_between(a: Instant, b: Instant) -> u64 {
    u64::try_from(b.duration_since(a).as_nanos()).unwrap_or(u64::MAX)
}

fn delivered<P: IoPolicy>(m: &Machine<P>) -> u64 {
    m.st.meas.fast_path_pkts + m.st.meas.slow_path_pkts
}

/// Dispatch every event before `horizon`, as `Simulation::run_until`
/// does, timing the pop and the handler of each.
///
/// Spans are contiguous (two clock reads per event), so the loop's own
/// bookkeeping for the previous event lands in the `sim` span of the
/// next: `sim` is an upper bound on the queue's cost, and the layers
/// together cover the whole loop.
fn replay<P: IoPolicy>(sim: &mut Simulation<Machine<P>>, horizon: Time, prof: &mut Profile) {
    let mut t0 = Instant::now();
    while let Some(entry) = sim.queue.pop_before(horizon) {
        let t1 = Instant::now();
        let layer = Layer::of(&entry.event);
        let before = if layer == Layer::Consume {
            delivered(&sim.model)
        } else {
            0
        };
        <Machine<P> as Model>::handle(&mut sim.model, entry.at, entry.event, &mut sim.queue);
        let t2 = Instant::now();
        let child = std::mem::take(&mut prof.spans.borrow_mut().child_ns);
        prof.pop.record(ns_between(t0, t1));
        prof.layers[layer as usize].record(ns_between(t1, t2).saturating_sub(child));
        if layer == Layer::Consume {
            let got = delivered(&sim.model) - before;
            prof.polled_pkts += got;
            prof.useful_polls += u64::from(got > 0);
        }
        t0 = t2;
    }
}

fn counter(snap: &Snapshot, name: &str) -> u64 {
    snap.metrics
        .iter()
        .filter(|m| m.name == name)
        .map(|m| m.value.as_u64())
        .sum()
}

/// Build `workload` with span-recording wrappers, replay
/// `run_to_report` for the simulated `(warmup, measure)` spans, and add
/// its spans to `prof`.
pub fn traced(
    workload: Workload,
    seed: u64,
    (warmup, measure): (Duration, Duration),
    prof: &mut Profile,
) -> Outputs {
    let spans = Rc::clone(&prof.spans);
    let app_spans = Rc::clone(&prof.spans);
    let mut sim = workload.build(
        seed,
        |p| TimedPolicy::new(p, spans),
        move |a| Box::new(TimedApp::new(a, Rc::clone(&app_spans))),
    );
    prof.spans.borrow_mut().child_ns = 0;
    let t_warm = Time::ZERO + warmup;
    let t_end = t_warm + measure;
    let t0 = Instant::now();
    replay(&mut sim, t_warm, prof);
    sim.model.st.reset_measurements(t_warm);
    replay(&mut sim, t_end, prof);
    let name = sim.model.policy.name();
    let report = sim.model.st.report(t_end, name);
    let wall = t0.elapsed();

    let t0 = Instant::now();
    let snap = sim.model.snapshot(t_end);
    std::hint::black_box(snap.to_prom_text());
    prof.snapshot_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    let outputs = outputs(&sim.model, &report, &snap);

    prof.runs += 1;
    prof.wall_ns += wall.as_nanos();
    prof.events += sim.queue.dispatched_total();
    prof.queue_peak = sim.queue.peak_pending() as u64;
    prof.timers_cancelled += sim.queue.cancelled_total();
    prof.llc_evictions += counter(&snap, "ceio_llc_evictions_total");
    prof.dma_writes += counter(&snap, "ceio_dma_writes_total");
    prof.llc_miss_rate = snap
        .metrics
        .iter()
        .filter(|m| m.name == "ceio_llc_miss_rate")
        .find_map(|m| match m.value {
            MetricValue::Gauge(v) => Some(v),
            _ => None,
        })
        .unwrap_or(0.0);
    outputs
}
