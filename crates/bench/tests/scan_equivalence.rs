//! Regression pins for the driver-poll scan (`CorePoll`): which flow a
//! core serves on each poll decides delivery order, empty-poll counts,
//! ordering stalls and every series the run reports, so any change to how
//! a core picks its next flow shows up here as a moved value.
//!
//! Five short scenarios cover the scan's distinct paths: a Fig. 12-style
//! hopping run (many registered flows on few shared cores, few active), a
//! dedicated-core run whose flows stop and restart (service-list pruning
//! and core reuse), a dedicated-core run whose flows end on their own at
//! `FlowSpec::stop` before new ones start, a 4-queue run, and a
//! slow-path-heavy run on shared cores with blocking `recv()` (the
//! sync-stall break). The expected
//! values were recorded from the full per-poll scan over every registered
//! flow, which the readiness index replaced.

use ceio_bench::runner::{run_one_keep, series_csv, AnyPolicy, PolicyKind};
use ceio_bench::workloads::{self, AppKind, SendAppFactory, Transport};
use ceio_core::{CeioConfig, CeioPolicy};
use ceio_host::{run_to_report, HostConfig, Machine, RunReport};
use ceio_net::{FlowClass, FlowSpec, Scenario};
use ceio_sim::{Duration, Simulation, Time};

/// FNV-1a over a byte stream.
fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn fnv_u64s(vals: &[u64]) -> u64 {
    fnv(vals.iter().flat_map(|v| v.to_le_bytes()))
}

/// What a run is pinned by. Per-core empty polls and per-flow consumed
/// packets are pinned exactly through their totals plus an FNV-1a hash of
/// the full vectors (core order, flow-id order).
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    empty_polls: u64,
    empty_polls_fnv: u64,
    ordering_stalls: u64,
    consumed: u64,
    consumed_fnv: u64,
    csv_fnv: u64,
}

fn pin(report: &RunReport, sim: &Simulation<Machine<AnyPolicy>>) -> Pin {
    let st = &sim.model.st;
    let empty: Vec<u64> = st.cores.iter().map(|c| c.stats().empty_polls).collect();
    let consumed: Vec<u64> = st
        .flows
        .values()
        .map(|f| f.counters.consumed_pkts)
        .collect();
    Pin {
        empty_polls: empty.iter().sum(),
        empty_polls_fnv: fnv_u64s(&empty),
        ordering_stalls: report.ordering_stalls,
        consumed: consumed.iter().sum(),
        consumed_fnv: fnv_u64s(&consumed),
        csv_fnv: fnv(series_csv(report).into_bytes()),
    }
}

fn run(
    host: HostConfig,
    kind: PolicyKind,
    scenario: Scenario,
    app: AppKind,
    warmup: Duration,
    measure: Duration,
) -> Pin {
    let (report, sim) = run_one_keep(
        host,
        kind,
        scenario,
        workloads::app_factory(app),
        warmup,
        measure,
    );
    pin(&report, &sim)
}

fn sample_100us(mut host: HostConfig) -> HostConfig {
    host.sample_window = Duration::micros(100);
    host
}

#[test]
fn hopping_shared_cores() {
    // Fig. 12 shape at test scale: 256 registered flows, 8 active, 8
    // shared polling cores, 100 µs slots.
    let host = sample_100us(HostConfig {
        num_cores: Some(8),
        ..HostConfig::default()
    });
    let (warmup, measure) = (Duration::millis(1), Duration::millis(2));
    let link = host.net.link_bandwidth;
    let scen = workloads::hopping(
        256,
        8,
        Duration::micros(100),
        warmup + measure,
        link,
        0xF1612,
    );
    let got = run(host, PolicyKind::Ceio, scen, AppKind::Echo, warmup, measure);
    assert_eq!(
        got,
        Pin {
            empty_polls: 58023,
            empty_polls_fnv: 14027261387125024941,
            ordering_stalls: 152,
            consumed: 90667,
            consumed_fnv: 14718244422361894065,
            csv_fnv: 1759980239403506735,
        }
    );
}

#[test]
fn dedicated_cores_with_flow_churn() {
    // §2.3 dynamic distribution on dedicated cores: every 500 µs two KV
    // flows stop and two LineFS flows start. Stopped flows linger on their
    // core's service list until drained; later starts reuse those cores.
    let host = sample_100us(workloads::contended_host(Transport::Dpdk));
    let link = host.net.link_bandwidth;
    let scen = workloads::dynamic_distribution(Duration::micros(500), 4, link);
    let (report, sim) = run_one_keep(
        host,
        PolicyKind::Ceio,
        scen,
        workloads::app_factory(AppKind::Mixed),
        Duration::micros(500),
        Duration::micros(2500),
    );
    let st = &sim.model.st;
    assert!(
        st.cores.len() < st.flows.len(),
        "a restarted flow must reuse a drained core ({} cores, {} flows)",
        st.cores.len(),
        st.flows.len()
    );
    let got = pin(&report, &sim);
    assert_eq!(
        got,
        Pin {
            empty_polls: 14490,
            empty_polls_fnv: 5572631835223930958,
            ordering_stalls: 14,
            consumed: 37971,
            consumed_fnv: 11685133413112246394,
            csv_fnv: 10825982306317439041,
        }
    );
}

#[test]
fn dedicated_cores_with_natural_flow_ends() {
    // Dedicated cores, no `Stop` events: four KV flows end on their own
    // at staggered `FlowSpec::stop` times, then four new flows start. A
    // flow that ends this way must still leave its core's service list
    // once drained, so the idle core stops polling and is reused.
    let host = sample_100us(workloads::contended_host(Transport::Dpdk));
    let link = host.net.link_bandwidth;
    let per = link.scale(1, 4);
    let mut scen = Scenario::new();
    for i in 0..4u32 {
        let mut spec = FlowSpec::new(i, FlowClass::CpuInvolved, 512, 1, per);
        spec.stop = Time::ZERO + Duration::micros(600 + 200 * u64::from(i));
        scen.start_at(Time::ZERO, spec);
    }
    for i in 4..8u32 {
        let at = Time::ZERO + Duration::micros(1500 + 100 * u64::from(i - 4));
        let mut spec = FlowSpec::new(i, FlowClass::CpuInvolved, 512, 1, per);
        spec.start = at;
        scen.start_at(at, spec);
    }
    let (report, sim) = run_one_keep(
        host,
        PolicyKind::Ceio,
        scen.build(),
        workloads::app_factory(AppKind::Kv),
        Duration::micros(500),
        Duration::micros(2500),
    );
    // The four late flows reuse the four drained cores.
    assert_eq!(sim.model.st.cores.len(), 4);
    let got = pin(&report, &sim);
    assert_eq!(
        got,
        Pin {
            empty_polls: 3628,
            empty_polls_fnv: 5295457126842876640,
            ordering_stalls: 0,
            consumed: 24447,
            consumed_fnv: 4715513786351054512,
            csv_fnv: 14071469755571048653,
        }
    );
}

#[test]
fn four_queues() {
    let host = sample_100us(HostConfig {
        num_queues: 4,
        num_cores: Some(4),
        ..workloads::contended_host(Transport::Dpdk)
    });
    let link = host.net.link_bandwidth;
    let got = run(
        host,
        PolicyKind::Ceio,
        workloads::involved_flows(8, 512, link),
        AppKind::Kv,
        Duration::millis(1),
        Duration::millis(2),
    );
    assert_eq!(
        got,
        Pin {
            empty_polls: 54,
            empty_polls_fnv: 4850517000848270183,
            ordering_stalls: 0,
            consumed: 24360,
            consumed_fnv: 3015697098862329333,
            csv_fnv: 6234083321350308820,
        }
    );
}

#[test]
fn slow_path_heavy_blocking_recv() {
    // Zero credits send every packet down the slow path; blocking recv()
    // (`async_fetch: false`) makes an idle flow's drain stall its core,
    // which ends that poll's scan early. Two cores share five flows.
    let host = sample_100us(HostConfig {
        num_cores: Some(2),
        ..workloads::contended_host(Transport::Dpdk)
    });
    let policy = AnyPolicy::Ceio(Box::new(CeioPolicy::new(CeioConfig {
        credit_total: 0,
        async_fetch: false,
        num_queues: host.num_queues,
        ..CeioConfig::default()
    })));
    let link = host.net.link_bandwidth;
    let factory: SendAppFactory = workloads::app_factory(AppKind::Mixed);
    let mut sim = Machine::build(
        host,
        policy,
        workloads::mixed_flows(3, 2, 512, link),
        factory,
    );
    let report = run_to_report(&mut sim, Duration::millis(1), Duration::millis(2));
    assert!(
        report.slow_path_pkts > 0,
        "the run must exercise the slow path"
    );
    assert_eq!(
        pin(&report, &sim),
        Pin {
            empty_polls: 557,
            empty_polls_fnv: 14169961890180599564,
            ordering_stalls: 0,
            consumed: 9919,
            consumed_fnv: 8524965169770138278,
            csv_fnv: 2924823825707679207,
        }
    );
}
