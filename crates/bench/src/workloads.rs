//! Standard workload and host configurations shared across experiments.
//!
//! The paper's testbed constants (§2.3/§6.1) with the documented scaling:
//! wall-clock phases of 10 s shrink to milliseconds (every control loop in
//! the system is µs-scale, so phase length only sets observation time);
//! everything else — 200 Gbps, 2 KB buffers, 6 MB DDIO ⇒ 3072 credits,
//! DCTCP — is the paper's configuration.

use ceio_apps::{EchoApp, KvConfig, KvStore, LineFs, LineFsConfig, SinkApp, VxlanDecap};
use ceio_cpu::Application;
use ceio_host::HostConfig;
use ceio_net::{FlowClass, FlowId, FlowSpec, Scenario};
use ceio_sim::{Bandwidth, Duration, Rng, Time};

/// Transport variant for eRPC (§6.1 evaluates both).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// DPDK (librte_ethdev) datapath.
    Dpdk,
    /// RDMA (libibverbs) datapath: slightly lower per-packet driver cost.
    Rdma,
}

/// Which application consumes each flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppKind {
    /// eRPC key-value store (CPU-involved, zero-copy).
    Kv,
    /// LineFS DFS server (CPU-bypass, copy-heavy).
    LineFs,
    /// dperf echo.
    Echo,
    /// VxLAN decap NF.
    Vxlan,
    /// perftest sink (no processing).
    Sink,
    /// Class-dependent: KV for CPU-involved flows, LineFS for CPU-bypass
    /// (the mixed-tenant setup of Figs. 4/10 and Table 4).
    Mixed,
}

/// A thread-portable application factory (jobs construct sims off-thread).
pub type SendAppFactory = Box<dyn FnMut(&FlowSpec) -> Box<dyn Application> + Send>;

/// Build an application factory for a workload.
pub fn app_factory(kind: AppKind) -> SendAppFactory {
    Box::new(move |spec: &FlowSpec| -> Box<dyn Application> {
        let kv = || -> Box<dyn Application> { Box::new(KvStore::new(KvConfig::default())) };
        let linefs = || -> Box<dyn Application> { Box::new(LineFs::new(LineFsConfig::default())) };
        match kind {
            AppKind::Kv => kv(),
            AppKind::LineFs => linefs(),
            AppKind::Echo => Box::new(EchoApp::new()),
            AppKind::Vxlan => Box::new(VxlanDecap::new()),
            AppKind::Sink => Box::new(SinkApp::new()),
            AppKind::Mixed => match spec.class {
                FlowClass::CpuInvolved => kv(),
                FlowClass::CpuBypass => linefs(),
            },
        }
    })
}

/// The contended host configuration: eRPC-scale mempools (16 k buffers per
/// flow) that dwarf the 6 MB DDIO partition, which is what §2.2's
/// pathologies require.
pub fn contended_host(transport: Transport) -> HostConfig {
    let mut cfg = HostConfig {
        ring_entries: 16384,
        ..HostConfig::default()
    };
    if transport == Transport::Rdma {
        // Verbs datapath: descriptor handling is leaner than mbuf+ethdev.
        cfg.cpu.per_packet_overhead = Duration::nanos(15);
    }
    cfg
}

/// Clients split the link evenly (§6.1 saturates the *server*, not the
/// fabric: the host CPU/LLC must be the binding constraint, so offered
/// load matches the link and the switch queue stays clean).
const OVERSUB: (u64, u64) = (1, 1);

/// `n` always-on CPU-involved flows of `pkt_bytes` splitting the link.
pub fn involved_flows(n: u32, pkt_bytes: u64, link: Bandwidth) -> Scenario {
    let mut s = Scenario::new();
    let per = link.scale(OVERSUB.0, OVERSUB.1 * n as u64);
    for i in 0..n {
        s.start_at(
            Time::ZERO,
            FlowSpec::new(i, FlowClass::CpuInvolved, pkt_bytes, 1, per),
        );
    }
    s.build()
}

/// `n` always-on CPU-bypass flows writing `chunk_bytes` chunks.
pub fn bypass_flows(n: u32, pkt_bytes: u64, chunk_bytes: u64, link: Bandwidth) -> Scenario {
    let mut s = Scenario::new();
    let per = link.scale(OVERSUB.0, OVERSUB.1 * n as u64);
    let pkts = (chunk_bytes.div_ceil(pkt_bytes)).max(1) as u32;
    for i in 0..n {
        s.start_at(
            Time::ZERO,
            FlowSpec::new(i, FlowClass::CpuBypass, pkt_bytes, pkts, per),
        );
    }
    s.build()
}

/// Mixed tenancy: `involved` KV flows plus `bypass` DFS flows (1 MB
/// chunks), splitting the link evenly per flow.
pub fn mixed_flows(involved: u32, bypass: u32, pkt_bytes: u64, link: Bandwidth) -> Scenario {
    let total = involved + bypass;
    let per = link.scale(OVERSUB.0, OVERSUB.1 * total as u64);
    let mut s = Scenario::new();
    for i in 0..involved {
        s.start_at(
            Time::ZERO,
            FlowSpec::new(i, FlowClass::CpuInvolved, pkt_bytes, 1, per),
        );
    }
    let chunk_pkts = ((1u64 << 20) / 2048) as u32;
    for i in involved..total {
        s.start_at(
            Time::ZERO,
            FlowSpec::new(i, FlowClass::CpuBypass, 2048, chunk_pkts, per),
        );
    }
    s.build()
}

/// The §2.3 dynamic-flow-distribution scenario at simulation scale:
/// 8 CPU-involved KV flows; every `phase`, two are replaced with LineFS
/// CPU-bypass flows (1 MB chunks).
pub fn dynamic_distribution(phase: Duration, phases: u32, link: Bandwidth) -> Scenario {
    Scenario::dynamic_distribution(
        8,
        2,
        phases,
        phase,
        512,
        2048,
        512,
        link.scale(OVERSUB.0, OVERSUB.1),
    )
}

/// The §2.3 network-burst scenario at simulation scale: 8 CPU-involved
/// flows; every `phase`, two more burst CPU-involved flows arrive.
pub fn network_burst(phase: Duration, phases: u32, link: Bandwidth) -> Scenario {
    Scenario::network_burst(8, 2, phases, phase, 512, link.scale(OVERSUB.0, OVERSUB.1))
}

/// The Fig. 12 destination-hopping scenario: `n` registered UD flows of
/// 512 B echo traffic, `active` of them sending at once; every `slot` the
/// active set is re-drawn uniformly (seeded by `seed`) and retargeted in
/// place with demand changes, so connections are never torn down.
pub fn hopping(
    n: u32,
    active: usize,
    slot: Duration,
    horizon: Duration,
    link: Bandwidth,
    seed: u64,
) -> Scenario {
    let per = link.scale(1, active as u64);
    let mut s = Scenario::new();
    let mut rng = Rng::seed_from_u64(seed);
    // All flows exist (QPs registered) from t=0; non-targets start paused.
    let mut live: Vec<u32> = (0..n.min(active as u32)).collect();
    for i in 0..n {
        let demand = if live.contains(&i) {
            per
        } else {
            Bandwidth::bytes_per_sec(0)
        };
        s.start_at(
            Time::ZERO,
            FlowSpec::new(i, FlowClass::CpuInvolved, 512, 1, demand),
        );
    }
    let mut t = Time::ZERO + slot;
    while t < Time::ZERO + horizon {
        // Retarget: pause the old set, draw and start a new one.
        let mut next: Vec<u32> = Vec::with_capacity(active);
        while next.len() < active.min(n as usize) {
            let cand = rng.gen_range(n as u64) as u32;
            if !next.contains(&cand) {
                next.push(cand);
            }
        }
        for &old in &live {
            if !next.contains(&old) {
                s.set_demand_at(t, FlowId(old), Bandwidth::bytes_per_sec(0));
            }
        }
        for &new in &next {
            if !live.contains(&new) {
                s.set_demand_at(t, FlowId(new), per);
            }
        }
        live = next;
        t += Duration::nanos(slot.as_nanos());
    }
    s.build()
}

/// Measurement spans used across experiments.
#[derive(Debug, Clone, Copy)]
pub struct Spans {
    /// Warmup excluded from measurement.
    pub warmup: Duration,
    /// Measured span.
    pub measure: Duration,
}

/// Standard spans: `quick` for CI, full for EXPERIMENTS.md.
pub fn spans(quick: bool) -> Spans {
    if quick {
        Spans {
            warmup: Duration::millis(1),
            measure: Duration::millis(3),
        }
    } else {
        Spans {
            warmup: Duration::millis(2),
            measure: Duration::millis(8),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_builder_counts() {
        let s = mixed_flows(6, 2, 512, Bandwidth::gbps(200));
        assert_eq!(s.events.len(), 8);
        let bypass = s
            .events
            .iter()
            .filter(|(_, e)| {
                matches!(e, ceio_net::ScenarioEvent::Start(f) if f.class == FlowClass::CpuBypass)
            })
            .count();
        assert_eq!(bypass, 2);
    }

    #[test]
    fn factories_give_class_matched_apps_in_mixed_mode() {
        let mut fac = app_factory(AppKind::Mixed);
        let inv = FlowSpec::new(0, FlowClass::CpuInvolved, 512, 1, Bandwidth::gbps(25));
        let byp = FlowSpec::new(1, FlowClass::CpuBypass, 2048, 64, Bandwidth::gbps(25));
        assert_eq!(fac(&inv).name(), "erpc-kv");
        assert_eq!(fac(&byp).name(), "linefs");
    }

    #[test]
    fn rdma_transport_lowers_driver_cost() {
        let d = contended_host(Transport::Dpdk);
        let r = contended_host(Transport::Rdma);
        assert!(r.cpu.per_packet_overhead < d.cpu.per_packet_overhead);
    }
}
