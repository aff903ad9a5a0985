//! The three benchmark workloads, one per regime of the paper that loads a
//! different part of the simulator (see README.md for why each exists).
//!
//! Every input is derived from the `--seed`: the host RNG seed (Poisson
//! pacing, DCTCP jitter, RSS placement of new flows) and, for `hop`, the
//! draw of the active flow set each slot.

use ceio_bench::runner::{AnyPolicy, PolicyKind};
use ceio_bench::workloads::{self, AppKind, Transport};
use ceio_cpu::Application;
use ceio_host::{arm_scope, HostConfig, IoPolicy, Machine, DEFAULT_SCOPE_CAP};
use ceio_mem::LlcModelKind;
use ceio_net::{FlowClass, FlowId, FlowSpec, Scenario};
use ceio_sim::{Bandwidth, Duration, Rng, Simulation, Time};
use ceio_telemetry::SloRule;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 8 always-on 512 B KV flows at line rate under CEIO: the fast path.
    Kv,
    /// Fig. 12 destination hopping: 512 registered echo flows, 16 active.
    Hop,
    /// §2.3 dynamic distribution under the unmanaged datapath: LLC thrash.
    Thrash,
}

/// Flows registered in `hop` (fig. 12 sweeps 16..4096; 512 keeps one run
/// a few host seconds while registered flows still outnumber active 32×).
const HOP_FLOWS: u32 = 512;
/// Concurrently active senders in `hop` (fig. 12's 16 hopping clients).
const HOP_ACTIVE: usize = 16;
/// Active-set redraw period in `hop` (fig. 12's fastest slot).
const HOP_SLOT: Duration = Duration::micros(100);

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Kv, Workload::Hop, Workload::Thrash];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Kv => "kv",
            Workload::Hop => "hop",
            Workload::Thrash => "thrash",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The policy under test.
    pub fn policy(self) -> PolicyKind {
        match self {
            Workload::Kv | Workload::Hop => PolicyKind::Ceio,
            Workload::Thrash => PolicyKind::Baseline,
        }
    }

    /// Simulated warmup and measured spans of one run.
    pub fn spans(self) -> (Duration, Duration) {
        match self {
            Workload::Kv | Workload::Thrash => (Duration::millis(2), Duration::millis(18)),
            Workload::Hop => (Duration::millis(1), Duration::millis(6)),
        }
    }

    /// Simulated milliseconds one run advances (warmup + measure).
    pub fn sim_ms(self) -> f64 {
        let (w, m) = self.spans();
        (w + m).as_secs_f64() * 1e3
    }

    fn host(self, seed: u64) -> HostConfig {
        let mut host = workloads::contended_host(Transport::Dpdk);
        // The `ceio-trace` sampling window, so `series_csv` has the CLI's
        // resolution.
        host.sample_window = Duration::micros(100);
        host.seed = seed;
        match self {
            Workload::Kv => {}
            Workload::Hop => host.num_cores = Some(HOP_ACTIVE),
            Workload::Thrash => {
                host.num_queues = 4;
                host.mem.llc_model = LlcModelKind::SetAssoc;
            }
        }
        host
    }

    fn scenario(self, seed: u64, link: Bandwidth) -> (Scenario, AppKind) {
        match self {
            Workload::Kv => (workloads::involved_flows(8, 512, link), AppKind::Kv),
            Workload::Hop => {
                let (w, m) = self.spans();
                let scen = hopping_scenario(HOP_FLOWS, HOP_SLOT, w + m, link, seed);
                (scen, AppKind::Echo)
            }
            Workload::Thrash => {
                // `ceio-trace --scenario dynamic` phasing: a quarter of
                // the run per phase, three swaps of two flows each.
                let (w, m) = self.spans();
                let phase = (w + m).div(4);
                (
                    workloads::dynamic_distribution(phase, 3, link),
                    AppKind::Mixed,
                )
            }
        }
    }

    /// Generate the inputs and build a ready-to-run simulation: the
    /// scenario, the policy (passed through `wrap_policy`), every flow's
    /// application (each passed through `wrap_app`) and, on `thrash`, an
    /// armed flight recorder. This is exactly the work `setup_s` times.
    pub fn build<P: IoPolicy>(
        self,
        seed: u64,
        wrap_policy: impl FnOnce(AnyPolicy) -> P,
        wrap_app: impl Fn(Box<dyn Application>) -> Box<dyn Application> + 'static,
    ) -> Simulation<Machine<P>> {
        let host = self.host(seed);
        let (scenario, app) = self.scenario(seed, host.net.link_bandwidth);
        let policy = wrap_policy(self.policy().build(&host));
        let mut make_app = workloads::app_factory(app);
        let factory = Box::new(move |spec: &FlowSpec| wrap_app(make_app(spec)));
        let mut sim = Machine::build(host, policy, scenario, factory);
        if self == Workload::Thrash {
            let slo =
                SloRule::parse_spec("alert=llc-thrash,when=llc_miss_ratio,above=0.5,for=200us")
                    .expect("invariant: the built-in SLO spec parses");
            arm_scope(&mut sim, Duration::micros(50), DEFAULT_SCOPE_CAP, slo);
        }
        sim
    }
}

/// The fig. 12 destination-hopping scenario (`ceio_bench::experiments::fig12`
/// keeps its builder private): `n` flows registered at t=0, `HOP_ACTIVE`
/// of them sending, and the active set redrawn uniformly every `slot`.
fn hopping_scenario(
    n: u32,
    slot: Duration,
    horizon: Duration,
    link: Bandwidth,
    seed: u64,
) -> Scenario {
    let per = link.scale(1, HOP_ACTIVE as u64);
    let idle = Bandwidth::bytes_per_sec(0);
    let mut s = Scenario::new();
    let mut rng = Rng::seed_from_u64(seed ^ 0xF1612);
    let mut active: Vec<u32> = (0..n.min(HOP_ACTIVE as u32)).collect();
    for i in 0..n {
        let demand = if active.contains(&i) { per } else { idle };
        s.start_at(
            Time::ZERO,
            FlowSpec::new(i, FlowClass::CpuInvolved, 512, 1, demand),
        );
    }
    let mut t = Time::ZERO + slot;
    while t < Time::ZERO + horizon {
        let mut next: Vec<u32> = Vec::with_capacity(HOP_ACTIVE);
        while next.len() < HOP_ACTIVE.min(n as usize) {
            let cand = rng.gen_range(n as u64) as u32;
            if !next.contains(&cand) {
                next.push(cand);
            }
        }
        for &old in active.iter().filter(|f| !next.contains(f)) {
            s.set_demand_at(t, FlowId(old), idle);
        }
        for &new in next.iter().filter(|f| !active.contains(f)) {
            s.set_demand_at(t, FlowId(new), per);
        }
        active = next;
        t += slot;
    }
    s.build()
}
