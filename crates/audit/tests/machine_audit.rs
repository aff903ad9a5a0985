//! Integration tests of the audit layer threaded through the full host
//! machine: every simulated event is followed by a sweep of the registered
//! invariants (event-time monotonicity, ring occupancy, ordered delivery,
//! phase exclusivity, LLC/IIO occupancy, the driver-poll readiness index
//! and service-list pruning) plus the policy's own checks
//! (credit conservation, no-overdraft, insufficient-set consistency for
//! CEIO).
//!
//! The auditor is armed per-machine via [`Machine::arm_audit`] rather than
//! the process-global `ceio_audit::set_enabled` so these tests stay safe
//! under the parallel test runner.

use ceio_core::{CeioConfig, CeioPolicy};
use ceio_cpu::{AppWork, Application};
use ceio_host::{run_to_report, AppFactory, HostConfig, IoPolicy, Machine, UnmanagedPolicy};
use ceio_net::{FlowClass, FlowSpec, Packet, Scenario};
use ceio_sim::{Bandwidth, Duration, Time};

struct FixedApp(Duration);
impl Application for FixedApp {
    fn name(&self) -> &str {
        "fixed"
    }
    fn process(&mut self, _: &Packet) -> AppWork {
        AppWork::compute(self.0)
    }
}

fn app_factory(cost_ns: u64) -> AppFactory {
    Box::new(move |_| Box::new(FixedApp(Duration::nanos(cost_ns))))
}

/// Heavy contention: the scenario most likely to drive the machine through
/// slow-path transitions, reallocation, and eviction corners.
fn thrash_scenario() -> Scenario {
    let mut s = Scenario::new();
    for i in 0..8 {
        s.start_at(
            Time::ZERO,
            FlowSpec::new(i, FlowClass::CpuInvolved, 2048, 1, Bandwidth::gbps(25)),
        );
    }
    s.build()
}

/// Mixed classes so CPU-bypass flows exercise the bypass delivery path too.
fn mixed_scenario() -> Scenario {
    let mut s = Scenario::new();
    for i in 0..3 {
        s.start_at(
            Time::ZERO,
            FlowSpec::new(i, FlowClass::CpuInvolved, 2048, 1, Bandwidth::gbps(25)),
        );
    }
    for i in 3..6 {
        s.start_at(
            Time::ZERO,
            FlowSpec::new(i, FlowClass::CpuBypass, 2048, 512, Bandwidth::gbps(25)),
        );
    }
    s.build()
}

fn cfg() -> HostConfig {
    HostConfig {
        ring_entries: 2048,
        ..HostConfig::default()
    }
}

fn run_audited<P: IoPolicy>(policy: P, scenario: Scenario) -> ceio_audit::AuditReport {
    let mut sim = Machine::build(cfg(), policy, scenario, app_factory(2_000));
    sim.model.arm_audit();
    let _report = run_to_report(&mut sim, Duration::millis(1), Duration::millis(3));
    sim.model.audit_report().expect("auditor was armed")
}

#[test]
fn ceio_policy_audits_clean_under_thrash() {
    let host = cfg();
    let policy = CeioPolicy::new(CeioConfig {
        credit_total: host.credit_total(),
        ..CeioConfig::default()
    });
    let report = run_audited(policy, thrash_scenario());
    assert!(
        report.is_clean(),
        "CEIO run must satisfy every invariant:\n{report}"
    );
    assert!(
        report.events_checked > 10_000,
        "only {} events audited — the hook is not firing per event",
        report.events_checked
    );
}

#[test]
fn ceio_policy_audits_clean_on_mixed_classes() {
    let host = cfg();
    let policy = CeioPolicy::new(CeioConfig {
        credit_total: host.credit_total(),
        ..CeioConfig::default()
    });
    let report = run_audited(policy, mixed_scenario());
    assert!(report.is_clean(), "mixed-class run:\n{report}");
}

#[test]
fn baseline_policy_audits_clean() {
    // The host-machine invariants (ordering, occupancy, monotone time) are
    // policy-independent; the unmanaged baseline must satisfy them too,
    // even while it thrashes the LLC.
    let report = run_audited(UnmanagedPolicy, thrash_scenario());
    assert!(report.is_clean(), "baseline run:\n{report}");
    assert!(report.events_checked > 0);
}

#[test]
fn shared_cores_with_churn_audit_clean() {
    // Three polling cores share twelve flows, a third of which stop at
    // 1 ms while four new ones start, and two more end on their own at
    // 1.5 ms (`FlowSpec::stop`): service lists are pruned while other
    // flows on the same core hold backlog, and CPU-bypass flows keep the
    // slow path (the second readiness-marking site) busy throughout.
    let host = HostConfig {
        num_cores: Some(3),
        ..cfg()
    };
    let mut s = Scenario::new();
    for i in 0..12 {
        let class = if i % 3 == 0 {
            FlowClass::CpuBypass
        } else {
            FlowClass::CpuInvolved
        };
        let mut spec = FlowSpec::new(i, class, 2048, 64, Bandwidth::gbps(15));
        if i == 2 || i == 5 {
            spec.stop = Time::ZERO + Duration::micros(1500);
        }
        s.start_at(Time::ZERO, spec);
    }
    let churn = Time::ZERO + Duration::millis(1);
    for i in 0..4 {
        s.stop_at(churn, ceio_net::FlowId(i * 3 + 1));
        s.start_at(
            churn,
            FlowSpec::new(12 + i, FlowClass::CpuInvolved, 512, 1, Bandwidth::gbps(15)),
        );
    }
    let policy = CeioPolicy::new(CeioConfig {
        credit_total: host.credit_total() / 4,
        ..CeioConfig::default()
    });
    let mut sim = Machine::build(host, policy, s.build(), app_factory(2_000));
    sim.model.arm_audit();
    let run = run_to_report(&mut sim, Duration::millis(1), Duration::millis(2));
    let report = sim.model.audit_report().expect("auditor was armed");
    assert!(report.is_clean(), "shared-core churn run:\n{report}");
    assert!(run.slow_path_pkts > 0, "the slow path must carry traffic");
}

#[test]
fn unarmed_machine_carries_no_auditor() {
    // Zero-overhead default: without `arm_audit` (and without
    // `CEIO_AUDIT=1`, which the test environment does not set), the
    // machine runs with no auditor at all.
    let mut sim = Machine::build(
        cfg(),
        UnmanagedPolicy,
        thrash_scenario(),
        app_factory(2_000),
    );
    let _ = run_to_report(&mut sim, Duration::millis(1), Duration::millis(2));
    assert!(
        sim.model.audit_report().is_none(),
        "auditor must be off by default"
    );
}
