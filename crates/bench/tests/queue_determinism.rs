//! The multi-queue refactor's safety net: a single-queue (`num_queues =
//! 1`, the default) run must emit a `ceio-trace` CSV that is **byte
//! identical** to the pre-refactor single-queue pipeline. The golden file
//! was captured from the seed code *before* the `RxQueue` decomposition
//! landed, so any drift here means the refactor changed observable
//! behavior — not just internal structure.
//!
//! The four-queue set-associative goldens pin the way-partitioned LLC
//! model the same way: they were captured before its storage was
//! rewritten, so any drift means a placement or eviction decision moved.
//!
//! When a change is intentional (and argued for in the PR), regenerate
//! with
//!
//! ```text
//! CEIO_GOLDEN_REGEN=1 cargo test -p ceio-bench --test queue_determinism
//! ```
//!
//! and review the diff like any other code change.

use ceio_bench::runner::{run_one, series_csv, PolicyKind};
use ceio_bench::workloads::{self, AppKind, Transport};
use ceio_host::HostConfig;
use ceio_mem::LlcModelKind;
use ceio_sim::Duration;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compare `actual` against the golden file `name`, or rewrite the file
/// when `CEIO_GOLDEN_REGEN` is set.
fn check(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("CEIO_GOLDEN_REGEN").is_some() {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("create golden dir");
        }
        std::fs::write(&path, actual).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden file {}: {e}\n\
             (run with CEIO_GOLDEN_REGEN=1 to create it)",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected,
        "{name} diverged from its golden file {}\n\
         (the single-queue pipeline must stay bit-identical to the \
         pre-refactor seed; if the change is intentional, regenerate with \
         CEIO_GOLDEN_REGEN=1 and review the diff)",
        path.display()
    );
}

/// The contended DPDK host with the `ceio-trace` CLI's 100 µs sample
/// window.
fn trace_host() -> HostConfig {
    let mut host = workloads::contended_host(Transport::Dpdk);
    host.sample_window = Duration::micros(100);
    host
}

/// Eight always-on CPU-involved KV flows on `host`, 1 ms warmup, 2 ms
/// measured, rendered as the `ceio-trace` CSV.
fn kv_csv(host: HostConfig, policy: PolicyKind) -> String {
    let link = host.net.link_bandwidth;
    let report = run_one(
        host,
        policy,
        workloads::involved_flows(8, 512, link),
        workloads::app_factory(AppKind::Kv),
        Duration::millis(1),
        Duration::millis(2),
    );
    series_csv(&report)
}

/// Exactly the `ceio-trace --scenario kv` configuration at test scale.
fn kv_trace_csv(policy: PolicyKind) -> String {
    kv_csv(trace_host(), policy)
}

#[test]
fn single_queue_ceio_csv_matches_pre_refactor_golden() {
    let csv = kv_trace_csv(PolicyKind::Ceio);
    assert!(csv.lines().count() > 1, "the run must produce samples");
    check("queue1_kv_ceio.csv", &csv);
}

#[test]
fn single_queue_baseline_csv_matches_pre_refactor_golden() {
    // The unmanaged policy exercises the host pipeline without CEIO's
    // controller, pinning the NIC/DMA/ring machinery itself.
    let csv = kv_trace_csv(PolicyKind::Baseline);
    assert!(csv.lines().count() > 1, "the run must produce samples");
    check("queue1_kv_baseline.csv", &csv);
}

#[test]
fn single_queue_csv_is_reproducible() {
    let a = kv_trace_csv(PolicyKind::Ceio);
    let b = kv_trace_csv(PolicyKind::Ceio);
    assert_eq!(
        a, b,
        "same configuration must reproduce the CSV byte-for-byte"
    );
}

/// The same run resharded over four queues: still fully deterministic
/// (byte-identical across invocations), and *different* from the
/// single-queue pipeline — the shards really do change the event
/// interleaving rather than being renamed bookkeeping.
fn multi_queue_host(queues: usize) -> HostConfig {
    let mut host = trace_host();
    host.num_queues = queues;
    host.nic.queue_issue_gap = Duration::nanos(150);
    host
}

fn kv_trace_csv_queues(policy: PolicyKind, queues: usize) -> String {
    kv_csv(multi_queue_host(queues), policy)
}

#[test]
fn multi_queue_csv_is_reproducible_and_distinct() {
    let a = kv_trace_csv_queues(PolicyKind::Ceio, 4);
    let b = kv_trace_csv_queues(PolicyKind::Ceio, 4);
    assert_eq!(a, b, "4-queue run must reproduce byte-for-byte");
    let single = kv_trace_csv_queues(PolicyKind::Ceio, 1);
    assert_ne!(
        a, single,
        "with the issue gap armed, sharding must change the pipeline timing"
    );
}

/// The four-queue run on the set-associative LLC with `overlap` of the
/// DDIO ways open to the application antagonist. Its `llc_miss_rate`
/// column follows every placement and eviction the way model makes.
fn kv_trace_csv_setassoc(policy: PolicyKind, overlap: u32) -> String {
    let mut host = multi_queue_host(4);
    host.mem.llc_model = LlcModelKind::SetAssoc;
    host.mem.app_overlap_ways = overlap;
    kv_csv(host, policy)
}

#[test]
fn setassoc_multi_queue_baseline_csv_matches_golden() {
    let csv = kv_trace_csv_setassoc(PolicyKind::Baseline, 0);
    assert!(csv.lines().count() > 1, "the run must produce samples");
    check("queue4_kv_baseline_setassoc.csv", &csv);
}

#[test]
fn setassoc_overlap_baseline_csv_matches_golden() {
    // Two DDIO ways shared with the antagonist: application lines evict
    // I/O buffers, a path no benchmark workload takes.
    let csv = kv_trace_csv_setassoc(PolicyKind::Baseline, 2);
    assert!(csv.lines().count() > 1, "the run must produce samples");
    check("queue4_kv_baseline_setassoc_overlap2.csv", &csv);
}
