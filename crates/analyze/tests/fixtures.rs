//! Self-tests: each rule family must fire on its known-bad fixture and
//! stay quiet on the adjacent known-good constructs. These pin the
//! analyzer's behavior so a rule that silently stops firing fails CI.

use std::path::PathBuf;

use ceio_analyze::{allow, analyze_sources, Rule, SourceFile};

fn src(rel: &str, crate_name: &str, text: &str) -> SourceFile {
    SourceFile {
        path: PathBuf::from(rel),
        rel: rel.to_string(),
        crate_name: crate_name.to_string(),
        text: text.to_string(),
    }
}

const DETERMINISM: &str = include_str!("../fixtures/determinism_bad.rs");
const DETERMINISM_ALIAS: &str = include_str!("../fixtures/determinism_alias_bad.rs");
const CONSERVATION: &str = include_str!("../fixtures/conservation_bad.rs");
const CONSERVATION_CALLER: &str = include_str!("../fixtures/conservation_caller_bad.rs");
const TELEMETRY: &str = include_str!("../fixtures/telemetry_bad.rs");
const UNITS: &str = include_str!("../fixtures/units_bad.rs");
const SCOPE_BAD: &str = include_str!("../fixtures/scope_bad.rs");

#[test]
fn determinism_fires_on_known_bad() {
    let a = analyze_sources(
        vec![src(
            "crates/host/src/determinism_bad.rs",
            "host",
            DETERMINISM,
        )],
        &[],
    );
    let msgs: Vec<&str> = a.findings.iter().map(|f| f.message.as_str()).collect();
    assert!(
        a.findings.iter().all(|f| f.rule == Rule::Determinism),
        "{msgs:?}"
    );
    // values() on field, for-loop on field, keys() on local, Instant import,
    // Instant::now() — and nothing else (the ok/test items stay quiet).
    assert_eq!(a.findings.len(), 5, "{msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("flows.values()")));
    assert!(msgs.iter().any(|m| m.contains("for … in flows")));
    assert!(msgs.iter().any(|m| m.contains("m.keys()")));
    assert_eq!(
        msgs.iter().filter(|m| m.contains("`Instant`")).count(),
        2,
        "{msgs:?}"
    );
}

#[test]
fn determinism_sees_through_hash_type_aliases() {
    let a = analyze_sources(
        vec![src(
            "crates/mem/src/determinism_alias_bad.rs",
            "mem",
            DETERMINISM_ALIAS,
        )],
        &[],
    );
    let msgs: Vec<&str> = a.findings.iter().map(|f| f.message.as_str()).collect();
    assert!(
        a.findings.iter().all(|f| f.rule == Rule::Determinism),
        "{msgs:?}"
    );
    // keys() on an aliased field, for-loop over an alias-of-alias field,
    // iter() on an aliased local — and nothing else (lookups and the
    // ordered alias stay quiet).
    assert_eq!(a.findings.len(), 3, "{msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("by_id.keys()")));
    assert!(msgs.iter().any(|m| m.contains("for … in chained")));
    assert!(msgs.iter().any(|m| m.contains("seen.iter()")));
    assert!(!msgs.iter().any(|m| m.contains("sorted")));
}

#[test]
fn hash_alias_defined_in_another_crate_still_counts() {
    // The alias lives in one sim crate and the field in another, as the
    // fixed-hasher index alias does.
    let a = analyze_sources(
        vec![
            src(
                "crates/sim/src/alias.rs",
                "sim",
                "pub type FastIndex<K, V> = std::collections::HashMap<K, V>;\n",
            ),
            src(
                "crates/nic/src/user.rs",
                "nic",
                "pub struct T { idx: ceio_sim::FastIndex<u32, u32> }\n\
                 impl T { pub fn n(&self) -> usize { self.idx.values().count() } }\n",
            ),
        ],
        &[],
    );
    let msgs: Vec<&str> = a.findings.iter().map(|f| f.message.as_str()).collect();
    assert_eq!(a.findings.len(), 1, "{msgs:?}");
    assert!(msgs[0].contains("idx.values()"), "{msgs:?}");
}

#[test]
fn determinism_scope_excludes_non_sim_crates() {
    // The same file in a non-simulation crate (bench) is out of scope.
    let a = analyze_sources(
        vec![src(
            "crates/bench/src/determinism_bad.rs",
            "bench",
            DETERMINISM,
        )],
        &[],
    );
    assert!(a.findings.is_empty(), "{:?}", a.findings);
}

#[test]
fn conservation_fires_on_unchecked_mutator_and_layer_violation() {
    let a = analyze_sources(
        vec![
            src("crates/core/src/conservation_bad.rs", "core", CONSERVATION),
            src(
                "crates/host/src/conservation_caller_bad.rs",
                "host",
                CONSERVATION_CALLER,
            ),
        ],
        &[],
    );
    let msgs: Vec<&str> = a.findings.iter().map(|f| f.message.as_str()).collect();
    assert!(
        a.findings.iter().all(|f| f.rule == Rule::Conservation),
        "{msgs:?}"
    );
    assert_eq!(a.findings.len(), 2, "{msgs:?}");
    // The unchecked mutator, in core…
    assert!(msgs
        .iter()
        .any(|m| m.contains("CreditManager::sneak_inject")));
    // …and the direct call from outside the policy layer.
    assert!(msgs
        .iter()
        .any(|m| m.contains(".try_consume(…)") && m.contains("outside the policy")));
    // The checked, delegating, constructor, and test-gated methods pass.
    assert!(!msgs.iter().any(|m| m.contains("consume_one")));
    assert!(!msgs.iter().any(|m| m.contains("leak_credit_for_tests")));
}

#[test]
fn telemetry_fires_on_unexported_field_and_untagged_fault_sites() {
    let a = analyze_sources(
        vec![src("crates/nic/src/telemetry_bad.rs", "nic", TELEMETRY)],
        &[],
    );
    let msgs: Vec<&str> = a.findings.iter().map(|f| f.message.as_str()).collect();
    assert!(
        a.findings.iter().all(|f| f.rule == Rule::Telemetry),
        "{msgs:?}"
    );
    assert_eq!(a.findings.len(), 3, "{msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("WidgetStats.stalls")));
    assert!(!msgs.iter().any(|m| m.contains("WidgetStats.spins")));
    assert!(msgs
        .iter()
        .any(|m| m.contains("FaultSite::Untagged") && m.contains("no `/// recovery:")));
    assert!(msgs
        .iter()
        .any(|m| m.contains("ceio_phantom_total") && m.contains("not exported")));
    assert!(!msgs.iter().any(|m| m.contains("FaultSite::Tagged ")));
}

#[test]
fn telemetry_fires_on_registered_but_unsampled_scope_series() {
    let a = analyze_sources(
        vec![src("crates/host/src/scope_bad.rs", "host", SCOPE_BAD)],
        &[],
    );
    let msgs: Vec<&str> = a.findings.iter().map(|f| f.message.as_str()).collect();
    assert!(
        a.findings.iter().all(|f| f.rule == Rule::Telemetry),
        "{msgs:?}"
    );
    // Exactly the two forgotten keys — the sampled pair and the
    // test-gated registration stay quiet.
    assert_eq!(a.findings.len(), 2, "{msgs:?}");
    assert!(msgs
        .iter()
        .any(|m| m.contains("`forgotten_gauge`") && m.contains("never recorded")));
    assert!(msgs.iter().any(|m| m.contains("`forgotten_per_queue`")));
    assert!(!msgs.iter().any(|m| m.contains("sampled_gauge")));
    assert!(!msgs.iter().any(|m| m.contains("sampled_per_queue")));
    assert!(!msgs.iter().any(|m| m.contains("test_only_gauge")));

    // Out of scope: the same file in a non-instrumented crate.
    let a2 = analyze_sources(
        vec![src("crates/bench/src/scope_bad.rs", "bench", SCOPE_BAD)],
        &[],
    );
    assert!(a2.findings.is_empty(), "{:?}", a2.findings);
}

#[test]
fn units_fires_on_raw_integer_unit_params_in_core() {
    let a = analyze_sources(
        vec![src("crates/core/src/units_bad.rs", "core", UNITS)],
        &[],
    );
    let msgs: Vec<&str> = a.findings.iter().map(|f| f.message.as_str()).collect();
    assert!(a.findings.iter().all(|f| f.rule == Rule::Units), "{msgs:?}");
    assert_eq!(a.findings.len(), 2, "{msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("`deadline_ns`")));
    assert!(msgs.iter().any(|m| m.contains("`dest_queue`")));
    // Counts, private fns, and unarmed byte patterns stay quiet.
    assert!(!msgs.iter().any(|m| m.contains("num_queues")));
    assert!(!msgs.iter().any(|m| m.contains("delay_ns")));
    assert!(!msgs.iter().any(|m| m.contains("rx_bytes")));

    // Out of scope: the same file outside crates/core.
    let a2 = analyze_sources(
        vec![src("crates/apps/src/units_bad.rs", "apps", UNITS)],
        &[],
    );
    assert!(a2.findings.is_empty(), "{:?}", a2.findings);
}

#[test]
fn allowlist_suppresses_and_reports_stale() {
    let entries = allow::parse_allowlist(
        "rule=determinism crates/host/src/determinism_bad.rs hash-order iteration\n\
         rule=determinism crates/host/src/determinism_bad.rs ambient nondeterminism\n\
         rule=units crates/host/src/determinism_bad.rs never matches anything\n",
    );
    let a = analyze_sources(
        vec![src(
            "crates/host/src/determinism_bad.rs",
            "host",
            DETERMINISM,
        )],
        &entries,
    );
    assert!(a.findings.is_empty(), "{:?}", a.findings);
    assert_eq!(a.suppressed, 5);
    // The unmatched entry is reported stale.
    assert_eq!(a.stale_allows.len(), 1, "{:?}", a.stale_allows);
    assert!(a.stale_allows[0].contains("never matches anything"));
    assert!(!a.is_clean());
}

#[test]
fn json_report_carries_findings() {
    let a = analyze_sources(
        vec![src("crates/core/src/units_bad.rs", "core", UNITS)],
        &[],
    );
    let j = a.to_json();
    assert!(j.contains("\"rule\": \"units\""));
    assert!(j.contains("\"count\": 2"));
    assert!(j.contains("deadline_ns"));
}
