//! Property-based tests of CEIO's core data structures.
//!
//! * The credit manager conserves credits under *any* operation sequence
//!   (Eq. 1 is only a safety bound if no credit can ever be minted or
//!   leaked), and its running assigned total always equals a recount.
//! * The software ring delivers in exact arrival order under any
//!   interleaving of fast pushes, slow pushes, fetch completions, and
//!   receives.

use ceio_core::{CreditManager, SwRing};
use ceio_net::FlowId;
use proptest::prelude::*;

/// Operations against the credit manager.
#[derive(Debug, Clone)]
enum CreditOp {
    AddFlows(Vec<u8>),
    Remove(u8),
    Consume(u8, u8),
    Release(u8, u8),
    Reclaim(u8),
    Grant(u8, u16),
    GrantEvenly(Vec<u8>),
}

fn credit_op() -> impl Strategy<Value = CreditOp> {
    prop_oneof![
        prop::collection::vec(0u8..16, 1..4).prop_map(CreditOp::AddFlows),
        (0u8..16).prop_map(CreditOp::Remove),
        (0u8..16, 1u8..64).prop_map(|(f, n)| CreditOp::Consume(f, n)),
        (0u8..16, 1u8..64).prop_map(|(f, n)| CreditOp::Release(f, n)),
        (0u8..16).prop_map(CreditOp::Reclaim),
        (0u8..16, 0u16..512).prop_map(|(f, n)| CreditOp::Grant(f, n)),
        prop::collection::vec(0u8..16, 0..6).prop_map(CreditOp::GrantEvenly),
    ]
}

proptest! {
    /// Conservation invariant: Σ flow credits + pool + outstanding ==
    /// total, after any sequence of operations, and no counter ever
    /// exceeds the total.
    #[test]
    fn credit_manager_conserves(total in 1u64..5000, ops in prop::collection::vec(credit_op(), 1..200)) {
        let mut cm = CreditManager::new(total);
        for op in ops {
            match op {
                CreditOp::AddFlows(ids) => {
                    let ids: Vec<FlowId> = ids.into_iter().map(|i| FlowId(i as u32)).collect();
                    cm.add_flows(&ids);
                }
                CreditOp::Remove(f) => cm.remove_flow(FlowId(f as u32)),
                CreditOp::Consume(f, n) => {
                    for _ in 0..n {
                        let _ = cm.try_consume(FlowId(f as u32));
                    }
                }
                CreditOp::Release(f, n) => cm.release(FlowId(f as u32), n as u64),
                CreditOp::Reclaim(f) => {
                    let _ = cm.reclaim(FlowId(f as u32));
                }
                CreditOp::Grant(f, n) => {
                    let _ = cm.grant(FlowId(f as u32), n as u64);
                }
                CreditOp::GrantEvenly(ids) => {
                    let ids: Vec<FlowId> = ids.into_iter().map(|i| FlowId(i as u32)).collect();
                    cm.grant_evenly(&ids);
                }
            }
            prop_assert!(cm.conserved(), "conservation violated after an op");
            prop_assert!(cm.outstanding() <= total);
            prop_assert!(cm.free_pool() <= total);
        }
    }

    /// Outstanding credits exactly track successful consumes minus
    /// releases (clamped at zero), independent of reallocation noise.
    #[test]
    fn outstanding_tracks_consume_release(
        total in 64u64..4096,
        consumes in 0u64..256,
        releases in 0u64..256,
    ) {
        let mut cm = CreditManager::new(total);
        cm.add_flows(&[FlowId(1)]);
        let mut ok = 0u64;
        for _ in 0..consumes {
            if cm.try_consume(FlowId(1)) {
                ok += 1;
            }
        }
        prop_assert_eq!(cm.outstanding(), ok);
        cm.release(FlowId(1), releases);
        prop_assert_eq!(cm.outstanding(), ok.saturating_sub(releases));
        prop_assert!(cm.conserved());
    }
}

/// Operations against the software ring.
#[derive(Debug, Clone)]
enum RingOp {
    PushFast,
    PushSlow,
    Recv(u8),
    CompleteFetches,
}

fn ring_op() -> impl Strategy<Value = RingOp> {
    prop_oneof![
        3 => Just(RingOp::PushFast),
        2 => Just(RingOp::PushSlow),
        3 => (1u8..64).prop_map(RingOp::Recv),
        2 => Just(RingOp::CompleteFetches),
    ]
}

proptest! {
    /// In-order delivery: under any interleaving, `async_recv` hands back
    /// items in exactly the order they were pushed, with no loss or
    /// duplication, and everything drains once all fetches complete.
    #[test]
    fn swring_delivers_in_push_order(ops in prop::collection::vec(ring_op(), 1..300)) {
        let mut ring: SwRing<u64> = SwRing::new(4096, 16);
        let mut next = 0u64;
        let mut delivered: Vec<u64> = Vec::new();
        for op in ops {
            match op {
                RingOp::PushFast => {
                    if ring.push_fast(next).is_ok() {
                        next += 1;
                    }
                }
                RingOp::PushSlow => {
                    let _ = ring.push_slow(next);
                    next += 1;
                }
                RingOp::Recv(max) => {
                    delivered.extend(ring.async_recv(max as usize).delivered);
                }
                RingOp::CompleteFetches => {
                    let inflight = ring.fetching();
                    ring.fetch_complete(inflight);
                }
            }
            // Conservation at every step: nothing pushed is ever lost or
            // duplicated, whatever the interleaving.
            prop_assert_eq!(
                ring.delivered() + ring.len() as u64,
                next,
                "delivered() + len() must equal pushed total"
            );
        }
        // Drain: complete fetches and receive until quiescent.
        for _ in 0..next + 8 {
            let inflight = ring.fetching();
            ring.fetch_complete(inflight);
            let out = ring.async_recv(64);
            delivered.extend(out.delivered);
            if ring.is_empty() {
                break;
            }
        }
        prop_assert!(ring.is_empty(), "ring must drain fully");
        prop_assert_eq!(delivered.len() as u64, next, "no loss, no duplication");
        for (i, &v) in delivered.iter().enumerate() {
            prop_assert_eq!(v, i as u64, "delivery out of order at {}", i);
        }
        prop_assert_eq!(ring.delivered(), next);
    }

    /// The fast ring's occupancy bound is never violated and push_fast
    /// fails exactly when the bound is reached.
    #[test]
    fn swring_fast_capacity_enforced(cap in 1usize..64, pushes in 1usize..200) {
        let mut ring: SwRing<usize> = SwRing::new(cap, 8);
        let mut accepted = 0;
        for i in 0..pushes {
            if ring.push_fast(i).is_ok() {
                accepted += 1;
            }
            prop_assert!(ring.fast_occupancy() <= cap);
        }
        prop_assert_eq!(accepted, pushes.min(cap));
    }

    /// Regression property for the occupancy confusion the bounded model
    /// checker caught: delivering *fetched slow* entries must not release
    /// fast-path capacity, because they never held an RX-ring descriptor.
    /// After delivering any number of slow entries, the ring accepts
    /// exactly `cap - undelivered_fast` further fast pushes — never more.
    #[test]
    fn swring_slow_delivery_does_not_free_fast_slots(
        cap in 1usize..16,
        slow in 1usize..32,
        fast_before in 0usize..16,
    ) {
        let mut ring: SwRing<usize> = SwRing::new(cap, 64);
        let mut fast_held = 0;
        for i in 0..fast_before {
            if ring.push_fast(i).is_ok() {
                fast_held += 1;
            }
        }
        for j in 0..slow {
            let _ = ring.push_slow(1000 + j);
        }
        // Deliver everything currently deliverable plus all slow entries.
        let _ = ring.async_recv(usize::MAX);
        ring.fetch_complete(ring.fetching());
        while !ring.is_empty() {
            let out = ring.async_recv(usize::MAX);
            ring.fetch_complete(ring.fetching());
            if out.delivered.is_empty() && out.fetch_issued == 0 {
                break;
            }
        }
        prop_assert!(ring.is_empty());
        // All fast entries were delivered too, so the full capacity — and
        // not one slot more — must now be available.
        let mut reaccepted = 0;
        for i in 0..cap + slow {
            if ring.push_fast(i).is_ok() {
                reaccepted += 1;
            }
        }
        prop_assert_eq!(reaccepted, cap, "freed slots must equal capacity exactly");
        let _ = fast_held;
    }
}

/// Operations against the *leased* credit manager: the base alphabet plus
/// watchdog time advancement. Models a chaotic environment where lazy
/// releases can be lost (a consume with no matching release) or arrive
/// late (after the watchdog reclaimed the grant).
#[derive(Debug, Clone)]
enum LeasedOp {
    Base(CreditOp),
    /// Advance the lease clock by `ticks` nanoseconds and run the
    /// watchdog.
    AdvanceExpire(u8),
}

fn leased_op() -> impl Strategy<Value = LeasedOp> {
    prop_oneof![
        4 => credit_op().prop_map(LeasedOp::Base),
        1 => (1u8..200).prop_map(LeasedOp::AdvanceExpire),
    ]
}

proptest! {
    /// Lease safety under arbitrary chaos: whatever interleaving of
    /// consumes, (possibly stale) releases, reallocation, and watchdog
    /// sweeps occurs, Eq. 1 conservation holds, the lease ledger tracks
    /// `outstanding` exactly (leases are armed from birth, so every grant
    /// carries one), and a final watchdog sweep past every TTL returns
    /// *all* outstanding credits — lost releases can delay recycling but
    /// never strand credit.
    #[test]
    fn leased_credit_manager_conserves_and_reclaims(
        total in 1u64..2000,
        ttl in 1u64..100,
        ops in prop::collection::vec(leased_op(), 1..150),
    ) {
        use ceio_sim::{Duration, Time};
        let mut cm = CreditManager::new(total);
        cm.enable_leases(Duration::nanos(ttl));
        let mut now = 0u64;
        for op in ops {
            match op {
                LeasedOp::Base(CreditOp::AddFlows(ids)) => {
                    let ids: Vec<FlowId> = ids.into_iter().map(|i| FlowId(i as u32)).collect();
                    cm.add_flows(&ids);
                }
                LeasedOp::Base(CreditOp::Remove(f)) => cm.remove_flow(FlowId(f as u32)),
                LeasedOp::Base(CreditOp::Consume(f, n)) => {
                    for _ in 0..n {
                        let _ = cm.try_consume(FlowId(f as u32));
                    }
                }
                LeasedOp::Base(CreditOp::Release(f, n)) => cm.release(FlowId(f as u32), n as u64),
                LeasedOp::Base(CreditOp::Reclaim(f)) => {
                    let _ = cm.reclaim(FlowId(f as u32));
                }
                LeasedOp::Base(CreditOp::Grant(f, n)) => {
                    let _ = cm.grant(FlowId(f as u32), n as u64);
                }
                LeasedOp::Base(CreditOp::GrantEvenly(ids)) => {
                    let ids: Vec<FlowId> = ids.into_iter().map(|i| FlowId(i as u32)).collect();
                    cm.grant_evenly(&ids);
                }
                LeasedOp::AdvanceExpire(ticks) => {
                    now += ticks as u64;
                    cm.set_now(Time(now));
                    let _ = cm.expire_leases();
                }
            }
            prop_assert!(cm.conserved(), "conservation violated after an op");
            prop_assert_eq!(
                cm.live_leases(),
                cm.outstanding(),
                "armed-from-birth: every outstanding grant must hold a lease"
            );
        }
        // Final watchdog sweep past every possible TTL: nothing stays
        // stranded in `outstanding`, however many releases were lost.
        now += ttl + 1;
        cm.set_now(Time(now));
        let _ = cm.expire_leases();
        prop_assert_eq!(cm.outstanding(), 0, "watchdog must reclaim every lost grant");
        prop_assert!(cm.conserved());
        // Late (stale) releases after the sweep are dropped, never
        // double-credited.
        let pool = cm.free_pool();
        cm.release(FlowId(0), 5);
        prop_assert_eq!(cm.free_pool(), pool, "stale release must not mint credit");
        prop_assert!(cm.conserved());
    }
}

/// Every ledger mutator, for the running-total check: the base alphabet
/// plus pool diversion, the hierarchical borrow/return pair and the lease
/// watchdog.
#[derive(Debug, Clone)]
enum LedgerOp {
    Base(CreditOp),
    ReleaseToPool(u8, u8),
    Inject(u16),
    Withdraw(u16),
    AdvanceExpire(u8),
}

fn ledger_op() -> impl Strategy<Value = LedgerOp> {
    prop_oneof![
        6 => credit_op().prop_map(LedgerOp::Base),
        1 => (0u8..16, 1u8..64).prop_map(|(f, n)| LedgerOp::ReleaseToPool(f, n)),
        1 => (0u16..512).prop_map(LedgerOp::Inject),
        1 => (0u16..512).prop_map(LedgerOp::Withdraw),
        1 => (1u8..200).prop_map(LedgerOp::AdvanceExpire),
    ]
}

proptest! {
    /// The running assigned total that makes `conserved()` O(1) equals a
    /// recount of the per-flow ledgers after every operation of every
    /// mutator, so Eq. 1 is never checked only against its own counter.
    /// A third view, the sum of `credits(f)` over every id the ops can
    /// name, pins the recount itself.
    #[test]
    fn running_assigned_total_matches_recount(
        total in 1u64..4000,
        leased in any::<bool>(),
        ops in prop::collection::vec(ledger_op(), 1..200),
    ) {
        use ceio_sim::{Duration, Time};
        let mut cm = CreditManager::new(total);
        if leased {
            cm.enable_leases(Duration::nanos(50));
        }
        let mut now = 0u64;
        for op in ops {
            match op {
                LedgerOp::Base(CreditOp::AddFlows(ids)) => {
                    let ids: Vec<FlowId> = ids.into_iter().map(|i| FlowId(i as u32)).collect();
                    cm.add_flows(&ids);
                }
                LedgerOp::Base(CreditOp::Remove(f)) => cm.remove_flow(FlowId(f as u32)),
                LedgerOp::Base(CreditOp::Consume(f, n)) => {
                    for _ in 0..n {
                        let _ = cm.try_consume(FlowId(f as u32));
                    }
                }
                LedgerOp::Base(CreditOp::Release(f, n)) => cm.release(FlowId(f as u32), n as u64),
                LedgerOp::Base(CreditOp::Reclaim(f)) => {
                    let _ = cm.reclaim(FlowId(f as u32));
                }
                LedgerOp::Base(CreditOp::Grant(f, n)) => {
                    let _ = cm.grant(FlowId(f as u32), n as u64);
                }
                LedgerOp::Base(CreditOp::GrantEvenly(ids)) => {
                    let ids: Vec<FlowId> = ids.into_iter().map(|i| FlowId(i as u32)).collect();
                    cm.grant_evenly(&ids);
                }
                LedgerOp::ReleaseToPool(f, n) => cm.release_to_pool(FlowId(f as u32), n as u64),
                LedgerOp::Inject(n) => cm.inject_pool(n as u64),
                LedgerOp::Withdraw(n) => {
                    let _ = cm.withdraw_pool(n as u64);
                }
                LedgerOp::AdvanceExpire(ticks) => {
                    now += ticks as u64;
                    cm.set_now(Time(now));
                    let _ = cm.expire_leases();
                }
            }
            let by_id: u64 = (0..16).map(|i| cm.credits(FlowId(i))).sum();
            prop_assert_eq!(cm.assigned(), cm.assigned_total(), "running total drifted from recount");
            prop_assert_eq!(cm.assigned_total(), by_id);
            prop_assert!(cm.conserved());
            prop_assert_eq!(cm.assigned() + cm.free_pool() + cm.outstanding(), cm.total());
        }
    }
}
