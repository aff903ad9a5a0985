//! The reconfigurable match-action (RMT) flow-steering engine.
//!
//! CEIO's flow controller offloads one steering rule per flow at connection
//! establishment (§4.1, Fig. 6). The rule initially directs packets to the
//! fast path (legacy DMA); when the flow's credits exhaust, the controller
//! rewrites the rule's action to divert packets into on-NIC memory. The
//! engine exposes per-rule hit counters, which the controller polls to track
//! credit consumption — exactly the paper's control loop.

use crate::queue::QueueId;
use ceio_sim::IdMap;
use serde::Serialize;
use std::hash::Hash;

/// Where the RMT engine steers a matched packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum SteerAction {
    /// Legacy I/O: DMA to the host ring of queue `queue`.
    FastPath {
        /// Destination RX queue.
        queue: QueueId,
    },
    /// Elastic buffering: DMA into on-NIC memory (CEIO slow path).
    SlowPath,
    /// Drop the packet (no rule / admission refused).
    Drop,
}

/// Per-rule state.
#[derive(Debug, Clone)]
struct Rule {
    action: SteerAction,
    hits: u64,
    hits_at_last_poll: u64,
}

/// Engine statistics.
#[derive(Debug, Default, Clone, Serialize)]
pub struct RmtStats {
    /// Lookups that matched a rule.
    pub matched: u64,
    /// Lookups that fell through to the default action.
    pub defaulted: u64,
    /// Rule-action rewrites performed.
    pub updates: u64,
    /// Rewrites that left the fast path (fast → slow/drop).
    pub rewrites_to_slow: u64,
    /// Rewrites that restored the fast path (slow/drop → fast).
    pub rewrites_to_fast: u64,
    /// Fast → fast rewrites that moved the flow to a *different* RX queue
    /// (RSS re-steer); same-queue fast → fast rewrites count only as
    /// `updates`.
    pub rewrites_queue_move: u64,
}

/// The match-action steering table, keyed by flow identifier `K`.
///
/// Rules live in an [`IdMap`]: a packet's match is one hashed probe (the
/// hardware's exact-match lookup), while [`RmtEngine::keys`] still lists
/// installed rules in ascending key order, so every sweep over them is
/// deterministic and independent of hashing.
#[derive(Debug)]
pub struct RmtEngine<K> {
    rules: IdMap<K, Rule>,
    default_action: SteerAction,
    stats: RmtStats,
}

impl<K: Ord + Hash + Copy> RmtEngine<K> {
    /// An empty table with the given default action for unmatched packets.
    pub fn new(default_action: SteerAction) -> RmtEngine<K> {
        RmtEngine {
            rules: IdMap::new(),
            default_action,
            stats: RmtStats::default(),
        }
    }

    /// Install (or replace) the rule for `key`.
    pub fn install(&mut self, key: K, action: SteerAction) {
        self.rules.insert(
            key,
            Rule {
                action,
                hits: 0,
                hits_at_last_poll: 0,
            },
        );
    }

    /// Remove the rule for `key`; returns whether one existed.
    pub fn remove(&mut self, key: &K) -> bool {
        self.rules.remove(key).is_some()
    }

    /// Rewrite the action of an existing rule. Returns `false` if absent.
    pub fn set_action(&mut self, key: &K, action: SteerAction) -> bool {
        match self.rules.get_mut(key) {
            Some(r) => {
                match (r.action, action) {
                    (
                        SteerAction::FastPath { queue: from },
                        SteerAction::FastPath { queue: to },
                    ) if from != to => self.stats.rewrites_queue_move += 1,
                    (SteerAction::FastPath { .. }, SteerAction::FastPath { .. }) => {}
                    (SteerAction::FastPath { .. }, _) => self.stats.rewrites_to_slow += 1,
                    (_, SteerAction::FastPath { .. }) => self.stats.rewrites_to_fast += 1,
                    _ => {}
                }
                r.action = action;
                self.stats.updates += 1;
                true
            }
            None => false,
        }
    }

    /// Current action of a rule, if installed (no hit counting).
    pub fn action(&self, key: &K) -> Option<SteerAction> {
        self.rules.get(key).map(|r| r.action)
    }

    /// Steer one packet: returns the matched rule's action (incrementing
    /// its hit counter) or the default action.
    pub fn steer(&mut self, key: &K) -> SteerAction {
        match self.rules.get_mut(key) {
            Some(r) => {
                r.hits += 1;
                self.stats.matched += 1;
                r.action
            }
            None => {
                self.stats.defaulted += 1;
                self.default_action
            }
        }
    }

    /// Lifetime hit count of a rule.
    pub fn hits(&self, key: &K) -> u64 {
        self.rules.get(key).map(|r| r.hits).unwrap_or(0)
    }

    /// Hits since the previous poll of this rule (the counter delta the
    /// flow controller consumes each polling interval).
    pub fn poll_hits(&mut self, key: &K) -> u64 {
        match self.rules.get_mut(key) {
            Some(r) => {
                let d = r.hits - r.hits_at_last_poll;
                r.hits_at_last_poll = r.hits;
                d
            }
            None => 0,
        }
    }

    /// Number of installed rules.
    #[inline]
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the table is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Read-only statistics.
    #[inline]
    pub fn stats(&self) -> &RmtStats {
        &self.stats
    }

    /// Iterate over installed keys in ascending key order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.rules.keys()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast(queue: usize) -> SteerAction {
        SteerAction::FastPath {
            queue: QueueId(queue),
        }
    }

    #[test]
    fn steer_matches_installed_rule() {
        let mut rmt = RmtEngine::new(SteerAction::Drop);
        rmt.install(1u64, fast(3));
        assert_eq!(rmt.steer(&1), fast(3));
        assert_eq!(rmt.steer(&2), SteerAction::Drop);
        assert_eq!(rmt.stats().matched, 1);
        assert_eq!(rmt.stats().defaulted, 1);
    }

    #[test]
    fn set_action_rewrites_in_place() {
        let mut rmt = RmtEngine::new(SteerAction::Drop);
        rmt.install(1u64, fast(0));
        assert!(rmt.set_action(&1, SteerAction::SlowPath));
        assert_eq!(rmt.steer(&1), SteerAction::SlowPath);
        assert!(!rmt.set_action(&9, SteerAction::SlowPath));
        assert_eq!(rmt.stats().updates, 1);
    }

    #[test]
    fn rewrite_direction_counters() {
        let mut rmt = RmtEngine::new(SteerAction::Drop);
        rmt.install(1u64, fast(0));
        rmt.set_action(&1, SteerAction::SlowPath);
        rmt.set_action(&1, fast(1));
        // Fast→fast queue change is neither direction: it is a queue move.
        rmt.set_action(&1, fast(2));
        assert_eq!(rmt.stats().rewrites_to_slow, 1);
        assert_eq!(rmt.stats().rewrites_to_fast, 1);
        assert_eq!(rmt.stats().rewrites_queue_move, 1);
        assert_eq!(rmt.stats().updates, 3);
    }

    #[test]
    fn queue_move_accounting() {
        let mut rmt = RmtEngine::new(SteerAction::Drop);
        rmt.install(1u64, fast(0));
        // Same-queue fast→fast rewrite: an update, not a move.
        rmt.set_action(&1, fast(0));
        assert_eq!(rmt.stats().rewrites_queue_move, 0);
        assert_eq!(rmt.stats().updates, 1);
        // Distinct-queue fast→fast rewrites count, each time.
        rmt.set_action(&1, fast(2));
        rmt.set_action(&1, fast(1));
        assert_eq!(rmt.stats().rewrites_queue_move, 2);
        // The rule keeps steering to the latest queue.
        assert_eq!(rmt.steer(&1), fast(1));
        // Leaving and re-entering the fast path is directional traffic,
        // not a move — even when the queue differs across the detour.
        rmt.set_action(&1, SteerAction::SlowPath);
        rmt.set_action(&1, fast(3));
        assert_eq!(rmt.stats().rewrites_queue_move, 2);
        assert_eq!(rmt.stats().rewrites_to_slow, 1);
        assert_eq!(rmt.stats().rewrites_to_fast, 1);
        // Slow → drop → slow never touches any fast counter.
        rmt.set_action(&1, SteerAction::Drop);
        rmt.set_action(&1, SteerAction::SlowPath);
        assert_eq!(rmt.stats().rewrites_to_slow, 2); // fast(3) → Drop above
        assert_eq!(rmt.stats().rewrites_to_fast, 1);
        assert_eq!(rmt.stats().rewrites_queue_move, 2);
        assert_eq!(rmt.stats().updates, 7);
    }

    #[test]
    fn hit_counters_and_poll_deltas() {
        let mut rmt = RmtEngine::new(SteerAction::Drop);
        rmt.install(1u64, SteerAction::SlowPath);
        for _ in 0..5 {
            rmt.steer(&1);
        }
        assert_eq!(rmt.hits(&1), 5);
        assert_eq!(rmt.poll_hits(&1), 5);
        rmt.steer(&1);
        assert_eq!(rmt.poll_hits(&1), 1);
        assert_eq!(rmt.poll_hits(&1), 0);
        assert_eq!(rmt.hits(&1), 6);
    }

    #[test]
    fn remove_uninstalls() {
        let mut rmt = RmtEngine::new(SteerAction::Drop);
        rmt.install(1u64, SteerAction::SlowPath);
        assert!(rmt.remove(&1));
        assert!(!rmt.remove(&1));
        assert_eq!(rmt.steer(&1), SteerAction::Drop);
        assert!(rmt.is_empty());
    }

    #[test]
    fn reinstall_resets_counters() {
        let mut rmt = RmtEngine::new(SteerAction::Drop);
        rmt.install(1u64, SteerAction::SlowPath);
        rmt.steer(&1);
        rmt.install(1u64, fast(0));
        assert_eq!(rmt.hits(&1), 0);
    }
}
