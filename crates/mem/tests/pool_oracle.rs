//! Differential oracle for the pool LLC.
//!
//! `reference` holds the pool model as it was before its recency order
//! moved from a `seq → id` map onto an intrusive list over an arena. The
//! rewrite must make exactly the same decisions, so both are driven
//! through the same random insert/lookup/consume/bypass traces — byte
//! sizes that are not line multiples, buffers larger than the whole
//! partition, and an id space small enough that refreshes, re-inserts
//! after eviction and reuse of freed arena slots are all common — and
//! every observable must agree after every step: eviction lists in order,
//! hit/miss results, every statistics counter, occupancy and residency.

#[path = "reference/pool.rs"]
mod reference;

use ceio_mem::{BufferId, IoLlc};
use proptest::prelude::*;

/// Ids are drawn from a space of this size: large enough for dozens of
/// residents, small enough that most ids come back while resident or
/// after being evicted or consumed.
const IDS: u64 = 64;

/// One step of a random trace. Insert sizes are raw draws, reduced against
/// the capacity in the test body.
#[derive(Debug, Clone)]
enum Op {
    /// A buffer of at most an eighth of the partition (any byte count).
    InsertSmall(u64, u64),
    /// A buffer of up to twice the partition: with other residents it
    /// evicts many at once; alone it leaves the pool over capacity.
    InsertLarge(u64, u64),
    Lookup(u64),
    Consume(u64),
    Bypass(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (0..IDS, any::<u64>()).prop_map(|(id, raw)| Op::InsertSmall(id, raw)),
        1 => (0..IDS, any::<u64>()).prop_map(|(id, raw)| Op::InsertLarge(id, raw)),
        4 => (0..IDS).prop_map(Op::Lookup),
        3 => (0..IDS).prop_map(Op::Consume),
        1 => (1u64..=4096).prop_map(Op::Bypass),
    ]
}

/// Every observable of the two models agrees.
fn agree(new: &IoLlc, old: &reference::IoLlc) -> Result<(), TestCaseError> {
    // `LlcStats` has no `PartialEq`; its `Debug` form lists every field.
    prop_assert_eq!(format!("{:?}", new.stats()), format!("{:?}", old.stats()));
    prop_assert_eq!(new.occupancy(), old.occupancy());
    prop_assert_eq!(new.capacity(), old.capacity());
    prop_assert_eq!(new.resident_count(), old.resident_count());
    for id in 0..IDS {
        prop_assert_eq!(
            new.contains(BufferId(id)),
            old.contains(BufferId(id)),
            "residency of {} diverges",
            id
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn rewritten_pool_matches_reference(
        capacity in 1u64..=64 * 1024,
        ops in prop::collection::vec(op_strategy(), 1..400)
    ) {
        let mut new = IoLlc::new(capacity);
        let mut old = reference::IoLlc::new(capacity);
        for op in &ops {
            match *op {
                Op::InsertSmall(id, raw) => {
                    let bytes = 1 + raw % (capacity / 8 + 1);
                    prop_assert_eq!(new.insert(BufferId(id), bytes), old.insert(BufferId(id), bytes));
                }
                Op::InsertLarge(id, raw) => {
                    let bytes = 1 + raw % (2 * capacity);
                    prop_assert_eq!(new.insert(BufferId(id), bytes), old.insert(BufferId(id), bytes));
                }
                Op::Lookup(id) => {
                    prop_assert_eq!(new.lookup(BufferId(id)), old.lookup(BufferId(id)));
                }
                Op::Consume(id) => {
                    new.consume(BufferId(id));
                    old.consume(BufferId(id));
                }
                Op::Bypass(bytes) => {
                    new.bypass(bytes);
                    old.bypass(bytes);
                }
            }
            agree(&new, &old)?;
        }
    }
}
