//! Differential oracle for the set-associative LLC.
//!
//! `reference` holds the model as it was before its storage was rewritten
//! (per-buffer line lists, a map lookup per victim candidate, a two-pass
//! way claim). The rewrite must make exactly the same placement and
//! eviction decisions, so both are driven through the same random
//! insert/lookup/consume/bypass traces over random geometries — antagonist
//! on and off, overlapping the DDIO ways or not, buffers that wrap the set
//! index and buffers larger than the whole partition — and every
//! observable must agree after every step: eviction lists in order,
//! hit/miss results, every statistics counter, occupancy, residency and
//! per-way line counts.

mod reference;

use ceio_mem::{BufferId, SetAssocLlc, SetAssocParams, LINE_BYTES};
use proptest::prelude::*;

/// Ids are drawn from a small space so re-inserts of resident buffers and
/// lookups after eviction are common.
const IDS: u64 = 12;

/// One step of a random trace. Insert sizes are raw draws, reduced against
/// the geometry in the test body.
#[derive(Debug, Clone)]
enum Op {
    /// A buffer of 1..=8 lines worth of bytes (not always line multiples).
    InsertSmall(u64, u64),
    /// A buffer of up to 3 × `sets` lines: wraps the set index and, with
    /// few DDIO ways, exceeds the partition.
    InsertLarge(u64, u64),
    Lookup(u64),
    Consume(u64),
    Bypass(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0..IDS, 1u64..=8 * LINE_BYTES).prop_map(|(id, b)| Op::InsertSmall(id, b)),
        2 => (0..IDS, any::<u64>()).prop_map(|(id, raw)| Op::InsertLarge(id, raw)),
        2 => (0..IDS).prop_map(Op::Lookup),
        2 => (0..IDS).prop_map(Op::Consume),
        1 => (1u64..=4096).prop_map(Op::Bypass),
    ]
}

/// Raw geometry draw: `(sets, total_ways, ddio draw, overlap draw,
/// app_lines_per_insert)`; the two draws are reduced to
/// `1..=total_ways` and `0..=ddio_ways`.
fn geometry_strategy() -> impl Strategy<Value = (usize, usize, usize, usize, u32)> {
    (
        1usize..=64,
        1usize..=16,
        any::<usize>(),
        any::<usize>(),
        0u32..=8,
    )
}

/// Both models over one geometry.
fn build(g: (usize, usize, usize, usize, u32)) -> (SetAssocLlc, reference::SetAssocLlc) {
    let (sets, total_ways, ddio_raw, overlap_raw, app_lines_per_insert) = g;
    let ddio_ways = 1 + ddio_raw % total_ways;
    let app_overlap_ways = overlap_raw % (ddio_ways + 1);
    let new = SetAssocLlc::new(SetAssocParams {
        sets,
        total_ways,
        ddio_ways,
        app_lines_per_insert,
        app_overlap_ways,
    });
    let old = reference::SetAssocLlc::new(reference::SetAssocParams {
        sets,
        total_ways,
        ddio_ways,
        app_lines_per_insert,
        app_overlap_ways,
    });
    (new, old)
}

/// Every observable of the two models agrees.
fn agree(new: &SetAssocLlc, old: &reference::SetAssocLlc) -> Result<(), TestCaseError> {
    // `LlcStats` has no `PartialEq`; its `Debug` form lists every field.
    prop_assert_eq!(format!("{:?}", new.stats()), format!("{:?}", old.stats()));
    prop_assert_eq!(new.occupancy(), old.occupancy());
    prop_assert_eq!(new.capacity(), old.capacity());
    prop_assert_eq!(new.resident_count(), old.resident_count());
    let (wn, wo) = (new.way_occupancy(), old.way_occupancy());
    prop_assert_eq!(wn.io_lines, wo.io_lines);
    prop_assert_eq!(wn.app_lines, wo.app_lines);
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
    fn rewritten_model_matches_reference(
        geometry in geometry_strategy(),
        ops in prop::collection::vec(op_strategy(), 1..160)
    ) {
        let (mut new, mut old) = build(geometry);
        let large = 3 * new.params().sets as u64 * LINE_BYTES;
        for op in &ops {
            match *op {
                Op::InsertSmall(id, bytes) => {
                    prop_assert_eq!(new.insert(BufferId(id), bytes), old.insert(BufferId(id), bytes));
                }
                Op::InsertLarge(id, raw) => {
                    let bytes = 1 + raw % large;
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
