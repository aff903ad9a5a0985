//! A fixed reference kernel, timed right before and after every untraced
//! simulation so that drift in the host's own speed can be divided out of
//! `sim_ms_per_ref_s`.
//!
//! Shared virtual machines drift between fast and slow phases, about 30%
//! apart and seconds to minutes long, which no run length averages out.
//! The kernel does the kind of work the simulator does (ordered-map churn
//! and a binary-heap event loop over a small working set), and it never
//! changes with the program under test. On a 2-vCPU KVM guest its speed
//! and `kv`'s correlated at 0.81 over 190 simulations, and dividing by it
//! cut the spread of 30 s window medians from 0.16 to 0.04.

use std::collections::{BTreeMap, BinaryHeap};
use std::time::Instant;

/// Rounds per timing: 30 to 50 ms on the guest above.
const ROUNDS: u64 = 300_000;

/// The reference speed, in rounds per host second, that normalised rates
/// are scaled to (about the guest's fast phase).
pub const NOMINAL_ROUNDS_PER_S: f64 = 9.0e6;

/// Run the kernel once and return its speed in rounds per host second.
pub fn speed() -> f64 {
    let t0 = Instant::now();
    let mut map: BTreeMap<u64, u64> = BTreeMap::new();
    let mut heap: BinaryHeap<(u64, u64)> = BinaryHeap::new();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0u64;
    for i in 0..ROUNDS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let v = map.entry(x % 4096).or_insert(i);
        *v = v.wrapping_add(i);
        acc ^= *v;
        if map.len() > 2048 {
            map.pop_first();
        }
        heap.push((x % 100_000, i));
        if heap.len() > 700 {
            acc = acc.wrapping_add(heap.pop().map_or(0, |e| e.0));
        }
    }
    std::hint::black_box(acc);
    ROUNDS as f64 / t0.elapsed().as_secs_f64()
}
