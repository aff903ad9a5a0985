// Known-bad fixture for hash-type aliases under the determinism rule.
// Each construct marked `finding` must produce exactly one finding; the
// `ok` items must produce none.
use std::collections::{BTreeMap, HashMap, HashSet};

/// Aliases hide the hash type from the field's type text.
pub type Index<K> = HashMap<K, u32>;
type Seen = HashSet<u64>;
/// An alias of an alias, declared before the alias it names resolves.
type Nested = Inner;
type Inner = Index<u64>;
/// An ordered alias is not a hash type.
type Ordered = BTreeMap<u64, u32>;

pub struct Table {
    by_id: Index<u64>,
    chained: Nested,
    sorted: Ordered,
}

impl Table {
    // finding: `.keys()` on a field typed through an alias.
    pub fn ids(&self) -> Vec<u64> {
        self.by_id.keys().copied().collect()
    }

    // finding: `for … in` over a field typed through an alias chain.
    pub fn total(&self) -> u32 {
        let mut acc = 0;
        for (_, v) in &self.chained {
            acc += v;
        }
        acc
    }

    // no finding: lookups on an aliased hash field are fine.
    pub fn find(&self, id: u64) -> Option<u32> {
        self.by_id.get(&id).copied()
    }

    // no finding: the ordered alias iterates deterministically.
    pub fn ordered_ok(&self) -> u32 {
        self.sorted.values().sum()
    }
}

// finding: `.iter()` on a local whose type is an alias.
pub fn local_alias(xs: &[u64]) -> u64 {
    let mut seen: Seen = Seen::default();
    seen.extend(xs.iter().copied());
    seen.iter().sum()
}
