//! Fixed, seedless hashing for id-keyed lookup tables.
//!
//! The simulator keys its per-packet state by small integer ids (flow ids,
//! buffer ids). Those tables want O(1) lookup, but the standard library's
//! default hasher is seeded from process entropy: harmless for lookups,
//! fatal for replay the moment anyone iterates such a map. This module
//! supplies the deterministic alternative: one SplitMix64 finalizer
//! ([`mix`]), a [`Hasher`] built on it ([`IdHasher`]) and the map type
//! that uses it ([`IdHashMap`]). The same inputs hash to the same buckets
//! in every process.
//!
//! An [`IdHashMap`] is an *index*: look up, insert, remove — never
//! iterate. Where an ordered sweep is needed, use [`crate::IdMap`], which
//! keeps its entries in id order beside such an index. The static
//! analyzer's determinism rule treats this alias as a hash type, so an
//! iteration over one in simulation code fails `cargo xtask analyze`.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// SplitMix64 finalizer (Steele, Lea and Flood): a pure bijective mixer
/// of a 64-bit word. Used for LLC set placement, RSS queue selection, RNG
/// seed expansion and [`IdHasher`].
#[inline]
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A [`Hasher`] for integer ids: each written word is folded in with
/// [`mix`]. It has no seed, so it is deterministic across processes, and a
/// single-word key hashes to `mix(key)`, which spreads dense ids over all
/// 64 bits (the bucket index and the tag bits alike).
///
/// Keys come from inside the simulator, never from outside input, so the
/// lack of collision resistance against crafted keys does not matter.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = mix(self.0 ^ u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = mix(self.0 ^ n);
    }
}

/// A `HashMap` hashed by [`IdHasher`]: deterministic bucket placement, no
/// per-process seed. Build one with `IdHashMap::default()`. Lookup only;
/// never iterate it in simulation code.
pub type IdHashMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(t: &T) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(t)
    }

    #[test]
    fn mix_matches_splitmix64_reference_outputs() {
        // First outputs of the SplitMix64 generator seeded with 0 are
        // mix(0), mix(golden), mix(2 * golden), ...
        assert_eq!(mix(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(mix(0x9e37_79b9_7f4a_7c15), 0x6e78_9e6a_a1b9_65f4);
    }

    #[test]
    fn integer_keys_hash_to_their_mix() {
        assert_eq!(hash_of(&7u32), mix(7));
        assert_eq!(hash_of(&7u64), mix(7));
        assert_eq!(hash_of(&u32::MAX), mix(u64::from(u32::MAX)));
    }

    #[test]
    fn hashing_is_the_same_in_every_hasher_instance() {
        let a = hash_of(&(3u32, 9u64));
        let b = hash_of(&(3u32, 9u64));
        assert_eq!(a, b);
        assert_ne!(a, hash_of(&(9u32, 3u64)));
    }
}
