//! Fast hashing for small integer keys.
//!
//! Graph algorithms in this workspace hash node ids and `(u32, u32)` edge
//! keys in hot loops (adjacency multiplicity lookups, position indices,
//! visited sets). `std`'s default SipHash is DoS-resistant but slow for such
//! keys; the classic Fx mixing function (as used by rustc via the
//! `rustc-hash` crate) is a drop-in replacement that is far faster. We
//! implement it locally (~30 lines) instead of adding a dependency, which
//! also keeps iteration order deterministic given deterministic insertion
//! order — important for reproducible experiments.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx hash state: multiply-rotate mixing of input words.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with the Fx hash function.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with the Fx hash function.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// Convenience constructor mirroring `HashSet::with_capacity`.
pub fn fx_set_with_capacity<T>(cap: usize) -> FxHashSet<T> {
    FxHashSet::with_capacity_and_hasher(cap, FxBuildHasher::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_one<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<u32, u32> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert(i, i * 2);
        }
        for i in 0..1000u32 {
            assert_eq!(m.get(&i), Some(&(i * 2)));
        }
        assert_eq!(m.len(), 1000);
    }

    #[test]
    fn set_roundtrip() {
        let mut s: FxHashSet<(u32, u32)> = FxHashSet::default();
        for i in 0..100u32 {
            for j in 0..10u32 {
                s.insert((i, j));
            }
        }
        assert_eq!(s.len(), 1000);
        assert!(s.contains(&(99, 9)));
        assert!(!s.contains(&(100, 0)));
    }

    #[test]
    fn hash_is_deterministic() {
        assert_eq!(hash_one(&12345u64), hash_one(&12345u64));
        assert_eq!(hash_one(&(3u32, 4u32)), hash_one(&(3u32, 4u32)));
    }

    #[test]
    fn hash_spreads_small_keys() {
        // Consecutive keys should not collide in the low bits used by the
        // table; check a weak spread criterion.
        let hashes: Vec<u64> = (0..64u32).map(|i| hash_one(&i)).collect();
        let distinct_low: FxHashSet<u64> = hashes.iter().map(|h| h & 0xFFFF).collect();
        assert!(distinct_low.len() > 60, "low bits collide too much");
    }

    #[test]
    fn byte_slices_hash_consistently() {
        let a = b"hello world, this is a test".to_vec();
        let b = a.clone();
        assert_eq!(hash_one(&a), hash_one(&b));
    }

    #[test]
    fn capacity_constructors() {
        let s: FxHashSet<u32> = fx_set_with_capacity(100);
        assert!(s.capacity() >= 100);
    }
}
