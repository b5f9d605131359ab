//! A fast, non-cryptographic hasher for integer keys.
//!
//! The hot maps in this workspace are keyed by `UserId` (`u64`). The
//! standard library's SipHash 1-3 is robust against HashDoS but costly for
//! short integer keys; in a simulator the adversarial-input concern does not
//! apply, so we use the Fx algorithm (the multiply-rotate-xor scheme used
//! inside rustc). Implemented here in ~40 lines rather than pulling the
//! `rustc-hash` crate, keeping the workspace on the pre-approved dependency
//! set. Ablation B4 (`hotpath`'s `d_hasher_b4_ns_per_key`) measures the win over SipHash.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from the Fx hash (64-bit golden-ratio based).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// The Fx hasher state.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Process 8-byte chunks, then the tail. Byte-string keys are rare in
        // this workspace (only motif-DSL identifiers), so simplicity wins.
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(c);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            // Mix in the length so "ab" and "ab\0" differ.
            self.add_to_hash(u64::from_le_bytes(buf) ^ (rem.len() as u64) << 56);
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

/// A `HashMap` using the Fx hasher. Drop-in for `std::collections::HashMap`.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using the Fx hasher. Drop-in for `std::collections::HashSet`.
pub type FxHashSet<K> = HashSet<K, FxBuildHasher>;

/// Fx-hashes `value` and folds the high bits down, for routing a key to a
/// shard or worker by masking/modulo the low bits.
///
/// Fx's multiply-rotate finish leaves its low bits weak; the xor-shift
/// mixes the strong high bits in. This is *the* routing recipe for the
/// workspace — `ShardedTemporalStore::shard_of` and the shared-engine
/// cluster's worker router both use it, which gives them the useful
/// correlated property that one worker's targets touch a stable subset of
/// shards. Change it in one place or not at all.
#[inline]
pub fn route_mix<T: std::hash::Hash>(value: &T) -> u64 {
    use std::hash::BuildHasher;
    let x = FxBuildHasher::default().hash_one(value);
    x ^ (x >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::UserId;
    use std::hash::{BuildHasher, Hash};

    fn hash_one<T: Hash>(v: &T) -> u64 {
        let bh = FxBuildHasher::default();

        bh.hash_one(v)
    }

    #[test]
    fn deterministic() {
        assert_eq!(hash_one(&42u64), hash_one(&42u64));
        assert_eq!(hash_one(&UserId(7)), hash_one(&UserId(7)));
    }

    #[test]
    fn distinct_inputs_rarely_collide() {
        let mut seen = std::collections::HashSet::new();
        for i in 0u64..10_000 {
            seen.insert(hash_one(&i));
        }
        // Perfect would be 10_000; allow a handful of collisions.
        assert!(seen.len() > 9_990, "too many collisions: {}", seen.len());
    }

    #[test]
    fn byte_strings_with_shared_prefix_differ() {
        assert_ne!(hash_one(&"ab"), hash_one(&"abc"));
        assert_ne!(hash_one(&[1u8, 2]), hash_one(&[1u8, 2, 0]));
    }

    #[test]
    fn map_and_set_aliases_work() {
        let mut m: FxHashMap<UserId, u32> = FxHashMap::default();
        m.insert(UserId(1), 10);
        m.insert(UserId(2), 20);
        assert_eq!(m[&UserId(1)], 10);

        let mut s: FxHashSet<UserId> = FxHashSet::default();
        s.insert(UserId(1));
        assert!(s.contains(&UserId(1)));
        assert!(!s.contains(&UserId(3)));
    }

    #[test]
    fn spread_across_low_bits() {
        // HashMap uses the low bits of the hash for bucketing; sequential
        // keys must not all land in the same bucket.
        let mask = 0xFF;
        let mut buckets = std::collections::HashSet::new();
        for i in 0u64..256 {
            buckets.insert(hash_one(&i) & mask);
        }
        assert!(
            buckets.len() > 128,
            "poor low-bit spread: {}",
            buckets.len()
        );
    }
}
