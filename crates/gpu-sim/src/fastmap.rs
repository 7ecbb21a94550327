//! Fast hashing for the simulator's integer-keyed hot-path maps.
//!
//! The memory system keys maps by line address (a `u64` newtype, or a page
//! of lines) on every L1/L2 miss and fill, and the bench harness keys its
//! memo by run key. `std`'s default SipHash is DoS-resistant, but the hash
//! itself was costing more than the probe it guards, and the only outside
//! keys are a replayed trace's addresses and the `trace:<name>` run keys
//! that `--workload` files register: keys crafted to collide could slow a
//! simulation or a plan, never change a result. [`FxHasher64`] is the
//! classic multiply–xor construction (the `FxHash` used by rustc's own
//! interner): one rotate, one xor and one multiply per word.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply–xor hasher for integer keys. Not DoS-resistant: the outside
/// keys it sees (trace addresses, `trace:<name>` run keys) can only cost
/// time, never correctness.
#[derive(Debug, Default)]
pub struct FxHasher64 {
    hash: u64,
}

/// `pi * 2^62`, the odd multiplier from the Fx construction (64-bit form).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher64 {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher64 {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(b as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `HashMap` keyed with [`FxHasher64`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher64>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_round_trips_u64_keys() {
        let mut m: FastMap<u64, u32> = FastMap::default();
        for k in 0..1000u64 {
            m.insert(k * 0x1_0001, k as u32);
        }
        for k in 0..1000u64 {
            assert_eq!(m.get(&(k * 0x1_0001)), Some(&(k as u32)));
        }
        assert_eq!(m.len(), 1000);
    }

    #[test]
    fn map_distinguishes_dense_keys() {
        // Line addresses and line pages are small, dense integers; the hash
        // must spread them well enough that a map behaves (no pathological
        // collisions would show up as wrong membership, only as slowness —
        // this is a correctness smoke test).
        let mut m: FastMap<u64, u64> = FastMap::default();
        for k in 0..4096u64 {
            *m.entry(k).or_insert(0) |= 1;
        }
        assert_eq!(m.len(), 4096);
        assert!(m.contains_key(&17));
        assert!(!m.contains_key(&4096));
    }

    #[test]
    fn hash_differs_across_neighbouring_keys() {
        use std::hash::Hash;
        let h = |k: u64| {
            let mut hasher = FxHasher64::default();
            k.hash(&mut hasher);
            hasher.finish()
        };
        assert_ne!(h(1), h(2));
        assert_ne!(h(0), h(1 << 32));
    }
}
