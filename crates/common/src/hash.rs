//! One in-tree hasher for maps whose keys the program makes itself.
//!
//! [`WordHasher`] multiplies each 8-byte word into its state and ends with
//! murmur3's `fmix64`, a full-avalanche finish: every input bit reaches
//! every output bit, so keys that differ only in their high bits (`k <<
//! 52`, a tag byte ahead of a payload) still spread over the low bits a
//! hash table indexes its buckets by and the top bits it keeps as tags. An
//! `i64` key costs one multiply and a finish, against SipHash's rounds.
//!
//! It has no per-process key, so keys chosen to collide can make a map
//! slow. That is why std's `RandomState` stays wherever keys come from
//! outside the program: the plan cache (keyed by client SQL text) and the
//! wire server's prepared-statement registry. Its users are the load-time
//! distinct counts (`TableStats::compute`) and the optimizer's memo. The
//! hash join's dictionaries and the hash aggregate stay on `RandomState`
//! until a change can measure them.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-and-finish hasher over 8-byte words; see the module doc.
#[derive(Default)]
pub struct WordHasher {
    state: u64,
}

/// `⌊2^64 / φ⌋`, odd: multiplying by it carries each bit into every
/// higher one.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

impl Hasher for WordHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        // The rotation brings the high bits of earlier words down, where
        // the next multiply carries them up again.
        self.state = (self.state.rotate_left(26) ^ word).wrapping_mul(K);
    }

    /// Whole words, then the tail zero-padded with its length in the top
    /// byte, so `"ab"` and `"ab\0"` make different words.
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.write_u64(u64::from_le_bytes(w.try_into().expect("an 8-byte chunk")));
        }
        let tail = words.remainder();
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        last[7] = tail.len() as u8;
        self.write_u64(u64::from_le_bytes(last));
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.write_u64(n.into());
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n.into());
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    /// murmur3's `fmix64`.
    #[inline]
    fn finish(&self) -> u64 {
        let mut h = self.state;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

/// The zero-sized builder of [`WordHasher`]s.
pub type BuildWordHasher = BuildHasherDefault<WordHasher>;

/// A `HashMap` hashed by [`WordHasher`]; make one with `default()` or
/// `with_capacity_and_hasher`.
pub type WordMap<K, V> = HashMap<K, V, BuildWordHasher>;

/// A `HashSet` hashed by [`WordHasher`].
pub type WordSet<K> = HashSet<K, BuildWordHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(v: impl Hash) -> u64 {
        BuildWordHasher::default().hash_one(v)
    }

    /// Distinct values of the low 12 bits (a 4,096-bucket table's index)
    /// and of the top 7 bits (its tag byte) over `hashes`.
    fn spread(hashes: &[u64]) -> (usize, usize) {
        let mut low = vec![false; 1 << 12];
        let mut top = [false; 128];
        for &h in hashes {
            low[(h & 0xfff) as usize] = true;
            top[(h >> 57) as usize] = true;
        }
        (
            low.iter().filter(|&&b| b).count(),
            top.iter().filter(|&&b| b).count(),
        )
    }

    /// The key families a column of sequential, strided or negated
    /// integers produces, bare and behind `Value::Int`'s tag byte.
    /// 4,096 uniform hashes fill ~2,589 of 4,096 low-bit values.
    #[test]
    fn structured_int_keys_spread_over_low_and_top_bits() {
        // (name, shift, sign): key k of a family is `sign * (k << shift)`.
        let families = [
            ("sequential", 0, 1),
            ("k << 10", 10, 1),
            ("k << 32", 32, 1),
            ("k << 52", 52, 1),
            ("negated", 0, -1),
        ];
        for (name, shift, sign) in families {
            let f = |k: i64| sign * (k << shift);
            let bare: Vec<u64> = (0..4096).map(|k| hash_of(f(k))).collect();
            let tagged: Vec<u64> = (0..4096).map(|k| hash_of(Value::Int(f(k)))).collect();
            for (kind, hashes) in [("i64", bare), ("Value::Int", tagged)] {
                let (low, top) = spread(&hashes);
                assert!(low >= 2300, "{name} as {kind}: {low} low-bit values");
                assert_eq!(top, 128, "{name} as {kind}: {top} tag values");
            }
        }
    }

    #[test]
    fn equal_keys_hash_equal_and_tails_carry_their_length() {
        assert_eq!(hash_of(Value::Int(2)), hash_of(Value::Double(2.0)));
        assert_eq!(hash_of("abc"), hash_of(String::from("abc")));
        let mut a = WordHasher::default();
        a.write(b"ab");
        let mut b = WordHasher::default();
        b.write(b"ab\0");
        assert_ne!(a.finish(), b.finish());
    }
}
