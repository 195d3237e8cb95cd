//! One hasher for the workspace's id-keyed maps. Task, callback and
//! vertex ids are picked by the program, never by an attacker, so
//! SipHash's flooding resistance would cost tens of cycles per lookup for
//! nothing.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply–xorshift hasher: one multiply and one shift per `u64`.
#[derive(Default, Clone, Copy, Debug)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn write_u64(&mut self, x: u64) {
        let h = (self.0 ^ x).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }

    /// The same as folding the four little-endian bytes through
    /// [`write`](Hasher::write), without the loop.
    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    /// Folds arbitrary bytes as little-endian `u64` words, the last one
    /// zero-padded.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The [`BuildHasher`](std::hash::BuildHasher) of [`IdHasher`].
pub type IdBuildHasher = BuildHasherDefault<IdHasher>;

/// A `HashMap` keyed through [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, IdBuildHasher>;

#[cfg(test)]
mod tests {
    use std::hash::BuildHasher;

    use super::*;
    use crate::ids::{CallbackId, TaskId};

    #[test]
    fn narrow_ints_hash_like_their_bytes() {
        let build = IdBuildHasher::default();
        for x in [0u32, 1, 7, u32::MAX] {
            let mut bytes = IdHasher::default();
            bytes.write(&x.to_le_bytes());
            assert_eq!(build.hash_one(x), bytes.finish());
        }
    }

    #[test]
    fn ids_spread_over_the_high_bits() {
        // hashbrown picks a bucket's control byte from the top 7 bits:
        // consecutive ids must not all share it.
        let build = IdBuildHasher::default();
        let tops: std::collections::HashSet<u64> =
            (0..64u64).map(|i| build.hash_one(TaskId(i)) >> 57).collect();
        assert!(tops.len() > 32, "{} distinct top bytes", tops.len());
        let mut map: IdMap<CallbackId, u32> = IdMap::default();
        map.insert(CallbackId(3), 1);
        assert_eq!(map[&CallbackId(3)], 1);
    }
}
