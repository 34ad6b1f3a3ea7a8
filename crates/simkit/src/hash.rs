//! One deterministic hasher for the simulator's integer-keyed indexes.
//!
//! The hot-path maps — the page cache's name hash and dirty index, the
//! sector store's chunk map, the file systems' in-core caches, the I/O
//! path's per-stream tables — are keyed by small integers or tuples of
//! them (`PageKey` is `(vnode, offset)`). `std`'s default SipHash is
//! built to resist adversarial keys, which a simulation never sees, and
//! costs several times a multiply-and-fold per lookup. [`IntHasher`]
//! folds each word with one multiply and scrambles once at `finish`, and
//! it is seeded by nothing, so the same keys land in the same buckets on
//! every run.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-fold hasher for integer keys, finished with the splitmix64
/// finalizer. The finalizer matters: page offsets are multiples of the
/// page size, so a bare multiply would leave their low bits (the bucket
/// index) all zero.
#[derive(Default, Clone, Copy)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Byte keys (strings) are rare here; fold them 8 bytes at a time
        // so the hasher is total, with the length closing the input.
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.write_u64(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        tail[..words.remainder().len()].copy_from_slice(words.remainder());
        self.write_u64(u64::from_le_bytes(tail));
        self.write_u64(bytes.len() as u64);
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(n as u64);
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(23) ^ n).wrapping_mul(0x9e3779b97f4a7c15);
    }

    fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
}

/// `BuildHasher` for [`IntHasher`].
pub type BuildIntHasher = BuildHasherDefault<IntHasher>;

/// A `HashMap` hashed with [`IntHasher`]; build with `IntMap::default()`.
pub type IntMap<K, V> = HashMap<K, V, BuildIntHasher>;

/// A `HashSet` hashed with [`IntHasher`]; build with `IntSet::default()`.
pub type IntSet<K> = HashSet<K, BuildIntHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(v: T) -> u64 {
        BuildIntHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_and_order_sensitive() {
        assert_eq!(hash((3u64, 8192u64)), hash((3u64, 8192u64)));
        assert_ne!(hash((3u64, 8192u64)), hash((8192u64, 3u64)));
        assert_ne!(hash("ab"), hash("ab\0"));
    }

    #[test]
    fn page_aligned_offsets_spread_over_low_bits() {
        // 1024 consecutive page offsets must not pile into a few buckets
        // of a 1024-bucket table.
        let mut buckets = [0u32; 1024];
        for i in 0..1024u64 {
            buckets[(hash((7u64, i * 8192)) & 1023) as usize] += 1;
        }
        assert!(buckets.iter().all(|&n| n <= 8), "clustered: {buckets:?}");
    }

    #[test]
    fn maps_work_as_maps() {
        let mut m: IntMap<u32, &str> = IntMap::default();
        m.insert(1, "a");
        m.insert(2, "b");
        assert_eq!(m.get(&2), Some(&"b"));
        let s: IntSet<u64> = (0..100).collect();
        assert!(s.contains(&99) && !s.contains(&100));
    }
}
