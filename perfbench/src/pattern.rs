//! Seeded block contents and the workload plans generated from the seed.
//!
//! Every block a workload writes carries a pattern derived from
//! `(seed, file, block, version)`, so every read can be checked against
//! what the last write to that block must have left there.

/// SplitMix64 finalizer: a bijective mix of one 64-bit word.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Names one version of one block of one file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockTag {
    pub seed: u64,
    pub file: u32,
    pub block: u64,
    pub version: u32,
}

impl BlockTag {
    fn key(self) -> u64 {
        mix(self.seed
            ^ mix(((self.file as u64) << 32) | self.version as u64)
            ^ mix(self.block.wrapping_add(0x9e37_79b9_7f4a_7c15)))
    }

    fn word(key: u64, i: usize) -> u64 {
        mix(key.wrapping_add((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)))
    }

    /// Fills `buf` (a whole number of 8-byte words) with this block's
    /// contents.
    pub fn fill(self, buf: &mut [u8]) {
        let key = self.key();
        for (i, w) in buf.chunks_exact_mut(8).enumerate() {
            w.copy_from_slice(&Self::word(key, i).to_le_bytes());
        }
    }

    /// Whether `buf` holds exactly this block's contents.
    pub fn matches(self, buf: &[u8]) -> bool {
        let key = self.key();
        buf.len().is_multiple_of(8)
            && buf
                .chunks_exact(8)
                .enumerate()
                .all(|(i, w)| w == Self::word(key, i).to_le_bytes())
    }
}

/// A small deterministic generator for workload plans (SplitMix64).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `[0, bound)` (`bound > 0`), by rejection so no value is
    /// favoured.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty range");
        let zone = u64::MAX - u64::MAX % bound;
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }
}

/// One application call of the `random_update` workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Read(u64),
    Write(u64),
}

/// `n` uniform block calls over `blocks` blocks: `read_pct`% reads, the
/// rest overwrites.
pub fn random_ops(seed: u64, blocks: u64, n: usize, read_pct: u64) -> Vec<Op> {
    let mut rng = Rng::new(seed ^ 0x7261_6e64);
    (0..n)
        .map(|_| {
            let block = rng.below(blocks);
            if rng.below(100) < read_pct {
                Op::Read(block)
            } else {
                Op::Write(block)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tag(seed: u64, block: u64, version: u32) -> BlockTag {
        BlockTag {
            seed,
            file: 1,
            block,
            version,
        }
    }

    #[test]
    fn fill_then_match_roundtrips() {
        let mut buf = vec![0u8; 8192];
        tag(7, 3, 0).fill(&mut buf);
        assert!(tag(7, 3, 0).matches(&buf));
        assert!(!tag(7, 3, 1).matches(&buf), "version must change contents");
        assert!(!tag(7, 4, 0).matches(&buf), "block must change contents");
        assert!(!tag(8, 3, 0).matches(&buf), "seed must change contents");
        buf[4100] ^= 1;
        assert!(!tag(7, 3, 0).matches(&buf), "one flipped bit is caught");
    }

    #[test]
    fn generator_is_deterministic_per_seed() {
        assert_eq!(random_ops(42, 2304, 500, 70), random_ops(42, 2304, 500, 70));
        assert_ne!(random_ops(42, 2304, 500, 70), random_ops(43, 2304, 500, 70));
        let mut a = vec![0u8; 64];
        let mut b = vec![0u8; 64];
        tag(5, 9, 2).fill(&mut a);
        tag(5, 9, 2).fill(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn random_ops_respect_range_and_mix() {
        let ops = random_ops(1, 100, 10_000, 70);
        let reads = ops.iter().filter(|o| matches!(o, Op::Read(_))).count();
        assert!((6_700..7_300).contains(&reads), "{reads} reads of 10000");
        assert!(ops
            .iter()
            .all(|o| matches!(o, Op::Read(b) | Op::Write(b) if *b < 100)));
    }

    #[test]
    fn below_is_in_range() {
        let mut rng = Rng::new(3);
        assert!((0..1000).all(|_| rng.below(7) < 7));
    }
}
