use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A fixed, unkeyed hasher for cache line addresses.
///
/// Per-line bookkeeping (MRU recency state, reuse-distance tracking) hashes
/// one line address per memory access, where std's keyed SipHash dominates
/// the cost.  Line addresses come from the workload models, not from an
/// adversary (checkpoint images restored from the artifact cache hold lines
/// this program recorded, under the cache's checksum seal), so a folded
/// multiply — one 64×64→128-bit product with its
/// halves XORed — is enough: it spreads strided addresses, whose low bits
/// are all equal, over every bucket.  No output may depend on iteration
/// order of the maps keyed by it; callers sort where order matters.
#[derive(Debug, Clone, Copy, Default)]
pub struct LineHasher(u64);

impl LineHasher {
    /// An odd constant with well-mixed bits (2⁶⁴ divided by the golden
    /// ratio).
    const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;
}

impl Hasher for LineHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, value: u64) {
        let product = u128::from(self.0 ^ value) * u128::from(Self::MULTIPLIER);
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map keyed by cache line address, hashed with [`LineHasher`].
pub type LineMap<V> = HashMap<u64, V, BuildHasherDefault<LineHasher>>;

/// A set of cache line addresses, hashed with [`LineHasher`].
pub type LineSet = HashSet<u64, BuildHasherDefault<LineHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash(line: u64) -> u64 {
        BuildHasherDefault::<LineHasher>::default().hash_one(line)
    }

    #[test]
    fn strided_lines_spread_over_low_bits() {
        // A power-of-two stride leaves an address's low bits constant; the
        // bucket index (the hash's low bits) must still vary.
        let buckets: HashSet<u64> = (0..256u64).map(|i| hash(i << 20) & 0xff).collect();
        assert!(buckets.len() > 128, "only {} of 256 buckets used", buckets.len());
    }
}
