use crate::block::BlockTable;
use crate::region::RegionTrace;
use serde::{Deserialize, Serialize};

/// Configuration shared by all workload models.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Number of application threads (one per simulated core).
    pub threads: usize,
    /// Global scale factor on per-region work.  `1.0` is the crate's nominal
    /// (already laptop-sized) input; smaller values shrink regions further,
    /// which is useful for fast tests.
    pub scale: f64,
    /// Seed for all randomized access patterns.
    pub seed: u64,
}

impl WorkloadConfig {
    /// Creates a configuration for `threads` threads at nominal scale.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "a workload needs at least one thread");
        Self { threads, scale: 1.0, seed: 0x5eed_ba5e }
    }

    /// Sets the work scale factor.
    pub fn with_scale(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }

    /// Sets the random seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self::new(8)
    }
}

/// A barrier-synchronized multi-threaded workload.
///
/// A workload consists of `num_regions()` inter-barrier regions separated by
/// global synchronization barriers.  All threads execute region `i`, then meet
/// at barrier `i`, then proceed to region `i + 1`.  The number of regions is
/// independent of the thread count, mirroring the OpenMP workloads in the
/// paper (Figure 1).
pub trait Workload: Send + Sync {
    /// Benchmark name, e.g. `"npb-cg"`.
    fn name(&self) -> &str;

    /// Number of application threads.
    fn num_threads(&self) -> usize;

    /// Number of inter-barrier regions (== number of dynamic barriers).
    fn num_regions(&self) -> usize;

    /// Static basic block table; defines BBV dimensionality.
    fn block_table(&self) -> &BlockTable;

    /// The stream of block executions `thread` performs in `region`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `region >= num_regions()` or
    /// `thread >= num_threads()`.
    fn region_trace(&self, region: usize, thread: usize) -> RegionTrace;

    /// Name of the phase executed by `region` (diagnostic only).
    fn region_phase_name(&self, region: usize) -> &str;

    /// A stable fingerprint of everything that determines this workload's
    /// profiling result, used as the content-address of the on-disk profile
    /// cache.
    ///
    /// Two workloads with equal fingerprints must produce bit-identical
    /// [`crate::RegionTrace`] streams for every `(region, thread)` pair.  The
    /// default implementation hashes the structural identity visible through
    /// this trait (name, thread count, region count, block table, per-region
    /// phase names); implementations whose traces depend on state not visible
    /// here — seeds, scale factors, input files — **must** override it and
    /// mix that state in (see `SyntheticWorkload`), or disable caching.
    fn profile_fingerprint(&self) -> u64 {
        let mut hasher = FingerprintHasher::new();
        hasher.write_str(self.name());
        hasher.write_u64(self.num_threads() as u64);
        hasher.write_u64(self.num_regions() as u64);
        for block in self.block_table().iter() {
            hasher.write_str(&block.name);
            hasher.write_u64(u64::from(block.instructions));
        }
        for region in 0..self.num_regions() {
            hasher.write_str(self.region_phase_name(region));
        }
        hasher.finish()
    }
}

/// A shared reference to a workload is a workload: lets code that holds
/// one generic `&W` (possibly unsized) and some `&dyn Workload`s treat them
/// all as `&dyn Workload`.
impl<T: Workload + ?Sized> Workload for &T {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn num_threads(&self) -> usize {
        (**self).num_threads()
    }

    fn num_regions(&self) -> usize {
        (**self).num_regions()
    }

    fn block_table(&self) -> &BlockTable {
        (**self).block_table()
    }

    fn region_trace(&self, region: usize, thread: usize) -> RegionTrace {
        (**self).region_trace(region, thread)
    }

    fn region_phase_name(&self, region: usize) -> &str {
        (**self).region_phase_name(region)
    }

    fn profile_fingerprint(&self) -> u64 {
        (**self).profile_fingerprint()
    }
}

/// FNV-1a accumulator for [`Workload::profile_fingerprint`] implementations.
///
/// Deliberately not `std::hash::Hasher`: `DefaultHasher` is allowed to change
/// across Rust releases, which would silently invalidate every on-disk
/// profile cache entry.  FNV-1a is fixed forever.
#[derive(Debug, Clone)]
pub struct FingerprintHasher {
    state: u64,
}

impl FingerprintHasher {
    /// Creates a hasher with the standard FNV-1a offset basis.
    pub fn new() -> Self {
        Self { state: 0xcbf2_9ce4_8422_2325 }
    }

    /// Mixes raw bytes into the fingerprint.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mixes a length-delimited string into the fingerprint.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// Mixes a `u64` into the fingerprint.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Mixes an `f64` (by bit pattern) into the fingerprint.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The accumulated fingerprint.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for FingerprintHasher {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_builder_chain() {
        let c = WorkloadConfig::new(32).with_scale(0.25).with_seed(7);
        assert_eq!(c.threads, 32);
        assert_eq!(c.scale, 0.25);
        assert_eq!(c.seed, 7);
    }

    #[test]
    #[should_panic]
    fn zero_threads_rejected() {
        let _ = WorkloadConfig::new(0);
    }

    #[test]
    fn default_is_eight_threads() {
        assert_eq!(WorkloadConfig::default().threads, 8);
    }
}
