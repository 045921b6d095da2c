//! Golden on-disk format of the `ArtifactCache`, through the public API only.
//!
//! Every entry file is one sealed container: magic, format version, the
//! key's workload name and thread count, the key's identity words, the
//! artifact's own serde bytes, then an FNV-1a checksum of everything before
//! it.  The tests below pin, for each of the four artifact kinds, the entry
//! file name, the header bytes, the payload and the seal, plus the
//! `cache-state` statistics file — so any refactor of the cache must keep
//! the bytes on disk identical.  The payload is pinned through the
//! artifact's own serde bytes, so a change to profiling, selection or
//! simulation results does not touch this file; only the simulated leg's
//! key carries the selection's *content* fingerprint, which is therefore
//! spliced in from the selection rather than written as a literal.
//!
//! The second half feeds hostile bytes to every kind's entry path: another
//! kind's valid entry, arbitrary bytes, and valid entries truncated,
//! bit-flipped or extended.  Each must read as a clean miss, never as an
//! error or a panic.

use barrierpoint::{
    profile_and_collect_warmup_checkpointed, profile_application_with, select_barrierpoints_with,
    ApplicationProfile, ArtifactCache, BarrierPoint, BarrierPointSelection, CacheStats,
    CheckpointCacheKey, ExecutionPolicy, ProfileCacheKey, SelectionCacheKey, SignatureConfig,
    SimConfig, SimPointConfig, SimPointStrategy, Simulated, SimulatedCacheKey, WarmupKind,
    WorkloadCheckpoints,
};
use bp_workload::{Benchmark, FingerprintHasher, Workload, WorkloadConfig};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

/// A scratch directory namespaced by test and process.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bp-cache-format-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn workload() -> impl Workload {
    Benchmark::NpbIs.build(&WorkloadConfig::new(2).with_scale(0.02))
}

/// One artifact and one key of every kind, built once per test binary.
struct Fixture {
    profile_key: ProfileCacheKey,
    selection_key: SelectionCacheKey,
    simulated_key: SimulatedCacheKey,
    checkpoint_key: CheckpointCacheKey,
    profile: ApplicationProfile,
    selection: BarrierPointSelection,
    simulated: Arc<Simulated>,
    checkpoints: WorkloadCheckpoints,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let w = workload();
        let serial = ExecutionPolicy::Serial;
        let signature = SignatureConfig::combined();
        let strategy = SimPointStrategy::new(SimPointConfig::paper());
        let profile = profile_application_with(&w, &serial).unwrap();
        let selection = select_barrierpoints_with(&profile, &signature, &strategy).unwrap();
        let selected = BarrierPoint::new(&w)
            .with_execution_policy(serial)
            .with_signature_config(signature)
            .profile()
            .unwrap()
            .select()
            .unwrap();
        let simulated = selected.simulate(&SimConfig::tiny(2)).unwrap();
        let (_, _, checkpoints) =
            profile_and_collect_warmup_checkpointed(&w, &[64], &serial, None, 2).unwrap();
        Fixture {
            profile_key: ProfileCacheKey::for_workload(&w),
            selection_key: SelectionCacheKey::for_workload(&w, &signature, &strategy),
            simulated_key: SimulatedCacheKey::new(
                &w,
                &selection,
                &SimConfig::tiny(2),
                WarmupKind::MruReplay,
            ),
            checkpoint_key: CheckpointCacheKey::for_workload(&w),
            profile,
            selection,
            simulated,
            checkpoints,
        }
    })
}

/// The four artifact kinds, in the cache's persisted-statistics order.
const KINDS: [&str; 4] = ["profile", "selection", "simulated", "checkpoint"];

impl Fixture {
    /// Stores kind `k`'s artifact through the public API.
    fn store(&self, cache: &ArtifactCache, k: usize) {
        match k {
            0 => cache.store(&self.profile_key, &self.profile),
            1 => cache.store_selection(&self.selection_key, &self.selection),
            2 => cache.store_simulated(&self.simulated_key, &self.simulated),
            _ => cache.store_checkpoint(&self.checkpoint_key, &self.checkpoints),
        }
        .unwrap();
    }

    /// Loads kind `k` under its fixture key; `Ok(true)` on a hit.
    fn load(&self, cache: &ArtifactCache, k: usize) -> Result<bool, barrierpoint::Error> {
        Ok(match k {
            0 => cache.load(&self.profile_key)?.is_some(),
            1 => cache.load_selection(&self.selection_key)?.is_some(),
            2 => cache.load_simulated(&self.simulated_key)?.is_some(),
            _ => cache.load_checkpoint(&self.checkpoint_key)?.is_some(),
        })
    }

    /// Kind `k`'s artifact as its own serde bytes — the pinned payload.
    fn payload(&self, k: usize) -> Vec<u8> {
        match k {
            0 => serde::to_vec(&self.profile),
            1 => serde::to_vec(&self.selection),
            2 => serde::to_vec(&*self.simulated),
            _ => serde::to_vec(&self.checkpoints),
        }
    }

    /// Kind `k`'s entry file name.  Every component is a literal except the
    /// simulated leg's selection-content fingerprint.
    fn file_name(&self, k: usize) -> String {
        match k {
            0 => PROFILE_FILE.to_string(),
            1 => SELECTION_FILE.to_string(),
            2 => SIMULATED_FILE.replace("{sel}", &format!("{:016x}", self.selection.fingerprint())),
            _ => CHECKPOINT_FILE.to_string(),
        }
    }

    /// Kind `k`'s expected header bytes (magic through identity words).
    fn header(&self, k: usize) -> Vec<u8> {
        match k {
            0 => hex(PROFILE_HEADER),
            1 => hex(SELECTION_HEADER),
            2 => hex(&SIMULATED_HEADER
                .replace("{sel}", &hex_of(&self.selection.fingerprint().to_le_bytes()))),
            _ => hex(CHECKPOINT_HEADER),
        }
    }

    /// A directory holding one valid entry of every kind, and those
    /// entries' bytes in [`KINDS`] order.
    fn valid_entries(&self, tag: &str) -> (PathBuf, Vec<Vec<u8>>) {
        let dir = scratch(tag);
        let cache = ArtifactCache::new(&dir);
        for k in 0..KINDS.len() {
            self.store(&cache, k);
        }
        let bytes =
            (0..KINDS.len()).map(|k| std::fs::read(dir.join(self.file_name(k))).unwrap()).collect();
        (dir, bytes)
    }
}

// Entry file names: sanitized workload name, thread count, then the key's
// identity words in hex (workload fingerprint first), then the extension.
const PROFILE_FILE: &str = "npb-is-2t-d6c371d7a20694b0.bpprof";
const SELECTION_FILE: &str = "npb-is-2t-d6c371d7a20694b0-854085e33a456c6e.bpsel";
const SIMULATED_FILE: &str = "npb-is-2t-d6c371d7a20694b0-{sel}-62a911c05a88f2d1.bpsim";
const CHECKPOINT_FILE: &str = "npb-is-2t-d6c371d7a20694b0.bpckpt";

// Entry headers: magic, format version 4 (u32 LE), the name as a u64 LE
// length plus bytes, the thread count (u64 LE), then the identity words
// (u64 LE each).
const PROFILE_HEADER: &str = "42505046 04000000 0600000000000000 6e70622d6973 0200000000000000
    b09406a2d771c3d6";
const SELECTION_HEADER: &str = "4250534c 04000000 0600000000000000 6e70622d6973 0200000000000000
    b09406a2d771c3d6 6e6c453ae3854085";
const SIMULATED_HEADER: &str = "4250534d 04000000 0600000000000000 6e70622d6973 0200000000000000
    b09406a2d771c3d6 {sel} d1f2885ac011a962";
const CHECKPOINT_HEADER: &str = "4250434b 04000000 0600000000000000 6e70622d6973 0200000000000000
    b09406a2d771c3d6";

fn hex(text: &str) -> Vec<u8> {
    let digits: Vec<u8> = text.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    digits
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect()
}

fn hex_of(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn fnv(bytes: &[u8]) -> [u8; 8] {
    let mut hasher = FingerprintHasher::new();
    hasher.write_bytes(bytes);
    hasher.finish().to_le_bytes()
}

/// Each kind's entry is `header ++ serde payload ++ FNV seal`, under its
/// pinned file name.
#[test]
fn every_kind_writes_the_pinned_container() {
    let f = fixture();
    let (dir, entries) = f.valid_entries("golden");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    let mut expected: Vec<String> = (0..KINDS.len()).map(|k| f.file_name(k)).collect();
    expected.sort();
    assert_eq!(names, expected, "exactly one entry file per kind, nothing else");
    for (k, bytes) in entries.iter().enumerate() {
        let kind = KINDS[k];
        let header = f.header(k);
        assert_eq!(&bytes[..header.len()], &header[..], "{kind}: header bytes");
        let (sealed, seal) = bytes.split_at(bytes.len() - 8);
        assert_eq!(
            &sealed[header.len()..],
            &f.payload(k)[..],
            "{kind}: payload is the serde bytes"
        );
        assert_eq!(seal, fnv(sealed), "{kind}: trailing FNV-1a seal");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The counters `flush()` persists, in their fixed order: memory hits, disk
/// hits and misses per kind (profile, selection, simulated, checkpoint),
/// then evictions, memory evictions, degraded loads, degraded stores,
/// retries and lock contention.
const STATE_COUNTERS: [u64; 18] = [1, 1, 0, 0, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0];

/// `flush()` writes `BPST`, state version 3, the 18 counters and the seal;
/// a reopened cache reads them back as its lifetime base.
#[test]
fn flush_writes_the_pinned_state_file() {
    let f = fixture();
    let (dir, _) = f.valid_entries("state");
    let w = workload();
    let serial = ExecutionPolicy::Serial;
    let signature = SignatureConfig::combined();
    let strategy = SimPointStrategy::new(SimPointConfig::paper());
    let cache = ArtifactCache::new(&dir);
    assert!(cache.load_or_profile(&w, &serial).unwrap().1, "disk hit");
    assert!(cache.load_or_profile(&w, &serial).unwrap().1, "memory hit");
    assert!(cache.load_or_select(&f.profile, &w, &signature, &strategy).unwrap().1, "disk hit");
    let (_, hit) = cache.load_or_simulate(&f.simulated_key, || unreachable!()).unwrap();
    assert!(hit, "disk hit");
    let cold = SimulatedCacheKey::new(&w, &f.selection, &SimConfig::tiny(2), WarmupKind::Cold);
    let (_, hit) = cache.load_or_simulate(&cold, || Ok(f.simulated.clone())).unwrap();
    assert!(!hit, "miss");
    cache.flush();

    let mut expected = b"BPST".to_vec();
    expected.extend_from_slice(&3u32.to_le_bytes());
    for counter in STATE_COUNTERS {
        expected.extend_from_slice(&counter.to_le_bytes());
    }
    let seal = fnv(&expected);
    expected.extend_from_slice(&seal);
    assert_eq!(std::fs::read(dir.join("cache-state")).unwrap(), expected);

    drop(cache);
    let reopened = ArtifactCache::new(&dir);
    let lifetime = reopened.lifetime_stats();
    assert_eq!(reopened.stats(), CacheStats::default());
    let expected_stats = CacheStats {
        profile_memory_hits: 1,
        profile_hits: 1,
        selection_hits: 1,
        simulated_hits: 1,
        simulated_misses: 1,
        ..CacheStats::default()
    };
    assert_eq!(lifetime, expected_stats);
    drop(reopened);
    std::fs::remove_dir_all(&dir).ok();
}

/// A valid entry of one kind, placed at another kind's path, is a miss —
/// including profile ↔ checkpoint, whose keys are field-identical, so only
/// the magic tells them apart.
#[test]
fn another_kinds_entry_is_a_miss() {
    let f = fixture();
    let (source, entries) = f.valid_entries("cross-src");
    std::fs::remove_dir_all(&source).ok();
    for (src, bytes) in entries.iter().enumerate() {
        for dst in (0..KINDS.len()).filter(|&dst| dst != src) {
            let dir = scratch(&format!("cross-{src}-{dst}"));
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join(f.file_name(dst)), bytes).unwrap();
            let cache = ArtifactCache::new(&dir);
            assert!(
                !f.load(&cache, dst).unwrap(),
                "a {} entry must not load as a {}",
                KINDS[src],
                KINDS[dst]
            );
            drop(cache);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// A garbage `cache-state` file resets the lifetime view to zero.
#[test]
fn garbage_state_file_is_a_zero_base() {
    let dir = scratch("garbage-state");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("cache-state"), b"BPST\x03\0\0\0not a counter table").unwrap();
    let cache = ArtifactCache::new(&dir);
    assert_eq!(cache.lifetime_stats(), CacheStats::default());
    drop(cache);
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Hostile bytes at every kind's entry path read as a clean miss:
    /// arbitrary bytes, or a valid entry truncated, bit-flipped, or with
    /// bytes appended.
    #[test]
    fn hostile_bytes_are_a_clean_miss(
        (k, mutation, at, extra) in (
            0usize..4,
            0usize..4,
            any::<u64>(),
            proptest::collection::vec(any::<u8>(), 0..48),
        )
    ) {
        let f = fixture();
        let valid = valid_entry_bytes(k);
        let bytes = match mutation {
            0 => extra,
            1 => valid[..(at % valid.len() as u64) as usize].to_vec(),
            2 => {
                let mut flipped = valid.to_vec();
                let bit = (at % (flipped.len() as u64 * 8)) as usize;
                flipped[bit / 8] ^= 1 << (bit % 8);
                flipped
            }
            _ => {
                let mut extended = valid.to_vec();
                extended.extend_from_slice(&extra);
                extended.push(at as u8);
                extended
            }
        };
        let dir = scratch(&format!("hostile-{k}"));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(f.file_name(k)), &bytes).unwrap();
        let cache = ArtifactCache::new(&dir);
        prop_assert!(!f.load(&cache, k).unwrap(), "{} mutation {mutation}", KINDS[k]);
        drop(cache);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Kind `k`'s valid entry bytes, stored once per test binary.
fn valid_entry_bytes(k: usize) -> &'static [u8] {
    static ENTRIES: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    &ENTRIES.get_or_init(|| {
        let (dir, entries) = fixture().valid_entries("hostile-src");
        std::fs::remove_dir_all(&dir).ok();
        entries
    })[k]
}
