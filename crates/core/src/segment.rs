//! Region-segment checkpoint parallelism: split one thread's trace walk
//! across the worker budget.
//!
//! The fused cold pass walks each thread's trace sequentially — the
//! signature profiler's reuse-distance tracker and the MRU collector both
//! carry state across regions, so a thread's walk cannot naively start in
//! the middle.  That caps the parallelism of every *re*-walk (re-profiling
//! under a new [`SignatureConfig`](bp_signature::SignatureConfig), a
//! dedicated MRU collection for a new design point) at the workload's
//! thread count, even when the [`WorkerBudget`] has more workers idle.
//!
//! This module removes the cap.  The one-time cold walk snapshots both
//! observers' carried state every K regions
//! ([`profile_and_collect_warmup_checkpointed`]) into a
//! [`WorkloadCheckpoints`] artifact — a new `ckpt` kind in the
//! [`ArtifactCache`](crate::ArtifactCache).  Every subsequent walk then
//! fans `threads × segments` *segment jobs* onto the budget: each job
//! constructs fresh observers, [restores](CheckpointObserver::restore) the
//! checkpoint taken at its segment's first region, walks only that segment
//! ([`bp_workload::drive_segment`]), and the per-segment results are
//! stitched back ([`bp_signature::concat_thread_profiles`],
//! [`MruSnapshotBank::from_segmented_observers`]).
//!
//! **Bit-identity is the contract.**  Checkpoint restoration reproduces
//! the observers' exact carried state (including compaction timing and
//! sequence counters), so the stitched segmented results are byte-equal to
//! one sequential walk — pinned by the proptests here, the kernel matrix
//! in `tests/segments.rs`, and the oracle tests in the substrate crates.

use crate::error::Error;
use crate::profile::ApplicationProfile;
use bp_exec::{ExecutionPolicy, WorkerBudget};
use bp_signature::{concat_thread_profiles, ThreadProfile, ThreadProfileObserver};
use bp_warmup::{MruSnapshotBank, MruThreadObserver};
use bp_workload::{CheckpointObserver, Workload};

/// Default number of segments the cold walk cuts each thread's trace into
/// (the checkpoint interval is `ceil(regions / segments)`).  Eight keeps
/// the artifact small while letting re-walks outrun the thread count on
/// typical hosts; callers with wider budgets can ask for more.
pub const DEFAULT_SEGMENTS: usize = 8;

/// The interior cut regions that split a `num_regions`-region trace into at
/// most `max_segments` near-equal segments: every `interval`-th region
/// boundary, where `interval = ceil(num_regions / max_segments)`, clamped
/// to at least 1.  The returned cuts are strictly inside `(0, num_regions)`
/// — segment `i` covers `[cuts[i-1], cuts[i])` with the implicit outer
/// bounds `0` and `num_regions`.
pub fn checkpoint_cuts(num_regions: usize, max_segments: usize) -> Vec<usize> {
    if num_regions == 0 || max_segments <= 1 {
        return Vec::new();
    }
    let interval = num_regions.div_ceil(max_segments).max(1);
    (1..max_segments).map(|i| i * interval).take_while(|&cut| cut < num_regions).collect()
}

/// One thread's serialized observer state at one cut region: everything a
/// segment job needs to resume the walk at `region` bit-identically.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SegmentCheckpoint {
    /// The region the snapshot was taken at (the segment's first region).
    region: u64,
    /// [`ThreadProfileObserver`] state ([`CheckpointObserver::snapshot_at`]).
    profiler: Vec<u8>,
    /// [`MruThreadObserver`] state ([`CheckpointObserver::snapshot_at`]).
    mru: Vec<u8>,
}

/// One thread's checkpoints, in cut order.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ThreadCheckpoints {
    cuts: Vec<SegmentCheckpoint>,
}

/// The region-segment checkpoints of one workload's cold walk: per thread,
/// the serialized profiler + MRU observer state at every interior cut.
/// Cached as the `ckpt` artifact kind so every later walk of the same
/// workload content can fan `threads × segments` jobs onto the budget.
///
/// The MRU snapshots are taken at one *collection capacity* (the largest
/// the cold pass needed); restoring requires observers at exactly that
/// capacity, so segmented MRU re-walks serve any capacity up to it (bank
/// assembly truncates) and fall back to a dedicated walk above it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadCheckpoints {
    /// MRU collection capacity (lines) the snapshots were taken at.
    collection_capacity: u64,
    /// Region count of the checkpointed workload (compatibility check).
    num_regions: u64,
    per_thread: Vec<ThreadCheckpoints>,
}

impl WorkloadCheckpoints {
    /// The MRU collection capacity the checkpoints were taken at.
    pub fn collection_capacity(&self) -> u64 {
        self.collection_capacity
    }

    /// Region count of the checkpointed workload.
    pub fn num_regions(&self) -> usize {
        self.num_regions as usize
    }

    /// Thread count of the checkpointed workload.
    pub fn threads(&self) -> usize {
        self.per_thread.len()
    }

    /// Segments each thread's walk splits into (cuts + 1).
    pub fn num_segments(&self) -> usize {
        self.per_thread.first().map_or(1, |t| t.cuts.len() + 1)
    }

    /// Segment jobs a full segmented walk fans out (`threads × segments`).
    pub fn segment_jobs(&self) -> usize {
        self.threads() * self.num_segments()
    }

    /// Segment jobs that start from a restored checkpoint (every job except
    /// each thread's first segment).
    pub fn checkpoint_restores(&self) -> usize {
        self.threads() * (self.num_segments() - 1)
    }

    /// Whether these checkpoints can drive a segmented walk of `workload`
    /// serving MRU capacities up to `capacity`: thread and region counts
    /// must match, and the snapshots' collection capacity must cover the
    /// request.  (Content identity is the cache key's job — this check
    /// guards the shape invariants a restore relies on.)
    pub fn covers<W: Workload + ?Sized>(&self, workload: &W, capacity: u64) -> bool {
        self.threads() == workload.num_threads()
            && self.num_regions() == workload.num_regions()
            && self.collection_capacity >= capacity
    }

    /// The per-thread segment bounds: `[0, cut_0, …, cut_n, num_regions]`.
    fn bounds(&self, thread: usize) -> Vec<usize> {
        let mut bounds = Vec::with_capacity(self.per_thread[thread].cuts.len() + 2);
        bounds.push(0);
        bounds.extend(self.per_thread[thread].cuts.iter().map(|c| c.region as usize));
        bounds.push(self.num_regions as usize);
        bounds
    }
}

// Hand-written serialization: the derived impl would encode every snapshot
// byte as a full little-endian u64 (the vendored codec has no specialized
// `Vec<u8>` path), inflating the artifact 8×.  `write_len` + `write_bytes`
// stores the payloads verbatim.
impl serde::Serialize for WorkloadCheckpoints {
    fn serialize(&self, out: &mut serde::Serializer) {
        out.write_u64(self.collection_capacity);
        out.write_u64(self.num_regions);
        out.write_len(self.per_thread.len());
        for thread in &self.per_thread {
            out.write_len(thread.cuts.len());
            for cut in &thread.cuts {
                out.write_u64(cut.region);
                out.write_len(cut.profiler.len());
                out.write_bytes(&cut.profiler);
                out.write_len(cut.mru.len());
                out.write_bytes(&cut.mru);
            }
        }
    }
}

impl serde::Deserialize for WorkloadCheckpoints {
    fn deserialize(de: &mut serde::Deserializer<'_>) -> Result<Self, serde::Error> {
        let collection_capacity = de.read_u64()?;
        let num_regions = de.read_u64()?;
        let threads = de.read_len()?;
        let mut per_thread = Vec::with_capacity(threads.min(1 << 10));
        for _ in 0..threads {
            let num_cuts = de.read_len()?;
            let mut cuts = Vec::with_capacity(num_cuts.min(1 << 10));
            for _ in 0..num_cuts {
                let region = de.read_u64()?;
                let profiler_len = de.read_len()?;
                let profiler = de.read_bytes(profiler_len)?.to_vec();
                let mru_len = de.read_len()?;
                let mru = de.read_bytes(mru_len)?.to_vec();
                cuts.push(SegmentCheckpoint { region, profiler, mru });
            }
            per_thread.push(ThreadCheckpoints { cuts });
        }
        Ok(Self { collection_capacity, num_regions, per_thread })
    }
}

/// Maps a [`bp_workload::CheckpointError`] from a cache-served checkpoint
/// into the pipeline error space.
fn restore_error(thread: usize, region: usize, e: bp_workload::CheckpointError) -> Error {
    Error::CheckpointRestore { message: format!("thread {thread} segment at region {region}: {e}") }
}

/// The fused cold pass with checkpoint emission: identical to
/// [`crate::profile_and_collect_warmup`] — each thread walks its whole
/// trace once, feeding the signature profiler and the MRU collector
/// together — but both observers additionally snapshot their carried state
/// at every interior cut of [`checkpoint_cuts`]`(regions, max_segments)`.
/// The walk itself is bit-identical to the uncheckpointed pass (the same
/// observers run the same per-region protocol; snapshots only *read*
/// state), so the profile and bank are too.
///
/// # Errors
///
/// Returns [`Error::EmptyWorkload`] if the workload has no regions.
pub fn profile_and_collect_warmup_checkpointed<W: Workload + ?Sized>(
    workload: &W,
    capacities: &[u64],
    policy: &ExecutionPolicy,
    budget: Option<&WorkerBudget>,
    max_segments: usize,
) -> Result<(ApplicationProfile, MruSnapshotBank, WorkloadCheckpoints), Error> {
    if workload.num_regions() == 0 {
        return Err(Error::EmptyWorkload { workload: workload.name().to_string() });
    }
    let num_regions = workload.num_regions();
    let boundaries: Vec<usize> = (0..num_regions).collect();
    let collection_capacity = capacities.iter().copied().max().unwrap_or(1).max(1);
    let cuts = checkpoint_cuts(num_regions, max_segments);
    let walk = |thread: usize| {
        let mut profiler = ThreadProfileObserver::new(workload, thread);
        let mut mru = MruThreadObserver::new(&boundaries, collection_capacity);
        let mut taken = Vec::with_capacity(cuts.len());
        let mut from = 0;
        for &cut in cuts.iter().chain(std::iter::once(&num_regions)) {
            bp_workload::drive_segment(workload, thread, from, cut, &mut [&mut profiler, &mut mru]);
            if cut < num_regions {
                taken.push(SegmentCheckpoint {
                    region: cut as u64,
                    profiler: profiler.snapshot_at(cut),
                    mru: mru.snapshot_at(cut),
                });
            }
            from = cut;
        }
        mru.seal();
        (profiler.into_profile(), mru, ThreadCheckpoints { cuts: taken })
    };
    let threads = workload.num_threads();
    let walked = match budget {
        Some(budget) => policy.execute_budgeted(threads, budget, walk),
        None => policy.execute(threads, walk),
    };
    let mut profiles = Vec::with_capacity(threads);
    let mut observers = Vec::with_capacity(threads);
    let mut per_thread = Vec::with_capacity(threads);
    for (profile, mru, thread_cuts) in walked {
        profiles.push(profile);
        observers.push(mru);
        per_thread.push(thread_cuts);
    }
    let profile =
        ApplicationProfile::from_thread_profiles(workload.name().to_string(), threads, profiles);
    let checkpoints =
        WorkloadCheckpoints { collection_capacity, num_regions: num_regions as u64, per_thread };
    Ok((profile, MruSnapshotBank::from_observers(observers), checkpoints))
}

/// One segment job's restored walk: constructs the observers, restores the
/// checkpoint (when not the first segment), walks `[from, until)`, and
/// returns the observers for stitching.  `with_profiler`/`with_mru` select
/// which observers the job carries — a profile-only re-walk pays no MRU
/// state, and vice versa.
#[allow(clippy::type_complexity)]
fn run_segment_job<W: Workload + ?Sized>(
    workload: &W,
    checkpoints: &WorkloadCheckpoints,
    boundaries: &[usize],
    thread: usize,
    segment: usize,
    with_profiler: bool,
    with_mru: bool,
) -> Result<(Option<ThreadProfile>, Option<MruThreadObserver>), Error> {
    let bounds = checkpoints.bounds(thread);
    let (from, until) = (bounds[segment], bounds[segment + 1]);
    let mut profiler = with_profiler.then(|| ThreadProfileObserver::new(workload, thread));
    let mut mru =
        with_mru.then(|| MruThreadObserver::new(boundaries, checkpoints.collection_capacity));
    if segment > 0 {
        let cut = &checkpoints.per_thread[thread].cuts[segment - 1];
        if let Some(profiler) = profiler.as_mut() {
            profiler.restore(from, &cut.profiler).map_err(|e| restore_error(thread, from, e))?;
        }
        if let Some(mru) = mru.as_mut() {
            mru.restore(from, &cut.mru).map_err(|e| restore_error(thread, from, e))?;
        }
    }
    let mut observers: Vec<&mut dyn bp_workload::TraceObserver> = Vec::with_capacity(2);
    if let Some(profiler) = profiler.as_mut() {
        observers.push(profiler);
    }
    if let Some(mru) = mru.as_mut() {
        observers.push(mru);
    }
    bp_workload::drive_segment(workload, thread, from, until, &mut observers);
    // Sealed now, not at stitch time: the recency state is dead weight
    // while the other segment jobs are still walking.
    if let Some(mru) = mru.as_mut() {
        mru.seal();
    }
    Ok((profiler.map(ThreadProfileObserver::into_profile), mru))
}

/// Fans one segmented walk's `threads × segments` jobs onto the budget and
/// regroups the results thread-major, segment order preserved.
#[allow(clippy::type_complexity)]
fn fan_segment_jobs<W: Workload + ?Sized>(
    workload: &W,
    checkpoints: &WorkloadCheckpoints,
    policy: &ExecutionPolicy,
    budget: Option<&WorkerBudget>,
    with_profiler: bool,
    with_mru: bool,
) -> Result<Vec<Vec<(Option<ThreadProfile>, Option<MruThreadObserver>)>>, Error> {
    let threads = checkpoints.threads();
    let segments = checkpoints.num_segments();
    let boundaries: Vec<usize> = (0..checkpoints.num_regions()).collect();
    let job = |j: usize| {
        run_segment_job(
            workload,
            checkpoints,
            &boundaries,
            j / segments,
            j % segments,
            with_profiler,
            with_mru,
        )
    };
    let jobs = threads * segments;
    let results = match budget {
        Some(budget) => policy.execute_budgeted(jobs, budget, job),
        None => policy.execute(jobs, job),
    };
    let mut per_thread: Vec<Vec<_>> = (0..threads).map(|_| Vec::with_capacity(segments)).collect();
    for (j, result) in results.into_iter().enumerate() {
        per_thread[j / segments].push(result?);
    }
    Ok(per_thread)
}

/// Stitches each thread's per-segment profiles into the application
/// profile ([`concat_thread_profiles`] per thread, then the usual
/// per-region zip).
fn stitch_profiles<W: Workload + ?Sized>(
    workload: &W,
    per_thread: Vec<Vec<Option<ThreadProfile>>>,
) -> ApplicationProfile {
    let profiles = per_thread
        .into_iter()
        .map(|segments| concat_thread_profiles(segments.into_iter().flatten().collect()))
        .collect();
    ApplicationProfile::from_thread_profiles(
        workload.name().to_string(),
        workload.num_threads(),
        profiles,
    )
}

/// Re-profiles `workload` as `threads × segments` parallel segment jobs,
/// each resuming from `checkpoints`, bit-identical to
/// [`crate::profile_application_with`]'s sequential thread-major pass.
/// This is how a sweep re-profiles at a new [`crate::SignatureConfig`] — or any
/// forced re-profile — using more workers than the workload has threads.
///
/// # Errors
///
/// Returns [`Error::EmptyWorkload`] for a region-less workload and
/// [`Error::CheckpointRestore`] for a semantically invalid checkpoint
/// (shape mismatches are the caller's to pre-check via
/// [`WorkloadCheckpoints::covers`]).
pub fn profile_application_segmented<W: Workload + ?Sized>(
    workload: &W,
    checkpoints: &WorkloadCheckpoints,
    policy: &ExecutionPolicy,
    budget: Option<&WorkerBudget>,
) -> Result<ApplicationProfile, Error> {
    if workload.num_regions() == 0 {
        return Err(Error::EmptyWorkload { workload: workload.name().to_string() });
    }
    let per_thread = fan_segment_jobs(workload, checkpoints, policy, budget, true, false)?;
    Ok(stitch_profiles(
        workload,
        per_thread
            .into_iter()
            .map(|segments| segments.into_iter().map(|(profile, _)| profile).collect())
            .collect(),
    ))
}

/// Collects the every-boundary MRU snapshot bank as parallel segment jobs
/// (at the checkpoints' collection capacity), bit-identical to the
/// sequential fused pass's bank: assembly at any boundary subset and any
/// capacity up to [`WorkloadCheckpoints::collection_capacity`] matches
/// [`bp_warmup::collect_mru_warmup`] exactly.
///
/// # Errors
///
/// Returns [`Error::EmptyWorkload`] for a region-less workload and
/// [`Error::CheckpointRestore`] for a semantically invalid checkpoint.
pub fn collect_warmup_bank_segmented<W: Workload + ?Sized>(
    workload: &W,
    checkpoints: &WorkloadCheckpoints,
    policy: &ExecutionPolicy,
    budget: Option<&WorkerBudget>,
) -> Result<MruSnapshotBank, Error> {
    if workload.num_regions() == 0 {
        return Err(Error::EmptyWorkload { workload: workload.name().to_string() });
    }
    let per_thread = fan_segment_jobs(workload, checkpoints, policy, budget, false, true)?;
    Ok(MruSnapshotBank::from_segmented_observers(
        per_thread
            .into_iter()
            .map(|segments| segments.into_iter().filter_map(|(_, mru)| mru).collect())
            .collect(),
    ))
}

/// The fused segmented re-walk: one fan-out of `threads × segments` jobs
/// whose every job restores *both* observers and walks its segment once —
/// producing the profile and the every-boundary bank together, exactly as
/// the sequential fused cold pass does, with half the walks of running
/// [`profile_application_segmented`] and [`collect_warmup_bank_segmented`]
/// separately.
///
/// # Errors
///
/// Returns [`Error::EmptyWorkload`] for a region-less workload and
/// [`Error::CheckpointRestore`] for a semantically invalid checkpoint.
pub fn profile_and_collect_warmup_segmented<W: Workload + ?Sized>(
    workload: &W,
    checkpoints: &WorkloadCheckpoints,
    policy: &ExecutionPolicy,
    budget: Option<&WorkerBudget>,
) -> Result<(ApplicationProfile, MruSnapshotBank), Error> {
    if workload.num_regions() == 0 {
        return Err(Error::EmptyWorkload { workload: workload.name().to_string() });
    }
    let per_thread = fan_segment_jobs(workload, checkpoints, policy, budget, true, true)?;
    let mut profile_segments = Vec::with_capacity(per_thread.len());
    let mut mru_segments = Vec::with_capacity(per_thread.len());
    for segments in per_thread {
        let (profiles, mrus): (Vec<_>, Vec<_>) = segments.into_iter().unzip();
        profile_segments.push(profiles);
        mru_segments.push(mrus.into_iter().flatten().collect());
    }
    let profile = stitch_profiles(workload, profile_segments);
    Ok((profile, MruSnapshotBank::from_segmented_observers(mru_segments)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{profile_and_collect_warmup, profile_application_with};
    use bp_workload::{Benchmark, WorkloadConfig};
    use proptest::prelude::*;

    #[test]
    fn cuts_split_near_equally_and_stay_interior() {
        assert_eq!(checkpoint_cuts(11, 4), vec![3, 6, 9]);
        assert_eq!(checkpoint_cuts(8, 4), vec![2, 4, 6]);
        assert_eq!(checkpoint_cuts(3, 8), vec![1, 2]);
        assert_eq!(checkpoint_cuts(1, 8), Vec::<usize>::new());
        assert_eq!(checkpoint_cuts(100, 1), Vec::<usize>::new());
        assert_eq!(checkpoint_cuts(0, 4), Vec::<usize>::new());
        for (regions, segments) in [(11, 4), (46, 8), (200, 3), (7, 7), (5, 100)] {
            let cuts = checkpoint_cuts(regions, segments);
            assert!(cuts.len() < segments);
            assert!(cuts.windows(2).all(|w| w[0] < w[1]));
            assert!(cuts.iter().all(|&c| c > 0 && c < regions));
        }
    }

    #[test]
    fn checkpointed_cold_pass_matches_the_plain_fused_pass_bit_for_bit() {
        let w = Benchmark::NpbCg.build(&WorkloadConfig::new(2).with_scale(0.05));
        let capacities = [256, 2048];
        let policy = ExecutionPolicy::Serial;
        let (profile, bank) = profile_and_collect_warmup(&w, &capacities, &policy, None).unwrap();
        let (ck_profile, ck_bank, checkpoints) =
            profile_and_collect_warmup_checkpointed(&w, &capacities, &policy, None, 4).unwrap();
        assert_eq!(profile, ck_profile);
        let targets = [0, 5, 20];
        for capacity in [100u64, 256, 2048] {
            assert_eq!(bank.assemble(&targets, capacity), ck_bank.assemble(&targets, capacity));
        }
        assert_eq!(checkpoints.threads(), 2);
        assert_eq!(checkpoints.num_segments(), 4);
        assert_eq!(checkpoints.collection_capacity(), 2048);
        assert!(checkpoints.covers(&w, 2048));
        assert!(!checkpoints.covers(&w, 4096), "capacity above the collection must not cover");
    }

    #[test]
    fn segmented_walks_match_sequential_bit_for_bit_at_every_segment_count() {
        let w = Benchmark::NpbIs.build(&WorkloadConfig::new(2).with_scale(0.05));
        let regions = w.num_regions();
        let policy = ExecutionPolicy::parallel_with(4);
        let sequential = profile_application_with(&w, &policy).unwrap();
        let (_, bank) = profile_and_collect_warmup(&w, &[700], &policy, None).unwrap();
        let targets: Vec<usize> = (0..regions).collect();
        for segments in [1, 2, 3, 7, regions] {
            let (_, _, checkpoints) =
                profile_and_collect_warmup_checkpointed(&w, &[700], &policy, None, segments)
                    .unwrap();
            let profile = profile_application_segmented(&w, &checkpoints, &policy, None).unwrap();
            assert_eq!(profile, sequential, "{segments} segments");
            let seg_bank = collect_warmup_bank_segmented(&w, &checkpoints, &policy, None).unwrap();
            for capacity in [1u64, 64, 700] {
                assert_eq!(
                    seg_bank.assemble(&targets, capacity),
                    bank.assemble(&targets, capacity),
                    "{segments} segments, capacity {capacity}"
                );
            }
            let (fused_profile, fused_bank) =
                profile_and_collect_warmup_segmented(&w, &checkpoints, &policy, None).unwrap();
            assert_eq!(fused_profile, sequential, "{segments} segments fused");
            assert_eq!(
                fused_bank.assemble(&targets, 700),
                bank.assemble(&targets, 700),
                "{segments} segments fused bank"
            );
        }
    }

    #[test]
    fn segmented_walk_draws_more_workers_than_threads_under_a_budget() {
        let w = Benchmark::NpbIs.build(&WorkloadConfig::new(2).with_scale(0.02));
        let (_, _, checkpoints) =
            profile_and_collect_warmup_checkpointed(&w, &[256], &ExecutionPolicy::Serial, None, 4)
                .unwrap();
        assert_eq!(checkpoints.segment_jobs(), 8, "2 threads × 4 segments");
        assert_eq!(checkpoints.checkpoint_restores(), 6);
        // A budget of 6 workers (more than the 2 threads) is fully legal
        // for the 8-job fan-out and returns every permit.
        let budget = WorkerBudget::new(6);
        let policy = ExecutionPolicy::parallel_with(6);
        let segmented =
            profile_application_segmented(&w, &checkpoints, &policy, Some(&budget)).unwrap();
        assert_eq!(budget.available(), 6, "all permits returned");
        assert_eq!(segmented, profile_application_with(&w, &ExecutionPolicy::Serial).unwrap());
    }

    #[test]
    fn checkpoints_round_trip_through_serde() {
        let w = Benchmark::NpbIs.build(&WorkloadConfig::new(2).with_scale(0.02));
        let (_, _, checkpoints) =
            profile_and_collect_warmup_checkpointed(&w, &[256], &ExecutionPolicy::Serial, None, 4)
                .unwrap();
        let bytes = serde::to_vec(&checkpoints);
        let back: WorkloadCheckpoints = serde::from_slice(&bytes).unwrap();
        assert_eq!(checkpoints, back);
        // And the payloads are stored verbatim, not u64-expanded: the
        // encoding must stay within ~2× of the raw snapshot bytes.
        let raw: usize = checkpoints
            .per_thread
            .iter()
            .flat_map(|t| &t.cuts)
            .map(|c| c.profiler.len() + c.mru.len())
            .sum();
        assert!(raw > 0);
        assert!(bytes.len() < 2 * raw + 1024, "bytes {} vs raw {raw}", bytes.len());
    }

    #[test]
    fn mismatched_restore_surfaces_as_checkpoint_error() {
        let w = Benchmark::NpbIs.build(&WorkloadConfig::new(2).with_scale(0.02));
        let (_, _, mut checkpoints) =
            profile_and_collect_warmup_checkpointed(&w, &[256], &ExecutionPolicy::Serial, None, 4)
                .unwrap();
        // Truncate one MRU snapshot: the restore must fail loudly (the
        // cache's checksum seal makes this unreachable for cache-served
        // checkpoints, but the API contract still has to hold).
        checkpoints.per_thread[1].cuts[0].mru.pop();
        let err = collect_warmup_bank_segmented(&w, &checkpoints, &ExecutionPolicy::Serial, None)
            .unwrap_err();
        assert!(matches!(err, Error::CheckpointRestore { .. }), "{err:?}");
        assert!(err.to_string().contains("thread 1"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Segmentation invariance at the pipeline level: for random
        /// workload shapes and random segment counts, the stitched
        /// segmented profile and bank are byte-identical to one
        /// sequential walk.
        #[test]
        fn segmentation_is_invariant_for_random_shapes(
            threads in 1usize..4,
            scale in 2u32..6,
            segments in 1usize..12,
            capacity in 1u64..600,
        ) {
            let scale = f64::from(scale) / 100.0;
            let w = Benchmark::NpbIs.build(&WorkloadConfig::new(threads).with_scale(scale));
            let policy = ExecutionPolicy::Serial;
            let sequential = profile_application_with(&w, &policy).unwrap();
            let (_, bank) = profile_and_collect_warmup(&w, &[capacity], &policy, None).unwrap();
            let (_, _, checkpoints) =
                profile_and_collect_warmup_checkpointed(&w, &[capacity], &policy, None, segments)
                    .unwrap();
            let (profile, seg_bank) =
                profile_and_collect_warmup_segmented(&w, &checkpoints, &policy, None).unwrap();
            prop_assert_eq!(profile, sequential);
            let targets: Vec<usize> = (0..w.num_regions()).collect();
            prop_assert_eq!(
                seg_bank.assemble(&targets, capacity),
                bank.assemble(&targets, capacity)
            );
        }
    }
}
