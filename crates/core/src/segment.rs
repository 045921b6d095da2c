//! The walk engine: every bp-core trace walk goes through [`walk`].
//!
//! The paper builds its one-time profile and its MRU warmup from single
//! passes over each thread's trace.  This module is the one place in bp-core
//! that makes those passes (the `core-drive` lint pins it), and [`walk`] is
//! its one entry point.  A walk is three choices:
//!
//! * **The plan** ([`WalkPlan`]): a cold walk of every thread's whole trace
//!   from region zero, or a resume from cached [`WorkloadCheckpoints`].
//! * **The observers** ([`Observe`]): the signature profiler
//!   ([`ThreadProfileObserver`]), an MRU warmup observer
//!   ([`MruThreadObserver`]) over a boundary list at one collection
//!   capacity, or both on one walk (the fused pass).  A list of targets
//!   stops each thread's walk after its last target; the list of every
//!   region gives a bank that serves any boundary subset later.
//! * **The budget**: jobs fan out under the [`ExecutionPolicy`], drawing
//!   helper threads from a shared [`WorkerBudget`] when one is given.
//!
//! The result ([`Walked`]) carries the profile, the snapshot bank and the
//! checkpoints the walk produced, plus its walk counts, which a
//! [`Sweep`](crate::Sweep) folds into its
//! [`SweepCounters`](crate::SweepCounters).
//!
//! **Why checkpoints.**  The profiler's reuse-distance tracker and the MRU
//! collector both carry state across regions, so a thread's walk cannot
//! naively start in the middle.  That would cap the parallelism of every
//! *re*-walk (re-profiling under a new
//! [`SignatureConfig`](bp_signature::SignatureConfig), a warmup collection
//! for a new design point) at the workload's thread count, even when the
//! budget has more workers idle.  So a cold fused walk over every region
//! snapshots both observers' carried state every K regions into a
//! [`WorkloadCheckpoints`] artifact (the `ckpt` kind of the
//! [`ArtifactCache`](crate::ArtifactCache)).  A resumed walk then fans
//! `threads × segments` *segment jobs* onto the budget: each job constructs
//! fresh observers, [restores](CheckpointObserver::restore) the checkpoint
//! taken at its segment's first region, walks only that segment, and the
//! per-segment results are stitched back
//! ([`bp_signature::concat_thread_profiles`],
//! [`MruSnapshotBank::from_segmented_observers`]).  A cold walk is the same
//! machinery with one job per thread walking all of its segments in order.
//!
//! **Bit-identity is the contract.**  Checkpoint restoration reproduces the
//! observers' exact carried state (including compaction timing and sequence
//! counters), so every plan yields byte-equal artifacts — pinned by the
//! tests here, the kernel matrix in `tests/segments.rs`, and the oracle
//! tests in the substrate crates.

use crate::error::Error;
use crate::profile::ApplicationProfile;
use bp_exec::{ExecutionPolicy, WorkerBudget};
use bp_signature::{concat_thread_profiles, ThreadProfile, ThreadProfileObserver};
use bp_warmup::{MruSnapshotBank, MruThreadObserver};
use bp_workload::{CheckpointObserver, TraceObserver, Workload};

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

/// How [`walk`] covers each thread's trace.
#[derive(Debug, Clone, Copy)]
pub enum WalkPlan<'c> {
    /// One job per thread walks the whole trace from region zero.  A fused
    /// walk over every region ([`Observe::Fused`]) also cuts the trace into
    /// at most `segments` near-equal segments ([`checkpoint_cuts`]) and
    /// snapshots both observers at every cut; one segment takes no
    /// snapshot.  The snapshots only *read* state, so the walk itself is the
    /// plain sequential pass.
    Cold {
        /// Upper bound on the segments the checkpoints split a trace into.
        segments: usize,
    },
    /// `threads × segments` jobs, each restoring the checkpoint taken at its
    /// segment's first region and walking only that segment.  MRU observers
    /// collect at the checkpoints' collection capacity, which must cover
    /// every capacity the caller assembles (see
    /// [`WorkloadCheckpoints::covers`]).
    Resume(&'c WorkloadCheckpoints),
}

/// Which observers ride a [`walk`].
#[derive(Debug, Clone, Copy)]
pub enum Observe<'b> {
    /// The signature profiler alone: yields [`Walked::profile`].
    Profile,
    /// An MRU warmup observer alone, snapshotting `boundaries` at `capacity`
    /// lines: yields [`Walked::bank`].  Each thread's walk stops after the
    /// last boundary.
    Warmup {
        /// Region boundaries to snapshot (a boundary `r` reflects regions
        /// `0..r`).
        boundaries: &'b [usize],
        /// Collection capacity in cache lines.
        capacity: u64,
    },
    /// Both observers on one walk — the fused pass: yields the profile and
    /// the bank.  Over every region, a cold fused walk also yields its
    /// [`Walked::checkpoints`].
    Fused {
        /// Region boundaries to snapshot.
        boundaries: &'b [usize],
        /// Collection capacity in cache lines.
        capacity: u64,
    },
}

/// What one [`walk`] produced, and what it cost.
#[derive(Debug)]
pub struct Walked {
    /// The application profile, when the walk carried the profiler.
    pub profile: Option<ApplicationProfile>,
    /// The MRU snapshot bank, when the walk carried an MRU observer.
    pub bank: Option<MruSnapshotBank>,
    /// The checkpoints of a cold fused walk over every region (with no cuts
    /// for a one-segment plan); `None` for every other walk.
    pub checkpoints: Option<WorkloadCheckpoints>,
    /// Whole per-thread trace walks (one per thread for a cold walk).
    pub trace_walks: usize,
    /// Segment jobs of a resumed walk (`threads × segments`).
    pub segment_walks: usize,
    /// Segment jobs that started from a restored checkpoint.
    pub checkpoint_hits: usize,
}

/// Unwraps an artifact of a walk whose [`Observe`] carried the observer that
/// produces it.
pub(crate) fn carried<T>(artifact: Option<T>) -> T {
    match artifact {
        Some(artifact) => artifact,
        None => unreachable!("the walk did not carry the observer of this artifact"),
    }
}

/// One job of a walk: a thread, the segment bounds it walks in order, and
/// the checkpoint it restores before its first segment.
struct Job<'c> {
    thread: usize,
    /// `[from, cut, …, until]`: a snapshot is taken at every interior bound.
    bounds: Vec<usize>,
    resume: Option<&'c SegmentCheckpoint>,
}

/// What one job hands back for stitching.
type JobOutput = (Option<ThreadProfile>, Option<MruThreadObserver>, Vec<SegmentCheckpoint>);

/// Walks `workload` under `plan` with the observers `observe` selects, the
/// jobs fanning out under `policy` (drawing helper threads from `budget`
/// when given).  Every plan, policy and budget yields bit-identical
/// artifacts.
///
/// # Errors
///
/// Returns [`Error::EmptyWorkload`] for a region-less workload, and
/// [`Error::CheckpointRestore`] when resumed checkpoints do not match the
/// workload's shape or a snapshot fails to restore.
pub fn walk<W: Workload + ?Sized>(
    workload: &W,
    plan: WalkPlan<'_>,
    observe: Observe<'_>,
    policy: &ExecutionPolicy,
    budget: Option<&WorkerBudget>,
) -> Result<Walked, Error> {
    let num_regions = workload.num_regions();
    if num_regions == 0 {
        return Err(Error::EmptyWorkload { workload: workload.name().to_string() });
    }
    let threads = workload.num_threads();
    let (profile, mru) = match observe {
        Observe::Profile => (true, None),
        Observe::Warmup { boundaries, capacity } => (false, Some((boundaries, capacity))),
        Observe::Fused { boundaries, capacity } => (true, Some((boundaries, capacity))),
    };
    let mut jobs = Vec::new();
    let (capacity, checkpointed, trace_walks, segment_walks, checkpoint_hits) = match plan {
        WalkPlan::Cold { segments } => {
            // Only a fused walk over every region can seed a resume of any
            // later walk: a shorter boundary list stops recording early.
            let checkpointed =
                profile && mru.is_some_and(|(b, _)| b.iter().copied().eq(0..num_regions));
            let mut bounds = vec![0];
            if checkpointed {
                bounds.extend(checkpoint_cuts(num_regions, segments));
            }
            bounds.push(num_regions);
            for thread in 0..threads {
                jobs.push(Job { thread, bounds: bounds.clone(), resume: None });
            }
            let capacity = mru.map_or(1, |(_, capacity)| capacity.max(1));
            (capacity, checkpointed, threads, 0, 0)
        }
        WalkPlan::Resume(checkpoints) => {
            let shape_error = || Error::CheckpointRestore {
                message: format!(
                    "checkpoints of {} threads × {} regions do not cut {threads} × {num_regions}",
                    checkpoints.threads(),
                    checkpoints.num_regions()
                ),
            };
            if checkpoints.threads() != threads || checkpoints.num_regions() != num_regions {
                return Err(shape_error());
            }
            for (thread, cuts) in checkpoints.per_thread.iter().enumerate() {
                let bounds = checkpoints.bounds(thread);
                if bounds.windows(2).any(|pair| pair[0] >= pair[1]) {
                    return Err(shape_error());
                }
                for segment in 0..=cuts.cuts.len() {
                    jobs.push(Job {
                        thread,
                        bounds: bounds[segment..segment + 2].to_vec(),
                        resume: segment.checked_sub(1).map(|cut| &cuts.cuts[cut]),
                    });
                }
            }
            let hits = checkpoints.checkpoint_restores();
            (checkpoints.collection_capacity, false, 0, checkpoints.segment_jobs(), hits)
        }
    };
    let boundaries = mru.map(|(boundaries, _)| boundaries);
    let run = |j: usize| run_job(workload, &jobs[j], profile, boundaries, capacity);
    let results = match budget {
        Some(budget) => policy.execute_budgeted(jobs.len(), budget, run),
        None => policy.execute(jobs.len(), run),
    };

    // Jobs are thread-major, so each thread's segments arrive in order.
    let mut profiles: Vec<Vec<ThreadProfile>> = (0..threads).map(|_| Vec::new()).collect();
    let mut observers: Vec<Vec<MruThreadObserver>> = (0..threads).map(|_| Vec::new()).collect();
    let mut per_thread: Vec<ThreadCheckpoints> =
        (0..threads).map(|_| ThreadCheckpoints { cuts: Vec::new() }).collect();
    for (job, result) in jobs.iter().zip(results) {
        let (thread_profile, observer, taken) = result?;
        profiles[job.thread].extend(thread_profile);
        observers[job.thread].extend(observer);
        per_thread[job.thread].cuts.extend(taken);
    }
    Ok(Walked {
        profile: profile.then(|| {
            let profiles = profiles.into_iter().map(concat_thread_profiles).collect();
            ApplicationProfile::from_thread_profiles(workload.name().to_string(), threads, profiles)
        }),
        bank: mru.map(|_| MruSnapshotBank::from_segmented_observers(observers)),
        checkpoints: checkpointed.then_some(WorkloadCheckpoints {
            collection_capacity: capacity,
            num_regions: num_regions as u64,
            per_thread,
        }),
        trace_walks,
        segment_walks,
        checkpoint_hits,
    })
}

/// One job: constructs the observers, restores the job's checkpoint (if
/// any), walks its segments in order, snapshotting both observers at every
/// interior bound, and seals the MRU observer — its recency state is dead
/// weight while the other jobs are still walking.
fn run_job<W: Workload + ?Sized>(
    workload: &W,
    job: &Job<'_>,
    profile: bool,
    boundaries: Option<&[usize]>,
    capacity: u64,
) -> Result<JobOutput, Error> {
    let thread = job.thread;
    let mut profiler = profile.then(|| ThreadProfileObserver::new(workload, thread));
    let mut mru = boundaries.map(|boundaries| MruThreadObserver::new(boundaries, capacity));
    if let Some(cut) = job.resume {
        let from = job.bounds[0];
        let restore_error = |e: bp_workload::CheckpointError| Error::CheckpointRestore {
            message: format!("thread {thread} segment at region {from}: {e}"),
        };
        if let Some(profiler) = profiler.as_mut() {
            profiler.restore(from, &cut.profiler).map_err(restore_error)?;
        }
        if let Some(mru) = mru.as_mut() {
            mru.restore(from, &cut.mru).map_err(restore_error)?;
        }
    }
    let mut taken = Vec::with_capacity(job.bounds.len() - 2);
    for (i, segment) in job.bounds.windows(2).enumerate() {
        let mut observers: Vec<&mut dyn TraceObserver> = Vec::with_capacity(2);
        if let Some(profiler) = profiler.as_mut() {
            observers.push(profiler);
        }
        if let Some(mru) = mru.as_mut() {
            observers.push(mru);
        }
        bp_workload::drive_segment(workload, thread, segment[0], segment[1], &mut observers);
        if i + 2 < job.bounds.len() {
            let cut = segment[1];
            taken.push(SegmentCheckpoint {
                region: cut as u64,
                profiler: profiler.as_ref().map_or_else(Vec::new, |p| p.snapshot_at(cut)),
                mru: mru.as_ref().map_or_else(Vec::new, |m| m.snapshot_at(cut)),
            });
        }
    }
    if let Some(mru) = mru.as_mut() {
        mru.seal();
    }
    Ok((profiler.map(ThreadProfileObserver::into_profile), mru, taken))
}

/// The fused cold pass with checkpoint emission: one walk per thread feeds
/// the signature profiler and an MRU observer over every region at the
/// largest of `capacities`, snapshotting both at every interior cut of
/// [`checkpoint_cuts`]`(regions, max_segments)`.  A forward over [`walk`].
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
    let every_region: Vec<usize> = (0..workload.num_regions()).collect();
    let capacity = capacities.iter().copied().max().unwrap_or(1);
    let observe = Observe::Fused { boundaries: &every_region, capacity };
    let walked =
        walk(workload, WalkPlan::Cold { segments: max_segments }, observe, policy, budget)?;
    Ok((carried(walked.profile), carried(walked.bank), carried(walked.checkpoints)))
}

/// The fused segmented re-walk: `threads × segments` jobs resumed from
/// `checkpoints` produce the profile and the every-region bank together.
/// A forward over [`walk`].
///
/// # Errors
///
/// Returns [`Error::EmptyWorkload`] for a region-less workload and
/// [`Error::CheckpointRestore`] for checkpoints that do not restore.
pub fn profile_and_collect_warmup_segmented<W: Workload + ?Sized>(
    workload: &W,
    checkpoints: &WorkloadCheckpoints,
    policy: &ExecutionPolicy,
    budget: Option<&WorkerBudget>,
) -> Result<(ApplicationProfile, MruSnapshotBank), Error> {
    let every_region: Vec<usize> = (0..workload.num_regions()).collect();
    let observe =
        Observe::Fused { boundaries: &every_region, capacity: checkpoints.collection_capacity };
    let walked = walk(workload, WalkPlan::Resume(checkpoints), observe, policy, budget)?;
    Ok((carried(walked.profile), carried(walked.bank)))
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
            let plan = WalkPlan::Resume(&checkpoints);
            let profile = walk(&w, plan, Observe::Profile, &policy, None).unwrap().profile.unwrap();
            assert_eq!(profile, sequential, "{segments} segments");
            let observe = Observe::Warmup { boundaries: &targets, capacity: 700 };
            let seg_bank = walk(&w, plan, observe, &policy, None).unwrap().bank.unwrap();
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
        let plan = WalkPlan::Resume(&checkpoints);
        let segmented =
            walk(&w, plan, Observe::Profile, &policy, Some(&budget)).unwrap().profile.unwrap();
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
        let every_region: Vec<usize> = (0..w.num_regions()).collect();
        let observe = Observe::Warmup { boundaries: &every_region, capacity: 256 };
        let err = walk(&w, WalkPlan::Resume(&checkpoints), observe, &ExecutionPolicy::Serial, None)
            .unwrap_err();
        assert!(matches!(err, Error::CheckpointRestore { .. }), "{err:?}");
        assert!(err.to_string().contains("thread 1"));
    }

    #[test]
    fn resume_rejects_checkpoints_that_do_not_cut_the_workload() {
        let policy = ExecutionPolicy::Serial;
        let w = Benchmark::NpbIs.build(&WorkloadConfig::new(2).with_scale(0.02));
        let (_, _, checkpoints) =
            profile_and_collect_warmup_checkpointed(&w, &[256], &policy, None, 4).unwrap();
        let resume = |w: &dyn Workload, checkpoints: &WorkloadCheckpoints| {
            walk(w, WalkPlan::Resume(checkpoints), Observe::Profile, &policy, None).unwrap_err()
        };
        // Another thread count, another region count, and cuts out of order.
        let wider = Benchmark::NpbIs.build(&WorkloadConfig::new(4).with_scale(0.02));
        let longer = Benchmark::NpbCg.build(&WorkloadConfig::new(2).with_scale(0.02));
        let mut disordered = checkpoints.clone();
        disordered.per_thread[1].cuts.swap(0, 1);
        for err in
            [resume(&wider, &checkpoints), resume(&longer, &checkpoints), resume(&w, &disordered)]
        {
            assert!(matches!(err, Error::CheckpointRestore { .. }), "{err:?}");
        }
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
