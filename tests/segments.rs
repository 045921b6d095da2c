//! Segment-parallel walk equivalence: checkpoint-resumed segments must be
//! invisible in every artifact.
//!
//! The segment scheduler splits each thread's trace walk into S
//! checkpoint-resumed segments so a re-profile can fan `threads × segments`
//! jobs onto the worker budget.  Bit-identity with one sequential walk is
//! the contract: these tests pin it across the whole kernel suite, every
//! thread count the paper evaluates, and segment counts from 1 (no cuts)
//! through one-segment-per-region — and on random synthetic workloads with
//! random cut sets, all the way downstream through barrierpoint selection.

use barrierpoint::{
    profile_and_collect_warmup, profile_and_collect_warmup_checkpointed,
    profile_and_collect_warmup_segmented, select_barrierpoints, walk, ExecutionPolicy, Observe,
    SignatureConfig, SimPointConfig, WalkPlan, WorkerBudget,
};
use bp_workload::{Benchmark, SyntheticWorkloadBuilder, Workload, WorkloadConfig};
use proptest::prelude::*;

/// The MRU collection capacity (lines) the matrix checkpoints are taken at.
const COLLECTION: u64 = 512;

/// Region boundaries probed for warmup equivalence: first, an early one, a
/// mid one, and the last (clamped to the region count).
fn probe_targets(num_regions: usize) -> Vec<usize> {
    let mut targets = vec![0, 1, num_regions / 2, num_regions.saturating_sub(1)];
    targets.sort_unstable();
    targets.dedup();
    targets
}

#[test]
fn segmented_walks_are_bit_identical_across_the_whole_suite() {
    // All 8 kernels × 1/2/4/8 threads × segment counts {1, 2, 3, 7,
    // regions}: the checkpointed cold pass and the checkpoint-resumed
    // segmented re-walk must both reproduce the sequential profile and
    // snapshot bank bit for bit.
    for &bench in Benchmark::all() {
        for threads in [1usize, 2, 4, 8] {
            let w = bench.build(&WorkloadConfig::new(threads).with_scale(0.02));
            let regions = w.num_regions();
            let policy = ExecutionPolicy::parallel_with(threads);
            let (sequential, bank) =
                profile_and_collect_warmup(&w, &[COLLECTION], &policy, None).unwrap();
            let targets = probe_targets(regions);
            for segments in [1usize, 2, 3, 7, regions] {
                let (ck_profile, ck_bank, checkpoints) = profile_and_collect_warmup_checkpointed(
                    &w,
                    &[COLLECTION],
                    &policy,
                    None,
                    segments,
                )
                .unwrap();
                assert_eq!(
                    ck_profile, sequential,
                    "{bench:?} at {threads} threads, {segments} segments: checkpointed cold \
                     pass profile differs"
                );
                let (seg_profile, seg_bank) =
                    profile_and_collect_warmup_segmented(&w, &checkpoints, &policy, None).unwrap();
                assert_eq!(
                    seg_profile, sequential,
                    "{bench:?} at {threads} threads, {segments} segments: segmented re-walk \
                     profile differs"
                );
                for capacity in [1u64, 64, COLLECTION] {
                    let expected = bank.assemble(&targets, capacity);
                    assert_eq!(
                        ck_bank.assemble(&targets, capacity),
                        expected,
                        "{bench:?} at {threads} threads, {segments} segments, capacity \
                         {capacity}: checkpointed cold bank differs"
                    );
                    assert_eq!(
                        seg_bank.assemble(&targets, capacity),
                        expected,
                        "{bench:?} at {threads} threads, {segments} segments, capacity \
                         {capacity}: segmented bank differs"
                    );
                }
            }
        }
    }
}

#[test]
fn segmented_walks_are_schedule_invariant_under_the_worker_budget() {
    // The `threads × segments` fan-out must agree exactly whether the jobs
    // run serially, fully parallel, or throttled by a budget smaller than
    // the job count — and every permit must come back.
    let w = Benchmark::NpbMg.build(&WorkloadConfig::new(4).with_scale(0.02));
    let (_, _, checkpoints) = profile_and_collect_warmup_checkpointed(
        &w,
        &[COLLECTION],
        &ExecutionPolicy::Serial,
        None,
        3,
    )
    .unwrap();
    assert_eq!(checkpoints.segment_jobs(), 12, "4 threads × 3 segments");
    let plan = WalkPlan::Resume(&checkpoints);
    let serial = walk(&w, plan, Observe::Profile, &ExecutionPolicy::Serial, None).unwrap().profile;
    let parallel = walk(&w, plan, Observe::Profile, &ExecutionPolicy::parallel_with(12), None)
        .unwrap()
        .profile;
    let budget = WorkerBudget::new(5);
    let budgeted =
        walk(&w, plan, Observe::Profile, &ExecutionPolicy::parallel_with(12), Some(&budget))
            .unwrap()
            .profile;
    assert_eq!(serial, parallel);
    assert_eq!(serial, budgeted);
    assert_eq!(budget.available(), 5, "all permits returned");
    let targets = probe_targets(w.num_regions());
    let every_region: Vec<usize> = (0..w.num_regions()).collect();
    let observe = Observe::Warmup { boundaries: &every_region, capacity: COLLECTION };
    let serial_bank =
        walk(&w, plan, observe, &ExecutionPolicy::Serial, None).unwrap().bank.unwrap();
    let budgeted_bank = walk(&w, plan, observe, &ExecutionPolicy::parallel_with(12), Some(&budget))
        .unwrap()
        .bank
        .unwrap();
    assert_eq!(
        serial_bank.assemble(&targets, COLLECTION),
        budgeted_bank.assemble(&targets, COLLECTION)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random synthetic workloads (random phase structure, seeds, thread
    /// counts) and random cut sets: the stitched segmented artifacts must be
    /// byte-identical to one sequential walk — the profile, the snapshot
    /// bank assembled at *every* region boundary, and the barrierpoint
    /// selection computed downstream of the profile.
    #[test]
    fn segmentation_is_invisible_in_every_artifact_on_random_workloads(
        threads_pow in 0u32..3,
        regions in 2usize..14,
        seed in any::<u32>(),
        segments in 1usize..16,
        capacity in 16u64..1024,
    ) {
        let threads = 1usize << threads_pow;
        let mut builder = SyntheticWorkloadBuilder::new(
            "seg-prop",
            WorkloadConfig::new(threads).with_seed(u64::from(seed)),
        );
        let phase = builder
            .phase("p0", 48, true)
            .pattern(bp_workload::AccessPattern::PrivateStream { bytes: 32 * 1024, stride: 64 })
            .pattern(bp_workload::AccessPattern::SharedRandom {
                id: 0,
                bytes: 64 * 1024,
                write_fraction: 0.3,
            })
            .block("work", 20, 4, 0)
            .block("mix", 12, 2, 1)
            .finish();
        builder.schedule_repeat(phase, regions);
        let w = builder.build();
        let policy = ExecutionPolicy::Serial;
        let (sequential, bank) =
            profile_and_collect_warmup(&w, &[capacity], &policy, None).unwrap();
        let (_, _, checkpoints) =
            profile_and_collect_warmup_checkpointed(&w, &[capacity], &policy, None, segments)
                .unwrap();
        let (profile, seg_bank) =
            profile_and_collect_warmup_segmented(&w, &checkpoints, &policy, None).unwrap();
        prop_assert_eq!(&profile, &sequential);
        let every_boundary: Vec<usize> = (0..w.num_regions()).collect();
        prop_assert_eq!(
            seg_bank.assemble(&every_boundary, capacity),
            bank.assemble(&every_boundary, capacity)
        );
        let signatures = SignatureConfig::combined();
        let simpoint = SimPointConfig::paper();
        prop_assert_eq!(
            select_barrierpoints(&profile, &signatures, &simpoint).unwrap(),
            select_barrierpoints(&sequential, &signatures, &simpoint).unwrap()
        );
    }
}
