//! Design-space sweep throughput: the amortization economy, measured.
//!
//! Compares three ways of evaluating the same machine-configuration matrix
//! (the [`bp_bench::sweep_machine_variants`] variants) over one workload:
//!
//! * **monolithic** — one full `BarrierPoint::run` per configuration, the
//!   pre-redesign shape: profiling, clustering and warmup collection repeat
//!   per config;
//! * **sweep** — one `Sweep::run`: profile once, cluster once, collect the
//!   MRU warmup once (all LLC capacities from a single pass), simulate per
//!   config under one shared worker budget;
//! * **cached sweep (disk tier)** — `Sweep::run` with a warm on-disk
//!   `ArtifactCache` but a cold memory tier (a fresh cache handle per run,
//!   the "new process" case): the one-time passes *and every simulated leg*
//!   decode from disk, with a smoke assertion that zero simulate legs (and
//!   zero warmup collections) execute;
//! * **cached sweep (memory tier)** — `Sweep::run` re-using one cache
//!   handle in-process: every artifact is a pointer clone from the memory
//!   tier, with a smoke assertion that the warm re-sweep performs **zero
//!   disk reads** (all three artifact kinds served from memory).
//!
//! Medians go to the console and to `BENCH_sweep.json` at the repository
//! root so the sweep perf trajectory is recorded run over run, together
//! with the scheduling and caching telemetry (steal count, simulated-leg
//! cache hits split by tier, per-stage timings).  Each variant is timed by
//! one explicit sample loop (one untimed warmup + 5 timed runs), like the
//! profiling bench.

use barrierpoint::{
    ArtifactCache, BarrierPoint, ExecutionPolicy, Observe, SimConfig, SimPointStrategy, Sweep,
    WalkPlan, WorkerBudget,
};
use bp_bench::{sweep_machine_variants, ExperimentConfig};
use bp_workload::{Benchmark, Workload, WorkloadConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn bench_sweep(_c: &mut Criterion) {
    let config = ExperimentConfig::quick();
    let cores = config.cores_small;
    let workload = config.workload(Benchmark::NpbCg, cores);
    let variants = sweep_machine_variants(&config, cores);
    // Serial on 1-CPU hosts, parallel over all CPUs otherwise: spawning
    // workers on a degenerate host only measures scheduling overhead.
    let policy = ExecutionPolicy::auto();
    let cache_dir =
        std::env::temp_dir().join(format!("bp-sweep-bench-cache-{}", std::process::id()));
    std::fs::remove_dir_all(&cache_dir).ok();

    // Median over explicit wall-clock samples (one untimed warmup first).
    let median = |f: &dyn Fn()| -> Duration {
        f();
        let mut samples: Vec<Duration> = (0..5)
            .map(|_| {
                let start = Instant::now();
                f();
                start.elapsed()
            })
            .collect();
        samples.sort_unstable();
        samples[samples.len() / 2]
    };

    println!("group sweep (median of 5, npb-cg at {cores} threads, {} configs)", variants.len());
    let monolithic = median(&|| {
        for (_, machine) in &variants {
            BarrierPoint::new(&workload)
                .with_execution_policy(policy)
                .with_sim_config(*machine)
                .run()
                .unwrap();
        }
    });
    println!("sweep/monolithic_per_config {monolithic:>42.2?}");

    // Per-stage timings of the one-time artifacts (what the sweep amortizes).
    let profile_stage = median(&|| {
        BarrierPoint::new(&workload).with_execution_policy(policy).profile().unwrap();
    });
    let profiled = BarrierPoint::new(&workload).with_execution_policy(policy).profile().unwrap();
    let cluster_stage = median(&|| {
        profiled.clone().select().unwrap();
    });
    println!("sweep/stage_profile {profile_stage:>50.2?}");
    println!("sweep/stage_cluster {cluster_stage:>50.2?}");

    let build_sweep = |cache: Option<ArtifactCache>| {
        let mut sweep = Sweep::new(&workload).with_execution_policy(policy);
        if let Some(cache) = cache {
            sweep = sweep.with_cache(cache);
        }
        for (label, machine) in &variants {
            sweep = sweep.add_config(*label, *machine);
        }
        sweep
    };
    // One shared budget across all sampled runs accumulates the steal
    // telemetry of the work-stealing leg scheduler (quiescent-pool ramp-ups
    // between runs are not counted as steals).
    let budget = WorkerBudget::for_policy(&policy);
    let warmup_collections = std::cell::Cell::new(0usize);
    let cold_trace_walks = std::cell::Cell::new(0usize);
    let fused_snapshot_bytes = std::cell::Cell::new(0u64);
    // The worst case the interval-sharing bank replaced: one raw
    // (line, dirty_depth) entry per boundary per resident line, i.e.
    // threads x regions x collection-capacity x 16 bytes.
    let collection_capacity = variants
        .iter()
        .map(|(_, machine)| machine.memory.llc_total_lines(machine.num_cores))
        .max()
        .unwrap_or(1);
    let raw_snapshot_worst_case =
        cores as u64 * workload.num_regions() as u64 * collection_capacity * 16;
    let staged = median(&|| {
        let report = build_sweep(None).with_shared_budget(budget.clone()).run().unwrap();
        assert_eq!(report.counters().profile_passes, 1);
        assert_eq!(
            report.counters().warmup_collections,
            1,
            "one multi-capacity MRU collection must serve every LLC capacity"
        );
        // CI smoke assertion: the fused cold pass walks each per-thread
        // trace exactly once — profiling and warmup collection share one
        // trace generation (this was 2x threads before the fusion).
        assert_eq!(
            report.counters().trace_walks,
            cores,
            "fused cold sweep must walk each trace once"
        );
        // CI smoke assertion: the fused pass was taken (a real snapshot
        // bank was built) and interval sharing holds its size far below
        // the per-boundary worst case that used to trip the byte cap.
        assert!(
            report.counters().fused_snapshot_bytes > 0,
            "cold sweep must report the fused bank's actual snapshot bytes"
        );
        // The quick config pairs a tiny LLC with a working set that exceeds
        // it, so the recency lists churn almost fully between boundaries —
        // near the encoding's worst case.  Even there the bank must stay
        // below half the raw-snapshot bound; the big win is asserted on the
        // realistically-sized 32-thread sweep below.
        assert!(
            report.counters().fused_snapshot_bytes < raw_snapshot_worst_case / 2,
            "interval sharing must stay below the per-boundary worst case \
             ({} >= {raw_snapshot_worst_case} / 2)",
            report.counters().fused_snapshot_bytes
        );
        warmup_collections.set(report.counters().warmup_collections);
        cold_trace_walks.set(report.counters().trace_walks);
        fused_snapshot_bytes.set(report.counters().fused_snapshot_bytes);
    });
    let warmup_collections = warmup_collections.get();
    let cold_trace_walks = cold_trace_walks.get();
    let fused_snapshot_bytes = fused_snapshot_bytes.get();
    let steal_count = budget.steal_count();
    println!("sweep/staged_single_pass {staged:>45.2?}");

    // Cold sweep at heavy oversubscription: 32 application threads on this
    // host, two machine configs.  Exercises the interval bank where the
    // per-boundary encoding hurt most (32 recency lists snapshotted at
    // every boundary) and pins the fused-walk economy at scale.
    let wide_workload = Benchmark::NpbCg.build(&WorkloadConfig::new(32).with_scale(0.02));
    // The paper-scaled memory hierarchy: an LLC the per-region working set
    // does NOT fully churn, i.e. the case where per-boundary snapshots paid
    // `threads x regions x capacity` for state that barely changed — the
    // sweeps the old 512 MiB byte cap used to push back onto two walks.
    let wide_base = SimConfig::scaled(32);
    let mut wide_small = wide_base;
    wide_small.memory.l3.size_bytes /= 4;
    let cold_32t = median(&|| {
        let report = Sweep::new(&wide_workload)
            .with_execution_policy(policy)
            .add_config("base", wide_base)
            .add_config("small-llc", wide_small)
            .run()
            .unwrap();
        let counters = report.counters();
        // CI smoke assertions: fused path taken, one walk per thread.
        assert_eq!(counters.trace_walks, 32, "cold 32-thread sweep must walk each trace once");
        assert_eq!(counters.warmup_collections, 1);
        assert!(counters.fused_snapshot_bytes > 0, "32-thread sweep must take the fused path");
        let worst = 32u64
            * wide_workload.num_regions() as u64
            * wide_base.memory.llc_total_lines(wide_base.num_cores)
            * 16;
        assert!(
            counters.fused_snapshot_bytes < worst / 4,
            "interval sharing must hold at 32 threads ({} >= {worst} / 4)",
            counters.fused_snapshot_bytes
        );
    });
    println!("sweep/cold_32_threads {cold_32t:>48.2?}");

    // Populate the disk tier once, then time the disk-tier warm case: a
    // fresh cache handle per run (cold memory, warm disk) — the "new
    // process" re-sweep, bound by entry decode.
    build_sweep(Some(ArtifactCache::new(&cache_dir))).run().unwrap();
    let simulated_cache_hits = std::cell::Cell::new(0usize);
    let cache_health = std::cell::Cell::new([0u64; 4]);
    let cached = median(&|| {
        let cache = ArtifactCache::new(&cache_dir);
        let report = build_sweep(Some(cache.clone())).run().unwrap();
        let counters = report.counters();
        assert_eq!(counters.profile_passes, 0);
        assert_eq!(counters.clustering_passes, 0);
        // CI smoke assertion: on a healthy filesystem the robustness
        // machinery is invisible — nothing degrades, retries or contends.
        assert_eq!(counters.degraded_loads, 0, "healthy disk must not degrade loads");
        assert_eq!(counters.degraded_stores, 0, "healthy disk must not degrade stores");
        assert_eq!(counters.io_retries, 0, "healthy disk must not retry");
        assert_eq!(counters.lock_contended, 0, "single process must never contend");
        cache_health.set([
            counters.degraded_loads,
            counters.degraded_stores,
            counters.io_retries,
            counters.lock_contended,
        ]);
        // CI smoke assertion: a warm re-sweep is fully incremental — zero
        // simulate legs and zero warmup collections execute.
        assert_eq!(counters.simulate_legs, 0, "warm re-sweep must execute zero simulate legs");
        assert_eq!(counters.warmup_collections, 0, "warm re-sweep must not walk any trace");
        assert_eq!(counters.simulated_cache_hits, 3);
        assert_eq!(counters.trace_walks, 0, "warm re-sweep must not generate any trace");
        assert_eq!(counters.segment_walks, 0, "warm re-sweep must run zero segment jobs");
        let stats = cache.stats();
        assert_eq!(stats.memory_hits(), 0, "fresh handles must decode from disk");
        // The profile is never read: a cached selection makes it unnecessary.
        assert_eq!(stats.disk_hits(), 4, "selection + three legs");
        simulated_cache_hits.set(counters.simulated_cache_hits);
    });
    let simulated_cache_hits = simulated_cache_hits.get();
    let [degraded_loads, degraded_stores, io_retries, lock_contended] = cache_health.get();
    println!("sweep/staged_cached_disk {cached:>45.2?}");

    // Memory tier: one cache handle re-used in-process — warm re-sweeps are
    // pointer clones of already-decoded artifacts.  Each run builds a fresh
    // `Sweep`, so the per-run cost includes key derivation.
    let memory_cache = ArtifactCache::new(&cache_dir);
    build_sweep(Some(memory_cache.clone())).run().unwrap(); // decode once into memory
    let memory_profile_hits = std::cell::Cell::new(0u64);
    let memory_simulated_hits = std::cell::Cell::new(0u64);
    let memory_cached = median(&|| {
        let before = memory_cache.stats();
        let report = build_sweep(Some(memory_cache.clone())).run().unwrap();
        assert_eq!(report.counters().simulate_legs, 0);
        let after = memory_cache.stats();
        // CI smoke assertion: the same-process warm re-sweep performs ZERO
        // disk reads — every artifact it needs is served from memory (the
        // profile is not needed at all once the selection is cached).
        assert_eq!(
            after.disk_hits(),
            before.disk_hits(),
            "in-process warm re-sweep must not read the disk tier"
        );
        assert_eq!(after.profile_memory_hits - before.profile_memory_hits, 0);
        assert_eq!(after.selection_memory_hits - before.selection_memory_hits, 1);
        assert_eq!(after.simulated_memory_hits - before.simulated_memory_hits, 3);
        // Record the per-run deltas, matching the other per-run counters.
        memory_profile_hits.set(after.profile_memory_hits - before.profile_memory_hits);
        memory_simulated_hits.set(after.simulated_memory_hits - before.simulated_memory_hits);
    });
    let memory_profile_hits = memory_profile_hits.get();
    let memory_simulated_hits = memory_simulated_hits.get();
    println!("sweep/staged_cached_memory {memory_cached:>43.2?}");

    // Interned keys: the same warm in-process re-sweep, but re-running ONE
    // sweep object — the cache keys (config serializations, workload and
    // selection fingerprints) are derived once and reused, so the per-run
    // floor drops to the cache lookups themselves.
    let interned_sweep = build_sweep(Some(memory_cache.clone()));
    interned_sweep.run().unwrap(); // intern the keys
    let memory_interned = median(&|| {
        let report = interned_sweep.run().unwrap();
        assert_eq!(report.counters().simulate_legs, 0);
        assert_eq!(report.counters().simulated_cache_hits, 3);
    });
    println!("sweep/staged_cached_interned {memory_interned:>41.2?}");
    // CI smoke assertion: interning must not be slower than re-deriving the
    // keys every run (generous slack — both paths are microseconds).
    assert!(
        memory_interned <= memory_cached.saturating_mul(3) / 2,
        "interned warm re-sweep ({memory_interned:?}) should beat per-run key derivation \
         ({memory_cached:?})"
    );

    // Segment parallelism: the cold sweep above stored region-segment
    // checkpoints as a side product of its fused walk.  A later re-profile
    // (say, at a new clustering or signature configuration) restores them
    // and fans `threads × segments` jobs across the worker budget instead
    // of walking each thread's trace sequentially end to end.  Timed here
    // as the raw profiling re-walk, sequential vs segmented, with a
    // bit-identity assertion.
    let ckpt_key = barrierpoint::CheckpointCacheKey::for_workload(&workload);
    let checkpoints = memory_cache
        .load_checkpoint(&ckpt_key)
        .unwrap()
        .expect("the cold sweep must have stored segment checkpoints");
    let segment_walks_per_reprofile = checkpoints.segment_jobs();
    let reprofile = |plan| {
        barrierpoint::walk(&workload, plan, Observe::Profile, &policy, None).unwrap().profile
    };
    let sequential_profile = reprofile(WalkPlan::Cold { segments: 1 });
    let segmented_profile = reprofile(WalkPlan::Resume(&checkpoints));
    // CI smoke assertion: segmented walks are bit-identical to sequential.
    assert_eq!(
        segmented_profile, sequential_profile,
        "segmented re-profile must be bit-identical to the sequential walk"
    );
    let sequential_reprofile = median(&|| {
        reprofile(WalkPlan::Cold { segments: 1 });
    });
    let segmented_reprofile = median(&|| {
        reprofile(WalkPlan::Resume(&checkpoints));
    });
    println!("sweep/sequential_reprofile {sequential_reprofile:>43.2?}");
    println!("sweep/segmented_reprofile {segmented_reprofile:>44.2?}");

    // And through the sweep itself: invalidate the profile and change the
    // clustering config so both the selection and the profile miss — the
    // checkpoint hit must carry the whole re-profile, with zero sequential
    // walks and a report bit-identical to an uncached sequential sweep.
    memory_cache.invalidate_profile(&barrierpoint::ProfileCacheKey::for_workload(&workload));
    let reclustered = barrierpoint::SimPointConfig::paper().with_max_k(3);
    let segmented_report = {
        let mut sweep = Sweep::new(&workload)
            .with_execution_policy(policy)
            .with_selection_strategy(Arc::new(SimPointStrategy::new(reclustered)))
            .with_cache(memory_cache.clone());
        for (label, machine) in &variants {
            sweep = sweep.add_config(*label, *machine);
        }
        sweep.run().unwrap()
    };
    let segmented_counters = segmented_report.counters();
    // CI smoke assertions: the segmented re-profile path really engaged.
    assert_eq!(segmented_counters.profile_passes, 1, "the re-profile must recompute");
    assert_eq!(segmented_counters.trace_walks, 0, "re-profile must not walk sequentially");
    assert!(
        segmented_counters.segment_walks > cores,
        "segmented re-profile must fan out more jobs ({}) than threads ({cores})",
        segmented_counters.segment_walks
    );
    assert!(segmented_counters.checkpoint_hits > 0, "segments must resume from checkpoints");
    let sequential_report = {
        let mut sweep = Sweep::new(&workload)
            .with_execution_policy(policy)
            .with_selection_strategy(Arc::new(SimPointStrategy::new(reclustered)));
        for (label, machine) in &variants {
            sweep = sweep.add_config(*label, *machine);
        }
        sweep.run().unwrap()
    };
    assert_eq!(
        segmented_report.legs(),
        sequential_report.legs(),
        "segmented sweep report must be bit-identical to the sequential sweep"
    );
    assert_eq!(segmented_report.selections(), sequential_report.selections());
    let segment_walks = segmented_counters.segment_walks;
    let checkpoint_hits = segmented_counters.checkpoint_hits;
    std::fs::remove_dir_all(&cache_dir).ok();

    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        "{{\n  \"benchmark\": \"sweep_throughput\",\n  \"workload\": \"npb-cg\",\n  \
         \"threads\": {cores},\n  \"configs\": {},\n  \"host_cpus\": {cpus},\n  \
         \"policy\": \"{}\",\n  \
         \"monolithic_per_config_ns\": {},\n  \"sweep_ns\": {},\n  \"sweep_cached_ns\": {},\n  \
         \"sweep_memory_ns\": {},\n  \"sweep_memory_interned_ns\": {},\n  \
         \"cold_32t_sweep_ns\": {},\n  \
         \"stage_profile_ns\": {},\n  \"stage_cluster_ns\": {},\n  \
         \"cold_trace_walks\": {cold_trace_walks},\n  \
         \"fused_snapshot_bytes\": {fused_snapshot_bytes},\n  \
         \"warmup_collections\": {warmup_collections},\n  \
         \"sequential_reprofile_ns\": {},\n  \
         \"segmented_reprofile_ns\": {},\n  \
         \"segment_speedup\": {:.3},\n  \
         \"segment_walks_per_reprofile\": {segment_walks_per_reprofile},\n  \
         \"segment_walks\": {segment_walks},\n  \
         \"checkpoint_hits\": {checkpoint_hits},\n  \
         \"steal_count\": {steal_count},\n  \
         \"simulated_cache_hits\": {simulated_cache_hits},\n  \
         \"memory_profile_hits\": {memory_profile_hits},\n  \
         \"memory_simulated_hits\": {memory_simulated_hits},\n  \
         \"degraded_loads\": {degraded_loads},\n  \
         \"degraded_stores\": {degraded_stores},\n  \
         \"io_retries\": {io_retries},\n  \
         \"lock_contended\": {lock_contended},\n  \
         \"sweep_speedup\": {:.3},\n  \"cached_speedup\": {:.3},\n  \
         \"memory_speedup\": {:.3},\n  \"interned_speedup\": {:.3}\n}}\n",
        variants.len(),
        policy.name(),
        monolithic.as_nanos(),
        staged.as_nanos(),
        cached.as_nanos(),
        memory_cached.as_nanos(),
        memory_interned.as_nanos(),
        cold_32t.as_nanos(),
        profile_stage.as_nanos(),
        cluster_stage.as_nanos(),
        sequential_reprofile.as_nanos(),
        segmented_reprofile.as_nanos(),
        sequential_reprofile.as_secs_f64() / segmented_reprofile.as_secs_f64().max(1e-12),
        monolithic.as_secs_f64() / staged.as_secs_f64().max(1e-12),
        monolithic.as_secs_f64() / cached.as_secs_f64().max(1e-12),
        monolithic.as_secs_f64() / memory_cached.as_secs_f64().max(1e-12),
        memory_cached.as_secs_f64() / memory_interned.as_secs_f64().max(1e-12),
    );
    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sweep.json");
    match std::fs::write(out_path, &json) {
        Ok(()) => println!("wrote {out_path}"),
        Err(e) => eprintln!("could not write {out_path}: {e}"),
    }
    print!("{json}");
}

criterion_group!(benches, bench_sweep);
criterion_main!(benches);
