//! Micro-benchmarks of the individual BarrierPoint pipeline stages plus the
//! multiplier-scaling ablation, used to see where the one-time and
//! per-simulation costs of Figure 2 go.

use barrierpoint::evaluate::perfect_warmup_metrics;
use barrierpoint::{
    profile_application, profile_application_with, reconstruct, reconstruct_with_mode,
    select_barrierpoints, ArtifactCache, ExecutionPolicy, ScalingMode, SignatureConfig,
    SimPointConfig,
};
use bp_bench::{prepare, ExperimentConfig};
use bp_sim::Machine;
use bp_warmup::{collect_mru_warmup, collect_mru_warmup_with};
use bp_workload::{Benchmark, WorkloadConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::{Duration, Instant};

fn bench(c: &mut Criterion) {
    let config = ExperimentConfig::quick();
    let bench_id = Benchmark::NpbCg;
    let workload = config.workload(bench_id, config.cores_small);
    let run = prepare(&config, bench_id, config.cores_small);
    let metrics = perfect_warmup_metrics(&run.selection, &run.ground).unwrap();
    let freq = run.sim_config.core.frequency_ghz;

    let mut group = c.benchmark_group("pipeline_stages");
    group.sample_size(10);
    group.bench_function("profile_npb_cg", |b| b.iter(|| profile_application(&workload).unwrap()));
    group.bench_function("cluster_npb_cg", |b| {
        b.iter(|| {
            select_barrierpoints(
                &run.profile,
                &SignatureConfig::combined(),
                &SimPointConfig::paper(),
            )
            .unwrap()
        })
    });
    // npb-sp's 3,601 regions carry only 17 distinct signatures, so this is
    // the case where SimPoint's per-distinct-signature distance work shows;
    // 32 of npb-cg's 46 regions are distinct.
    let sp_profile = profile_application(&config.workload(Benchmark::NpbSp, config.cores_small))
        .expect("profiling succeeds");
    group.bench_function("cluster_npb_sp", |b| {
        b.iter(|| {
            select_barrierpoints(
                &sp_profile,
                &SignatureConfig::combined(),
                &SimPointConfig::paper(),
            )
            .unwrap()
        })
    });
    group.bench_function("ground_truth_full_simulation_npb_cg", |b| {
        b.iter(|| Machine::new(&run.sim_config).run_full(&workload))
    });
    group.bench_function("collect_mru_warmup_npb_cg", |b| {
        let targets = run.selection.barrierpoint_regions();
        let capacity = run.sim_config.memory.llc_total_lines(config.cores_small);
        b.iter(|| collect_mru_warmup(&workload, &targets, capacity))
    });
    group.bench_function("collect_mru_warmup_parallel_npb_cg", |b| {
        let targets = run.selection.barrierpoint_regions();
        let capacity = run.sim_config.memory.llc_total_lines(config.cores_small);
        let policy = ExecutionPolicy::parallel_with(config.cores_small);
        b.iter(|| collect_mru_warmup_with(&workload, &targets, capacity, &policy))
    });
    group.bench_function("reconstruct_scaled_npb_cg", |b| {
        b.iter(|| reconstruct(&run.selection, &metrics, freq).unwrap())
    });
    group.bench_function("reconstruct_unscaled_ablation_npb_cg", |b| {
        b.iter(|| {
            reconstruct_with_mode(&run.selection, &metrics, freq, ScalingMode::Unscaled).unwrap()
        })
    });
    group.finish();
}

/// Profiling throughput: serial vs thread-parallel, cold vs cached, on an
/// 8-thread workload.  Each variant is timed by one explicit sample loop
/// (one warmup + 5 timed runs — cold profiling is expensive, so it is not
/// additionally re-measured through criterion); the medians go both to the
/// console and to `BENCH_profiling.json` at the repository root so the
/// profiling perf trajectory is recorded run over run.
fn bench_profiling(_c: &mut Criterion) {
    let threads = 8;
    let workload = Benchmark::NpbCg.build(&WorkloadConfig::new(threads).with_scale(0.05));
    let cache_dir = std::env::temp_dir().join(format!("bp-bench-cache-{}", std::process::id()));
    std::fs::remove_dir_all(&cache_dir).ok();
    let cache = ArtifactCache::new(&cache_dir);
    // `auto()` falls back to Serial on 1-CPU hosts, where fanning out over
    // worker threads can only add overhead (earlier runs on degenerate hosts
    // recorded parallel *slowdowns* here); on real machines it is parallel
    // over all CPUs, capped below at the workload's thread count.
    let parallel = match ExecutionPolicy::auto() {
        ExecutionPolicy::Serial => ExecutionPolicy::Serial,
        ExecutionPolicy::Parallel { .. } => ExecutionPolicy::parallel_with(threads),
    };

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
    println!("group profiling (median of 5, npb-cg at 8 threads)");
    let serial = median(&|| {
        profile_application_with(&workload, &ExecutionPolicy::Serial).unwrap();
    });
    println!("profiling/serial_cold_npb_cg_8t {serial:>38.2?}");
    let par = median(&|| {
        profile_application_with(&workload, &parallel).unwrap();
    });
    println!("profiling/parallel_cold_npb_cg_8t {par:>36.2?}");
    cache.load_or_profile(&workload, &parallel).unwrap();
    // Disk tier: a fresh handle per load (cold memory) forces the decode.
    let cached = median(&|| {
        let disk_cache = ArtifactCache::new(&cache_dir);
        let (_, was_cached) = disk_cache.load_or_profile(&workload, &parallel).unwrap();
        assert!(was_cached, "cache entry must be hit");
        assert_eq!(disk_cache.stats().profile_hits, 1, "fresh handle must decode from disk");
    });
    println!("profiling/parallel_cached_npb_cg_8t {cached:>34.2?}");
    // Memory tier: the populated handle serves pointer clones.
    let memory_cached = median(&|| {
        let (_, was_cached) = cache.load_or_profile(&workload, &parallel).unwrap();
        assert!(was_cached, "memory entry must be hit");
    });
    assert!(cache.stats().profile_memory_hits > 0, "warm handle must hit the memory tier");
    println!("profiling/memory_cached_npb_cg_8t {memory_cached:>36.2?}");
    std::fs::remove_dir_all(&cache_dir).ok();

    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    // On a 1-CPU host the "parallel" variant ran the Serial policy, so a
    // serial/parallel ratio would be pure run-to-run noise; record a reason
    // string (never a bare null — downstream JSON consumers choked on it) so
    // the perf trajectory never mistakes it for a measured speedup.
    let parallel_speedup = match parallel {
        ExecutionPolicy::Serial => "\"not measured: serial fallback on 1-cpu host\"".to_string(),
        ExecutionPolicy::Parallel { .. } => {
            format!("{:.3}", serial.as_secs_f64() / par.as_secs_f64().max(1e-12))
        }
    };
    let json = format!(
        "{{\n  \"benchmark\": \"profiling_throughput\",\n  \"workload\": \"npb-cg\",\n  \
         \"threads\": {threads},\n  \"host_cpus\": {cpus},\n  \
         \"policy\": \"{}\",\n  \
         \"serial_cold_ns\": {},\n  \"parallel_cold_ns\": {},\n  \"cached_ns\": {},\n  \
         \"memory_cached_ns\": {},\n  \
         \"parallel_speedup\": {parallel_speedup},\n  \"cache_speedup_over_serial\": {:.3}\n}}\n",
        parallel.name(),
        serial.as_nanos(),
        par.as_nanos(),
        cached.as_nanos(),
        memory_cached.as_nanos(),
        serial.as_secs_f64() / cached.as_secs_f64().max(1e-12),
    );
    // Smoke assert: the summary must stay machine-readable on every host
    // shape — a 1-CPU fallback records a reason string, never a bare null.
    assert!(!json.contains(": null"), "BENCH_profiling.json must not contain bare null fields");
    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_profiling.json");
    match std::fs::write(out_path, &json) {
        Ok(()) => println!("wrote {out_path}"),
        Err(e) => eprintln!("could not write {out_path}: {e}"),
    }
    print!("{json}");
}

criterion_group!(benches, bench, bench_profiling);
criterion_main!(benches);
