//! Selection-strategy axis: accuracy vs cost, and the sweep economy.
//!
//! Two measurements:
//!
//! * **strategy-axis sweep** — one `Sweep::run` over two selection
//!   strategies (the paper's SimPoint pipeline and the two-phase stratified
//!   backend) sharing one machine config: cold it must profile once and
//!   walk each per-thread trace exactly once for the whole strategy grid
//!   and simulate each selected barrierpoint once, however many strategies
//!   picked it; warm (in-process `ArtifactCache`) it must execute **zero** profile
//!   walks and zero simulate legs — both pinned by CI smoke assertions;
//! * **accuracy harness** — the [`bp_bench::selection_strategies`]
//!   experiment: per strategy, per kernel, per region budget, the IPC and
//!   runtime error next to the simulated-instruction cost.
//!
//! The sweep medians (one untimed warmup + 5 timed runs, like the other
//! benches) and every accuracy row go to `BENCH_selection.json` at the
//! repository root so the accuracy-vs-cost frontier is recorded run over
//! run for both strategies.

use barrierpoint::{
    ArtifactCache, ExecutionPolicy, SimPointConfig, SimPointStrategy, Sweep, TwoPhaseStratified,
};
use bp_bench::ExperimentConfig;
use bp_workload::Benchmark;
use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn bench_selection_strategies(_c: &mut Criterion) {
    let config = ExperimentConfig::quick();
    let cores = config.cores_small;
    let workload = config.workload(Benchmark::NpbCg, cores);
    let policy = ExecutionPolicy::auto();
    let cache_dir =
        std::env::temp_dir().join(format!("bp-selection-bench-cache-{}", std::process::id()));
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

    let build_sweep = |cache: Option<ArtifactCache>| {
        let mut sweep = Sweep::new(&workload)
            .with_execution_policy(policy)
            .add_strategy("simpoint", Arc::new(SimPointStrategy::new(SimPointConfig::paper())))
            .add_strategy("stratified", Arc::new(TwoPhaseStratified::with_budget(10)))
            .add_config("base", config.machine(cores));
        if let Some(cache) = cache {
            sweep = sweep.with_cache(cache);
        }
        sweep
    };

    println!("group selection (median of 5, npb-cg at {cores} threads, 2 strategies)");
    let cold = median(&|| {
        let report = build_sweep(None).run().unwrap();
        let counters = report.counters();
        // CI smoke assertion: the strategy axis rides on ONE profile — the
        // cold two-strategy sweep walks each per-thread trace exactly once.
        assert_eq!(counters.trace_walks, cores, "cold strategy sweep must walk each trace once");
        assert_eq!(counters.profile_passes, 1);
        assert_eq!(counters.clustering_passes, 2, "one clustering pass per strategy");
        assert_eq!(counters.warmup_collections, 1);
        assert_eq!(report.legs().len(), 2);
        // CI smoke assertion: the strategies share their barrierpoints'
        // detailed simulations — one per distinct region on the one machine.
        let mut union: Vec<usize> =
            report.selections().iter().flat_map(|s| s.selection().barrierpoint_regions()).collect();
        union.sort_unstable();
        union.dedup();
        assert_eq!(
            counters.barrierpoint_simulations,
            union.len(),
            "each shared barrierpoint must simulate once per machine"
        );
    });
    println!("selection/cold_two_strategy_sweep {cold:>40.2?}");

    // Warm in-process re-sweep: every artifact — the selection of EACH
    // strategy and each simulated leg — is served from the cache.
    let cache = ArtifactCache::new(&cache_dir);
    build_sweep(Some(cache.clone())).run().unwrap();
    let warm = median(&|| {
        let report = build_sweep(Some(cache.clone())).run().unwrap();
        let counters = report.counters();
        // CI smoke assertion: a warm strategy sweep executes zero profile
        // walks — strategy-keyed selections make the profile unnecessary.
        assert_eq!(counters.trace_walks, 0, "warm strategy sweep must execute zero walks");
        assert_eq!(counters.profile_passes, 0);
        assert_eq!(counters.clustering_passes, 0);
        assert_eq!(counters.simulate_legs, 0);
        assert_eq!(counters.simulated_cache_hits, 2, "one cached leg per strategy");
    });
    println!("selection/warm_two_strategy_sweep {warm:>40.2?}");
    std::fs::remove_dir_all(&cache_dir).ok();

    // The accuracy harness runs every kernel x budget x strategy cell once;
    // a single timed pass (it is itself a sweep of dozens of selections).
    let start = Instant::now();
    let (report_text, rows) = bp_bench::selection_strategies(&config);
    let accuracy = start.elapsed();
    println!("{report_text}");
    println!("selection/accuracy_harness {accuracy:>47.2?}");

    let mut row_json = String::new();
    for (i, row) in rows.iter().enumerate() {
        row_json.push_str(&format!(
            "    {{\"strategy\": \"{}\", \"benchmark\": \"{}\", \"budget\": {}, \
             \"barrierpoints\": {}, \"simulated_instructions\": {}, \
             \"ipc_percent_error\": {:.4}, \"runtime_percent_error\": {:.4}}}{}\n",
            row.strategy,
            row.benchmark,
            row.budget,
            row.barrierpoints,
            row.simulated_instructions,
            row.ipc_percent_error,
            row.runtime_percent_error,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    let json = format!(
        "{{\n  \"benchmark\": \"selection_strategies\",\n  \"threads\": {cores},\n  \
         \"policy\": \"{}\",\n  \
         \"cold_two_strategy_sweep_ns\": {},\n  \"warm_two_strategy_sweep_ns\": {},\n  \
         \"accuracy_harness_ns\": {},\n  \"rows\": [\n{row_json}  ]\n}}\n",
        policy.name(),
        cold.as_nanos(),
        warm.as_nanos(),
        accuracy.as_nanos(),
    );
    // CI smoke assertion: the frontier covers both selection backends.
    assert!(json.contains("\"simpoint\""), "JSON must include the SimPoint strategy");
    assert!(json.contains("\"two-phase-stratified\""), "JSON must include the stratified strategy");
    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_selection.json");
    match std::fs::write(out_path, &json) {
        Ok(()) => println!("wrote {out_path}"),
        Err(e) => eprintln!("could not write {out_path}: {e}"),
    }
}

criterion_group!(benches, bench_selection_strategies);
criterion_main!(benches);
