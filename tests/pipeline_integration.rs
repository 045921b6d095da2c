//! Cross-crate integration tests: the full BarrierPoint pipeline against
//! detailed-simulation ground truth on several benchmarks.

use barrierpoint::evaluate::{estimate_from_full_run, prediction_error, speedups};
use barrierpoint::{BarrierPoint, SignatureConfig, SimPointConfig, SimPointStrategy, WarmupKind};
use bp_sim::{Machine, SimConfig};
use bp_workload::{Benchmark, Workload, WorkloadConfig};
use std::sync::Arc;

/// Small scale so the whole suite stays fast; 4 threads keeps coherence and
/// multi-socket-free behaviour simple and deterministic.
fn workload(bench: Benchmark, threads: usize) -> impl Workload {
    bench.build(&WorkloadConfig::new(threads).with_scale(0.05))
}

#[test]
fn perfect_warmup_estimates_are_accurate_across_benchmarks() {
    // The paper reports 0.6% average / 2.8% max error with perfect warmup;
    // at our reduced scale we accept a looser but still tight bound.
    for bench in [Benchmark::NpbCg, Benchmark::NpbFt, Benchmark::NpbIs] {
        let w = workload(bench, 4);
        let sim_config = SimConfig::tiny(4);
        let selection = BarrierPoint::new(&w).select().unwrap().into_selection();
        let ground = Machine::new(&sim_config).run_full(&w);
        let estimate = estimate_from_full_run(&selection, &ground).unwrap();
        let error = prediction_error(&ground, &estimate);
        assert!(
            error.runtime_percent_error < 12.0,
            "{bench}: perfect-warmup runtime error {:.2}% too high",
            error.runtime_percent_error
        );
    }
}

#[test]
fn end_to_end_pipeline_with_mru_warmup_beats_cold_warmup() {
    let w = workload(Benchmark::NpbFt, 4);
    let sim_config = SimConfig::tiny(4);
    let ground = Machine::new(&sim_config).run_full(&w);

    let warm = BarrierPoint::new(&w)
        .with_sim_config(sim_config)
        .with_warmup(WarmupKind::MruReplay)
        .run()
        .unwrap();
    let cold = BarrierPoint::new(&w)
        .with_sim_config(sim_config)
        .with_warmup(WarmupKind::Cold)
        .run()
        .unwrap();

    let warm_error = prediction_error(&ground, warm.reconstruction());
    let cold_error = prediction_error(&ground, cold.reconstruction());
    assert!(
        warm_error.runtime_percent_error <= cold_error.runtime_percent_error + 1e-9,
        "MRU warmup ({:.2}%) should not be worse than cold start ({:.2}%)",
        warm_error.runtime_percent_error,
        cold_error.runtime_percent_error
    );
}

#[test]
fn sampling_reduces_simulated_instructions_substantially() {
    // Figure 9's point: large serial/parallel speedups for phase-repetitive
    // benchmarks.  LU repeats two solver phases 250 times.
    let w = workload(Benchmark::NpbLu, 4);
    let selection = BarrierPoint::new(&w).select().unwrap().into_selection();
    let s = speedups(&selection);
    assert!(s.serial > 5.0, "serial speedup {:.1} too small", s.serial);
    assert!(s.parallel >= s.serial);
    assert!(s.resource_reduction > 20.0, "resource reduction {:.1}", s.resource_reduction);
}

#[test]
fn combined_signatures_are_at_least_as_accurate_as_bbv_only() {
    // Figure 5's headline: combined code+data signatures beat BBV-only.
    // At small scale the two can tie, so assert "not worse" with slack.
    let w = workload(Benchmark::NpbIs, 4);
    let sim_config = SimConfig::tiny(4);
    let ground = Machine::new(&sim_config).run_full(&w);

    let mut errors = Vec::new();
    for config in [SignatureConfig::bbv_only(), SignatureConfig::combined()] {
        let selection =
            BarrierPoint::new(&w).with_signature_config(config).select().unwrap().into_selection();
        let estimate = estimate_from_full_run(&selection, &ground).unwrap();
        errors.push(prediction_error(&ground, &estimate).runtime_percent_error);
    }
    let (bbv, combined) = (errors[0], errors[1]);
    assert!(
        combined <= bbv + 2.0,
        "combined signatures ({combined:.2}%) should not be clearly worse than BBV-only ({bbv:.2}%)"
    );
}

#[test]
fn accuracy_improves_with_max_k() {
    // Figure 5: a single barrierpoint is a poor predictor; more clusters help.
    let w = workload(Benchmark::NpbMg, 4);
    let sim_config = SimConfig::tiny(4);
    let ground = Machine::new(&sim_config).run_full(&w);

    let mut errors = Vec::new();
    for max_k in [1, 20] {
        let selection = BarrierPoint::new(&w)
            .with_selection_strategy(Arc::new(SimPointStrategy::new(
                SimPointConfig::paper().with_max_k(max_k),
            )))
            .select()
            .unwrap()
            .into_selection();
        let estimate = estimate_from_full_run(&selection, &ground).unwrap();
        errors.push(prediction_error(&ground, &estimate).runtime_percent_error);
    }
    assert!(
        errors[1] <= errors[0],
        "maxK=20 error ({:.2}%) should not exceed maxK=1 error ({:.2}%)",
        errors[1],
        errors[0]
    );
}

#[test]
fn barrier_counts_are_thread_count_invariant() {
    for bench in Benchmark::all() {
        let a = bench.build(&WorkloadConfig::new(8).with_scale(0.01)).num_regions();
        let b = bench.build(&WorkloadConfig::new(32).with_scale(0.01)).num_regions();
        assert_eq!(a, b, "{bench}");
        assert_eq!(a, bench.paper_barrier_count(), "{bench}");
    }
}
