//! Distinct-point SimPoint clustering equivalence: `cluster_regions` and
//! `weighted_kmeans` do their distance work once per distinct signature, and
//! these tests pin that the result is bit-identical — serialized
//! `Clustering` / `KMeansResult` bytes — to the per-point reference
//! implementations (`reference_cluster_regions`, `reference_weighted_kmeans`)
//! across the whole kernel suite, the thread counts and `maxK` values the
//! paper sweeps, and random duplicate-heavy vector sets.

use barrierpoint::{profile_application, SignatureConfig, SimPointConfig};
use bp_clustering::{
    cluster_regions, reference_cluster_regions, reference_weighted_kmeans, weighted_kmeans,
};
use bp_signature::SignatureVector;
use bp_workload::{Benchmark, WorkloadConfig};
use proptest::prelude::*;
use std::sync::OnceLock;

const MAX_KS: [usize; 5] = [1, 2, 5, 10, 20];

/// Per-region signature vectors (the paper's combined BBV + LDV signature)
/// of every kernel at each `(threads, scale)`.
fn suite_vectors(cases: &[(usize, f64)]) -> Vec<(String, Vec<SignatureVector>)> {
    let mut suite = Vec::new();
    for &bench in Benchmark::all() {
        for &(threads, scale) in cases {
            let workload = bench.build(&WorkloadConfig::new(threads).with_scale(scale));
            let profile = profile_application(&workload).unwrap();
            let vectors = profile.assemble_vectors(&SignatureConfig::combined());
            suite.push((format!("{bench:?} {threads}t s{scale}"), vectors));
        }
    }
    suite
}

/// Asserts distinct-point clustering equals the per-point reference at every
/// `maxK` in [`MAX_KS`].
fn assert_suite_matches_reference(suite: &[(String, Vec<SignatureVector>)]) {
    for (name, vectors) in suite {
        for max_k in MAX_KS {
            let config = SimPointConfig::paper().with_max_k(max_k);
            assert_eq!(
                serde::to_vec(&cluster_regions(vectors, &config)),
                serde::to_vec(&reference_cluster_regions(vectors, &config)),
                "{name}, maxK {max_k}: clustering differs from the per-point reference"
            );
        }
    }
}

#[test]
fn clustering_matches_the_per_point_reference_across_the_suite() {
    static SUITE: OnceLock<Vec<(String, Vec<SignatureVector>)>> = OnceLock::new();
    let suite = SUITE.get_or_init(|| suite_vectors(&[(1, 0.02), (4, 0.02)]));
    assert_suite_matches_reference(suite);
}

/// The full-scale matrix, including npb-sp's 3,601-region cold-sweep case
/// (4 threads, scale 0.25); run in release with `--include-ignored`.
#[test]
#[ignore = "full scale: run in release with --include-ignored"]
fn clustering_matches_the_per_point_reference_at_full_scale() {
    assert_suite_matches_reference(&suite_vectors(&[(1, 0.05), (4, 0.25)]));
}

/// A duplicate-heavy region set: runs of `(shape, multiplicity)` over a few
/// distinct signature shapes, with region weights cycling through
/// `weight_classes` (zero included).
fn duplicate_heavy(
    shapes: &[Vec<u64>],
    runs: &[(usize, usize)],
    weight_classes: &[u64],
) -> Vec<SignatureVector> {
    let mut vectors = Vec::new();
    for &(shape, multiplicity) in runs {
        let values: Vec<f64> = shapes[shape % shapes.len()].iter().map(|&v| v as f64).collect();
        for _ in 0..multiplicity {
            let weight = weight_classes[vectors.len() % weight_classes.len()] * 1000;
            vectors.push(SignatureVector::new(values.clone(), weight));
        }
    }
    vectors
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Few distinct vectors, many copies, weights including zero, and `maxK`
    /// often above the distinct count (coincident centroids, empty clusters
    /// and the uniform-draw seeding fallback): both entry points stay
    /// bit-identical to the per-point references.
    #[test]
    fn duplicate_heavy_sets_match_the_per_point_reference(
        shapes in proptest::collection::vec(proptest::collection::vec(0u64..4, 4..5), 1..7),
        runs in proptest::collection::vec((0usize..6, 1usize..200), 1..7),
        weight_classes in proptest::collection::vec(0u64..4, 1..5),
        max_k in 1usize..12,
        projected in prop_oneof![Just(2usize), Just(15usize)],
        iterations in prop_oneof![Just(0usize), Just(1usize), Just(100usize)],
        seed in 0u64..1_000,
    ) {
        let vectors = duplicate_heavy(&shapes, &runs, &weight_classes);
        let mut config = SimPointConfig::paper().with_max_k(max_k).with_seed(seed);
        config.projected_dimensions = projected;
        config.kmeans_iterations = iterations;
        prop_assert_eq!(
            serde::to_vec(&cluster_regions(&vectors, &config)),
            serde::to_vec(&reference_cluster_regions(&vectors, &config))
        );

        let points: Vec<Vec<f64>> = vectors.iter().map(|v| v.values().to_vec()).collect();
        let weights: Vec<f64> = vectors.iter().map(|v| v.instructions() as f64).collect();
        prop_assert_eq!(
            serde::to_vec(&weighted_kmeans(&points, &weights, max_k, iterations, seed)),
            serde::to_vec(&reference_weighted_kmeans(&points, &weights, max_k, iterations, seed))
        );
    }
}
