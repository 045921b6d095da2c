use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Result of one weighted k-means run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KMeansResult {
    /// Cluster index assigned to each input point.
    pub assignments: Vec<usize>,
    /// Cluster centroids.
    pub centroids: Vec<Vec<f64>>,
    /// Weighted sum of squared distances of points to their centroid.
    pub inertia: f64,
    /// Number of non-empty clusters.
    pub num_clusters: usize,
}

fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Points grouped by exact bit equality: the distinct points k-means does
/// its distance work on, plus the map back to the original point order that
/// every floating-point reduction runs in.
pub(crate) struct DistinctPoints {
    /// One coordinate vector per distinct point, in order of first
    /// occurrence (so distinct point 0 is original point 0).
    pub(crate) points: Vec<Vec<f64>>,
    /// The distinct point of every original point.
    pub(crate) index: Vec<usize>,
}

impl DistinctPoints {
    /// Groups the `n` rows `row(i)` by the bits (`f64::to_bits`) of their
    /// values and maps each group's first row `i` to its point with
    /// `point(i)`.  Rows are hashed in place — no key is allocated per row —
    /// and every hash match is confirmed by comparing the slices.
    pub(crate) fn group<'a>(
        n: usize,
        row: impl Fn(usize) -> &'a [f64],
        point: impl Fn(usize) -> Vec<f64>,
    ) -> Self {
        let mut firsts: Vec<usize> = Vec::new();
        let mut index = Vec::with_capacity(n);
        let mut buckets: HashMap<u64, Vec<usize>> = HashMap::new();
        for i in 0..n {
            let values = row(i);
            let bucket = buckets.entry(bits_hash(values)).or_default();
            let group = match bucket.iter().find(|&&g| same_bits(row(firsts[g]), values)) {
                Some(&g) => g,
                None => {
                    bucket.push(firsts.len());
                    firsts.push(i);
                    firsts.len() - 1
                }
            };
            index.push(group);
        }
        Self { points: firsts.into_iter().map(point).collect(), index }
    }
}

/// A hash of the bits of `values`, mixed in four independent lanes so the
/// multiply chains overlap.
fn bits_hash(values: &[f64]) -> u64 {
    const MIX: u64 = 0x517c_c1b7_2722_0a95;
    let mix = |h: &mut u64, v: u64| *h = (h.rotate_left(5) ^ v).wrapping_mul(MIX);
    let mut lanes = [values.len() as u64, 1, 2, 3];
    let mut chunks = values.chunks_exact(4);
    for chunk in &mut chunks {
        for (h, v) in lanes.iter_mut().zip(chunk) {
            mix(h, v.to_bits());
        }
    }
    for (h, v) in lanes.iter_mut().zip(chunks.remainder()) {
        mix(h, v.to_bits());
    }
    lanes.iter().fold(0, |mut acc, &h| {
        mix(&mut acc, h);
        acc
    })
}

/// Whether `a` and `b` hold the same bits: `-0.0` differs from `0.0`, and a
/// NaN equals its own bits.  Compares eight values at a time without early
/// exit inside a chunk, so the inner loop vectorizes.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len()
        && a.chunks(8).zip(b.chunks(8)).all(|(x, y)| {
            x.iter().zip(y).fold(true, |same, (p, q)| same & (p.to_bits() == q.to_bits()))
        })
}

/// K-means++ seeding over weighted points.
///
/// Each distinct point keeps its squared distance to the nearest centroid
/// chosen so far and folds in only the newest one per round: the fold is
/// `f64::min` from `f64::MAX` in centroid order either way, so the
/// distances carry the same bits as a full re-fold.  The weighted scores,
/// their total and the cumulative pick scan run over the original points.
fn seed_centroids(
    distinct: &DistinctPoints,
    weights: &[f64],
    k: usize,
    rng: &mut SmallRng,
) -> Vec<Vec<f64>> {
    let DistinctPoints { points, index } = distinct;
    let n = index.len();
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    // First centroid: weighted draw over the points.
    let total_weight: f64 = weights.iter().sum();
    let mut pick = rng.gen_range(0.0..total_weight.max(f64::MIN_POSITIVE));
    let mut first = 0;
    for (i, &w) in weights.iter().enumerate() {
        if pick <= w {
            first = i;
            break;
        }
        pick -= w;
    }
    centroids.push(points[index[first]].clone());

    let mut nearest = vec![f64::MAX; points.len()];
    let mut scores = vec![0.0; n];
    while centroids.len() < k {
        let newest = &centroids[centroids.len() - 1];
        for (d, p) in nearest.iter_mut().zip(points) {
            *d = d.min(squared_distance(p, newest));
        }
        // Squared distance to the nearest existing centroid, times weight.
        for ((s, &g), &w) in scores.iter_mut().zip(index).zip(weights) {
            *s = nearest[g] * w;
        }
        let total: f64 = scores.iter().sum();
        if total <= 0.0 {
            // All remaining points coincide with existing centroids; duplicate one.
            centroids.push(points[index[rng.gen_range(0..n)]].clone());
            continue;
        }
        let mut pick = rng.gen_range(0.0..total);
        let mut chosen = n - 1;
        for (i, &s) in scores.iter().enumerate() {
            if pick <= s {
                chosen = i;
                break;
            }
            pick -= s;
        }
        centroids.push(points[index[chosen]].clone());
    }
    centroids
}

/// Runs weighted k-means (k-means++ seeding, Lloyd iterations) on `points`.
///
/// `weights` gives each point's importance — BarrierPoint uses the region's
/// aggregate instruction count so that long regions dominate both the cluster
/// centres and the choice of representatives.
///
/// The run is deterministic for a given `seed`.
///
/// Distance work scales with the number of **distinct** points (grouped by
/// the bits of their coordinates), not with `points.len()`: seeding keeps
/// each distinct point's nearest-centroid distance and folds in one new
/// centroid per round, and every assignment step measures each distinct
/// point once.  Every floating-point reduction — the seeding scores, their
/// total and each cumulative pick scan, the weighted centroid sums and the
/// inertia — still runs over the points in their original order, so the
/// result is bit-identical to measuring every point separately.  The
/// points are never collapsed into one weighted point per distinct value:
/// that would change the k-means++ draws and therefore the clustering.
///
/// # Panics
///
/// Panics if `points` is empty, if `weights` has a different length, or if
/// `k` is zero.
pub fn weighted_kmeans(
    points: &[Vec<f64>],
    weights: &[f64],
    k: usize,
    max_iterations: usize,
    seed: u64,
) -> KMeansResult {
    assert!(!points.is_empty(), "k-means needs at least one point");
    assert_eq!(points.len(), weights.len(), "one weight per point required");
    assert!(k > 0, "k must be positive");
    let distinct = DistinctPoints::group(points.len(), |i| &points[i], |i| points[i].clone());
    distinct_kmeans(&distinct, weights, k, max_iterations, seed).0
}

/// [`weighted_kmeans`] over an already grouped point set.  Also returns each
/// distinct point's squared distance to its assigned centroid.
pub(crate) fn distinct_kmeans(
    distinct: &DistinctPoints,
    weights: &[f64],
    k: usize,
    max_iterations: usize,
    seed: u64,
) -> (KMeansResult, Vec<f64>) {
    let DistinctPoints { points, index } = distinct;
    let k = k.min(index.len());
    let dim = points[0].len();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut centroids = seed_centroids(distinct, weights, k, &mut rng);
    // Every original point shares its distinct point's assignment.
    let mut assignments = vec![0usize; points.len()];
    let mut sums = vec![0.0; k * dim];
    let mut totals = vec![0.0; k];
    // Clusters whose member set changed since their mean was last taken (all
    // of them at first: the seeds are not means).  A clean cluster's sums
    // would repeat the same additions in the same order, so it keeps its
    // centroid as is.
    let mut dirty = vec![true; k];

    for _ in 0..max_iterations {
        // Assignment step.
        let mut changed = false;
        for (a, p) in assignments.iter_mut().zip(points) {
            let best = centroids
                .iter()
                .enumerate()
                .map(|(c, centroid)| (c, squared_distance(p, centroid)))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .map_or(0, |(c, _)| c);
            if *a != best {
                dirty[*a] = true;
                dirty[best] = true;
                *a = best;
                changed = true;
            }
        }
        // Update step (weighted means, summed in original point order).
        sums.fill(0.0);
        totals.fill(0.0);
        for (&g, &w) in index.iter().zip(weights) {
            let c = assignments[g];
            if !dirty[c] {
                continue;
            }
            totals[c] += w;
            for (s, x) in sums[c * dim..(c + 1) * dim].iter_mut().zip(&points[g]) {
                *s += w * x;
            }
        }
        for (c, centroid) in centroids.iter_mut().enumerate() {
            if std::mem::take(&mut dirty[c]) && totals[c] > 0.0 {
                let sum = &mut sums[c * dim..(c + 1) * dim];
                for s in sum.iter_mut() {
                    *s /= totals[c];
                }
                centroid.clear();
                centroid.extend_from_slice(sum);
            }
            // Empty clusters keep their previous centroid.
        }
        if !changed {
            break;
        }
    }

    let distances: Vec<f64> =
        points.iter().zip(&assignments).map(|(p, &c)| squared_distance(p, &centroids[c])).collect();
    let inertia = index.iter().zip(weights).map(|(&g, &w)| w * distances[g]).sum();
    let mut seen = vec![false; k];
    for &c in &assignments {
        seen[c] = true;
    }
    let result = KMeansResult {
        assignments: index.iter().map(|&g| assignments[g]).collect(),
        centroids,
        inertia,
        num_clusters: seen.iter().filter(|&&s| s).count(),
    };
    (result, distances)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs() -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut points = Vec::new();
        for i in 0..10 {
            points.push(vec![0.0 + i as f64 * 0.01, 0.0]);
            points.push(vec![5.0 + i as f64 * 0.01, 5.0]);
        }
        let weights = vec![1.0; points.len()];
        (points, weights)
    }

    #[test]
    fn separates_two_blobs() {
        let (points, weights) = two_blobs();
        let result = weighted_kmeans(&points, &weights, 2, 50, 1);
        assert_eq!(result.num_clusters, 2);
        // All even indices (first blob) share a cluster, all odd share the other.
        let first = result.assignments[0];
        let second = result.assignments[1];
        assert_ne!(first, second);
        for i in 0..points.len() {
            let expected = if i % 2 == 0 { first } else { second };
            assert_eq!(result.assignments[i], expected);
        }
        assert!(result.inertia < 1.0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (points, weights) = two_blobs();
        let a = weighted_kmeans(&points, &weights, 3, 50, 9);
        let b = weighted_kmeans(&points, &weights, 3, 50, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn k_larger_than_points_is_clamped() {
        let points = vec![vec![0.0], vec![1.0]];
        let weights = vec![1.0, 1.0];
        let result = weighted_kmeans(&points, &weights, 10, 10, 0);
        assert!(result.num_clusters <= 2);
    }

    #[test]
    fn single_cluster_centroid_is_weighted_mean() {
        let points = vec![vec![0.0], vec![10.0]];
        let weights = vec![3.0, 1.0];
        let result = weighted_kmeans(&points, &weights, 1, 10, 0);
        assert!((result.centroids[0][0] - 2.5).abs() < 1e-9);
    }

    #[test]
    fn heavy_points_pull_centroids() {
        // One heavy point far away should end up in its own cluster even
        // though the light points outnumber it.
        let mut points = vec![vec![100.0]];
        let mut weights = vec![1000.0];
        for i in 0..20 {
            points.push(vec![i as f64 * 0.1]);
            weights.push(1.0);
        }
        let result = weighted_kmeans(&points, &weights, 2, 50, 3);
        let heavy_cluster = result.assignments[0];
        assert!(result.assignments[1..].iter().all(|&c| c != heavy_cluster));
    }

    #[test]
    #[should_panic]
    fn empty_input_panics() {
        let _ = weighted_kmeans(&[], &[], 2, 10, 0);
    }

    #[test]
    fn grouping_is_by_bits() {
        let rows =
            [vec![1.0, 0.0], vec![1.0, -0.0], vec![1.0, 0.0], vec![f64::NAN], vec![f64::NAN]];
        let distinct = DistinctPoints::group(rows.len(), |i| &rows[i], |i| rows[i].clone());
        // -0.0 and 0.0 compare equal but differ in bits; NaN never compares
        // equal but shares its bits.
        assert_eq!(distinct.index, vec![0, 1, 0, 2, 2]);
        assert_eq!(distinct.points.len(), 3);
    }

    #[test]
    fn duplicate_heavy_runs_match_the_per_point_reference() {
        let shapes = [vec![0.0, 1.0], vec![3.0, 1.0], vec![0.5, -2.0]];
        let mut points = Vec::new();
        let mut weights = Vec::new();
        for i in 0..90usize {
            points.push(shapes[(i * 7 + i / 4) % 3].clone());
            weights.push(if i % 11 == 0 { 0.0 } else { 1.0 + (i % 5) as f64 * 17.5 });
        }
        for k in 1..=6 {
            for seed in 0..4 {
                let fast = weighted_kmeans(&points, &weights, k, 50, seed);
                let reference = crate::reference_weighted_kmeans(&points, &weights, k, 50, seed);
                assert_eq!(serde::to_vec(&fast), serde::to_vec(&reference), "k={k} seed={seed}");
            }
        }
        // All weights zero: seeding falls back to uniform draws.
        let zero = vec![0.0; points.len()];
        for k in 1..=5 {
            assert_eq!(
                serde::to_vec(&weighted_kmeans(&points, &zero, k, 20, 3)),
                serde::to_vec(&crate::reference_weighted_kmeans(&points, &zero, k, 20, 3))
            );
        }
    }
}
