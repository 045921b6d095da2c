//! Barrierpoint selection for the BarrierPoint reproduction: pluggable
//! strategies behind one seam, with the paper's SimPoint pipeline as the
//! default backend.
//!
//! # The selection seam
//!
//! Everything above this crate — selection assembly, cache keys, design-space
//! sweeps, reports — is written against [`SelectionStrategy`]: a backend
//! takes the per-region [`SignatureVector`](bp_signature::SignatureVector)s
//! plus a [`SelectionContext`] and
//! returns a [`Clustering`] (one representative region per cluster with its
//! reconstruction multiplier).  A strategy's cacheable identity is its
//! [`SelectionSpec`], whose serialized bytes double as the strategy
//! fingerprint in persistent cache keys.
//!
//! Two backends ship here:
//!
//! * [`SimPointStrategy`] — the paper's selection (Section III-B and
//!   Table II), and the default everywhere: signature vectors are
//!   normalized, reduced by seeded **random linear projection** to 15
//!   dimensions ([`RandomProjection`]), **weighted k-means** runs for every
//!   candidate cluster count up to `maxK = 20` ([`weighted_kmeans`]), the
//!   **Bayesian Information Criterion** picks the final clustering
//!   ([`bic_score`]), and one representative per cluster is chosen with its
//!   instruction-count multiplier ([`cluster_regions`]).  This is the
//!   from-scratch substitute for the SimPoint 3.2 binary the paper invokes;
//!   its defaults mirror Table II ([`SimPointConfig`]).
//!
//!   The distance work scales with **distinct** signatures, not regions:
//!   regions are grouped by the bits of their signature values, and
//!   normalization, projection, k-means++ seeding distances, assignment
//!   and inertia distances are computed once per group (npb-sp's 3,601
//!   regions carry 17 distinct signatures).  Every floating-point
//!   reduction — seeding scores and their cumulative pick scans, weighted
//!   centroid sums, inertia, BIC — still runs over the regions in their
//!   original order, so the [`Clustering`] is bit-identical to clustering
//!   each region separately.  k-means never runs on the collapsed,
//!   one-weighted-point-per-signature set: that changes the k-means++
//!   draws and with them the selected barrierpoints.
//! * [`TwoPhaseStratified`] — a cheap deterministic alternative (after
//!   NVIDIA's two-phase stratified CPU-sampling methodology): phase 1
//!   buckets regions by quantized coarse signature features, phase 2 spreads
//!   a fixed representative budget across the strata in proportion to their
//!   instruction weight ([`TwoPhaseStratifiedConfig`]).  Its selection cost
//!   is linear in regions × dimensions — no k-means sweep — which makes it
//!   the budget-axis counterpoint in the accuracy-vs-cost harness.
//!
//! # Example
//!
//! ```
//! use bp_clustering::{
//!     SelectionContext, SelectionStrategy, SimPointConfig, SimPointStrategy,
//!     TwoPhaseStratified,
//! };
//! use bp_signature::SignatureVector;
//!
//! // Six regions of two behaviours.
//! let vectors = vec![
//!     SignatureVector::new(vec![1.0, 0.0], 100),
//!     SignatureVector::new(vec![0.0, 1.0], 80),
//!     SignatureVector::new(vec![1.0, 0.0], 100),
//!     SignatureVector::new(vec![0.0, 1.0], 80),
//!     SignatureVector::new(vec![1.0, 0.0], 100),
//!     SignatureVector::new(vec![0.0, 1.0], 80),
//! ];
//! let ctx = SelectionContext { threads: 1, total_instructions: 540 };
//!
//! // The default SimPoint backend, capped at two clusters…
//! let simpoint = SimPointStrategy::new(SimPointConfig::default().with_max_k(2));
//! let clustering = simpoint.select(&vectors, &ctx);
//! assert_eq!(clustering.num_clusters(), 2);
//! assert_eq!(clustering.assignment(0), clustering.assignment(2));
//! assert_ne!(clustering.assignment(0), clustering.assignment(1));
//!
//! // …and the stratified backend under the same trait: same two behaviours
//! // found, without any k-means sweep.
//! let stratified = TwoPhaseStratified::with_budget(2);
//! assert_eq!(stratified.select(&vectors, &ctx).num_clusters(), 2);
//! assert_ne!(simpoint.fingerprint(), stratified.fingerprint());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bic;
mod kmeans;
#[cfg(any(test, feature = "oracle"))]
mod oracle;
mod projection;
mod simpoint;
mod strategy;

pub use bic::bic_score;
pub use kmeans::{weighted_kmeans, KMeansResult};
/// The per-point reference implementations of [`weighted_kmeans`] and
/// [`cluster_regions`]: the bit-identity oracles of the equivalence suites,
/// compiled only for this crate's tests and under the `oracle` feature,
/// never in production builds.
#[cfg(any(test, feature = "oracle"))]
pub use oracle::{reference_cluster_regions, reference_weighted_kmeans};
pub use projection::RandomProjection;
pub use simpoint::{cluster_regions, ClusterSummary, Clustering, SimPointConfig};
pub use strategy::{
    SelectionContext, SelectionSpec, SelectionStrategy, SimPointStrategy, TwoPhaseStratified,
    TwoPhaseStratifiedConfig,
};
