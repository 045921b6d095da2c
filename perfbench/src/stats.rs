//! Order statistics and the span recorder of the traced run.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// The `p`-quantile (0..=1) of `values` by linear interpolation between
/// order statistics; `NaN` for an empty slice.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = p * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest percentile of `n` samples that leaves at least ten samples
/// above it, rounded down to a whole percent; `None` below 20 samples.
pub fn tail_percentile(n: usize) -> Option<u32> {
    if n < 20 {
        return None;
    }
    Some(((n - 10) * 100 / n) as u32)
}

/// Records the duration of calls into each layer, by span name.
///
/// A span is either on the *path* — the call is one `Sweep::run` makes for
/// this workload, so its time counts toward the traced total — or a *probe*,
/// timed beside the path to characterise a layer this workload does not
/// exercise (or a variant of one that it does), and kept out of the total.
#[derive(Debug, Default)]
pub struct Tracer {
    path: BTreeMap<&'static str, Vec<f64>>,
    probes: BTreeMap<&'static str, Vec<f64>>,
    path_names: BTreeSet<&'static str>,
    iteration_total: f64,
}

impl Tracer {
    /// Times `f` as an on-path span named `name`.
    pub fn path<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let seconds = start.elapsed().as_secs_f64();
        self.iteration_total += seconds;
        self.path.entry(name).or_default().push(seconds);
        self.path_names.insert(name);
        out
    }

    /// Times `f` as a probe span named `name`.
    pub fn probe<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.probes.entry(name).or_default().push(start.elapsed().as_secs_f64());
        out
    }

    /// Records an externally timed probe sample.
    pub fn probe_sample(&mut self, name: &'static str, seconds: f64) {
        self.probes.entry(name).or_default().push(seconds);
    }

    /// Ends one traced iteration and returns the seconds its path spans
    /// summed to.
    pub fn end_iteration(&mut self) -> f64 {
        std::mem::take(&mut self.iteration_total)
    }

    /// The per-call samples of `name` in seconds: the on-path calls when the
    /// workload makes any, else the probe calls.
    pub fn samples(&self, name: &str) -> &[f64] {
        match self.path.get(name) {
            Some(samples) => samples,
            None => self.probes.get(name).map_or(&[], Vec::as_slice),
        }
    }

    /// The median per-call seconds of `name` (see [`samples`](Self::samples)).
    pub fn median(&self, name: &str) -> f64 {
        median(self.samples(name))
    }

    /// Whether `name` was recorded on the path.
    pub fn on_path(&self, name: &str) -> bool {
        self.path_names.contains(name)
    }

    /// Names timed only by probes: reported, but outside the traced total.
    pub fn probe_only_names(&self) -> Vec<&'static str> {
        self.probes.keys().filter(|name| !self.path_names.contains(*name)).copied().collect()
    }

    /// On-path span names with their summed seconds, for the breakdown.
    pub fn path_totals(&self) -> Vec<(&'static str, f64)> {
        self.path.iter().map(|(name, samples)| (*name, samples.iter().sum())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(1000), Some(99));
    }

    #[test]
    fn path_spans_sum_and_probes_do_not() {
        let mut t = Tracer::default();
        t.path("a", || ());
        t.probe("b", || ());
        let total = t.end_iteration();
        assert_eq!(total, t.samples("a")[0]);
        assert!(t.on_path("a") && !t.on_path("b"));
        assert_eq!(t.samples("b").len(), 1);
    }
}
