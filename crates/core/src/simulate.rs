use crate::error::Error;
use crate::segment::{carried, walk, Observe, WalkPlan};
use crate::select::BarrierPointSelection;
use bp_exec::ExecutionPolicy;
use bp_sim::{Machine, RegionMetrics, SimConfig};
use bp_warmup::{apply_warmup, MruWarmupData, WarmupStrategy};
use bp_workload::Workload;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// Detailed simulation results keyed by barrierpoint region index.
pub type BarrierPointMetrics = BTreeMap<usize, RegionMetrics>;

/// Which warmup technique to use before the detailed simulation of each
/// barrierpoint (the configuration-level counterpart of
/// [`bp_warmup::WarmupStrategy`], which carries the actual payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WarmupKind {
    /// No warmup: every barrierpoint starts with cold caches.
    Cold,
    /// The paper's proposal: replay each core's most recently used unique
    /// cache lines, bounded by the LLC capacity (Section IV).
    MruReplay,
    /// Functionally replay all memory accesses of every preceding region
    /// (accurate but costs time proportional to the skipped instructions).
    FunctionalReplay,
}

impl WarmupKind {
    /// Short label used in reports and benchmark ids.
    pub fn name(self) -> &'static str {
        match self {
            WarmupKind::Cold => "cold",
            WarmupKind::MruReplay => "mru-replay",
            WarmupKind::FunctionalReplay => "functional",
        }
    }
}

/// Simulates every selected barrierpoint in detail on its own machine
/// instance and returns per-barrierpoint metrics.
///
/// Barrierpoints are mutually independent — exactly the property the paper
/// exploits — so under [`ExecutionPolicy::Parallel`] they are simulated
/// concurrently on worker threads (one simulated machine each); under
/// [`ExecutionPolicy::Serial`] they run back to back, which models the
/// "serial speedup" resource scenario of Figure 9.  Results are identical in
/// both modes.
///
/// # Errors
///
/// Returns [`Error::ThreadCountMismatch`] if the workload's thread count does
/// not match `sim_config.num_cores`, and [`Error::RegionOutOfRange`] if the
/// selection refers to regions the workload does not have.
pub fn simulate_barrierpoints<W: Workload + ?Sized>(
    workload: &W,
    selection: &BarrierPointSelection,
    sim_config: &SimConfig,
    warmup: WarmupKind,
    policy: &ExecutionPolicy,
) -> Result<BarrierPointMetrics, Error> {
    check_machine(workload, selection, sim_config)?;
    simulate_barrierpoints_impl(workload, selection, sim_config, warmup, policy, None)
}

/// [`simulate_barrierpoints`] with an optionally precollected MRU warmup
/// payload (a leg served from the fused profiling walk's snapshot bank
/// skips its own collection pass).  The payload must have been collected
/// from `workload` at `sim_config.memory.llc_total_lines(num_cores)` for the
/// selection's barrierpoint regions, and the leg must have passed
/// [`check_machine`].
///
/// # Errors
///
/// Returns [`Error::EmptyWorkload`] if the warmup walk finds no regions.
pub(crate) fn simulate_barrierpoints_impl<W: Workload + ?Sized>(
    workload: &W,
    selection: &BarrierPointSelection,
    sim_config: &SimConfig,
    warmup: WarmupKind,
    policy: &ExecutionPolicy,
    precollected_mru: Option<&HashMap<usize, MruWarmupData>>,
) -> Result<BarrierPointMetrics, Error> {
    let regions = selection.barrierpoint_regions();

    // One walk collects the MRU warmup payload for every target (unless the
    // caller already holds it), stopping after the last target; it fans out
    // thread-major under the same policy as the simulations.
    let collected;
    let mru_data = match (warmup, precollected_mru) {
        (WarmupKind::MruReplay, Some(data)) => Some(data),
        (WarmupKind::MruReplay, None) => {
            let capacity = sim_config.memory.llc_total_lines(sim_config.num_cores);
            let observe = Observe::Warmup { boundaries: &regions, capacity };
            let walked = walk(workload, WalkPlan::Cold { segments: 1 }, observe, policy, None)?;
            collected = carried(walked.bank).assemble(&regions, capacity);
            Some(&collected)
        }
        _ => None,
    };

    let per_region = policy.execute(regions.len(), |i| {
        let region = regions[i];
        let payload = mru_data.and_then(|data| data.get(&region));
        (region, simulate_region(workload, sim_config, warmup, region, payload))
    });
    Ok(per_region.into_iter().collect())
}

/// The checks every leg passes before any of its barrierpoints simulates:
/// the machine has one core per workload thread, and every selected region
/// exists in the workload.
pub(crate) fn check_machine<W: Workload + ?Sized>(
    workload: &W,
    selection: &BarrierPointSelection,
    sim_config: &SimConfig,
) -> Result<(), Error> {
    if workload.num_threads() != sim_config.num_cores {
        return Err(Error::ThreadCountMismatch {
            workload_threads: workload.num_threads(),
            machine_cores: sim_config.num_cores,
        });
    }
    let regions = selection.barrierpoint_regions();
    if let Some(&bad) = regions.iter().find(|&&r| r >= workload.num_regions()) {
        return Err(Error::RegionOutOfRange { region: bad, num_regions: workload.num_regions() });
    }
    Ok(())
}

/// Simulates one barrierpoint in detail: a fresh machine, warmed with
/// `warmup`, runs `region` of `workload`.
///
/// This is the one per-barrierpoint routine; both a single leg
/// ([`simulate_barrierpoints`]) and a [`Sweep`](crate::Sweep) — which runs
/// each distinct (machine, region) pair once for all legs that select it —
/// call it, so a region's metrics never depend on which leg asked for them.
/// `payload` is the region's MRU warmup data and must be present for
/// [`WarmupKind::MruReplay`]; the other kinds ignore it.
///
/// # Panics
///
/// Panics if `warmup` is [`WarmupKind::MruReplay`] and `payload` is `None`.
pub(crate) fn simulate_region<W: Workload + ?Sized>(
    workload: &W,
    sim_config: &SimConfig,
    warmup: WarmupKind,
    region: usize,
    payload: Option<&MruWarmupData>,
) -> RegionMetrics {
    let mut machine = Machine::new(sim_config);
    let strategy = match warmup {
        WarmupKind::Cold => WarmupStrategy::Cold,
        WarmupKind::FunctionalReplay => WarmupStrategy::FunctionalReplay { region },
        WarmupKind::MruReplay => match payload {
            Some(data) => WarmupStrategy::MruReplay(data.clone()),
            // Every caller collects warmup for exactly the barrierpoint
            // regions it simulates.
            None => unreachable!("no warmup collected for barrierpoint region {region}"),
        },
    };
    apply_warmup(machine.hierarchy_mut(), workload, &strategy);
    machine.run_region(workload, region)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::profile_application;
    use crate::select::select_barrierpoints;
    use bp_clustering::SimPointConfig;
    use bp_signature::SignatureConfig;
    use bp_workload::{Benchmark, WorkloadConfig};

    fn setup() -> (impl Workload, BarrierPointSelection) {
        let w = Benchmark::NpbCg.build(&WorkloadConfig::new(4).with_scale(0.02));
        let profile = profile_application(&w).unwrap();
        let selection =
            select_barrierpoints(&profile, &SignatureConfig::combined(), &SimPointConfig::paper())
                .unwrap();
        (w, selection)
    }

    #[test]
    fn serial_and_parallel_simulation_agree() {
        let (w, selection) = setup();
        let config = SimConfig::scaled(4);
        let serial = simulate_barrierpoints(
            &w,
            &selection,
            &config,
            WarmupKind::MruReplay,
            &ExecutionPolicy::Serial,
        )
        .unwrap();
        let parallel = simulate_barrierpoints(
            &w,
            &selection,
            &config,
            WarmupKind::MruReplay,
            &ExecutionPolicy::parallel_with(4),
        )
        .unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(serial.len(), selection.num_barrierpoints());
    }

    #[test]
    fn warmup_reduces_estimated_cycles() {
        let (w, selection) = setup();
        let config = SimConfig::scaled(4);
        let cold = simulate_barrierpoints(
            &w,
            &selection,
            &config,
            WarmupKind::Cold,
            &ExecutionPolicy::Serial,
        )
        .unwrap();
        let warm = simulate_barrierpoints(
            &w,
            &selection,
            &config,
            WarmupKind::MruReplay,
            &ExecutionPolicy::Serial,
        )
        .unwrap();
        let cold_cycles: u64 = cold.values().map(|m| m.cycles).sum();
        let warm_cycles: u64 = warm.values().map(|m| m.cycles).sum();
        assert!(warm_cycles <= cold_cycles, "warm {warm_cycles} vs cold {cold_cycles}");
    }

    #[test]
    fn thread_mismatch_is_reported() {
        let (w, selection) = setup();
        let err = simulate_barrierpoints(
            &w,
            &selection,
            &SimConfig::scaled(8),
            WarmupKind::Cold,
            &ExecutionPolicy::Serial,
        )
        .unwrap_err();
        assert!(matches!(err, Error::ThreadCountMismatch { .. }));
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(WarmupKind::MruReplay.name(), "mru-replay");
        assert_eq!(WarmupKind::Cold.name(), "cold");
        assert_eq!(WarmupKind::FunctionalReplay.name(), "functional");
    }
}
