//! The benchmark's workloads: what each one builds in set-up, what one job
//! is, how a job's output is checked, and the traced replay that times the
//! same calls layer by layer.
//!
//! Every workload is a closed loop with one client in one process: the next
//! job starts when the previous one has returned.  All three simulate the
//! `bp_bench::sweep_machine_variants` legs (`base`, `fast-clock`,
//! `small-llc`) on `SimConfig::scaled`, under
//! `ExecutionPolicy::parallel_with(<host CPUs>)`.
//!
//! Why each workload was chosen:
//!
//! * `cold-sweep` — npb-sp, 4 threads, scale 0.25.  A job is one
//!   `Sweep::run` into a fresh, empty on-disk `ArtifactCache`.  Every compute
//!   layer does its full share: the checkpointed fused walk (most of it MRU
//!   warmup collection), SimPoint over 3,601 regions, and three detailed
//!   legs.  The cache only writes.  With 4 threads on a 2-CPU host, segment
//!   fan-out cannot pay.
//! * `warm-resweep` — all 8 kernels, 4 threads, scale 0.25.  Set-up fills
//!   one cache directory; a job opens one fresh `ArtifactCache` handle, runs
//!   `Sweep::run` for each kernel on clones of it and drops the handle,
//!   which flushes once: a new process re-running the study.  Walk,
//!   clustering and simulation do zero work; all the time is key derivation,
//!   decode, checksum and the flush.  A compute-layer optimisation must
//!   predict no change here.
//! * `recluster` — npb-mg, 1 thread, scale 0.5.  Before timing, each job
//!   gets a fresh cache directory seeded only with the workload's segment
//!   checkpoints; the job is one `Sweep::run` over a strategy axis of
//!   SimPoint `max_k` and `TwoPhaseStratified` budgets
//!   (`bp_bench::SELECTION_BUDGETS`).  The profile misses and resumes from
//!   the checkpoints through the segment scheduler with fewer threads than
//!   workers — the one regime where segments pay — clustering runs once per
//!   strategy, and cache reads and writes mix.  npb-mg is also where the
//!   estimators' error is largest, so estimator fixes move its error metrics.

use crate::stats::Tracer;
use barrierpoint::evaluate::prediction_error;
use barrierpoint::{
    profile_and_collect_warmup, profile_and_collect_warmup_checkpointed,
    profile_and_collect_warmup_segmented, profile_application_with, reconstruct,
    select_barrierpoints_with, ArtifactCache, BarrierPoint, BarrierPointSelection, CacheStats,
    CheckpointCacheKey, ExecutionPolicy, ProfileCacheKey, Selected, SelectionCacheKey,
    SelectionStrategy, SignatureConfig, SimConfig, SimPointConfig, SimPointStrategy, Simulated,
    SimulatedCacheKey, Sweep, SweepCounters, SweepReport, TwoPhaseStratified, WarmupKind,
    WorkerBudget, WorkloadCheckpoints, DEFAULT_SEGMENTS,
};
use bp_bench::{sweep_machine_variants, ExperimentConfig, SELECTION_BUDGETS};
use bp_sim::{Machine, RunMetrics};
use bp_workload::{Benchmark, SyntheticWorkload, Workload, WorkloadConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// One of the benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A cold sweep of npb-sp into an empty cache.
    ColdSweep,
    /// A disk-warm re-sweep of all eight kernels.
    WarmResweep,
    /// A re-profile from stored checkpoints plus a strategy-axis re-cluster.
    Recluster,
}

impl Kind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 3] = [Kind::ColdSweep, Kind::WarmResweep, Kind::Recluster];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::ColdSweep => "cold-sweep",
            Kind::WarmResweep => "warm-resweep",
            Kind::Recluster => "recluster",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|kind| kind.name() == name)
    }

    /// Kernels, application threads and scale.
    fn spec(self) -> (&'static [Benchmark], usize, f64) {
        match self {
            Kind::ColdSweep => (&[Benchmark::NpbSp], 4, 0.25),
            Kind::WarmResweep => (Benchmark::all(), 4, 0.25),
            Kind::Recluster => (&[Benchmark::NpbMg], 1, 0.5),
        }
    }
}

/// One entry of a sweep's strategy axis.
struct Strategy {
    label: String,
    strategy: Arc<dyn SelectionStrategy>,
    /// The span its clustering call is timed under.
    span: &'static str,
}

/// One kernel of a workload, with everything set-up computes for it.
pub struct Case {
    workload: SyntheticWorkload,
    /// `Machine::run_full` on each machine variant: the ground truth.
    grounds: Vec<RunMetrics>,
    /// The reference legs, label and serialized bytes, in report order.
    expected: Vec<(String, Vec<u8>)>,
}

/// The state set-up leaves for the timed loop.
pub struct Setup {
    cases: Vec<Case>,
    /// The checkpoints `recluster` seeds each job's cache with.
    checkpoints: Option<WorkloadCheckpoints>,
    /// Seconds of each `Machine::run_full` call.
    pub full_seconds: Vec<f64>,
}

/// A finished, untraced job.
pub struct Job {
    /// One report per kernel.
    pub reports: Vec<SweepReport>,
    /// What the job measured.
    pub stats: JobStats,
}

/// The measurements of one untraced job.
#[derive(Debug, Clone, Copy)]
pub struct JobStats {
    /// Host seconds of the timed part.
    pub seconds: f64,
    /// `WorkerBudget::steal_count` of the job's shared budget.
    pub steals: u64,
    /// Cache lookups that hit, over all lookups.
    pub hit_ratio: f64,
    /// Growth of the cache directory, in bytes.
    pub bytes_written: u64,
    /// Degraded loads, degraded stores and retries.
    pub degraded: u64,
}

/// Accuracy and cost of a job's estimates.
#[derive(Debug, Clone, Copy, Default)]
pub struct Accuracy {
    /// Application instructions the job's legs estimate.
    pub covered_instructions: u64,
    /// Instructions simulated in detail over application instructions.
    pub detailed_instr_frac: f64,
    /// Mean absolute runtime error against `Machine::run_full`, percent.
    pub runtime_error_pct: f64,
    /// Mean absolute aggregate-IPC error against `Machine::run_full`, percent.
    pub ipc_error_pct: f64,
}

/// Per-iteration outcome of the traced replay.
#[derive(Debug, Default)]
pub struct TracedIteration {
    /// Wall seconds of the replay.
    pub wall: f64,
    /// Seconds the on-path spans summed to.
    pub spans: f64,
    /// Legs simulated.
    pub legs: usize,
    /// Clustering calls made.
    pub clustering_calls: usize,
    /// Detailed instructions per host second of each simulated leg.
    pub leg_rates: Vec<f64>,
}

/// What the traced run builds once, untimed: the `Selected` stages that
/// carry the fused walk's warmup bank, and single-segment checkpoints.
pub struct TraceSetup<'a> {
    /// One per strategy-axis entry, for the probe kernel.
    selected: Vec<Selected<'a, SyntheticWorkload>>,
    single_segment: WorkloadCheckpoints,
}

/// A workload bound to its seed, scale and working directory.
pub struct Bench {
    kind: Kind,
    seed: u64,
    scale_factor: f64,
    policy: ExecutionPolicy,
    variants: Vec<(&'static str, SimConfig)>,
    work: PathBuf,
    next_dir: std::cell::Cell<usize>,
}

impl Bench {
    /// `scale_factor` multiplies every kernel's scale (1.0 for measurement;
    /// the smoke test shrinks it).  Cache directories live under `work`.
    pub fn new(kind: Kind, seed: u64, scale_factor: f64, workers: usize, work: PathBuf) -> Self {
        let (_, threads, scale) = kind.spec();
        let config = ExperimentConfig {
            scale,
            cores_small: threads,
            cores_large: threads,
            tiny_machine: false,
        };
        Self {
            kind,
            seed,
            scale_factor,
            policy: ExecutionPolicy::parallel_with(workers),
            variants: sweep_machine_variants(&config, threads),
            work,
            next_dir: std::cell::Cell::new(0),
        }
    }

    /// The execution policy every job runs under.
    pub fn policy(&self) -> ExecutionPolicy {
        self.policy
    }

    /// A path under the working directory that no job has used yet.
    fn fresh_dir(&self) -> PathBuf {
        let n = self.next_dir.get();
        self.next_dir.set(n + 1);
        self.work.join(format!("job-{n}"))
    }

    /// The directory `warm-resweep` populates once per set-up.
    fn warm_dir(&self) -> PathBuf {
        self.work.join("warm")
    }

    /// The sweep's strategy axis: the default SimPoint strategy alone, or
    /// for `recluster` SimPoint `max_k` and stratified budgets.
    fn strategies(&self) -> Vec<Strategy> {
        if self.kind != Kind::Recluster {
            let strategy: Arc<dyn SelectionStrategy> =
                Arc::new(SimPointStrategy::new(SimPointConfig::paper()));
            return vec![Strategy {
                label: strategy.name().to_string(),
                strategy,
                span: "cluster.simpoint_ms",
            }];
        }
        SELECTION_BUDGETS
            .iter()
            .flat_map(|&budget| {
                [
                    Strategy {
                        label: format!("simpoint-k{budget}"),
                        strategy: Arc::new(SimPointStrategy::new(
                            SimPointConfig::paper().with_max_k(budget),
                        )) as Arc<dyn SelectionStrategy>,
                        span: "cluster.simpoint_ms",
                    },
                    Strategy {
                        label: format!("stratified-b{budget}"),
                        strategy: Arc::new(TwoPhaseStratified::with_budget(budget)),
                        span: "cluster.stratified_ms",
                    },
                ]
            })
            .collect()
    }

    /// The distinct LLC capacities of the machine variants, ascending: what
    /// a fused walk collects warmup for.
    fn capacities(&self) -> Vec<u64> {
        let mut capacities: Vec<u64> = self
            .variants
            .iter()
            .map(|(_, config)| config.memory.llc_total_lines(config.num_cores))
            .collect();
        capacities.sort_unstable();
        capacities.dedup();
        capacities
    }

    /// The variant with the largest LLC, whose warmup bank serves every leg.
    fn largest_llc(&self) -> SimConfig {
        self.variants
            .iter()
            .map(|(_, config)| *config)
            .max_by_key(|config| config.memory.llc_total_lines(config.num_cores))
            .expect("the machine variants are not empty")
    }

    /// A sweep over `case` with the workload's strategy axis and machine
    /// variants.
    fn sweep<'a>(
        &self,
        case: &'a Case,
        policy: ExecutionPolicy,
        budget: &WorkerBudget,
        cache: Option<ArtifactCache>,
    ) -> Sweep<'a, SyntheticWorkload> {
        let mut sweep = Sweep::new(&case.workload)
            .with_execution_policy(policy)
            .with_shared_budget(budget.clone());
        if let Some(cache) = cache {
            sweep = sweep.with_cache(cache);
        }
        if self.kind == Kind::Recluster {
            for entry in self.strategies() {
                sweep = sweep.add_strategy(entry.label, entry.strategy);
            }
        }
        for (label, config) in &self.variants {
            sweep = sweep.add_config(*label, *config);
        }
        sweep
    }

    /// Builds the workloads, computes the ground truth and the reference
    /// legs, and fills whatever cache the workload starts from.
    pub fn setup(&self) -> Result<Setup, String> {
        let (kernels, threads, scale) = self.kind.spec();
        let config =
            WorkloadConfig::new(threads).with_scale(scale * self.scale_factor).with_seed(self.seed);
        let mut full_seconds = Vec::new();
        let mut cases = Vec::new();
        for bench in kernels {
            let workload = bench.build(&config);
            let grounds = self
                .variants
                .iter()
                .map(|(_, sim_config)| {
                    let start = Instant::now();
                    let ground = Machine::new(sim_config).run_full(&workload);
                    full_seconds.push(start.elapsed().as_secs_f64());
                    ground
                })
                .collect();
            cases.push(Case { workload, grounds, expected: Vec::new() });
        }

        if self.kind == Kind::WarmResweep {
            // The cold legs the warm re-sweeps must reproduce come from the
            // run that fills the cache.
            let dir = self.warm_dir();
            remove_dir(&dir)?;
            let cache = ArtifactCache::new(&dir);
            let budget = WorkerBudget::for_policy(&self.policy);
            for case in &mut cases {
                let report = self
                    .sweep(case, self.policy, &budget, Some(cache.clone()))
                    .run()
                    .map_err(|e| format!("filling the cache for {}: {e}", case.workload.name()))?;
                case.expected = serialize_legs(&report);
            }
        } else {
            // The reference: an uncached, sequential sweep.
            let serial = ExecutionPolicy::serial();
            for case in &mut cases {
                let report = self
                    .sweep(case, serial, &WorkerBudget::for_policy(&serial), None)
                    .run()
                    .map_err(|e| format!("reference sweep of {}: {e}", case.workload.name()))?;
                case.expected = serialize_legs(&report);
            }
        }

        let checkpoints = if self.kind == Kind::Recluster {
            let (_, _, checkpoints) = profile_and_collect_warmup_checkpointed(
                &cases[0].workload,
                &self.capacities(),
                &self.policy,
                None,
                DEFAULT_SEGMENTS,
            )
            .map_err(|e| format!("collecting checkpoints: {e}"))?;
            Some(checkpoints)
        } else {
            None
        };
        Ok(Setup { cases, checkpoints, full_seconds })
    }

    /// A fresh cache directory holding only the workload's checkpoints.
    fn seeded_dir(&self, setup: &Setup) -> Result<PathBuf, String> {
        let dir = self.fresh_dir();
        if let Some(checkpoints) = &setup.checkpoints {
            let cache = ArtifactCache::new(&dir);
            cache
                .store_checkpoint(
                    &CheckpointCacheKey::for_workload(&setup.cases[0].workload),
                    checkpoints,
                )
                .map_err(|e| format!("seeding checkpoints: {e}"))?;
        }
        Ok(dir)
    }

    /// Runs one untraced job.
    pub fn job(&self, setup: &Setup) -> Result<Job, String> {
        let budget = WorkerBudget::for_policy(&self.policy);
        let dir = match self.kind {
            Kind::ColdSweep => self.fresh_dir(),
            Kind::WarmResweep => self.warm_dir(),
            Kind::Recluster => self.seeded_dir(setup)?,
        };
        let bytes_before = dir_bytes(&dir);
        let start = Instant::now();
        let cache = ArtifactCache::new(&dir);
        let reports: Result<Vec<SweepReport>, String> = setup
            .cases
            .iter()
            .map(|case| {
                self.sweep(case, self.policy, &budget, Some(cache.clone()))
                    .run()
                    .map_err(|e| format!("{}: {e}", case.workload.name()))
            })
            .collect();
        // A fresh handle's counters start at zero: these are the job's own.
        let stats = cache.stats();
        drop(cache);
        let seconds = start.elapsed().as_secs_f64();
        let bytes_written = dir_bytes(&dir).saturating_sub(bytes_before);
        if self.kind != Kind::WarmResweep {
            remove_dir(&dir)?;
        }
        let hits = stats.memory_hits() + stats.disk_hits();
        Ok(Job {
            reports: reports?,
            stats: JobStats {
                seconds,
                steals: budget.steal_count(),
                hit_ratio: hits as f64 / (hits + misses(&stats)).max(1) as f64,
                bytes_written,
                degraded: stats.degraded_loads + stats.degraded_stores + stats.retries,
            },
        })
    }

    /// Checks a job's legs against the reference and its counters against
    /// what the workload must do.
    pub fn check(&self, setup: &Setup, reports: &[SweepReport]) -> Result<(), String> {
        let threads = self.kind.spec().1;
        for (case, report) in setup.cases.iter().zip(reports) {
            let name = case.workload.name();
            if serialize_legs(report) != case.expected {
                return Err(format!("{name}: legs differ from the reference"));
            }
            let c = report.counters();
            if c.degraded_loads + c.degraded_stores + c.io_retries != 0 {
                return Err(format!("{name}: degraded cache I/O: {c:?}"));
            }
            let ok = match self.kind {
                Kind::ColdSweep => c.trace_walks == threads,
                Kind::WarmResweep => {
                    c.trace_walks == 0 && c.simulate_legs == 0 && c.clustering_passes == 0
                }
                Kind::Recluster => {
                    c.trace_walks == 0 && c.checkpoint_hits > 0 && c.segment_walks > threads
                }
            };
            if !ok {
                return Err(format!("{name}: unexpected counters {c:?}"));
            }
        }
        Ok(())
    }

    /// Accuracy and cost of a job's legs against the ground truth.
    pub fn accuracy(&self, setup: &Setup, reports: &[SweepReport]) -> Accuracy {
        let points = self.variants.len();
        let (mut sampled, mut total, mut runtime, mut ipc, mut legs) = (0u64, 0u64, 0.0, 0.0, 0);
        for (case, report) in setup.cases.iter().zip(reports) {
            for (i, leg) in report.legs().iter().enumerate() {
                let selection = report.selections()[i / points].selection();
                let ground = &case.grounds[i % points];
                let estimate = leg.reconstruction();
                sampled += selection.sampled_instructions();
                total += selection.total_instructions();
                runtime += prediction_error(ground, estimate).runtime_percent_error;
                ipc += ((estimate.aggregate_ipc() - ground.aggregate_ipc())
                    / ground.aggregate_ipc())
                .abs()
                    * 100.0;
                legs += 1;
            }
        }
        let legs = legs.max(1) as f64;
        Accuracy {
            covered_instructions: total,
            detailed_instr_frac: sampled as f64 / total.max(1) as f64,
            runtime_error_pct: runtime / legs,
            ipc_error_pct: ipc / legs,
        }
    }

    /// A job's counters: the first report's, with the per-layer metrics'
    /// counts summed over every report.
    pub fn counters(reports: &[SweepReport]) -> SweepCounters {
        let mut sum = reports[0].counters();
        for report in &reports[1..] {
            let c = report.counters();
            sum.trace_walks += c.trace_walks;
            sum.simulate_legs += c.simulate_legs;
            sum.clustering_passes += c.clustering_passes;
            sum.segment_walks += c.segment_walks;
            sum.checkpoint_hits += c.checkpoint_hits;
            sum.fused_snapshot_bytes += c.fused_snapshot_bytes;
        }
        sum
    }

    /// The kernel the probes run on: the workload's last, which on
    /// `warm-resweep` is npb-sp, so its probes compare with `cold-sweep`'s.
    fn probe_case<'s>(&self, setup: &'s Setup) -> &'s Case {
        &setup.cases[setup.cases.len() - 1]
    }

    /// Builds the `Selected` stages the traced replay simulates from — each
    /// through the pipeline's own cold fused walk, so it carries the warmup
    /// bank — and the single-segment checkpoints of the sequential probe.
    pub fn trace_setup<'s>(&self, setup: &'s Setup) -> Result<TraceSetup<'s>, String> {
        let case = self.probe_case(setup);
        let selected = self
            .strategies()
            .into_iter()
            .map(|entry| {
                BarrierPoint::new(&case.workload)
                    .with_execution_policy(self.policy)
                    .with_sim_config(self.largest_llc())
                    .with_selection_strategy(entry.strategy)
                    .select()
                    .map_err(|e| format!("selecting for the trace: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let (_, _, single_segment) = profile_and_collect_warmup_checkpointed(
            &case.workload,
            &self.capacities(),
            &self.policy,
            None,
            1,
        )
        .map_err(|e| format!("single-segment checkpoints: {e}"))?;
        Ok(TraceSetup { selected, single_segment })
    }

    /// One traced job: the calls `Sweep::run` makes for this workload,
    /// replayed one by one through the layers' public functions, each timed
    /// as an on-path span.  The legs are checked like an untraced job's.
    pub fn traced_job(
        &self,
        setup: &Setup,
        trace: &TraceSetup<'_>,
        t: &mut Tracer,
    ) -> Result<TracedIteration, String> {
        let dir = match self.kind {
            Kind::ColdSweep => self.fresh_dir(),
            Kind::WarmResweep => self.warm_dir(),
            Kind::Recluster => self.seeded_dir(setup)?,
        };
        let mut out = TracedIteration::default();
        let budget = WorkerBudget::for_policy(&self.policy);
        let start = Instant::now();
        let cache = t.path("cache.open_us", || ArtifactCache::new(&dir));
        let mut legs = Vec::new();
        for case in &setup.cases {
            let selected = if std::ptr::eq(case, self.probe_case(setup)) {
                Some(trace.selected.as_slice())
            } else {
                None
            };
            legs.push(self.replay(t, case, &cache, selected, &budget, &mut out)?);
        }
        t.path("cache.flush_us", || drop(cache));
        out.wall = start.elapsed().as_secs_f64();
        out.spans = t.end_iteration();
        if self.kind != Kind::WarmResweep {
            remove_dir(&dir)?;
        }
        for (case, legs) in setup.cases.iter().zip(legs) {
            let bytes: Vec<(String, Vec<u8>)> = case
                .expected
                .iter()
                .zip(&legs)
                .map(|((label, _), leg)| (label.clone(), serde::to_vec(leg.as_ref())))
                .collect();
            if legs.len() != case.expected.len() || bytes != case.expected {
                return Err(format!("{}: traced legs differ", case.workload.name()));
            }
        }
        Ok(out)
    }

    /// Replays one kernel's `Sweep::run` against `cache`, returning its legs
    /// in report order.  Mirrors the sweep's order: selection probes, then
    /// (only on a miss) profile, checkpoint, walk, clustering and stores,
    /// then leg keys, leg probes and the missing legs.  Legs run one after
    /// another here, where the sweep overlaps them on its worker budget.
    fn replay(
        &self,
        t: &mut Tracer,
        case: &Case,
        cache: &ArtifactCache,
        selected: Option<&[Selected<'_, SyntheticWorkload>]>,
        budget: &WorkerBudget,
        out: &mut TracedIteration,
    ) -> Result<Vec<Arc<Simulated>>, String> {
        let w = &case.workload;
        let err = |e: barrierpoint::Error| format!("{}: {e}", w.name());
        let strategies = self.strategies();
        let signature = SignatureConfig::combined();
        let (profile_key, checkpoint_key, selection_keys) = t.path("cache.key_us", || {
            let keys: Vec<SelectionCacheKey> = strategies
                .iter()
                .map(|s| SelectionCacheKey::for_workload(w, &signature, s.strategy.as_ref()))
                .collect();
            (ProfileCacheKey::for_workload(w), CheckpointCacheKey::for_workload(w), keys)
        });
        let mut selections = Vec::with_capacity(strategies.len());
        for key in &selection_keys {
            selections.push(
                t.path("cache.load_selection_us", || cache.load_selection(key)).map_err(err)?,
            );
        }
        if selections.iter().any(Option::is_none) {
            let profile = match t
                .path("cache.load_profile_us", || cache.load(&profile_key))
                .map_err(err)?
            {
                Some(profile) => profile,
                None => {
                    let capacities = self.capacities();
                    let max_capacity = capacities[capacities.len() - 1];
                    let checkpoints = t
                        .path("cache.load_checkpoint_us", || cache.load_checkpoint(&checkpoint_key))
                        .map_err(err)?
                        .filter(|c| c.covers(w, max_capacity));
                    let profile = match checkpoints {
                        Some(checkpoints) => {
                            t.path("segment.reprofile_ms", || {
                                profile_and_collect_warmup_segmented(
                                    w,
                                    &checkpoints,
                                    &self.policy,
                                    Some(budget),
                                )
                            })
                            .map_err(err)?
                            .0
                        }
                        None => {
                            let (profile, _, checkpoints) = t
                                .path("walk.fused_ms", || {
                                    profile_and_collect_warmup_checkpointed(
                                        w,
                                        &capacities,
                                        &self.policy,
                                        Some(budget),
                                        DEFAULT_SEGMENTS,
                                    )
                                })
                                .map_err(err)?;
                            t.path("cache.store_checkpoint_us", || {
                                cache.store_checkpoint(&checkpoint_key, &checkpoints)
                            })
                            .map_err(err)?;
                            profile
                        }
                    };
                    t.path("cache.store_profile_us", || cache.store(&profile_key, &profile))
                        .map_err(err)?;
                    Arc::new(profile)
                }
            };
            for (s, slot) in selections.iter_mut().enumerate() {
                if slot.is_none() {
                    let strategy = strategies[s].strategy.as_ref();
                    let selection = t
                        .path(strategies[s].span, || {
                            select_barrierpoints_with(&profile, &signature, strategy)
                        })
                        .map_err(err)?;
                    out.clustering_calls += 1;
                    t.path("cache.store_selection_us", || {
                        cache.store_selection(&selection_keys[s], &selection)
                    })
                    .map_err(err)?;
                    *slot = Some(Arc::new(selection));
                }
            }
        }
        let selections: Vec<Arc<BarrierPointSelection>> =
            selections.into_iter().flatten().collect();

        let leg_keys: Vec<SimulatedCacheKey> = t.path("cache.key_us", || {
            selections
                .iter()
                .flat_map(|selection| {
                    self.variants.iter().map(move |(_, config)| {
                        SimulatedCacheKey::new(w, selection, config, WarmupKind::MruReplay)
                    })
                })
                .collect()
        });
        let points = self.variants.len();
        let mut legs: Vec<Arc<Simulated>> = Vec::with_capacity(leg_keys.len());
        for (i, key) in leg_keys.iter().enumerate() {
            if let Some(first) = leg_keys[..i].iter().position(|k| k == key) {
                let leg = Arc::clone(&legs[first]);
                legs.push(leg);
                continue;
            }
            if let Some(leg) =
                t.path("cache.load_simulated_us", || cache.load_simulated(key)).map_err(err)?
            {
                legs.push(leg);
                continue;
            }
            let stage = selected
                .and_then(|stages| stages.get(i / points))
                .filter(|stage| stage.selection() == selections[i / points].as_ref())
                .ok_or_else(|| format!("{}: no matching Selected stage", w.name()))?;
            let config = &self.variants[i % points].1;
            let leg = t.path("sim.leg_ms", || stage.simulate(config)).map_err(err)?;
            let seconds = t.samples("sim.leg_ms").last().copied().unwrap_or(f64::NAN);
            out.leg_rates.push(stage.selection().sampled_instructions() as f64 / seconds);
            out.legs += 1;
            t.path("cache.store_simulated_us", || cache.store_simulated(key, &leg)).map_err(err)?;
            legs.push(leg);
        }
        Ok(legs)
    }

    /// Times each layer's public calls on the probe kernel, beside the
    /// path: variants of the walk, the segment scheduler, both clustering
    /// backends, one leg, reconstruction, and every cache store and load
    /// against a scratch directory.  A name the replay timed on the path
    /// keeps its path samples; see [`Tracer::samples`].  Returns the probe
    /// leg's detailed instructions per host second.
    pub fn probes(
        &self,
        setup: &Setup,
        trace: &TraceSetup<'_>,
        t: &mut Tracer,
    ) -> Result<f64, String> {
        let case = self.probe_case(setup);
        let w = &case.workload;
        let err = |e: barrierpoint::Error| format!("probe on {}: {e}", w.name());
        let capacities = self.capacities();
        let budget = WorkerBudget::for_policy(&self.policy);
        let policy = self.policy;
        t.probe("walk.signature_ms", || profile_application_with(w, &policy)).map_err(err)?;
        t.probe("walk.plain_ms", || {
            profile_and_collect_warmup(w, &capacities, &policy, Some(&budget))
        })
        .map_err(err)?;
        let (profile, _, checkpoints) = t
            .probe("walk.fused_ms", || {
                profile_and_collect_warmup_checkpointed(
                    w,
                    &capacities,
                    &policy,
                    Some(&budget),
                    DEFAULT_SEGMENTS,
                )
            })
            .map_err(err)?;
        t.probe("segment.reprofile_ms", || {
            profile_and_collect_warmup_segmented(w, &checkpoints, &policy, Some(&budget))
        })
        .map_err(err)?;
        t.probe("segment.sequential_ms", || {
            profile_and_collect_warmup_segmented(w, &trace.single_segment, &policy, Some(&budget))
        })
        .map_err(err)?;
        let signature = SignatureConfig::combined();
        t.probe("cluster.simpoint_ms", || {
            select_barrierpoints_with(
                &profile,
                &signature,
                &SimPointStrategy::new(SimPointConfig::paper()),
            )
        })
        .map_err(err)?;
        t.probe("cluster.stratified_ms", || {
            select_barrierpoints_with(&profile, &signature, &TwoPhaseStratified::default())
        })
        .map_err(err)?;
        let stage = &trace.selected[0];
        let config = self.largest_llc();
        // Timed by hand: on workloads that simulate on the path, the path
        // samples shadow this probe's, but its rate is still wanted.
        let start = Instant::now();
        let leg = stage.simulate(&config).map_err(err)?;
        let seconds = start.elapsed().as_secs_f64();
        t.probe_sample("sim.leg_ms", seconds);
        let rate = stage.selection().sampled_instructions() as f64 / seconds;
        t.probe("reconstruct.us", || {
            reconstruct(stage.selection(), leg.metrics(), config.core.frequency_ghz)
        })
        .map_err(err)?;

        let dir = self.fresh_dir();
        let profile_key = ProfileCacheKey::for_workload(w);
        let checkpoint_key = CheckpointCacheKey::for_workload(w);
        let selection_key = stage.selection_cache_key();
        let leg_key = stage.simulated_cache_key(w, &config);
        {
            let cache = ArtifactCache::new(&dir);
            t.probe("cache.store_checkpoint_us", || {
                cache.store_checkpoint(&checkpoint_key, &checkpoints)
            })
            .map_err(err)?;
            t.probe("cache.store_profile_us", || cache.store(&profile_key, &profile))
                .map_err(err)?;
            t.probe("cache.store_selection_us", || {
                cache.store_selection(&selection_key, stage.selection())
            })
            .map_err(err)?;
            t.probe("cache.store_simulated_us", || cache.store_simulated(&leg_key, &leg))
                .map_err(err)?;
        }
        let cache = t.probe("cache.open_us", || ArtifactCache::new(&dir));
        t.probe("cache.key_us", || {
            (
                SelectionCacheKey::for_workload(
                    w,
                    &signature,
                    &SimPointStrategy::new(SimPointConfig::paper()),
                ),
                SimulatedCacheKey::new(w, stage.selection(), &config, WarmupKind::MruReplay),
            )
        });
        t.probe("cache.load_checkpoint_us", || cache.load_checkpoint(&checkpoint_key))
            .map_err(err)?;
        t.probe("cache.load_profile_us", || cache.load(&profile_key)).map_err(err)?;
        t.probe("cache.load_selection_us", || cache.load_selection(&selection_key)).map_err(err)?;
        t.probe("cache.load_simulated_us", || cache.load_simulated(&leg_key)).map_err(err)?;
        t.probe("cache.flush_us", || drop(cache));
        remove_dir(&dir)?;
        Ok(rate)
    }
}

/// A report's legs as (label, serialized leg) pairs, for bit-exact
/// comparison.
fn serialize_legs(report: &SweepReport) -> Vec<(String, Vec<u8>)> {
    report
        .legs()
        .iter()
        .map(|leg| (leg.label().to_string(), serde::to_vec(leg.simulated())))
        .collect()
}

/// Cache lookups that missed, over every artifact kind.
fn misses(stats: &CacheStats) -> u64 {
    stats.profile_misses + stats.selection_misses + stats.simulated_misses + stats.checkpoint_misses
}

/// Total size of the regular files under `dir` (0 when it does not exist).
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|entry| match entry.file_type() {
            Ok(kind) if kind.is_dir() => dir_bytes(&entry.path()),
            Ok(_) => entry.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}

/// Removes `dir` and everything under it; a missing directory is fine.
pub fn remove_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("removing {}: {e}", dir.display()))
        }
        _ => Ok(()),
    }
}
