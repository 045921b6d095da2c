//! The BarrierPoint reproduction's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold-sweep|warm-resweep|recluster> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run sets up several times, runs untraced jobs for
//! `--seconds` and reports the end-to-end metrics.  With `--trace 1` it sets
//! up once, splits `--seconds` between untraced jobs, traced replays of the
//! same jobs (each call into a layer timed from here, see
//! [`workloads::Bench::traced_job`]) and probes of single layers, and
//! reports the per-layer metrics.  Every job's output is checked.
//!
//! The last line of standard output is the result as one JSON object; the
//! line before it records the host context (CPUs, policy, workers, sample
//! counts, quartiles, seed, commit).  `--tiny` shrinks every kernel for the
//! smoke test.

mod stats;
mod workloads;

use stats::{median, quantile, tail_percentile, Tracer};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workloads::{remove_dir, Bench, JobStats, Kind};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Shares of `--seconds` a traced run gives its untraced jobs and its
/// traced replays; the probes take the rest.
const TRACE_UNTRACED_SHARE: f64 = 0.4;
const TRACE_REPLAY_SHARE: f64 = 0.4;

/// The end-to-end metrics, as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("job_ms_p50", "ms"),
    ("covered_minstr_per_s", "Minstr/s"),
    ("detailed_instr_frac", "ratio"),
    ("runtime_error_pct", "%"),
    ("ipc_error_pct", "%"),
    ("peak_rss_mib", "MiB"),
    ("ok_frac", "ratio"),
];

/// The per-layer metrics, as `BENCHMARK.json` lists them.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("walk.fused_ms", "ms"),
    ("walk.signature_ms", "ms"),
    ("walk.warmup_ms", "ms"),
    ("walk.checkpoint_overhead_ms", "ms"),
    ("segment.reprofile_ms", "ms"),
    ("segment.sequential_ms", "ms"),
    ("segment.speedup", "ratio"),
    ("segment.jobs", "count"),
    ("segment.checkpoint_hits", "count"),
    ("cluster.simpoint_ms", "ms"),
    ("cluster.stratified_ms", "ms"),
    ("cluster.calls", "count"),
    ("sim.leg_ms", "ms"),
    ("sim.detailed_kinstr_per_s", "kinstr/s"),
    ("sim.legs", "count"),
    ("sim.full_ms", "ms"),
    ("reconstruct.us", "us"),
    ("cache.open_us", "us"),
    ("cache.key_us", "us"),
    ("cache.load_selection_us", "us"),
    ("cache.load_simulated_us", "us"),
    ("cache.load_checkpoint_us", "us"),
    ("cache.load_profile_us", "us"),
    ("cache.store_profile_us", "us"),
    ("cache.store_selection_us", "us"),
    ("cache.store_simulated_us", "us"),
    ("cache.store_checkpoint_us", "us"),
    ("cache.flush_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.bytes_written", "bytes"),
    ("cache.degraded", "count"),
    ("exec.steal_count", "count"),
    ("sweep.trace_walks", "count"),
    ("sweep.simulate_legs", "count"),
    ("sweep.clustering_passes", "count"),
    ("sweep.fused_snapshot_bytes", "bytes"),
    ("sweep.other_ms", "ms"),
    ("trace.job_ms", "ms"),
    ("trace.total_ms", "ms"),
    ("trace.wall_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// Parsed command line.
struct Options {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn usage() -> String {
    "usage: perfbench --workload <cold-sweep|warm-resweep|recluster> [--seed <n>] \
     [--seconds <s>] [--trace <0|1>] [--tiny]"
        .to_string()
}

fn parse_options() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let mut kind = None;
    // The default is the workload models' own seed.
    let mut seed = bp_workload::WorkloadConfig::new(1).seed;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut tiny = false;
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value\n{}", usage()));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                kind = Some(Kind::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !seconds.is_finite() || seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--tiny" => tiny = true,
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    let kind = kind.ok_or_else(usage)?;
    Ok(Options { kind, seed, seconds, trace, tiny })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

/// Everything a run prints.
struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
    /// Extra `"key": value` pairs for the context line.
    context: Vec<(String, String)>,
}

/// The outcome of a run of untraced jobs.
#[derive(Default)]
struct Loop {
    /// Attempted jobs, the warm-up included.
    attempted: usize,
    failed: usize,
    /// The timed jobs that passed their checks.
    samples: Vec<JobStats>,
    /// From the first job that passed.
    accuracy: Option<workloads::Accuracy>,
    counters: Option<barrierpoint::SweepCounters>,
}

impl Loop {
    /// Runs and checks one job; a failure is counted, never fatal.
    fn record(&mut self, bench: &Bench, setup: &workloads::Setup, timed: bool) {
        self.attempted += 1;
        let job = bench.job(setup).and_then(|job| bench.check(setup, &job.reports).map(|()| job));
        match job {
            Ok(job) => {
                if self.accuracy.is_none() {
                    self.accuracy = Some(bench.accuracy(setup, &job.reports));
                    self.counters = Some(Bench::counters(&job.reports));
                }
                if timed {
                    self.samples.push(job.stats);
                }
            }
            Err(e) => {
                self.failed += 1;
                eprintln!("job {} failed: {e}", self.attempted);
            }
        }
    }

    /// The median of one measurement over the timed jobs.
    fn median(&self, field: impl Fn(&JobStats) -> f64) -> f64 {
        median(&self.samples.iter().map(field).collect::<Vec<_>>())
    }

    /// Job times in milliseconds.
    fn job_ms(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.seconds * 1e3).collect()
    }
}

/// One warm-up job, checked but not timed, then timed jobs back to back
/// until `budget` has passed.
fn run_jobs(bench: &Bench, setup: &workloads::Setup, budget: Duration) -> Loop {
    let mut out = Loop::default();
    out.record(bench, setup, false);
    let start = Instant::now();
    loop {
        out.record(bench, setup, true);
        if start.elapsed() >= budget {
            return out;
        }
    }
}

/// Peak resident memory of this process, in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// `q1/median/q3` of `values`, as JSON.
fn quartiles_json(values: &[f64]) -> String {
    format!(
        "{{\"q1\": {}, \"median\": {}, \"q3\": {}, \"n\": {}}}",
        num(quantile(values, 0.25)),
        num(median(values)),
        num(quantile(values, 0.75)),
        values.len()
    )
}

/// A JSON number; non-finite values (no samples) print as 0.
fn num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// Pairs each `(name, unit)` of `table` with its computed value.
fn metrics(table: &[(&'static str, &'static str)], values: &[(&str, f64)]) -> Vec<Metric> {
    assert_eq!(table.len(), values.len(), "metric table and values disagree");
    table
        .iter()
        .zip(values)
        .map(|(&(name, unit), &(computed, value))| {
            assert_eq!(name, computed, "metric table and values disagree");
            Metric { name, unit, value }
        })
        .collect()
}

fn end_to_end(bench: &Bench, options: &Options) -> Result<Outcome, String> {
    let mut setup_seconds = Vec::new();
    let mut setup = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        setup = Some(bench.setup()?);
        setup_seconds.push(start.elapsed().as_secs_f64());
    }
    let setup = setup.expect("at least one set-up ran");
    let jobs = run_jobs(bench, &setup, Duration::from_secs_f64(options.seconds));
    let job_ms = jobs.job_ms();
    let p50 = median(&job_ms);
    let accuracy = jobs.accuracy.unwrap_or_default();
    let values = [
        ("setup_s", median(&setup_seconds)),
        ("job_ms_p50", p50),
        ("covered_minstr_per_s", accuracy.covered_instructions as f64 / 1e6 / (p50 / 1e3)),
        ("detailed_instr_frac", accuracy.detailed_instr_frac),
        ("runtime_error_pct", accuracy.runtime_error_pct),
        ("ipc_error_pct", accuracy.ipc_error_pct),
        ("peak_rss_mib", peak_rss_mib()?),
        ("ok_frac", (jobs.attempted - jobs.failed) as f64 / jobs.attempted as f64),
    ];
    let metrics = metrics(&END_TO_END, &values);
    let mut context = vec![
        ("setup_s".to_string(), quartiles_json(&setup_seconds)),
        ("job_ms".to_string(), quartiles_json(&job_ms)),
    ];
    if let Some(p) = tail_percentile(job_ms.len()) {
        context.push((format!("job_ms_p{p}"), num(quantile(&job_ms, f64::from(p) / 100.0))));
    }
    Ok(Outcome { attempted: jobs.attempted, failed: jobs.failed, metrics, context })
}

fn traced(bench: &Bench, options: &Options) -> Result<Outcome, String> {
    let setup = bench.setup()?;
    let trace_setup = bench.trace_setup(&setup)?;
    let seconds = options.seconds;
    let jobs = run_jobs(bench, &setup, Duration::from_secs_f64(seconds * TRACE_UNTRACED_SHARE));
    let mut attempted = jobs.attempted;
    let mut failed = jobs.failed;

    let mut t = Tracer::default();
    let mut iterations = Vec::new();
    let replay_budget = Duration::from_secs_f64(seconds * TRACE_REPLAY_SHARE);
    let start = Instant::now();
    while start.elapsed() < replay_budget || attempted == jobs.attempted {
        attempted += 1;
        match bench.traced_job(&setup, &trace_setup, &mut t) {
            Ok(iteration) => iterations.push(iteration),
            Err(e) => {
                failed += 1;
                eprintln!("traced job failed: {e}");
            }
        }
    }
    if iterations.is_empty() {
        return Err("no traced job passed its checks".to_string());
    }

    let probe_budget =
        Duration::from_secs_f64(seconds * (1.0 - TRACE_UNTRACED_SHARE - TRACE_REPLAY_SHARE));
    let mut probe_rates = Vec::new();
    let start = Instant::now();
    while probe_rates.is_empty() || start.elapsed() < probe_budget {
        probe_rates.push(bench.probes(&setup, &trace_setup, &mut t)?);
    }

    let probe_rounds = probe_rates.len();
    let ms = |name: &str| t.median(name) * 1e3;
    let us = |name: &str| t.median(name) * 1e6;
    let med = |f: &dyn Fn(&workloads::TracedIteration) -> f64| {
        median(&iterations.iter().map(f).collect::<Vec<_>>())
    };
    let leg_rates: Vec<f64> = if t.on_path("sim.leg_ms") {
        iterations.iter().flat_map(|i| i.leg_rates.iter().copied()).collect()
    } else {
        probe_rates
    };
    let job_ms = median(&jobs.job_ms());
    let total_ms = med(&|i| i.spans) * 1e3;
    let wall_ms = med(&|i| i.wall) * 1e3;
    let counters = jobs.counters.ok_or("no untraced job succeeded")?;
    let full_ms: Vec<f64> = setup.full_seconds.iter().map(|s| s * 1e3).collect();

    let values = [
        ("walk.fused_ms", ms("walk.fused_ms")),
        ("walk.signature_ms", ms("walk.signature_ms")),
        ("walk.warmup_ms", ms("walk.fused_ms") - ms("walk.signature_ms")),
        ("walk.checkpoint_overhead_ms", ms("walk.fused_ms") - ms("walk.plain_ms")),
        ("segment.reprofile_ms", ms("segment.reprofile_ms")),
        ("segment.sequential_ms", ms("segment.sequential_ms")),
        ("segment.speedup", ms("segment.sequential_ms") / ms("segment.reprofile_ms")),
        ("segment.jobs", counters.segment_walks as f64),
        ("segment.checkpoint_hits", counters.checkpoint_hits as f64),
        ("cluster.simpoint_ms", ms("cluster.simpoint_ms")),
        ("cluster.stratified_ms", ms("cluster.stratified_ms")),
        ("cluster.calls", med(&|i| i.clustering_calls as f64)),
        ("sim.leg_ms", ms("sim.leg_ms")),
        ("sim.detailed_kinstr_per_s", median(&leg_rates) / 1e3),
        ("sim.legs", med(&|i| i.legs as f64)),
        ("sim.full_ms", median(&full_ms)),
        ("reconstruct.us", us("reconstruct.us")),
        ("cache.open_us", us("cache.open_us")),
        ("cache.key_us", us("cache.key_us")),
        ("cache.load_selection_us", us("cache.load_selection_us")),
        ("cache.load_simulated_us", us("cache.load_simulated_us")),
        ("cache.load_checkpoint_us", us("cache.load_checkpoint_us")),
        ("cache.load_profile_us", us("cache.load_profile_us")),
        ("cache.store_profile_us", us("cache.store_profile_us")),
        ("cache.store_selection_us", us("cache.store_selection_us")),
        ("cache.store_simulated_us", us("cache.store_simulated_us")),
        ("cache.store_checkpoint_us", us("cache.store_checkpoint_us")),
        ("cache.flush_us", us("cache.flush_us")),
        ("cache.hit_ratio", jobs.median(|s| s.hit_ratio)),
        ("cache.bytes_written", jobs.median(|s| s.bytes_written as f64)),
        ("cache.degraded", jobs.median(|s| s.degraded as f64)),
        ("exec.steal_count", jobs.median(|s| s.steals as f64)),
        ("sweep.trace_walks", counters.trace_walks as f64),
        ("sweep.simulate_legs", counters.simulate_legs as f64),
        ("sweep.clustering_passes", counters.clustering_passes as f64),
        ("sweep.fused_snapshot_bytes", counters.fused_snapshot_bytes as f64),
        ("sweep.other_ms", job_ms - total_ms),
        ("trace.job_ms", job_ms),
        ("trace.total_ms", total_ms),
        ("trace.wall_ms", wall_ms),
        ("trace.overhead_ms", wall_ms - job_ms),
    ];
    let metrics = metrics(&PER_LAYER, &values);

    // The breakdown a reader checks the layer shares against: every
    // on-path span's share of the traced total, per job.
    let jobs_traced = iterations.len() as f64;
    let mut breakdown = String::from("{");
    for (i, (name, seconds)) in t.path_totals().iter().enumerate() {
        let per_job_ms = seconds / jobs_traced * 1e3;
        let _ = write!(
            breakdown,
            "{}\"{name}\": {{\"ms_per_job\": {}, \"share\": {}}}",
            if i == 0 { "" } else { ", " },
            num(per_job_ms),
            num(per_job_ms / total_ms)
        );
    }
    breakdown.push('}');
    let context = vec![
        ("job_ms".to_string(), quartiles_json(&jobs.job_ms())),
        ("traced_jobs".to_string(), iterations.len().to_string()),
        ("probe_rounds".to_string(), probe_rounds.to_string()),
        ("path_spans".to_string(), breakdown),
        ("probe_only_spans".to_string(), format!("{:?}", t.probe_only_names())),
    ];
    Ok(Outcome { attempted, failed, metrics, context })
}

/// The commit of the checkout, when it is a git work tree; read directly
/// from `.git` so no process is started.
fn commit() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|line| line.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn run(options: &Options, work: PathBuf) -> Result<Outcome, String> {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let scale_factor = if options.tiny { 0.04 } else { 1.0 };
    let bench = Bench::new(options.kind, options.seed, scale_factor, cpus, work);
    let mut outcome =
        if options.trace { traced(&bench, options)? } else { end_to_end(&bench, options)? };
    let mut context = vec![
        ("workload".to_string(), format!("\"{}\"", options.kind.name())),
        ("seed".to_string(), options.seed.to_string()),
        ("commit".to_string(), format!("\"{}\"", commit())),
        ("host_cpus".to_string(), cpus.to_string()),
        ("policy".to_string(), format!("\"parallel_with({cpus})\"")),
        ("workers".to_string(), bench.policy().worker_count(usize::MAX).to_string()),
        ("seconds".to_string(), num(options.seconds)),
        ("trace".to_string(), options.trace.to_string()),
    ];
    context.append(&mut outcome.context);
    outcome.context = context;
    Ok(outcome)
}

fn main() {
    let options = match parse_options() {
        Ok(options) => options,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{}",
        options.kind.name(),
        std::process::id()
    ));
    let result = run(&options, work.clone());
    if let Err(e) = remove_dir(&work) {
        eprintln!("{e}");
    }
    // The parent goes too once empty; a concurrent run keeps it alive.
    let _ = std::fs::remove_dir(".bench_work");
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let context: Vec<String> =
        outcome.context.iter().map(|(key, value)| format!("\"{key}\": {value}")).collect();
    println!("{{\"context\": {{{}}}}}", context.join(", "));
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, num(m.value), m.unit)
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
}
