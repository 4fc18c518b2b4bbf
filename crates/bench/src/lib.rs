//! Experiment harness behind `drishti-exp`, the one binary that
//! reproduces every table and figure of the Drishti paper.
//!
//! `drishti-exp <name>|all [flags]` dispatches through the registry in
//! [`experiments`]: each experiment is a module function named after its
//! table or figure (see DESIGN.md §4 for the index and EXPERIMENTS.md for
//! paper-vs-measured results). The mix studies share a common protocol:
//!
//! 1. build the paper's workload mixes ([`drishti_trace::mix`]);
//! 2. run each mix under LRU (the baseline), measure per-core alone-IPCs;
//! 3. run each mix under the policies being compared;
//! 4. report weighted speedup normalised to LRU (and the figure's other
//!    metrics).
//!
//! # Scale
//!
//! By default the experiments run *shape-preserving* reduced
//! configurations (fewer mixes, shorter traces, 4/16 cores) so the whole
//! suite finishes in minutes. Pass `--full` for paper-scale mixes (70),
//! core counts (4/16/32) and longer traces; `--mixes N` /
//! `--cores a,b,c` / `--accesses N` override individual knobs. An
//! experiment with its own core ladder (`scalability`, `scaling`) states
//! it in the registry; `--cores` replaces it.
//!
//! # Parallelism and reports
//!
//! Every LRU-normalised mix study runs on the [`drishti_sim::sweep`]
//! harness through [`sweep_groups`] (`resilience` through
//! [`run_journaled`]): `--jobs N` picks the worker count (default: all
//! cores; results are bit-identical at any width), `--resume` picks up a
//! killed run from its journal, and every run writes a `drishti-sweep/v1`
//! JSON report plus a timing sidecar to `target/sweep/<name>.json`
//! (`--report PATH` overrides it). The experiments that read simulator
//! internals run directly and ignore those three flags: the `run_mix`
//! probes (`fig02_pc_scatter`, `fig04_pred_hist`,
//! `fig05_set_mpka`, `fig10_predictor_apki`, `table1_sampling_cases`,
//! `table2_design_space`, `table7_applicability`), `fig03_etr_views`
//! (instrumented policy objects) and `table3_budget` (no simulation).

pub mod experiments;

use drishti_core::config::DrishtiConfig;
use drishti_policies::factory::PolicyKind;
use drishti_sim::config::SystemConfig;
use drishti_sim::metrics::{mean, MixMetrics};
use drishti_sim::runner::{mix_metrics, RunConfig, RunResult};
use drishti_sim::sampling::SamplingSpec;
use drishti_sim::sweep::report::{SweepReport, SweepTiming};
use drishti_sim::sweep::{
    journal, run_sweep_resumable, JobKind, JobOutput, SweepJob, SweepOutcome,
};
use drishti_sim::telemetry::TelemetrySpec;
use drishti_trace::mix::Mix;
use drishti_trace::replay::TraceCache;
use std::path::PathBuf;
use std::sync::Arc;

/// The flags every experiment accepts.
pub const OPTS_USAGE: &str = "[--full] [--mixes N] [--cores a,b,c] [--accesses N] \
[--jobs N] [--report PATH] [--resume] [--telemetry] [--epoch N] \
[--sample-interval N] [--sample-warmup N]";

/// Command-line options shared by all experiments.
#[derive(Debug, Clone)]
pub struct ExpOpts {
    /// Paper-scale run (70 mixes, 4/16/32 cores, long traces).
    pub full: bool,
    /// Number of mixes per configuration.
    pub mixes: usize,
    /// Core counts from `--cores`, or the experiment's registry default
    /// once resolved; read them through [`ExpOpts::cores`].
    pub cores: Option<Vec<usize>>,
    /// Measured accesses per core.
    pub accesses: u64,
    /// Sweep worker threads (0 = all available cores).
    pub jobs: usize,
    /// Report destination override (default: `target/sweep/<name>.json`).
    pub report: Option<PathBuf>,
    /// Resume an interrupted sweep from its `<report>.journal`: journaled
    /// cells are loaded, only the unfinished remainder is simulated. The
    /// final report is byte-identical either way.
    pub resume: bool,
    /// Sample per-epoch telemetry timelines during every run.
    pub telemetry: bool,
    /// Telemetry epoch length in engine steps (0 = library default).
    pub epoch: u64,
    /// Interval-sampling period in records (0 = full simulation).
    pub sample_interval: u64,
    /// Warm records before each detailed window.
    pub sample_warmup: u64,
}

impl Default for ExpOpts {
    fn default() -> Self {
        ExpOpts {
            full: false,
            mixes: 6,
            cores: None,
            accesses: 80_000,
            jobs: 0,
            report: None,
            resume: false,
            telemetry: false,
            epoch: 0,
            sample_interval: 0,
            sample_warmup: 0,
        }
    }
}

impl ExpOpts {
    /// Parse an argument list. Unknown or malformed arguments are
    /// rejected with an actionable message.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut opts = ExpOpts::default();
        let mut i = 0;
        let value = |args: &[String], i: usize, flag: &str| -> Result<String, String> {
            args.get(i + 1)
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        while i < args.len() {
            let flag = args[i].as_str();
            match flag {
                "--full" => {
                    opts.full = true;
                    opts.mixes = 70;
                    opts.accesses = 400_000;
                    i += 1;
                    continue;
                }
                "--telemetry" => {
                    opts.telemetry = true;
                    i += 1;
                    continue;
                }
                "--resume" => {
                    opts.resume = true;
                    i += 1;
                    continue;
                }
                "--epoch" => {
                    opts.epoch = parse_num(flag, &value(args, i, flag)?)?;
                    opts.telemetry = true; // an explicit epoch implies telemetry
                }
                "--mixes" => {
                    opts.mixes = parse_num(flag, &value(args, i, flag)?)?;
                }
                "--accesses" => {
                    opts.accesses = parse_num(flag, &value(args, i, flag)?)?;
                }
                "--jobs" => {
                    opts.jobs = parse_num(flag, &value(args, i, flag)?)?;
                }
                "--report" => {
                    opts.report = Some(PathBuf::from(value(args, i, flag)?));
                }
                "--sample-interval" => {
                    opts.sample_interval = parse_num(flag, &value(args, i, flag)?)?;
                }
                "--sample-warmup" => {
                    opts.sample_warmup = parse_num(flag, &value(args, i, flag)?)?;
                }
                "--cores" => {
                    opts.cores = Some(
                        value(args, i, flag)?
                            .split(',')
                            .map(|c| parse_num("--cores", c))
                            .collect::<Result<_, _>>()?,
                    );
                }
                other => return Err(format!("unknown argument {other}")),
            }
            i += 2;
        }
        if opts.mixes == 0 || opts.accesses == 0 {
            return Err("--mixes and --accesses must be at least 1".to_string());
        }
        if opts.cores().is_empty() || opts.cores().contains(&0) {
            return Err("--cores needs at least one nonzero core count".to_string());
        }
        opts.sampling_spec().validate()?;
        Ok(opts)
    }

    /// The core counts to evaluate: `--cores`, else the experiment's
    /// registry default (filled in by [`experiments::Experiment::resolve`]),
    /// else the paper's 4/16 (4/16/32 under `--full`).
    pub fn cores(&self) -> &[usize] {
        match &self.cores {
            Some(cores) => cores,
            None if self.full => &[4, 16, 32],
            None => &[4, 16],
        }
    }

    /// The core count of a single-configuration experiment: the last one
    /// of [`ExpOpts::cores`] (16 by default, 32 under `--full`).
    pub fn last_cores(&self) -> usize {
        *self.cores().last().expect("parse rejects an empty --cores")
    }

    /// The telemetry spec these options describe.
    pub fn telemetry_spec(&self) -> TelemetrySpec {
        if !self.telemetry {
            return TelemetrySpec::off();
        }
        let steps = if self.epoch == 0 {
            drishti_sim::telemetry::DEFAULT_EPOCH_STEPS
        } else {
            self.epoch
        };
        TelemetrySpec::sampling(steps)
    }

    /// The interval-sampling schedule these options describe.
    pub fn sampling_spec(&self) -> SamplingSpec {
        SamplingSpec::every(self.sample_interval, self.sample_warmup)
    }

    /// The run configuration for `cores` cores.
    pub fn rc(&self, cores: usize) -> RunConfig {
        RunConfig {
            system: SystemConfig::paper_baseline(cores),
            accesses_per_core: self.accesses,
            warmup_accesses: self.accesses / 4,
            record_llc_stream: false,
            sampling: self.sampling_spec(),
            telemetry: self.telemetry_spec(),
            engine: (),
        }
    }

    /// The paper's main mix set scaled to `self.mixes` (half homogeneous,
    /// half heterogeneous, like the paper's 35 + 35).
    pub fn paper_mixes(&self, cores: usize) -> Vec<Mix> {
        drishti_trace::mix::paper_mixes(cores, self.mixes.div_ceil(2), self.mixes / 2)
    }
}

pub(crate) fn parse_num<T: std::str::FromStr>(flag: &str, s: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("{flag} needs a number, got `{s}`"))
}

/// Why an experiment did not complete.
#[derive(Debug)]
pub enum ExpError {
    /// The experiment cannot start as asked (a resume journal that
    /// belongs to another job set): exit status 2, like a malformed flag.
    Refused(String),
    /// A simulation cell failed, a result check did not hold, or the
    /// report could not be written: exit status 1.
    Failed(String),
}

impl ExpError {
    /// The process exit status this error maps to.
    pub fn exit_code(&self) -> i32 {
        match self {
            ExpError::Refused(_) => 2,
            ExpError::Failed(_) => 1,
        }
    }
}

impl std::fmt::Display for ExpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExpError::Refused(msg) | ExpError::Failed(msg) => f.write_str(msg),
        }
    }
}

/// One evaluated (mix, policy) cell.
#[derive(Debug)]
pub struct Cell {
    /// Name the policy reported.
    pub policy: String,
    /// Weighted speedup normalised to the same mix under LRU, ×100 − 100
    /// (i.e. "% improvement over LRU", the paper's headline metric).
    pub ws_improvement_pct: f64,
    /// The raw run result.
    pub result: RunResult,
    /// Mix metrics against alone-IPC baselines.
    pub metrics: MixMetrics,
}

/// Evaluation of one mix under LRU plus a set of policies.
#[derive(Debug)]
pub struct MixEval {
    /// The mix name.
    pub mix: String,
    /// LRU baseline run.
    pub lru: RunResult,
    /// LRU weighted speedup (the normalisation denominator).
    pub lru_ws: f64,
    /// LRU mix metrics.
    pub lru_metrics: MixMetrics,
    /// Per-policy cells, in the order requested.
    pub cells: Vec<Cell>,
}

/// Per policy column, the mean of `f(cell, eval)` over `evals` (no
/// columns when `evals` is empty).
pub fn column_means<'a>(
    evals: impl IntoIterator<Item = &'a MixEval>,
    f: impl Fn(&Cell, &MixEval) -> f64,
) -> Vec<f64> {
    let evals: Vec<&MixEval> = evals.into_iter().collect();
    let columns = evals.first().map_or(0, |e| e.cells.len());
    (0..columns)
        .map(|p| mean(&evals.iter().map(|e| f(&e.cells[p], e)).collect::<Vec<_>>()))
        .collect()
}

/// Mean % WS improvement per policy across a set of mix evaluations.
pub fn mean_improvements(evals: &[MixEval]) -> Vec<(String, f64)> {
    let means = column_means(evals, |c, _| c.ws_improvement_pct);
    evals.first().map_or(Vec::new(), |e| {
        e.cells
            .iter()
            .map(|c| c.policy.clone())
            .zip(means)
            .collect()
    })
}

/// One batch of mixes evaluated under one `(policies, run-config)` pair —
/// e.g. "all 4-core mixes under the headline policies". Experiments hand
/// a list of groups to [`sweep_groups`], which flattens every group into
/// one job batch so cells from *different* configurations also run
/// concurrently.
#[derive(Debug, Clone)]
pub struct MixGroup {
    /// Group label used in report summaries (e.g. `"4c"`).
    pub label: String,
    /// The mixes to evaluate.
    pub mixes: Vec<Mix>,
    /// The `(policy, organisation)` pairs to compare against LRU.
    pub policies: Vec<(PolicyKind, DrishtiConfig)>,
    /// The run configuration shared by the group's cells.
    pub rc: RunConfig,
}

impl MixGroup {
    /// The paper's mixes on `cores` cores under `policies` and the
    /// options' run configuration, labelled `"<cores>c"`.
    pub fn paper(opts: &ExpOpts, cores: usize, policies: Vec<(PolicyKind, DrishtiConfig)>) -> Self {
        MixGroup {
            label: format!("{cores}c"),
            mixes: opts.paper_mixes(cores),
            policies,
            rc: opts.rc(cores),
        }
    }
}

/// One [`MixGroup::paper`] per requested core count, under the headline
/// policies.
pub fn headline_groups(opts: &ExpOpts) -> Vec<MixGroup> {
    opts.cores()
        .iter()
        .map(|&cores| MixGroup::paper(opts, cores, headline_policies(cores)))
        .collect()
}

/// One evaluated group: the input mixes paired with their evaluations
/// (same order), ready for figure-specific filtering and averaging.
#[derive(Debug)]
pub struct GroupEval {
    /// The group's label.
    pub label: String,
    /// The group's mixes, in evaluation order.
    pub mixes: Vec<Mix>,
    /// One [`MixEval`] per mix.
    pub evals: Vec<MixEval>,
}

/// Per-mix job layout inside a group: alone-IPC baselines, the LRU
/// normalisation run, then one run per compared policy.
const JOBS_PER_MIX_FIXED: usize = 2;

/// Run `jobs` as the sweep `name` on `opts.jobs` workers, journaled beside
/// its report so a killed run resumes with `--resume` ([`write_reports`]
/// removes the journal on clean completion). Returns the outcome, its base
/// report and the host-side timing. A journal of another job set is
/// [`ExpError::Refused`], not a silent re-run; any failed cell makes the
/// whole sweep [`ExpError::Failed`], listing every failure, because a
/// partial figure is worse than a loud one.
pub fn run_journaled(
    name: &str,
    jobs: &[SweepJob],
    opts: &ExpOpts,
) -> Result<(SweepOutcome, SweepReport, SweepTiming), ExpError> {
    let cache = Arc::new(TraceCache::new());
    let journal_file = journal::journal_path(&report_path(opts, name));
    let outcome = run_sweep_resumable(jobs, opts.jobs, &cache, &journal_file, opts.resume)
        .map_err(|err| {
            ExpError::Refused(format!(
                "cannot resume from {}: {err}",
                journal_file.display()
            ))
        })?;
    let failures = outcome.failures();
    if !failures.is_empty() {
        let mut msg = format!("{} sweep cell(s) failed:", failures.len());
        for fail in failures {
            msg.push_str(&format!("\n  {fail}"));
        }
        return Err(ExpError::Failed(msg));
    }
    let timing = SweepTiming::from_outcome(name, &outcome);
    let report = SweepReport::from_outcome(name, jobs, &outcome);
    Ok((outcome, report, timing))
}

/// Evaluate every group's mixes on the parallel sweep harness.
///
/// Flattens all groups into one dense job batch (per mix: one alone-IPC
/// job, one LRU job, one job per policy), executes it with
/// [`run_journaled`], and aggregates deterministically by job id — output
/// is bit-identical for any worker count, and to running each cell
/// directly with `run_mix`/`alone_ipcs`. Returns the per-group
/// evaluations plus the enriched [`SweepReport`] (per-cell
/// `ws`/`ws_improvement_pct`, per-group mean-improvement summaries) and
/// the host-side [`SweepTiming`].
pub fn sweep_groups(
    name: &str,
    groups: &[MixGroup],
    opts: &ExpOpts,
) -> Result<(Vec<GroupEval>, SweepReport, SweepTiming), ExpError> {
    let mut jobs: Vec<SweepJob> = Vec::new();
    for group in groups {
        for mix in &group.mixes {
            let mut push = |label: String, kind: JobKind| {
                let id = jobs.len();
                let seed = SweepJob::derive_seed(id);
                let rc = group.rc.clone();
                jobs.push(SweepJob {
                    id,
                    label,
                    seed,
                    rc,
                    kind,
                });
            };
            push(
                format!("{}/alone", mix.name),
                JobKind::AloneIpcs { mix: mix.clone() },
            );
            let lru = (PolicyKind::Lru, DrishtiConfig::baseline(mix.cores()));
            for (pk, cfg) in std::iter::once(&lru).chain(&group.policies) {
                push(
                    format!("{}/{}/{}", mix.name, pk.label(), cfg.label()),
                    JobKind::Run {
                        mix: mix.clone(),
                        policy: *pk,
                        org: cfg.clone(),
                        org_label: cfg.label(),
                    },
                );
            }
        }
    }

    let (outcome, mut report, timing) = run_journaled(name, &jobs, opts)?;
    let cores: Vec<String> = groups
        .iter()
        .map(|g| g.rc.system.cores.to_string())
        .collect();
    let mut config = vec![
        ("mixes", opts.mixes.to_string()),
        ("accesses", opts.accesses.to_string()),
        ("cores", cores.join(",")),
    ];
    // Sampled runs are not byte-comparable to full runs, so stamp the
    // schedule into the config (only when on — full-run reports keep
    // their historical bytes).
    if opts.sampling_spec().enabled() {
        config.push(("sample_interval", opts.sample_interval.to_string()));
        config.push(("sample_warmup", opts.sample_warmup.to_string()));
    }
    report
        .config
        .extend(config.into_iter().map(|(k, v)| (k.to_string(), v)));

    // Fold outputs back into per-mix evaluations, enriching the report's
    // cells with the LRU-normalised metrics as we go. Outputs arrive in
    // job-id order, which is exactly construction order.
    let mut outputs = outcome.outputs.into_iter().enumerate();
    let mut group_evals = Vec::with_capacity(groups.len());
    for group in groups {
        let mut evals = Vec::with_capacity(group.mixes.len());
        for mix in &group.mixes {
            let mut mix_outputs = outputs
                .by_ref()
                .take(JOBS_PER_MIX_FIXED + group.policies.len())
                .map(|(id, o)| (id, o.expect("run_journaled returns complete outcomes")));
            let Some((_, JobOutput::AloneIpcs(alone))) = mix_outputs.next() else {
                unreachable!("job layout: alone first");
            };
            let mut runs = mix_outputs.map(|(id, o)| match o {
                JobOutput::Run(r) => (id, *r),
                JobOutput::AloneIpcs(_) => unreachable!("job layout: runs after alone"),
            });
            let (lru_id, lru) = runs.next().expect("lru output");
            let lru_metrics = mix_metrics(&lru, &alone);
            let lru_ws = lru_metrics.weighted_speedup();
            enrich_cell(&mut report, lru_id, lru_ws, 0.0);
            let cells = runs
                .map(|(id, result)| {
                    let metrics = mix_metrics(&result, &alone);
                    let ws = metrics.weighted_speedup();
                    let ws_improvement_pct = (ws / lru_ws - 1.0) * 100.0;
                    enrich_cell(&mut report, id, ws, ws_improvement_pct);
                    Cell {
                        policy: result.policy.clone(),
                        ws_improvement_pct,
                        result,
                        metrics,
                    }
                })
                .collect();
            evals.push(MixEval {
                mix: mix.name.clone(),
                lru,
                lru_ws,
                lru_metrics,
                cells,
            });
        }
        // Per-group summary: mean WS improvement per (policy, org) column.
        let pairs = group
            .policies
            .iter()
            .map(|(pk, cfg)| format!("{}/{}", pk.label(), cfg.label()))
            .zip(column_means(&evals, |c, _| c.ws_improvement_pct))
            .collect();
        report
            .summary
            .push((format!("mean_ws_improvement_pct/{}", group.label), pairs));
        group_evals.push(GroupEval {
            label: group.label.clone(),
            mixes: group.mixes.clone(),
            evals,
        });
    }
    debug_assert!(outputs.next().is_none(), "all outputs consumed");
    Ok((group_evals, report, timing))
}

fn enrich_cell(report: &mut SweepReport, id: usize, ws: f64, ws_improvement_pct: f64) {
    let cell = report.cell_mut(id).expect("run cell present in report");
    cell.metrics.push(("ws".to_string(), ws));
    cell.metrics
        .push(("ws_improvement_pct".to_string(), ws_improvement_pct));
}

/// The report path a sweep named `name` will write to: `--report` or the
/// default `target/sweep/<name>.json`. The completion journal lives
/// beside it (`<report>.journal`).
pub fn report_path(opts: &ExpOpts, name: &str) -> PathBuf {
    opts.report
        .clone()
        .unwrap_or_else(|| drishti_sim::sweep::report::default_report_path(name))
}

/// Write `report` (and its timing sidecar) to `opts.report` or the
/// default `target/sweep/<name>.json`, and announce both on stderr
/// together with the timing line. A successfully written report marks
/// clean completion, so the sweep's journal (now redundant) is removed.
pub fn write_reports(
    opts: &ExpOpts,
    report: &SweepReport,
    timing: &SweepTiming,
) -> Result<(), ExpError> {
    let path = report_path(opts, &report.name);
    let failed = |e: std::io::Error| ExpError::Failed(format!("failed to write sweep report: {e}"));
    report.write(&path).map_err(failed)?;
    journal::remove_on_success(&path).map_err(failed)?;
    // Timeline file names go in the host-dependent timing sidecar so the
    // main report stays byte-comparable with telemetry on or off.
    let mut timing = timing.clone();
    timing.attach_timelines(report, &path);
    let timing_path = timing.write_beside(&path).map_err(failed)?;
    eprintln!("{}", timing.line());
    eprintln!(
        "report: {} (timing: {})",
        path.display(),
        timing_path.display()
    );
    Ok(())
}

/// The four headline configurations of the paper's main figures:
/// Hawkeye, D-Hawkeye, Mockingjay, D-Mockingjay.
pub fn headline_policies(cores: usize) -> Vec<(PolicyKind, DrishtiConfig)> {
    vec![
        (PolicyKind::Hawkeye, DrishtiConfig::baseline(cores)),
        (PolicyKind::Hawkeye, DrishtiConfig::drishti(cores)),
        (PolicyKind::Mockingjay, DrishtiConfig::baseline(cores)),
        (PolicyKind::Mockingjay, DrishtiConfig::drishti(cores)),
    ]
}

/// Column labels of [`headline_policies`], in the same order.
pub const HEADLINE_LABELS: [&str; 4] = ["hawkeye", "d-hawkeye", "mockingjay", "d-mockingjay"];

/// Print a table row of `evals`' mean % WS improvement per policy column.
pub fn improvement_row(label: &str, evals: &[MixEval]) {
    let means = mean_improvements(evals);
    row(
        label,
        &means.iter().map(|(_, v)| pct(*v)).collect::<Vec<_>>(),
    );
}

/// A sensitivity figure: the headline policies on `cores` cores under one
/// system variant per `(label, system)` point, over the paper's mixes
/// (the homogeneous ones only when `homogeneous_only`). Prints one
/// [`improvement_row`] per point and returns the sweep's report and
/// timing for [`write_reports`].
pub fn headline_sensitivity(
    name: &str,
    opts: &ExpOpts,
    cores: usize,
    points: Vec<(String, SystemConfig)>,
    homogeneous_only: bool,
) -> Result<(SweepReport, SweepTiming), ExpError> {
    let groups: Vec<MixGroup> = points
        .into_iter()
        .map(|(label, system)| {
            let mut g = MixGroup::paper(opts, cores, headline_policies(cores));
            g.label = label;
            g.rc.system = system;
            if homogeneous_only {
                g.mixes.retain(Mix::is_homogeneous);
            }
            g
        })
        .collect();
    let (group_evals, report, timing) = sweep_groups(name, &groups, opts)?;
    for g in &group_evals {
        improvement_row(&g.label, &g.evals);
    }
    Ok((report, timing))
}

/// Print a markdown-style table row.
pub fn row(label: &str, values: &[impl AsRef<str>]) {
    print!("| {label:<28} |");
    for v in values {
        print!(" {:>12} |", v.as_ref());
    }
    println!();
}

/// Print a markdown-style table header.
pub fn header(label: &str, columns: &[impl AsRef<str>]) {
    row(label, columns);
    print!("|{}|", "-".repeat(30));
    for _ in columns {
        print!("{}|", "-".repeat(14));
    }
    println!();
}

/// Format a percentage.
pub fn pct(v: f64) -> String {
    format!("{v:+.1}%")
}

/// Format a float.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use drishti_sim::runner::{alone_ipcs, run_mix};
    use drishti_trace::presets::Benchmark;

    #[test]
    fn sweep_groups_matches_direct_runs() {
        let report = std::env::temp_dir().join(format!(
            "drishti-bench-test-{}-equivalence.json",
            std::process::id()
        ));
        let opts = ExpOpts {
            accesses: 3_000,
            jobs: 2,
            report: Some(report.clone()),
            ..ExpOpts::default()
        };
        let mix = Mix::homogeneous(Benchmark::Deepsjeng, 4, 1);
        let policies = vec![
            (PolicyKind::Srrip, DrishtiConfig::baseline(4)),
            (PolicyKind::Mockingjay, DrishtiConfig::drishti(4)),
        ];
        let group = MixGroup {
            mixes: vec![mix.clone()],
            ..MixGroup::paper(&opts, 4, policies.clone())
        };
        let (mut evals, _, _) = sweep_groups("equivalence", &[group], &opts).expect("sweep");
        journal::remove_on_success(&report).expect("journal removed");
        let eval = evals.remove(0).evals.remove(0);

        let rc = opts.rc(4);
        let alone = alone_ipcs(&mix, &rc);
        let lru = run_mix(&mix, PolicyKind::Lru, DrishtiConfig::baseline(4), &rc);
        let lru_metrics = mix_metrics(&lru, &alone);
        assert_eq!(format!("{:?}", eval.lru), format!("{lru:?}"));
        assert_eq!(eval.lru_metrics, lru_metrics);
        assert_eq!(
            eval.lru_ws.to_bits(),
            lru_metrics.weighted_speedup().to_bits()
        );
        assert_eq!(eval.cells.len(), policies.len());
        for (cell, (pk, cfg)) in eval.cells.iter().zip(policies) {
            let result = run_mix(&mix, pk, cfg, &rc);
            let metrics = mix_metrics(&result, &alone);
            let ws_improvement_pct =
                (metrics.weighted_speedup() / lru_metrics.weighted_speedup() - 1.0) * 100.0;
            assert_eq!(cell.policy, result.policy);
            assert_eq!(format!("{:?}", cell.result), format!("{result:?}"));
            assert_eq!(cell.metrics, metrics);
            assert_eq!(
                cell.ws_improvement_pct.to_bits(),
                ws_improvement_pct.to_bits()
            );
        }
    }

    #[test]
    fn headline_policies_are_four() {
        let hp = headline_policies(4);
        assert_eq!(hp.len(), HEADLINE_LABELS.len());
    }
}
