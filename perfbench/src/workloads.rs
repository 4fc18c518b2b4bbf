//! The three workloads: their cells, set-up, timed batch and probe.

use crate::cell::CellStats;
use crate::layers::write_drtr;
use crate::spans::Spans;
use drishti_core::config::DrishtiConfig;
use drishti_mem::access::Access;
use drishti_policies::factory::PolicyKind;
use drishti_sim::ckpt;
use drishti_sim::config::SystemConfig;
use drishti_sim::engine::Engine;
use drishti_sim::runner::RunConfig;
use drishti_sim::sampling::SamplingSpec;
use drishti_sim::sweep::{run_sweep_resumable, JobKind, JobOutput, SweepJob};
use drishti_sim::telemetry::TelemetrySpec;
use drishti_trace::mix::Mix;
use drishti_trace::presets::Benchmark;
use drishti_trace::replay::TraceCache;
use drishti_trace::store::StreamingTrace;
use drishti_trace::{Rng, WorkloadGen};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Which workload a [`Workload`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 16 cores, 2 mixes × {Hawkeye, Mockingjay} × {baseline, drishti}
    /// through the resumable sweep on 2 workers.
    Paper16,
    /// 4 low-MPKI cores under LRU, replayed from `.drtr` files.
    Stream4,
    /// 64 cores on 4 chips, Mockingjay × {baseline, hierarchical
    /// drishti}, each cell checkpointed at warm-up and resumed.
    Package64,
}

impl Kind {
    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "paper16-sweep" => Some(Kind::Paper16),
            "stream4-lru" => Some(Kind::Stream4),
            "package64-resume" => Some(Kind::Package64),
            _ => None,
        }
    }
}

/// Sweep-pool worker threads for `paper16-sweep`: the load stays within
/// one process with at most two threads, so it fits a 2-CPU host.
pub const SWEEP_WORKERS: usize = 2;

/// One `(mix, policy, organisation)` cell.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// `mix/policy/org` label.
    pub label: String,
    /// Index into [`Workload::mixes`].
    pub mix: usize,
    /// LLC replacement policy.
    pub policy: PolicyKind,
    /// Predictor organisation.
    pub org: DrishtiConfig,
    /// Whether `org` is the baseline organisation.
    pub baseline: bool,
}

/// What one cell of a batch or probe produced.
#[derive(Debug)]
pub struct CellRun {
    /// The cell's label.
    pub label: String,
    /// The cell's counters, or why it failed (a panic or a failed check).
    pub result: Result<CellStats, String>,
    /// The captured LLC stream (measurement window; empty unless asked).
    pub stream: Vec<Access>,
    /// Seconds spent inside `Engine::run_to_warm`/`run_steps`/`run` (probe
    /// and engine-driven batches; 0 for sweep cells).
    pub engine_s: f64,
    /// LLC resident lines ÷ capacity once warm-up ended (probe only).
    pub warm_occupancy: f64,
    /// `(save_s, restore_s, bytes)` of the cell's checkpoint round trip.
    pub ckpt: Option<(f64, f64, u64)>,
}

/// Sweep-side counters of a `paper16-sweep` batch.
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepCounters {
    /// Warm-checkpoint `(hits, misses)`.
    pub warm: (u64, u64),
    /// Trace-cache `(hits, misses)`.
    pub trace_cache: (u64, u64),
    /// Journal append failures.
    pub journal_write_failures: u64,
}

/// One execution of every cell of a workload.
#[derive(Debug)]
pub struct Batch {
    /// Host seconds for the whole batch.
    pub wall: f64,
    /// Trace records simulated (warm-up plus measured, all cores, all cells).
    pub records: u64,
    /// Per-cell outcomes, in cell order.
    pub cells: Vec<CellRun>,
    /// Sweep counters (`paper16-sweep` only).
    pub sweep: Option<SweepCounters>,
}

/// Host timing of one set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTiming {
    /// Trace generation, `.drtr` writing and engine construction.
    pub total_s: f64,
    /// Trace generation alone.
    pub gen_s: f64,
    /// Records generated.
    pub gen_records: u64,
    /// Mean seconds per `Engine::new`.
    pub construct_s: f64,
}

/// A workload instance: its system, mixes, cells and trace sources.
#[derive(Debug)]
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    /// The simulated system.
    pub sys: SystemConfig,
    /// The mixes drawn from the seed.
    pub mixes: Vec<Mix>,
    /// The cells of one batch.
    pub cells: Vec<CellSpec>,
    /// Measured records per core.
    pub accesses: u64,
    /// Warm-up records per core.
    pub warmup: u64,
    /// In-RAM traces (filled by [`Workload::setup`]).
    pub cache: Arc<TraceCache>,
    /// Per-core `.drtr` files (`stream4-lru`).
    pub drtr: Vec<PathBuf>,
    /// Scratch directory for trace files, checkpoints and journals.
    pub work: PathBuf,
}

/// `count` heterogeneous mixes of `cores` cores each, drawn from `seed`.
///
/// The slots cycle through `pool` (every benchmark once before any
/// repeats), and the seed shuffles them over cores and mixes and picks
/// each slot's sim-point seed. Every seed thus runs the same multiset of
/// benchmarks in a different arrangement, which keeps the host cost and
/// the simulated IPC comparable from seed to seed; an unstratified draw
/// with replacement made both swing by 15-35% with the mix composition.
pub fn shuffled_mixes(pool: &[Benchmark], count: usize, cores: usize, seed: u64) -> Vec<Mix> {
    let slots = count * cores;
    let mut benches: Vec<Benchmark> = (0..slots).map(|i| pool[i % pool.len()]).collect();
    let mut rng = Rng::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x0dd5_eed5);
    for i in (1..slots).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        benches.swap(i, j);
    }
    benches
        .chunks(cores)
        .enumerate()
        .map(|(m, chunk)| Mix {
            name: format!("s{seed}-{}", (b'a' + m as u8) as char),
            benchmarks: chunk.to_vec(),
            seeds: (0..cores)
                .map(|c| seed * 1000 + (m * cores + c) as u64)
                .collect(),
        })
        .collect()
}

fn cell(mixes: &[Mix], mix: usize, policy: PolicyKind, org: DrishtiConfig) -> CellSpec {
    let org_label = org.label();
    CellSpec {
        label: format!("{}/{}/{}", mixes[mix].name, policy.label(), org_label),
        mix,
        policy,
        baseline: org_label == "baseline",
        org,
    }
}

impl Workload {
    /// Build the workload for `seed`, with scratch files under `work`.
    pub fn new(kind: Kind, seed: u64, work: PathBuf) -> Workload {
        let (sys, mixes, accesses) = match kind {
            Kind::Paper16 => (
                SystemConfig::paper_baseline(16),
                shuffled_mixes(&Benchmark::spec_and_gap(), 2, 16, seed),
                16_000,
            ),
            Kind::Stream4 => (
                SystemConfig::paper_baseline(4),
                shuffled_mixes(
                    &[Benchmark::Deepsjeng, Benchmark::Cvp1, Benchmark::GoogleWs],
                    1,
                    4,
                    seed,
                ),
                60_000,
            ),
            Kind::Package64 => (
                SystemConfig::with_chips(64, 4),
                shuffled_mixes(&Benchmark::spec_and_gap(), 1, 64, seed),
                6_000,
            ),
        };
        let cores = sys.cores;
        let mut cells = Vec::new();
        match kind {
            Kind::Paper16 => {
                for m in 0..mixes.len() {
                    for policy in [PolicyKind::Hawkeye, PolicyKind::Mockingjay] {
                        for org in [
                            DrishtiConfig::baseline(cores),
                            DrishtiConfig::drishti(cores),
                        ] {
                            cells.push(cell(&mixes, m, policy, org));
                        }
                    }
                }
            }
            Kind::Stream4 => cells.push(cell(
                &mixes,
                0,
                PolicyKind::Lru,
                DrishtiConfig::baseline(cores),
            )),
            Kind::Package64 => {
                for org in [
                    DrishtiConfig::baseline(cores).with_chips(4),
                    DrishtiConfig::drishti(cores).with_chips(4),
                ] {
                    cells.push(cell(&mixes, 0, PolicyKind::Mockingjay, org));
                }
            }
        }
        Workload {
            kind,
            sys,
            mixes,
            cells,
            accesses,
            warmup: accesses / 4,
            cache: Arc::new(TraceCache::new()),
            drtr: Vec::new(),
            work,
        }
    }

    /// Records each core pulls per cell (warm-up plus measured).
    pub fn len(&self) -> u64 {
        self.warmup + self.accesses
    }

    /// Records one batch simulates.
    pub fn batch_records(&self) -> u64 {
        self.cells.len() as u64 * self.sys.cores as u64 * self.len()
    }

    fn rc(&self, capture: bool) -> RunConfig {
        RunConfig {
            system: self.sys.clone(),
            accesses_per_core: self.accesses,
            warmup_accesses: self.warmup,
            record_llc_stream: capture,
            sampling: SamplingSpec::off(),
            telemetry: TelemetrySpec::off(),
            engine: Default::default(),
        }
    }

    /// One set-up: generate every trace into a fresh cache, write the
    /// `.drtr` files (`stream4-lru`), and construct each cell's engine
    /// once. The cache of the last set-up serves the timed batches.
    pub fn setup(&mut self, spans: &mut Spans) -> Result<SetupTiming, String> {
        let t_total = Instant::now();
        // Replacing the cache first frees the previous set-up's traces, so
        // set-ups interleaved with batches never hold two copies and the
        // peak resident set does not depend on when they ran.
        self.cache = Arc::new(TraceCache::new());
        let len = self.len();
        let mut gen_records = 0;
        let t_gen = Instant::now();
        spans.span("trace", "generate traces", |_| {
            for mix in &self.mixes {
                gen_records += mix.cores() as u64 * len;
                drop(self.cache.workloads_for(mix, len));
            }
        });
        let gen_s = t_gen.elapsed().as_secs_f64();
        if self.kind == Kind::Stream4 {
            let mix = &self.mixes[0];
            let mut paths = Vec::new();
            spans.span("trace", "write .drtr", |_| -> Result<(), String> {
                for (c, (&b, &s)) in mix.benchmarks.iter().zip(&mix.seeds).enumerate() {
                    let path = self.work.join(format!("core{c}.drtr"));
                    let records = self.cache.get(b, s, len);
                    write_drtr(&path, b.label(), s, &records).map_err(|e| e.to_string())?;
                    paths.push(path);
                }
                Ok(())
            })?;
            self.drtr = paths;
        }
        let t_construct = Instant::now();
        for cell in &self.cells {
            let engine = spans.span("engine", "Engine::new", |_| self.engine(cell, false))?;
            drop(engine);
        }
        let construct_s = t_construct.elapsed().as_secs_f64() / self.cells.len() as f64;
        Ok(SetupTiming {
            total_s: t_total.elapsed().as_secs_f64(),
            gen_s,
            gen_records,
            construct_s,
        })
    }

    /// A fresh engine for `cell`, its cores fed from the trace cache or,
    /// for `stream4-lru`, from the `.drtr` files through `StreamingTrace`.
    pub fn engine(&self, cell: &CellSpec, capture: bool) -> Result<Engine, String> {
        let workloads: Vec<Option<Box<dyn WorkloadGen>>> = if self.kind == Kind::Stream4 {
            self.drtr
                .iter()
                .map(|p| {
                    StreamingTrace::open(p)
                        .map(|t| Some(Box::new(t) as Box<dyn WorkloadGen>))
                        .map_err(|e| format!("{}: {e}", p.display()))
                })
                .collect::<Result<_, _>>()?
        } else {
            self.cache
                .workloads_for(&self.mixes[cell.mix], self.len())
                .into_iter()
                .map(|w| Some(Box::new(w) as Box<dyn WorkloadGen>))
                .collect()
        };
        let policy = cell.policy.build(&self.sys.llc, cell.org.clone());
        Ok(Engine::new(
            self.sys.clone(),
            workloads,
            policy,
            self.accesses,
            self.warmup,
            capture,
        ))
    }

    /// Run every cell once. `capture` records each cell's LLC stream.
    pub fn batch(&self, spans: &mut Spans, capture: bool, workers: usize) -> Batch {
        let start = Instant::now();
        let (cells, sweep) = match self.kind {
            Kind::Paper16 => {
                let (cells, counters) = self.sweep_batch(spans, capture, workers);
                (cells, Some(counters))
            }
            Kind::Stream4 => (
                self.cells
                    .iter()
                    .map(|c| self.plain_cell(spans, c, capture))
                    .collect(),
                None,
            ),
            Kind::Package64 => (
                self.cells
                    .iter()
                    .map(|c| self.resume_cell(spans, c, capture))
                    .collect(),
                None,
            ),
        };
        Batch {
            wall: start.elapsed().as_secs_f64(),
            records: self.batch_records(),
            cells,
            sweep,
        }
    }

    fn sweep_batch(
        &self,
        spans: &mut Spans,
        capture: bool,
        workers: usize,
    ) -> (Vec<CellRun>, SweepCounters) {
        let rc = self.rc(capture);
        let jobs: Vec<SweepJob> = self
            .cells
            .iter()
            .enumerate()
            .map(|(id, c)| SweepJob {
                id,
                label: c.label.clone(),
                seed: SweepJob::derive_seed(id),
                rc: rc.clone(),
                kind: JobKind::Run {
                    mix: self.mixes[c.mix].clone(),
                    policy: c.policy,
                    org: c.org.clone(),
                    org_label: c.org.label(),
                },
            })
            .collect();
        let journal = self.work.join("paper16.journal");
        let _ = std::fs::remove_file(&journal);
        let outcome = spans.span("sweep", "run_sweep_resumable", |_| {
            run_sweep_resumable(&jobs, workers, &self.cache, &journal, false)
        });
        let _ = std::fs::remove_file(&journal);
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                let cells = self
                    .cells
                    .iter()
                    .map(|c| failed_cell(&c.label, format!("sweep journal: {e}")))
                    .collect();
                return (cells, SweepCounters::default());
            }
        };
        let counters = SweepCounters {
            warm: outcome.warm_stats,
            trace_cache: outcome.cache_stats,
            journal_write_failures: outcome.ckpt_write_failures,
        };
        let cells = outcome
            .outputs
            .into_iter()
            .zip(&self.cells)
            .map(|(out, c)| match out {
                Ok(JobOutput::Run(mut r)) => {
                    let stats = CellStats::from_run(&r);
                    CellRun {
                        label: c.label.clone(),
                        result: stats.check(self.accesses).map(|()| stats),
                        stream: std::mem::take(&mut r.llc_stream),
                        engine_s: 0.0,
                        warm_occupancy: 0.0,
                        ckpt: None,
                    }
                }
                Ok(other) => failed_cell(&c.label, format!("unexpected sweep output {other:?}")),
                Err(f) => failed_cell(&c.label, format!("panicked: {}", f.message)),
            })
            .collect();
        (cells, counters)
    }

    /// One uninterrupted engine run of `cell` (`stream4-lru`).
    fn plain_cell(&self, spans: &mut Spans, cell: &CellSpec, capture: bool) -> CellRun {
        guarded(&cell.label, || {
            let mut engine = spans.span("engine", "Engine::new", |_| self.engine(cell, capture))?;
            let t = Instant::now();
            spans.span("engine", "Engine::run", |_| engine.run());
            let engine_s = t.elapsed().as_secs_f64();
            Ok(self.finish(cell, &mut engine, engine_s, 0.0, None))
        })
    }

    /// The crash-resume path (`package64-resume`): run to warm, save a
    /// checkpoint file, restore it into a newly built engine, finish.
    fn resume_cell(&self, spans: &mut Spans, cell: &CellSpec, capture: bool) -> CellRun {
        guarded(&cell.label, || {
            let path = self.work.join("cell.drck");
            let mut engine = spans.span("engine", "Engine::new", |_| self.engine(cell, capture))?;
            let t = Instant::now();
            spans.span("engine", "Engine::run_to_warm", |_| engine.run_to_warm());
            let mut engine_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            spans
                .span("ckpt", "ckpt::save_engine", |_| {
                    ckpt::save_engine(&engine, &path)
                })
                .map_err(|e| format!("save: {e}"))?;
            let save_s = t.elapsed().as_secs_f64();
            let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
            drop(engine);
            let mut engine = spans.span("engine", "Engine::new", |_| self.engine(cell, capture))?;
            let t = Instant::now();
            spans
                .span("ckpt", "ckpt::restore_engine", |_| {
                    ckpt::restore_engine(&mut engine, &path)
                })
                .map_err(|e| format!("restore: {e}"))?;
            let restore_s = t.elapsed().as_secs_f64();
            let _ = std::fs::remove_file(&path);
            let t = Instant::now();
            spans.span("engine", "Engine::run", |_| engine.run());
            engine_s += t.elapsed().as_secs_f64();
            Ok(self.finish(
                cell,
                &mut engine,
                engine_s,
                0.0,
                Some((save_s, restore_s, bytes)),
            ))
        })
    }

    /// An uninterrupted, single-threaded run of `cell` that records the
    /// LLC resident share at the end of warm-up and, at that point, times
    /// a checkpoint round trip into a second engine (which is then
    /// dropped). With `capture` the LLC stream is kept for the replays.
    pub fn probe(&self, spans: &mut Spans, cell: &CellSpec, capture: bool) -> CellRun {
        guarded(&cell.label, || {
            let mut engine = spans.span("engine", "Engine::new", |_| self.engine(cell, capture))?;
            let t = Instant::now();
            spans.span("engine", "Engine::run_to_warm", |_| engine.run_to_warm());
            let mut engine_s = t.elapsed().as_secs_f64();
            let g = self.sys.llc;
            let occupancy = engine.llc().resident_lines() as f64
                / (g.slices * g.sets_per_slice * g.ways) as f64;
            let mut ckpt_timing = None;
            if capture {
                let path = self.work.join("probe.drck");
                let t = Instant::now();
                spans
                    .span("ckpt", "ckpt::save_engine", |_| {
                        ckpt::save_engine(&engine, &path)
                    })
                    .map_err(|e| format!("save: {e}"))?;
                let save_s = t.elapsed().as_secs_f64();
                let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
                let mut copy = self.engine(cell, capture)?;
                let t = Instant::now();
                spans
                    .span("ckpt", "ckpt::restore_engine", |_| {
                        ckpt::restore_engine(&mut copy, &path)
                    })
                    .map_err(|e| format!("restore: {e}"))?;
                let restore_s = t.elapsed().as_secs_f64();
                drop(copy);
                let _ = std::fs::remove_file(&path);
                ckpt_timing = Some((save_s, restore_s, bytes));
            }
            let t = Instant::now();
            spans.span("engine", "Engine::run", |_| engine.run());
            engine_s += t.elapsed().as_secs_f64();
            Ok(self.finish(cell, &mut engine, engine_s, occupancy, ckpt_timing))
        })
    }

    fn finish(
        &self,
        cell: &CellSpec,
        engine: &mut Engine,
        engine_s: f64,
        warm_occupancy: f64,
        ckpt: Option<(f64, f64, u64)>,
    ) -> CellRun {
        let stats = CellStats::from_engine(engine);
        CellRun {
            label: cell.label.clone(),
            result: stats.check(self.accesses).map(|()| stats),
            stream: std::mem::take(&mut engine.llc_stream),
            engine_s,
            warm_occupancy,
            ckpt,
        }
    }
}

fn failed_cell(label: &str, why: String) -> CellRun {
    CellRun {
        label: label.to_string(),
        result: Err(why),
        stream: Vec::new(),
        engine_s: 0.0,
        warm_occupancy: 0.0,
        ckpt: None,
    }
}

/// Run a cell body, turning an error or a panic into a failed cell.
fn guarded(label: &str, body: impl FnOnce() -> Result<CellRun, String>) -> CellRun {
    match catch_unwind(AssertUnwindSafe(body)) {
        Ok(Ok(run)) => run,
        Ok(Err(e)) => failed_cell(label, e),
        Err(panic) => {
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic".to_string());
            failed_cell(label, format!("panicked: {msg}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_and_orgs_per_workload() {
        let w = Workload::new(Kind::Paper16, 3, PathBuf::from("unused"));
        assert_eq!(w.cells.len(), 8);
        assert_eq!(w.cells.iter().filter(|c| c.baseline).count(), 4);
        assert!(w.mixes.iter().all(|m| m.cores() == 16));
        let w = Workload::new(Kind::Stream4, 3, PathBuf::from("unused"));
        assert_eq!(w.cells.len(), 1);
        assert_eq!(w.mixes[0].cores(), 4);
        assert!(w.mixes[0].benchmarks.iter().all(|b| matches!(
            b,
            Benchmark::Deepsjeng | Benchmark::Cvp1 | Benchmark::GoogleWs
        )));
        let w = Workload::new(Kind::Package64, 3, PathBuf::from("unused"));
        assert_eq!(w.cells.len(), 2);
        assert_eq!(w.cells[1].org.chips, 4);
        assert!(!w.cells[1].baseline);
    }

    #[test]
    fn shuffled_mixes_keep_the_multiset() {
        let pool = Benchmark::spec_and_gap();
        let count = |mixes: &[Mix]| {
            let mut all: Vec<&str> = mixes
                .iter()
                .flat_map(|m| m.benchmarks.iter().map(|b| b.label()))
                .collect();
            all.sort_unstable();
            all
        };
        let a = shuffled_mixes(&pool, 2, 16, 1);
        let b = shuffled_mixes(&pool, 2, 16, 2);
        assert_eq!(count(&a), count(&b));
        assert_ne!(a[0].benchmarks, b[0].benchmarks);
        for b in &pool {
            assert!(a.iter().any(|m| m.benchmarks.contains(b)), "{b:?} missing");
        }
    }

    #[test]
    fn same_seed_same_inputs() {
        for name in ["paper16-sweep", "stream4-lru", "package64-resume"] {
            let kind = Kind::parse(name).unwrap();
            let a = Workload::new(kind, 11, PathBuf::from("unused"));
            let b = Workload::new(kind, 11, PathBuf::from("unused"));
            let c = Workload::new(kind, 12, PathBuf::from("unused"));
            assert_eq!(a.mixes, b.mixes);
            assert_ne!(a.mixes, c.mixes);
        }
    }
}
