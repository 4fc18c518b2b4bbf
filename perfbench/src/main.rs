//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <paper16-sweep|stream4-lru|package64-resume>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run sets the workload up several times (median reported as
//! `setup_s`), then repeats the workload's fixed batch of cells for
//! `--seconds`, checking every cell's outputs and that every batch
//! reproduces the first batch's digests. A host-speed calibration kernel
//! runs between batches; throughput is reported per calibration
//! (`records_per_calib`, see [`calib`]). `--trace 0` reports the
//! end-to-end metrics; `--trace 1` alternates untraced and traced
//! batches, replays the captured streams into each layer alone and
//! reports the per-layer metrics, writing the spans as Chrome trace-event
//! JSON. The last line of standard output is one JSON object.

mod calib;
mod cell;
mod layers;
mod spans;
mod workloads;

use calib::Calibration;
use cell::CellStats;
use drishti_core::config::DrishtiConfig;
use spans::Spans;
use std::path::{Path, PathBuf};
use std::time::Instant;
use workloads::{Batch, CellRun, Kind, SetupTiming, Workload, SWEEP_WORKERS};

const USAGE: &str = "usage: perfbench --workload <paper16-sweep|stream4-lru|package64-resume> \
--seed <n> --seconds <s> --trace <0|1>";

/// Set-ups per run, spread over the timed window; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Fewest untraced batches a run times, however long they take.
const MIN_BATCHES: usize = 3;

#[derive(Debug)]
struct Args {
    workload: Kind,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", args[i]))?;
        match args[i].as_str() {
            "--workload" => {
                workload = Some((
                    Kind::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                    value.clone(),
                ))
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    let (workload, name) = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        name,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
#[derive(Debug, Clone)]
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// Everything a run reports.
#[derive(Debug, Default)]
struct Report {
    attempted: u64,
    failed: u64,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    /// Human-readable lines printed before the JSON line.
    lines: Vec<String>,
}

impl Report {
    fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric { name, value, unit });
    }

    fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric { name, value, unit });
    }

    /// Count a batch's cells, failing any that errored or whose digest
    /// differs from the reference run of the same cell.
    fn account(&mut self, cells: &[CellRun], reference: &mut Vec<Option<u64>>, what: &str) {
        if reference.is_empty() {
            reference.resize(cells.len(), None);
        }
        for (i, c) in cells.iter().enumerate() {
            self.attempted += 1;
            match &c.result {
                Err(e) => {
                    self.failed += 1;
                    self.lines
                        .push(format!("FAIL {what} cell {}: {e}", c.label));
                }
                Ok(stats) => {
                    let d = stats.digest();
                    match reference[i] {
                        None => {
                            reference[i] = Some(d);
                            self.lines
                                .push(format!("cell {} digest {d:016x} ok", c.label));
                        }
                        Some(r) if r != d => {
                            self.failed += 1;
                            self.lines.push(format!(
                                "FAIL {what} cell {}: digest {d:016x} differs from {r:016x}",
                                c.label
                            ));
                        }
                        Some(_) => {}
                    }
                }
            }
        }
    }

    fn to_json(&self, trace: bool) -> String {
        let metrics = if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Records and host time summed over batches.
#[derive(Debug, Default)]
struct Throughput {
    batches: usize,
    records: u64,
    wall: f64,
    min_rate: f64,
    max_rate: f64,
}

impl Throughput {
    fn add(&mut self, b: &Batch) {
        let rate = b.records as f64 / b.wall;
        self.min_rate = if self.batches == 0 {
            rate
        } else {
            self.min_rate.min(rate)
        };
        self.max_rate = self.max_rate.max(rate);
        self.batches += 1;
        self.records += b.records;
        self.wall += b.wall;
    }

    /// Records per host second over every added batch.
    fn rate(&self) -> f64 {
        ratio(self.records as f64, self.wall)
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where the
/// kernel does not report it.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build"));
    let work = target
        .join("perfbench-work")
        .join(format!("{}-{}", args.name, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("error: cannot create {}: {e}", work.display());
        std::process::exit(1);
    }
    let result = run(&args, &work, &target);
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(report) => {
            for line in &report.lines {
                println!("{line}");
            }
            println!("{}", report.to_json(args.trace));
            if report.failed > 0 {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args, work: &Path, target: &Path) -> Result<Report, String> {
    let mut spans = Spans::new(args.trace);
    let mut w = Workload::new(args.workload, args.seed, work.to_path_buf());
    let mut report = Report::default();
    report.lines.push(format!(
        "workload {} seed {}: {} cells x {} cores, {} + {} records per core, mixes {}",
        args.name,
        args.seed,
        w.cells.len(),
        w.sys.cores,
        w.warmup,
        w.accesses,
        w.mixes
            .iter()
            .map(|m| m.name.as_str())
            .collect::<Vec<_>>()
            .join(",")
    ));

    // Timed phase: whole batches until the budget is spent. The traced run
    // alternates untraced and traced (capturing, span-recording) batches.
    // Host speed drifts in phases of seconds, so the set-ups are spread
    // evenly over the window instead of run back to back, the throughput
    // is the records of all untraced batches over their time, and the
    // calibration kernel runs before every batch and once after the last,
    // for a share of the previous batch's time.
    let mut setups: Vec<SetupTiming> = vec![w.setup(&mut spans)?];
    let mut reference: Vec<Option<u64>> = Vec::new();
    let mut first: Option<Vec<CellStats>> = None;
    let (mut untraced, mut traced_sum) = (Throughput::default(), Throughput::default());
    let mut last_sweep = None;
    let mut journal_failures = 0;
    let mut calib = Calibration::new();
    let mut last_wall = 0.0;
    let start = Instant::now();
    loop {
        let traced = args.trace && untraced.batches > traced_sum.batches;
        calib.measure_for(calib::SHARE * last_wall);
        let batch: Batch = w.batch(&mut spans, traced, SWEEP_WORKERS);
        last_wall = batch.wall;
        report.account(&batch.cells, &mut reference, "timed");
        if traced {
            traced_sum.add(&batch);
        } else {
            untraced.add(&batch);
            if let Some(s) = batch.sweep {
                last_sweep = Some(s);
            }
        }
        if let Some(s) = batch.sweep {
            journal_failures += s.journal_write_failures;
        }
        if first.is_none() && batch.cells.iter().all(|c| c.result.is_ok()) {
            first = Some(
                batch
                    .cells
                    .into_iter()
                    .filter_map(|c| c.result.ok())
                    .collect(),
            );
        }
        let elapsed = start.elapsed().as_secs_f64();
        if setups.len() < SETUP_REPS
            && elapsed >= args.seconds * setups.len() as f64 / SETUP_REPS as f64
        {
            setups.push(w.setup(&mut spans)?);
        }
        let enough = untraced.batches >= MIN_BATCHES && (!args.trace || traced_sum.batches > 0);
        if enough && elapsed >= args.seconds {
            break;
        }
    }
    calib.measure_for(calib::SHARE * last_wall);
    let records_per_s = untraced.rate();
    let records_per_calib = records_per_s * calib.mean_s();
    report.lines.push(format!(
        "timed: {} untraced batches of {} records in {:.2} s, records/s min {:.0} mean {records_per_s:.0} max {:.0}; {} set-ups",
        untraced.batches,
        w.batch_records(),
        untraced.wall,
        untraced.min_rate,
        untraced.max_rate,
        setups.len()
    ));
    report.lines.push(format!(
        "calibration: {} runs, mean {:.3} ms",
        calib.samples(),
        calib.mean_s() * 1e3
    ));

    // Probes: uninterrupted single-threaded runs of every cell. They are
    // the crash-resume reference for package64-resume and, in the traced
    // run, the source of the captured streams.
    let probes: Vec<CellRun> = if args.trace || w.kind == Kind::Package64 {
        w.cells
            .iter()
            .map(|c| w.probe(&mut spans, c, args.trace))
            .collect()
    } else {
        Vec::new()
    };
    report.account(&probes, &mut reference, "uninterrupted");

    let cells = first.unwrap_or_default();
    let sim_ipc = ratio(
        cells.iter().map(CellStats::total_ipc).sum(),
        cells.len() as f64,
    );
    let speedup = drishti_speedup(&w, &cells);

    report.e2e("records_per_calib", records_per_calib, "records/calib");
    report.e2e(
        "setup_s",
        median(setups.iter().map(|s| s.total_s).collect()),
        "s",
    );
    report.e2e("peak_rss_mb", peak_rss_mib(), "MiB");
    report.e2e("sim_ipc", sim_ipc, "IPC");

    if args.trace {
        let pool_wall_1 = if w.kind == Kind::Paper16 {
            let b = w.batch(&mut spans, false, 1);
            report.account(&b.cells, &mut reference, "1-worker");
            b.wall
        } else {
            0.0
        };
        let layers = LayerInputs {
            setups: &setups,
            probes: &probes,
            records_per_s,
            calib_s: calib.mean_s(),
            tracing_overhead: 1.0 - ratio(traced_sum.rate(), records_per_s),
            pool_efficiency: ratio(
                pool_wall_1,
                SWEEP_WORKERS as f64 * untraced.wall / untraced.batches as f64,
            ),
            sweep: last_sweep,
            journal_failures,
            drishti_speedup: speedup.unwrap_or(0.0),
        };
        if let Err(e) = per_layer(&mut report, &w, &mut spans, &layers) {
            report.attempted += 1;
            report.failed += 1;
            report.lines.push(format!("FAIL per-layer replay: {e}"));
        }
        let path = target
            .join("perfbench-traces")
            .join(format!("{}-seed{}.json", args.name, args.seed));
        spans
            .write(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        let own: Vec<String> = spans
            .self_seconds()
            .iter()
            .map(|(layer, s)| format!("{layer} {s:.3}"))
            .collect();
        report
            .lines
            .push(format!("span self time (s): {}", own.join(", ")));
        report
            .lines
            .push(format!("trace events: {}", path.display()));
    }

    let fail_ratio = ratio(report.failed as f64, report.attempted as f64);
    let mut table: Vec<String> = report
        .end_to_end
        .iter()
        .map(|m| format!("  {:<22} {:>16.6} {}", m.name, m.value, m.unit))
        .collect();
    table.push(format!(
        "  {:<22} {:>16.6} records/s (not host-calibrated)",
        "records_per_s", records_per_s
    ));
    table.push(format!(
        "  {:<22} {:>16.6} ratio ({} of {} cells failed)",
        "fail_ratio", fail_ratio, report.failed, report.attempted
    ));
    table.push(match speedup {
        Some(s) => format!("  {:<22} {:>16.6} ratio", "drishti_speedup", s),
        None => format!(
            "  {:<22} {:>16} (only the baseline org runs)",
            "drishti_speedup", "n/a"
        ),
    });
    report.lines.push("end-to-end:".into());
    report.lines.extend(table);
    if args.trace {
        report.lines.push("per-layer:".into());
        let rows: Vec<String> = report
            .per_layer
            .iter()
            .map(|m| format!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit))
            .collect();
        report.lines.extend(rows);
    }
    Ok(report)
}

/// Geometric mean over `(mix, policy)` pairs of the drishti
/// organisation's total IPC over the baseline's; `None` when the workload
/// runs only the baseline organisation.
fn drishti_speedup(w: &Workload, cells: &[CellStats]) -> Option<f64> {
    if cells.len() != w.cells.len() {
        return None;
    }
    let mut logs = Vec::new();
    for (i, d) in w.cells.iter().enumerate().filter(|(_, c)| !c.baseline) {
        let base = w
            .cells
            .iter()
            .position(|b| b.baseline && b.mix == d.mix && b.policy == d.policy)?;
        logs.push((cells[i].total_ipc() / cells[base].total_ipc()).ln());
    }
    if logs.is_empty() {
        None
    } else {
        Some((logs.iter().sum::<f64>() / logs.len() as f64).exp())
    }
}

/// What the per-layer pass needs from the rest of the traced run.
struct LayerInputs<'a> {
    setups: &'a [SetupTiming],
    probes: &'a [CellRun],
    records_per_s: f64,
    calib_s: f64,
    tracing_overhead: f64,
    pool_efficiency: f64,
    sweep: Option<workloads::SweepCounters>,
    journal_failures: u64,
    drishti_speedup: f64,
}

/// `org` spread over the workload's chips.
fn on_chips(w: &Workload, org: DrishtiConfig) -> DrishtiConfig {
    match w.sys.topology.chips {
        1 => org,
        chips => org.with_chips(chips),
    }
}

/// Replay the probes' captured streams into each layer alone and report
/// the per-layer metrics.
fn per_layer(
    report: &mut Report,
    w: &Workload,
    spans: &mut Spans,
    inp: &LayerInputs<'_>,
) -> Result<(), String> {
    if let Some(bad) = inp.probes.iter().find(|p| p.result.is_err()) {
        return Err(format!(
            "probe of {} failed ({}); per-layer metrics need every cell",
            bad.label,
            bad.result.as_ref().err().map_or("", String::as_str)
        ));
    }
    let probes: Vec<(&CellRun, &CellStats, &workloads::CellSpec)> = inp
        .probes
        .iter()
        .zip(&w.cells)
        .filter_map(|(p, spec)| p.result.as_ref().ok().map(|s| (p, s, spec)))
        .collect();
    let records = (probes.len() as u64 * w.sys.cores as u64 * w.len()) as f64;
    let len = w.len();

    // Trace layer: generation (from the set-ups), `.drtr` size on disk and
    // decode through `StreamingTrace`.
    let gen_ns = median(
        inp.setups
            .iter()
            .map(|s| s.gen_s * 1e9 / s.gen_records as f64)
            .collect(),
    );
    let mix = &w.mixes[0];
    let (mut store_bytes, mut decode_s, mut decoded) = (0u64, 0.0, 0u64);
    for (c, (&b, &s)) in mix.benchmarks.iter().zip(&mix.seeds).enumerate() {
        let records = w.cache.get(b, s, len);
        let path = w.work.join(format!("decode{c}.drtr"));
        store_bytes +=
            layers::write_drtr(&path, b.label(), s, &records).map_err(|e| e.to_string())?;
        let (secs, sum) = spans
            .span("trace", "StreamingTrace decode", |_| {
                layers::decode_drtr(&path, len)
            })
            .map_err(|e| e.to_string())?;
        let _ = std::fs::remove_file(&path);
        if sum != layers::records_checksum(&records) {
            report.attempted += 1;
            report.failed += 1;
            report.lines.push(format!(
                "FAIL trace decode of core {c}: stream differs from the generated one"
            ));
        }
        decode_s += secs;
        decoded += len;
    }
    let decode_ns = decode_s * 1e9 / decoded as f64;

    // L1/L2 and prefetchers over every distinct core stream.
    let mut cache = layers::CacheReplay::default();
    for m in &w.mixes {
        for (&b, &s) in m.benchmarks.iter().zip(&m.seeds) {
            let records = w.cache.get(b, s, len);
            let r = spans.span("cache", "L1/L2 + prefetch replay", |_| {
                layers::replay_private(&w.sys, &records)
            });
            cache.add(&r);
        }
    }
    let cache_ns = cache.secs * 1e9 / cache.records as f64;

    // LLC (baseline organisation), fabric (drishti minus baseline on the
    // same stream), NoC and DRAM replays, plus the cells' exact op counts.
    let (mut llc_s, mut llc_n) = (0.0, 0u64);
    let (mut fabric_extra_s, mut fabric_n, mut fabric_weight) = (0.0, 0u64, 0u64);
    let (mut noc_s, mut noc_n) = (0.0, 0u64);
    let (mut dram_s, mut dram_n) = (0.0, 0u64);
    let mut occupancy = 0.0;
    let drishti_cells = w.cells.iter().any(|c| !c.baseline);
    for (probe, stats, spec) in &probes {
        let span_cycles = stats.per_core.iter().map(|c| c.cycles).max().unwrap_or(0);
        let stream = &probe.stream;
        let base = spans.span("llc", "SlicedLlc replay", |_| {
            layers::replay_llc(
                &w.sys,
                spec.policy,
                on_chips(w, DrishtiConfig::baseline(w.sys.cores)),
                stream,
                span_cycles,
            )
        })?;
        llc_s += base.secs;
        llc_n += base.accesses;
        if !spec.baseline || !drishti_cells {
            let org = if spec.baseline {
                on_chips(w, DrishtiConfig::drishti(w.sys.cores))
            } else {
                spec.org.clone()
            };
            let with_fabric = spans.span("fabric", "SlicedLlc replay, drishti org", |_| {
                layers::replay_llc(&w.sys, spec.policy, org, stream, span_cycles)
            })?;
            fabric_extra_s += with_fabric.secs - base.secs;
            fabric_n += with_fabric.accesses;
            if !spec.baseline {
                fabric_weight += stats.llc.total_accesses();
            }
        }
        let (secs, n) = spans.span("noc", "ChipTopology replay", |_| {
            layers::replay_noc(&w.sys, stream, &base.slices, span_cycles)
        });
        noc_s += secs;
        noc_n += n;
        dram_s += spans.span("dram", "Dram replay", |_| {
            layers::replay_dram(&w.sys, &base.dram)
        });
        dram_n += base.dram.len() as u64;
        occupancy += probe.warm_occupancy;
    }
    let sum =
        |f: &dyn Fn(&CellStats) -> u64| probes.iter().map(|(_, s, _)| f(s)).sum::<u64>() as f64;
    let llc_acc = sum(&|s| s.llc.total_accesses());
    let llc_ns = ratio(llc_s * 1e9, llc_n as f64);
    let fabric_ns = ratio(fabric_extra_s * 1e9, fabric_n as f64);
    let noc_ns = ratio(noc_s * 1e9, noc_n as f64);
    let dram_ns = ratio(dram_s * 1e9, dram_n as f64);
    let dram_reqs = sum(&|s| s.dram.reads + s.dram.writes);
    let mesh_msgs = sum(&|s| s.mesh.messages);
    let fabric_msgs = sum(&|s| s.fabric.messages);

    let engine_s: f64 = probes.iter().map(|(p, _, _)| p.engine_s).sum();
    let ns_per_step = engine_s * 1e9 / records;
    let decode_per_step = if w.kind == Kind::Stream4 {
        decode_ns
    } else {
        0.0
    };
    let attributed = decode_per_step
        + cache_ns
        + llc_ns * llc_acc / records
        + fabric_ns * fabric_weight as f64 / records
        + noc_ns * 2.0 * llc_acc / records
        + dram_ns * dram_reqs / records;

    let ckpts: Vec<(f64, f64, u64)> = probes.iter().filter_map(|(p, _, _)| p.ckpt).collect();
    let sweep = inp.sweep.unwrap_or_default();
    let hit_share = |(h, m): (u64, u64)| ratio(h as f64, (h + m) as f64);

    report.layer("trace.gen_ns_per_record", gen_ns, "ns/record");
    report.layer("trace.decode_ns_per_record", decode_ns, "ns/record");
    report.layer(
        "trace.store_bytes_per_record",
        store_bytes as f64 / decoded as f64,
        "B/record",
    );
    report.layer("cache.ns_per_record", cache_ns, "ns/record");
    report.layer(
        "cache.l1_hit_ratio",
        ratio(cache.l1_hits as f64, cache.records as f64),
        "ratio",
    );
    report.layer(
        "cache.l2_hit_ratio",
        ratio(cache.l2_hits as f64, cache.l2_lookups as f64),
        "ratio",
    );
    report.layer(
        "prefetch.requests_per_record",
        ratio(cache.prefetch_requests as f64, cache.records as f64),
        "req/record",
    );
    report.layer("llc.ns_per_access", llc_ns, "ns/access");
    report.layer("llc.accesses_per_record", llc_acc / records, "acc/record");
    report.layer(
        "llc.prefetch_share",
        ratio(sum(&|s| s.llc.prefetch_accesses), llc_acc),
        "ratio",
    );
    report.layer(
        "llc.hit_ratio",
        1.0 - ratio(sum(&|s| s.llc.total_misses()), llc_acc),
        "ratio",
    );
    report.layer(
        "llc.demand_mpki",
        ratio(
            sum(&|s| s.per_core.iter().map(|c| c.llc_misses).sum()) * 1000.0,
            sum(&|s| s.instructions()),
        ),
        "miss/kinstr",
    );
    report.layer(
        "llc.warm_occupancy",
        occupancy / probes.len() as f64,
        "ratio",
    );
    report.layer("fabric.ns_per_access", fabric_ns, "ns/access");
    report.layer(
        "fabric.msgs_per_record",
        fabric_msgs / records,
        "msg/record",
    );
    report.layer(
        "fabric.mean_latency_cycles",
        ratio(sum(&|s| s.fabric.total_latency), fabric_msgs),
        "cycles",
    );
    report.layer("noc.ns_per_traverse", noc_ns, "ns/traverse");
    report.layer(
        "noc.flits_per_record",
        sum(&|s| s.mesh.flits) / records,
        "flit/record",
    );
    report.layer(
        "noc.hops_per_msg",
        ratio(sum(&|s| s.mesh.hop_traversals), mesh_msgs),
        "hop/msg",
    );
    report.layer(
        "noc.interchip_msgs_per_record",
        sum(&|s| s.interchip.messages) / records,
        "msg/record",
    );
    report.layer(
        "noc.contention_cycles_per_msg",
        ratio(sum(&|s| s.mesh.contention_cycles), mesh_msgs),
        "cycles/msg",
    );
    report.layer("dram.ns_per_request", dram_ns, "ns/request");
    report.layer(
        "dram.requests_per_record",
        dram_reqs / records,
        "req/record",
    );
    report.layer(
        "dram.mean_read_latency_cycles",
        ratio(sum(&|s| s.dram.total_read_latency), sum(&|s| s.dram.reads)),
        "cycles",
    );
    report.layer(
        "engine.construct_s",
        median(inp.setups.iter().map(|s| s.construct_s).collect()),
        "s",
    );
    report.layer("engine.ns_per_step", ns_per_step, "ns/step");
    report.layer(
        "engine.unattributed_share",
        1.0 - attributed / ns_per_step,
        "ratio",
    );
    report.layer(
        "ckpt.save_s",
        median(ckpts.iter().map(|c| c.0).collect()),
        "s",
    );
    report.layer(
        "ckpt.restore_s",
        median(ckpts.iter().map(|c| c.1).collect()),
        "s",
    );
    report.layer(
        "ckpt.bytes",
        ratio(ckpts.iter().map(|c| c.2 as f64).sum(), ckpts.len() as f64),
        "B",
    );
    report.layer("sweep.pool_efficiency", inp.pool_efficiency, "ratio");
    report.layer("sweep.warm_hit_ratio", hit_share(sweep.warm), "ratio");
    report.layer(
        "sweep.trace_cache_hit_ratio",
        hit_share(sweep.trace_cache),
        "ratio",
    );
    report.layer(
        "sweep.journal_write_failures",
        inp.journal_failures as f64,
        "count",
    );
    report.layer("host.records_per_s", inp.records_per_s, "records/s");
    report.layer("host.calib_s", inp.calib_s, "s");
    report.layer("bench.tracing_overhead", inp.tracing_overhead, "ratio");
    report.layer("sim.drishti_speedup", inp.drishti_speedup, "ratio");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "stream4-lru",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Kind::Stream4);
        assert_eq!(a.seed, 7);
        assert!(a.trace);
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload", "stream4-lru", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "stream4-lru", "--seed"]).is_err());
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut r = Report {
            attempted: 3,
            ..Default::default()
        };
        r.e2e("setup_s", 0.5, "s");
        let j = r.to_json(false);
        assert_eq!(
            j,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert_eq!(json_number(f64::NAN), "0.0");
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(Vec::new()), 0.0);
    }
}
