//! Per-layer replays: each layer is fed a stream captured from a cell and
//! timed alone, so its cost per operation can be set against the cell's
//! exact operation counts.

use drishti_core::config::DrishtiConfig;
use drishti_mem::access::{Access, AccessKind};
use drishti_mem::cache::PrivateCache;
use drishti_mem::dram::Dram;
use drishti_mem::llc::SlicedLlc;
use drishti_noc::mesh::{ADDRESS_PACKET_FLITS, DATA_PACKET_FLITS};
use drishti_noc::topology::ChipTopology;
use drishti_policies::factory::PolicyKind;
use drishti_sim::config::SystemConfig;
use drishti_trace::store::{write_trace, StoreError, StreamingTrace};
use drishti_trace::{TraceRecord, WorkloadGen};
use std::path::Path;
use std::time::Instant;

/// Write `records` to a `.drtr` file and return its size on disk in
/// bytes. `write_trace` returns the record count, not a byte count, so
/// the size is read back from the file system.
pub fn write_drtr(
    path: &Path,
    name: &str,
    seed: u64,
    records: &[TraceRecord],
) -> Result<u64, StoreError> {
    write_trace(path, name, seed, records)?;
    Ok(std::fs::metadata(path)?.len())
}

/// Decode `records` records of a `.drtr` file through [`StreamingTrace`]
/// (open-time validation included); returns seconds and an
/// order-sensitive checksum of the decoded stream.
pub fn decode_drtr(path: &Path, records: u64) -> Result<(f64, u64), StoreError> {
    let t = Instant::now();
    let mut trace = StreamingTrace::open(path)?;
    let sum = (0..records).fold(0, |sum, _| checksum_step(sum, &trace.next_record()));
    Ok((t.elapsed().as_secs_f64(), sum))
}

fn checksum_step(sum: u64, r: &TraceRecord) -> u64 {
    sum.rotate_left(5) ^ r.line ^ r.pc ^ u64::from(r.instr_gap) ^ u64::from(r.is_store)
}

/// Order-sensitive checksum of in-memory records (matches [`decode_drtr`]).
pub fn records_checksum(records: &[TraceRecord]) -> u64 {
    records.iter().fold(0, checksum_step)
}

/// Counts from replaying one core's records through L1, L2 and both
/// prefetchers.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheReplay {
    /// Host seconds.
    pub secs: f64,
    /// Records replayed.
    pub records: u64,
    /// Demand L1 hits.
    pub l1_hits: u64,
    /// Demand L2 lookups (L1 misses).
    pub l2_lookups: u64,
    /// Demand L2 hits.
    pub l2_hits: u64,
    /// Prefetch requests the two prefetchers produced.
    pub prefetch_requests: u64,
}

impl CacheReplay {
    /// Accumulate another core's replay.
    pub fn add(&mut self, o: &CacheReplay) {
        self.secs += o.secs;
        self.records += o.records;
        self.l1_hits += o.l1_hits;
        self.l2_lookups += o.l2_lookups;
        self.l2_hits += o.l2_hits;
        self.prefetch_requests += o.prefetch_requests;
    }
}

/// Replay one core's record stream through fresh private caches and
/// prefetchers, following the engine's order of operations (L1 probe and
/// training, then on a miss the L2 probe and training, fills with dirty
/// L1 victims written into L2, then the prefetches). Requests below L2
/// are not forwarded: the LLC, mesh and DRAM are replayed separately.
pub fn replay_private(sys: &SystemConfig, records: &[TraceRecord]) -> CacheReplay {
    let mut l1 = PrivateCache::new(sys.l1d);
    let mut l2 = PrivateCache::new(sys.l2);
    let mut pf1 = sys.l1_prefetcher.build();
    let mut pf2 = sys.l2_prefetcher.build();
    let mut reqs1 = Vec::with_capacity(8);
    let mut reqs2 = Vec::with_capacity(8);
    let mut out = CacheReplay {
        records: records.len() as u64,
        ..Default::default()
    };
    let t = Instant::now();
    for rec in records {
        let line = rec.line;
        let l1_hit = l1.access(line, rec.is_store);
        reqs1.clear();
        pf1.on_access(rec.pc, line, l1_hit, &mut reqs1);
        reqs2.clear();
        if l1_hit {
            out.l1_hits += 1;
        } else {
            out.l2_lookups += 1;
            let l2_hit = l2.access(line, false);
            pf2.on_access(rec.pc, line, l2_hit, &mut reqs2);
            if l2_hit {
                out.l2_hits += 1;
            } else {
                l2.fill(line, false);
            }
            if let Some(ev) = l1.fill(line, rec.is_store) {
                if !l2.access(ev.line, true) {
                    l2.fill(ev.line, true);
                }
            }
        }
        for r in &reqs1 {
            if !l1.peek(r.line) {
                if !l2.access(r.line, false) {
                    l2.fill(r.line, false);
                }
                l1.fill(r.line, false);
            }
        }
        for r in &reqs2 {
            if !l2.peek(r.line) {
                l2.fill(r.line, false);
            }
        }
        out.prefetch_requests += (reqs1.len() + reqs2.len()) as u64;
    }
    out.secs = t.elapsed().as_secs_f64();
    out
}

/// One request the LLC sent to DRAM during a replay.
#[derive(Debug, Clone, Copy)]
pub struct DramReq {
    /// Line address.
    pub line: u64,
    /// Cycle the request was issued.
    pub cycle: u64,
    /// Write (LLC eviction or bypassed write-back) rather than read.
    pub write: bool,
}

/// Per-kind LLC counts of a replay, `[demand, prefetch, writeback]`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindCounts {
    /// Lookups that hit.
    pub hits: [u64; 3],
    /// Lookups that missed.
    pub misses: [u64; 3],
}

/// What one LLC replay measured.
#[derive(Debug, Clone, Default)]
pub struct LlcReplay {
    /// Host seconds for lookups, fills and policy updates.
    pub secs: f64,
    /// Accesses replayed.
    pub accesses: u64,
    /// Hits and misses per request kind, counted from the lookup results.
    pub counts: KindCounts,
    /// The DRAM requests the replay produced.
    pub dram: Vec<DramReq>,
    /// The slice of every access, in stream order.
    pub slices: Vec<usize>,
}

fn kind_index(kind: AccessKind) -> usize {
    match kind {
        AccessKind::Load | AccessKind::Store => 0,
        AccessKind::Prefetch => 1,
        AccessKind::Writeback => 2,
    }
}

/// Cycle stamp of access `i` when `n` accesses spread over `span` cycles.
fn stamp(i: usize, n: usize, span: u64) -> u64 {
    (i as u128 * u128::from(span) / n.max(1) as u128) as u64
}

/// Replay a captured LLC stream into a fresh `SlicedLlc` running `policy`
/// under `org`. Accesses are stamped evenly over `span` cycles (the
/// capture keeps no timestamps). The DRAM requests and slice indices are
/// kept for the DRAM and NoC replays; every replay keeps them, so two
/// replays of one stream under different organisations do the same
/// bookkeeping.
///
/// The replay checks its own books: per kind, the hits and misses it
/// counted must add up to the LLC's access counters, and its misses must
/// equal the LLC's miss counters.
pub fn replay_llc(
    sys: &SystemConfig,
    policy: PolicyKind,
    org: DrishtiConfig,
    stream: &[Access],
    span: u64,
) -> Result<LlcReplay, String> {
    let mut llc = SlicedLlc::new(sys.llc, policy.build(&sys.llc, org));
    let mut out = LlcReplay {
        accesses: stream.len() as u64,
        ..Default::default()
    };
    out.dram.reserve(stream.len());
    out.slices = stream.iter().map(|a| llc.slice_of(a.line)).collect();
    let n = stream.len();
    let t = Instant::now();
    for (i, acc) in stream.iter().enumerate() {
        let cycle = stamp(i, n, span);
        let k = kind_index(acc.kind);
        if llc.lookup(acc, cycle).hit {
            out.counts.hits[k] += 1;
            continue;
        }
        out.counts.misses[k] += 1;
        if acc.kind != AccessKind::Writeback {
            out.dram.push(DramReq {
                line: acc.line,
                cycle,
                write: false,
            });
        }
        let fill = llc.fill(acc, cycle);
        if let Some(victim) = fill.writeback {
            out.dram.push(DramReq {
                line: victim,
                cycle,
                write: true,
            });
        }
        if fill.bypassed && acc.kind == AccessKind::Writeback {
            out.dram.push(DramReq {
                line: acc.line,
                cycle,
                write: true,
            });
        }
    }
    out.secs = t.elapsed().as_secs_f64();
    let s = llc.stats();
    let accesses = [s.demand_accesses, s.prefetch_accesses, s.writeback_accesses];
    let misses = [s.demand_misses, s.prefetch_misses, s.writeback_misses];
    for k in 0..3 {
        if out.counts.hits[k] + out.counts.misses[k] != accesses[k]
            || out.counts.misses[k] != misses[k]
        {
            return Err(format!(
                "llc replay kind {k}: hits {} + misses {} vs accesses {} / misses {}",
                out.counts.hits[k], out.counts.misses[k], accesses[k], misses[k]
            ));
        }
    }
    Ok(out)
}

/// Replay the demand interconnect traffic of a captured LLC stream: a
/// request packet from the core to the slice and a data packet back, as
/// the engine sends for every LLC access. Returns seconds and traversals.
pub fn replay_noc(
    sys: &SystemConfig,
    stream: &[Access],
    slices: &[usize],
    span: u64,
) -> (f64, u64) {
    let mut topo = ChipTopology::new(sys.topology, sys.cores);
    let n = stream.len();
    let t = Instant::now();
    for (i, (acc, &slice)) in stream.iter().zip(slices).enumerate() {
        let cycle = stamp(i, n, span);
        let req = topo.traverse(acc.core, slice, cycle, ADDRESS_PACKET_FLITS);
        topo.traverse(slice, acc.core, cycle + req, DATA_PACKET_FLITS);
    }
    (t.elapsed().as_secs_f64(), 2 * n as u64)
}

/// Replay DRAM requests into a fresh DRAM model. Returns seconds.
pub fn replay_dram(sys: &SystemConfig, reqs: &[DramReq]) -> f64 {
    let mut dram = Dram::new(sys.dram);
    let t = Instant::now();
    for r in reqs {
        if r.write {
            dram.write(r.line, r.cycle);
        } else {
            dram.read(r.line, r.cycle);
        }
    }
    t.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use drishti_trace::presets::Benchmark;

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::var_os("CARGO_TARGET_DIR")
            .map(std::path::PathBuf::from)
            .unwrap_or_else(|| std::path::PathBuf::from("target"))
            .join("perfbench-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    /// The reported trace-store size is the file's size on disk — not the
    /// record count that `write_trace` returns.
    #[test]
    fn store_bytes_are_the_file_size() {
        let records = Benchmark::Mcf.build(7).collect(20_000);
        let path = scratch("bytes.drtr");
        let bytes = write_drtr(&path, "mcf", 7, &records).unwrap();
        let on_disk = std::fs::metadata(&path).unwrap().len();
        assert_eq!(bytes, on_disk);
        assert_ne!(bytes, records.len() as u64);
        let (_, sum) = decode_drtr(&path, records.len() as u64).unwrap();
        assert_eq!(sum, records_checksum(&records));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn llc_replay_balances_and_feeds_dram() {
        let sys = SystemConfig::paper_baseline(4);
        let stream: Vec<Access> = (0..5_000u64)
            .map(|i| {
                let line = (i * 7919) % 3_000;
                match i % 3 {
                    0 => Access::load((i % 4) as usize, 0x400 + i % 16, line),
                    1 => Access::prefetch((i % 4) as usize, 0x400, line + 1),
                    _ => Access::writeback((i % 4) as usize, line),
                }
            })
            .collect();
        let r = replay_llc(
            &sys,
            PolicyKind::Lru,
            DrishtiConfig::baseline(4),
            &stream,
            50_000,
        )
        .unwrap();
        let reads = r.dram.iter().filter(|d| !d.write).count() as u64;
        assert_eq!(reads, r.counts.misses[0] + r.counts.misses[1]);
        assert_eq!(r.slices.len(), stream.len());
        let (_, traversals) = replay_noc(&sys, &stream, &r.slices, 50_000);
        assert_eq!(traversals, 2 * stream.len() as u64);
    }
}
