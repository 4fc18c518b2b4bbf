//! What one simulated cell produced, its digest and its output checks.

use drishti_mem::dram::DramStats;
use drishti_mem::llc::LlcStats;
use drishti_noc::NocStats;
use drishti_sim::engine::{CoreResult, Engine};
use drishti_sim::runner::RunResult;

/// The result-bearing state of a finished cell. Built either from an
/// engine the benchmark drove itself or from a sweep's `RunResult`; both
/// views carry the same counters, so their digests are comparable.
#[derive(Debug, Clone, Default)]
pub struct CellStats {
    /// Measured per-core results.
    pub per_core: Vec<CoreResult>,
    /// LLC counters (warm-up and measurement together).
    pub llc: LlcStats,
    /// `(accesses, misses)` summed over every per-set counter.
    pub set_sums: (u64, u64),
    /// DRAM counters.
    pub dram: DramStats,
    /// Demand interconnect: every chip's mesh plus the inter-chip links.
    pub mesh: NocStats,
    /// Inter-chip links alone (zero on a single chip; a sweep's
    /// `RunResult` does not carry it).
    pub interchip: NocStats,
    /// Predictor-fabric counters.
    pub fabric: NocStats,
}

impl CellStats {
    /// Read a finished engine.
    pub fn from_engine(engine: &Engine) -> Self {
        let llc = engine.llc();
        let set_sums = (0..llc.geometry().slices)
            .flat_map(|s| llc.set_counters(s).iter())
            .fold((0, 0), |(a, m), c| (a + c.accesses, m + c.misses));
        CellStats {
            per_core: engine.results(),
            llc: *llc.stats(),
            set_sums,
            dram: *engine.dram().stats(),
            mesh: engine.mesh().stats(),
            interchip: *engine.mesh().interchip_stats(),
            fabric: llc.policy().fabric_stats(),
        }
    }

    /// Read a sweep cell's result.
    pub fn from_run(r: &RunResult) -> Self {
        let set_sums = r
            .set_counters
            .iter()
            .flatten()
            .fold((0, 0), |(a, m), c| (a + c.accesses, m + c.misses));
        CellStats {
            per_core: r.per_core.clone(),
            llc: r.llc,
            set_sums,
            dram: r.dram,
            mesh: r.mesh,
            interchip: NocStats::default(),
            fabric: r.fabric,
        }
    }

    /// FNV-1a over the counters that make up the simulated result.
    pub fn digest(&self) -> u64 {
        fnv1a64(
            format!(
                "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
                self.per_core, self.llc, self.set_sums, self.dram, self.mesh, self.fabric
            )
            .as_bytes(),
        )
    }

    /// Sum of the per-core IPCs.
    pub fn total_ipc(&self) -> f64 {
        self.per_core.iter().map(CoreResult::ipc).sum()
    }

    /// Measured instructions over all cores.
    pub fn instructions(&self) -> u64 {
        self.per_core.iter().map(|c| c.instructions).sum()
    }

    /// The output checks every cell must pass: each core measured exactly
    /// `budget` records, the LLC counters balance per request kind and
    /// against the per-set counters, and DRAM served exactly the LLC's
    /// non-write-back misses.
    pub fn check(&self, budget: u64) -> Result<(), String> {
        for (c, core) in self.per_core.iter().enumerate() {
            if core.accesses != budget {
                return Err(format!(
                    "core {c} measured {} records, budget {budget}",
                    core.accesses
                ));
            }
        }
        let l = &self.llc;
        for (kind, acc, miss) in [
            ("demand", l.demand_accesses, l.demand_misses),
            ("prefetch", l.prefetch_accesses, l.prefetch_misses),
            ("writeback", l.writeback_accesses, l.writeback_misses),
        ] {
            if miss > acc {
                return Err(format!("llc {kind}: {miss} misses exceed {acc} accesses"));
            }
        }
        if self.set_sums != (l.total_accesses(), l.total_misses()) {
            return Err(format!(
                "llc per-set counters {:?} do not balance the totals ({}, {})",
                self.set_sums,
                l.total_accesses(),
                l.total_misses()
            ));
        }
        if l.fills + l.bypasses > l.total_misses() {
            return Err(format!(
                "llc installed {} + bypassed {} more lines than it missed ({})",
                l.fills,
                l.bypasses,
                l.total_misses()
            ));
        }
        let non_wb_misses = l.demand_misses + l.prefetch_misses;
        if self.dram.reads != non_wb_misses {
            return Err(format!(
                "dram reads {} != llc non-writeback misses {non_wb_misses}",
                self.dram.reads
            ));
        }
        if self.dram.writes < l.dram_writebacks {
            return Err(format!(
                "dram writes {} < llc dirty evictions {}",
                self.dram.writes, l.dram_writebacks
            ));
        }
        Ok(())
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn balanced() -> CellStats {
        let mut s = CellStats {
            per_core: vec![
                CoreResult {
                    instructions: 100,
                    cycles: 50,
                    accesses: 10,
                    llc_misses: 2,
                };
                2
            ],
            ..Default::default()
        };
        s.llc.demand_accesses = 8;
        s.llc.demand_misses = 3;
        s.llc.prefetch_accesses = 2;
        s.llc.prefetch_misses = 1;
        s.llc.fills = 4;
        s.set_sums = (10, 4);
        s.dram.reads = 4;
        s
    }

    #[test]
    fn balanced_cell_passes() {
        assert_eq!(balanced().check(10), Ok(()));
        assert!((balanced().total_ipc() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn each_imbalance_is_caught() {
        assert!(balanced().check(11).is_err());
        let mut s = balanced();
        s.dram.reads += 1;
        assert!(s.check(10).unwrap_err().contains("dram reads"));
        let mut s = balanced();
        s.set_sums.0 += 1;
        assert!(s.check(10).unwrap_err().contains("per-set"));
        let mut s = balanced();
        s.llc.prefetch_misses = 3;
        assert!(s.check(10).is_err());
    }

    #[test]
    fn digest_tracks_results() {
        let a = balanced();
        let mut b = balanced();
        assert_eq!(a.digest(), b.digest());
        b.per_core[1].cycles += 1;
        assert_ne!(a.digest(), b.digest());
    }
}
