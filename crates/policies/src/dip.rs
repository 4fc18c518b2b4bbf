//! DIP: dynamic insertion policy via set dueling [Qureshi et al., ISCA 2007].
//!
//! The ancestral set-dueling policy (paper ref 48). A few *dedicated* sets
//! always run LRU, a few always run BIP (bimodal insertion: LRU-position
//! insertion except 1-in-32 at MRU); a saturating PSEL counter scores their
//! misses and follower sets adopt the winner.
//!
//! Table 7 marks DIP as a beneficiary of Drishti's *dynamic sampled cache*:
//! the dedicated sets are conventionally chosen randomly, so DIP built with
//! a dynamic [`SetSelector`] duels on the high-MPKA sets instead
//! (D-DIP in our ablations).

use crate::common::PerLine;
use drishti_core::config::DrishtiConfig;
use drishti_core::select::SetSelector;
use drishti_mem::access::{Access, AccessKind};
use drishti_mem::llc::LlcGeometry;
use drishti_mem::policy::{
    Decision, LlcLineState, LlcLoc, LlcPolicy, PolicyProbe, ProbeKind, SetProbe,
};

const PSEL_BITS: u32 = 10;
const PSEL_MAX: i32 = (1 << PSEL_BITS) - 1;
const BIP_EPSILON: u64 = 32; // 1-in-32 MRU insertions

/// Dueling-set membership per slice: the first half of the selector's sets
/// are LRU-dedicated, the second half BIP-dedicated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SetRole {
    DedicatedLru,
    DedicatedBip,
    Follower,
}

/// DIP with per-slice set dueling.
#[derive(Debug)]
pub struct Dip {
    stamp: PerLine<u64>,
    clock: u64,
    selectors: Vec<SetSelector>,
    psel: Vec<i32>,
    bip_tick: u64,
    dynamic: bool,
}

impl Dip {
    /// Build DIP; `cfg` decides how the dueling sets are selected
    /// (static random vs. Drishti's dynamic sampled cache) — 32 dueling
    /// sets per slice by default.
    pub fn new(geom: &LlcGeometry, cfg: &DrishtiConfig) -> Self {
        let selectors = (0..geom.slices)
            .map(|s| cfg.build_selector(s, geom.sets_per_slice, 32, 32))
            .collect::<Vec<_>>();
        Dip {
            stamp: PerLine::new(geom),
            clock: 0,
            dynamic: selectors.first().is_some_and(SetSelector::is_dynamic),
            psel: vec![PSEL_MAX / 2; geom.slices],
            bip_tick: 0,
            selectors,
        }
    }

    fn role(&self, slice: usize, set: usize) -> SetRole {
        match self.selectors[slice].slot_of(set) {
            Some(slot) if slot < self.selectors[slice].n_sampled() / 2 => SetRole::DedicatedLru,
            Some(_) => SetRole::DedicatedBip,
            None => SetRole::Follower,
        }
    }

    fn uses_bip(&self, slice: usize, set: usize) -> bool {
        match self.role(slice, set) {
            SetRole::DedicatedLru => false,
            SetRole::DedicatedBip => true,
            // PSEL above midpoint ⇒ LRU misses more ⇒ follow BIP.
            SetRole::Follower => self.psel[slice] > PSEL_MAX / 2,
        }
    }
}

// `dynamic` is serialized for uniformity even though it is derivable from
// the rebuilt selectors.
drishti_noc::impl_persist_fields!(Dip {
    stamp,
    clock,
    selectors,
    psel,
    bip_tick,
    dynamic,
});

impl PolicyProbe for Dip {
    fn probe_set(&self, loc: LlcLoc) -> SetProbe {
        // DIP's LRU-position insertion deliberately writes the duplicate
        // stamp 1, so stamp distinctness does not hold here; stamps are
        // still bounded by the monotone clock.
        SetProbe {
            kind: ProbeKind::Bounded {
                min: 0,
                max: self.clock as i64,
            },
            values: self
                .stamp
                .set(loc.slice, loc.set)
                .iter()
                .map(|&v| v as i64)
                .collect(),
        }
    }
}

impl LlcPolicy for Dip {
    fn probe(&self) -> Option<&dyn PolicyProbe> {
        Some(self)
    }

    fn save_state(&self, w: &mut drishti_noc::snap::StateWriter) {
        drishti_noc::snap::Persist::save(self, w);
    }

    fn load_state(
        &mut self,
        r: &mut drishti_noc::snap::StateReader<'_>,
    ) -> Result<(), drishti_noc::snap::SnapError> {
        drishti_noc::snap::Persist::load(self, r)
    }

    fn name(&self) -> String {
        if self.dynamic {
            "d-dip".into()
        } else {
            "dip".into()
        }
    }

    fn on_hit(
        &mut self,
        loc: LlcLoc,
        way: usize,
        _line: &LlcLineState,
        _acc: &Access,
        _cycle: u64,
    ) -> u64 {
        self.clock += 1;
        *self.stamp.get_mut(loc.slice, loc.set, way) = self.clock;
        self.selectors[loc.slice].observe(loc.set, true);
        0
    }

    fn on_miss(&mut self, loc: LlcLoc, acc: &Access, _cycle: u64) {
        if acc.kind.is_demand() {
            match self.role(loc.slice, loc.set) {
                SetRole::DedicatedLru => {
                    self.psel[loc.slice] = (self.psel[loc.slice] + 1).min(PSEL_MAX);
                }
                SetRole::DedicatedBip => {
                    self.psel[loc.slice] = (self.psel[loc.slice] - 1).max(0);
                }
                SetRole::Follower => {}
            }
        }
        self.selectors[loc.slice].observe(loc.set, false);
    }

    fn choose_victim(&mut self, loc: LlcLoc, _acc: &Access, _cycle: u64) -> Decision {
        let stamps = self.stamp.set(loc.slice, loc.set);
        let victim = (0..stamps.len())
            .min_by_key(|&w| stamps[w])
            .expect("nonzero ways");
        Decision::Evict(victim)
    }

    fn on_fill(
        &mut self,
        loc: LlcLoc,
        way: usize,
        acc: &Access,
        _evicted: Option<&LlcLineState>,
        _cycle: u64,
    ) -> u64 {
        self.clock += 1;
        self.bip_tick += 1;
        let bip = self.uses_bip(loc.slice, loc.set) || acc.kind == AccessKind::Writeback;
        let mru = !bip || self.bip_tick.is_multiple_of(BIP_EPSILON);
        // LRU-position insertion is modelled as a stamp *older* than every
        // resident line (0 would collide with invalid ways; 1..clock works
        // because real stamps only grow).
        *self.stamp.get_mut(loc.slice, loc.set, way) = if mru { self.clock } else { 1 };
        0
    }

    fn diagnostics(&self) -> Vec<(String, u64)> {
        vec![(
            "psel_mean".into(),
            self.psel.iter().map(|&p| p as u64).sum::<u64>() / self.psel.len() as u64,
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drishti_mem::llc::SlicedLlc;
    use drishti_noc::slicehash::ModuloHash;

    fn llc(sets: usize, ways: usize, cfg: DrishtiConfig) -> SlicedLlc {
        let geom = LlcGeometry {
            slices: 1,
            sets_per_slice: sets,
            ways,
            latency: 20,
        };
        SlicedLlc::with_hasher(
            geom,
            Box::new(Dip::new(&geom, &cfg)),
            Box::new(ModuloHash::new()),
        )
    }

    #[test]
    fn name_reflects_selection_mode() {
        let geom = LlcGeometry {
            slices: 1,
            sets_per_slice: 64,
            ways: 4,
            latency: 20,
        };
        assert_eq!(Dip::new(&geom, &DrishtiConfig::baseline(1)).name(), "dip");
        assert_eq!(Dip::new(&geom, &DrishtiConfig::dsc_only(1)).name(), "d-dip");
    }

    #[test]
    fn thrashing_workload_converges_to_bip_and_retains_some_lines() {
        // A cyclic working set slightly larger than the cache: LRU gets 0%
        // hits, BIP retains a useful fraction. DIP must beat plain LRU.
        let mut c = DrishtiConfig::baseline(1);
        c.sampled_sets_override = Some(16);
        let mut llc = llc(64, 4, c);
        let lines_in_cache = 64 * 4;
        let working = (lines_in_cache + 64) as u64;
        let mut hits = 0u64;
        let mut total = 0u64;
        for rep in 0..60u64 {
            for i in 0..working {
                let a = Access::load(0, 0x9, i * 97); // stride to spread sets
                total += 1;
                if llc.lookup(&a, rep * working + i).hit {
                    hits += 1;
                } else {
                    llc.fill(&a, rep * working + i);
                }
            }
        }
        assert!(
            hits * 10 > total,
            "DIP should retain part of a thrashing set: {hits}/{total}"
        );
    }

    #[test]
    fn lru_friendly_workload_keeps_lru_hits() {
        let mut c = DrishtiConfig::baseline(1);
        c.sampled_sets_override = Some(16);
        let mut llc = llc(64, 4, c);
        // Small working set with strong recency: everything fits.
        let mut hits = 0u64;
        let mut total = 0u64;
        for rep in 0..50u64 {
            for i in 0..100u64 {
                let a = Access::load(0, 0x9, i * 31);
                total += 1;
                if llc.lookup(&a, rep * 100 + i).hit {
                    hits += 1;
                } else {
                    llc.fill(&a, rep * 100 + i);
                }
            }
        }
        assert!(hits as f64 / total as f64 > 0.9, "{hits}/{total}");
    }
}
