//! DRRIP: dynamic re-reference interval prediction [Jaleel et al.,
//! ISCA 2010 — paper ref 28].
//!
//! DRRIP set-duels two insertion policies: SRRIP (insert at `max − 1`) and
//! BRRIP (insert at `max`, occasionally at `max − 1`), with a PSEL counter
//! scoring dedicated sets and follower sets adopting the winner. BRRIP
//! wins on thrashing working sets, SRRIP on recency-friendly ones.
//!
//! Like [`crate::dip::Dip`], the dedicated sets are conventionally random;
//! under a Drishti configuration they come from the dynamic sampled cache
//! (Table 7's dynamic-sampling column).

use crate::common::PerLine;
use drishti_core::config::DrishtiConfig;
use drishti_core::select::SetSelector;
use drishti_mem::access::{Access, AccessKind};
use drishti_mem::llc::LlcGeometry;
use drishti_mem::policy::{
    Decision, LlcLineState, LlcLoc, LlcPolicy, PolicyProbe, ProbeKind, SetProbe,
};

const MAX_RRPV: u8 = 3;
const PSEL_MAX: i32 = 1023;
const BRRIP_EPSILON: u64 = 32; // 1-in-32 BRRIP inserts at max − 1

/// DRRIP with per-slice set dueling.
#[derive(Debug)]
pub struct Drrip {
    rrpv: PerLine<u8>,
    selectors: Vec<SetSelector>,
    psel: Vec<i32>,
    brrip_tick: u64,
    dynamic: bool,
}

impl Drrip {
    /// Build DRRIP; `cfg` selects how the dueling sets are chosen
    /// (32 per slice by default).
    pub fn new(geom: &LlcGeometry, cfg: &DrishtiConfig) -> Self {
        let selectors: Vec<SetSelector> = (0..geom.slices)
            .map(|s| cfg.build_selector(s, geom.sets_per_slice, 32, 32))
            .collect();
        Drrip {
            rrpv: PerLine::new(geom),
            dynamic: selectors.first().is_some_and(SetSelector::is_dynamic),
            psel: vec![PSEL_MAX / 2; geom.slices],
            brrip_tick: 0,
            selectors,
        }
    }

    /// `true` if this fill should use BRRIP insertion.
    fn uses_brrip(&self, slice: usize, set: usize) -> bool {
        match self.selectors[slice].slot_of(set) {
            Some(slot) if slot < self.selectors[slice].n_sampled() / 2 => false, // SRRIP sets
            Some(_) => true,                                                     // BRRIP sets
            None => self.psel[slice] > PSEL_MAX / 2,
        }
    }
}

drishti_noc::impl_persist_fields!(Drrip {
    rrpv,
    selectors,
    psel,
    brrip_tick,
    dynamic,
});

impl PolicyProbe for Drrip {
    fn probe_set(&self, loc: LlcLoc) -> SetProbe {
        SetProbe {
            kind: ProbeKind::Bounded {
                min: 0,
                max: MAX_RRPV as i64,
            },
            values: self
                .rrpv
                .set(loc.slice, loc.set)
                .iter()
                .map(|&v| v as i64)
                .collect(),
        }
    }
}

impl LlcPolicy for Drrip {
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
            "d-drrip".into()
        } else {
            "drrip".into()
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
        self.selectors[loc.slice].observe(loc.set, true);
        *self.rrpv.get_mut(loc.slice, loc.set, way) = 0;
        0
    }

    fn on_miss(&mut self, loc: LlcLoc, acc: &Access, _cycle: u64) {
        if acc.kind.is_demand() {
            match self.selectors[loc.slice].slot_of(loc.set) {
                Some(slot) if slot < self.selectors[loc.slice].n_sampled() / 2 => {
                    // SRRIP-dedicated set missed: SRRIP worse.
                    self.psel[loc.slice] = (self.psel[loc.slice] + 1).min(PSEL_MAX);
                }
                Some(_) => {
                    self.psel[loc.slice] = (self.psel[loc.slice] - 1).max(0);
                }
                None => {}
            }
        }
        self.selectors[loc.slice].observe(loc.set, false);
    }

    fn choose_victim(&mut self, loc: LlcLoc, _acc: &Access, _cycle: u64) -> Decision {
        loop {
            let set = self.rrpv.set_mut(loc.slice, loc.set);
            if let Some(w) = set.iter().position(|&r| r >= MAX_RRPV) {
                return Decision::Evict(w);
            }
            for r in set.iter_mut() {
                *r += 1;
            }
        }
    }

    fn on_fill(
        &mut self,
        loc: LlcLoc,
        way: usize,
        acc: &Access,
        _evicted: Option<&LlcLineState>,
        _cycle: u64,
    ) -> u64 {
        self.brrip_tick += 1;
        let insert = if acc.kind == AccessKind::Writeback {
            MAX_RRPV
        } else if self.uses_brrip(loc.slice, loc.set) {
            if self.brrip_tick.is_multiple_of(BRRIP_EPSILON) {
                MAX_RRPV - 1
            } else {
                MAX_RRPV
            }
        } else {
            MAX_RRPV - 1
        };
        *self.rrpv.get_mut(loc.slice, loc.set, way) = insert;
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

    fn llc(cfg: DrishtiConfig) -> SlicedLlc {
        let geom = LlcGeometry {
            slices: 1,
            sets_per_slice: 64,
            ways: 4,
            latency: 20,
        };
        SlicedLlc::with_hasher(
            geom,
            Box::new(Drrip::new(&geom, &cfg)),
            Box::new(ModuloHash::new()),
        )
    }

    fn run(llc: &mut SlicedLlc, trace: &[(u64, u64)]) -> u64 {
        let mut hits = 0;
        for (i, &(pc, line)) in trace.iter().enumerate() {
            let a = Access::load(0, pc, line);
            if llc.lookup(&a, i as u64).hit {
                hits += 1;
            } else {
                llc.fill(&a, i as u64);
            }
        }
        hits
    }

    #[test]
    fn names_follow_selection_mode() {
        let geom = LlcGeometry {
            slices: 1,
            sets_per_slice: 64,
            ways: 4,
            latency: 20,
        };
        assert_eq!(
            Drrip::new(&geom, &DrishtiConfig::baseline(1)).name(),
            "drrip"
        );
        assert_eq!(
            Drrip::new(&geom, &DrishtiConfig::dsc_only(1)).name(),
            "d-drrip"
        );
    }

    #[test]
    fn brrip_retains_part_of_a_thrashing_set() {
        let mut c = DrishtiConfig::baseline(1);
        c.sampled_sets_override = Some(16);
        let mut llc = llc(c);
        // Working set of 320 lines over a 256-line cache, cycled.
        let mut hits = 0u64;
        let mut total = 0u64;
        for rep in 0..60u64 {
            for i in 0..320u64 {
                let a = Access::load(0, 0x9, i * 131);
                total += 1;
                if llc.lookup(&a, rep * 320 + i).hit {
                    hits += 1;
                } else {
                    llc.fill(&a, rep * 320 + i);
                }
            }
        }
        assert!(
            hits * 20 > total,
            "DRRIP must retain part of a thrashing set: {hits}/{total}"
        );
    }

    #[test]
    fn recency_friendly_workload_stays_srrip_strong() {
        let mut c = DrishtiConfig::baseline(1);
        c.sampled_sets_override = Some(16);
        let mut llc = llc(c);
        let trace: Vec<(u64, u64)> = (0..20_000u64).map(|i| (0x3, i % 200)).collect();
        let hits = run(&mut llc, &trace);
        assert!(hits as f64 / 20_000.0 > 0.9, "{hits}");
    }
}
