//! SHiP++: signature-based hit prediction [Wu et al., MICRO 2011; Young et
//! al., CRC-2 2017 — paper refs 60, 61].
//!
//! SHiP attaches a PC signature to every inserted line and an *outcome* bit
//! that records whether the line was reused. A Signature History Counter
//! Table (SHCT) of saturating counters is incremented when a sampled line
//! is reused and decremented when a sampled line dies unreused. Insertion
//! is RRIP-based: signatures with zero counters insert distant, saturated
//! signatures insert near. SHiP++ refinements kept here: write-backs insert
//! distant, prefetches are signatured with a folded prefetch bit.
//!
//! Training happens only on *sampled* sets, so SHiP++ composes with both
//! Drishti enhancements (Table 8's D-SHiP++): the SHCT can be per-slice
//! (myopic), centralized, or per-core-yet-global, and sampled sets can be
//! random or dynamic.

use crate::common::{predictor_index, PerLine};
use drishti_core::config::DrishtiConfig;
use drishti_core::fabric::PredictorFabric;
use drishti_core::select::SetSelector;
use drishti_mem::access::{Access, AccessKind};
use drishti_mem::llc::LlcGeometry;
use drishti_mem::policy::{
    Decision, LlcLineState, LlcLoc, LlcPolicy, PolicyProbe, ProbeKind, SetProbe,
};
use drishti_noc::NocStats;

const MAX_RRPV: u8 = 3;
const SHCT_BITS: u32 = 14;
const SHCT_MAX: u8 = 7;
const SHCT_INIT: u8 = 3;

/// Default sampled sets per slice (random / Drishti dynamic).
pub const STATIC_SAMPLED_SETS: usize = 64;
pub const DYNAMIC_SAMPLED_SETS: usize = 16;

/// The SHiP++ replacement policy (D-SHiP++ under a Drishti configuration).
#[derive(Debug)]
pub struct ShipPp {
    label: String,
    rrpv: PerLine<u8>,
    outcome: PerLine<bool>,
    selectors: Vec<SetSelector>,
    shct: Vec<Vec<u8>>,
    fabric: PredictorFabric,
    trains_up: u64,
    trains_down: u64,
}

impl ShipPp {
    /// Build SHiP++ for `geom` under the organisation `cfg`.
    pub fn new(geom: &LlcGeometry, cfg: &DrishtiConfig) -> Self {
        let fabric = cfg.build_fabric();
        let selectors = (0..geom.slices)
            .map(|s| {
                cfg.build_selector(
                    s,
                    geom.sets_per_slice,
                    STATIC_SAMPLED_SETS.min(geom.sets_per_slice),
                    DYNAMIC_SAMPLED_SETS.min(geom.sets_per_slice),
                )
            })
            .collect();
        let label = match cfg.label().as_str() {
            "baseline" => "ship++".to_string(),
            "drishti" => "d-ship++".to_string(),
            other => format!("ship++:{other}"),
        };
        ShipPp {
            label,
            rrpv: PerLine::new(geom),
            outcome: PerLine::new(geom),
            shct: vec![vec![SHCT_INIT; 1 << SHCT_BITS]; fabric.banks()],
            fabric,
            selectors,
            trains_up: 0,
            trains_down: 0,
        }
    }

    fn train(&mut self, slice: usize, signature: u64, core: usize, reused: bool, cycle: u64) {
        let t = self.fabric.train(slice, core, cycle);
        if !t.delivered {
            return; // update lost in transit; later evictions retrain
        }
        let c = &mut self.shct[t.bank][predictor_index(signature, core, SHCT_BITS)];
        if reused {
            self.trains_up += 1;
            *c = (*c + 1).min(SHCT_MAX);
        } else {
            self.trains_down += 1;
            *c = c.saturating_sub(1);
        }
    }
}

impl PolicyProbe for ShipPp {
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

impl LlcPolicy for ShipPp {
    fn probe(&self) -> Option<&dyn PolicyProbe> {
        Some(self)
    }

    // `label` is config-derived and excluded; the fabric serializes through
    // its own hooks (its link is a trait object).
    fn save_state(&self, w: &mut drishti_noc::snap::StateWriter) {
        use drishti_noc::snap::Persist;
        self.rrpv.save(w);
        self.outcome.save(w);
        self.selectors.save(w);
        self.shct.save(w);
        self.fabric.save_state(w);
        self.trains_up.save(w);
        self.trains_down.save(w);
    }

    fn load_state(
        &mut self,
        r: &mut drishti_noc::snap::StateReader<'_>,
    ) -> Result<(), drishti_noc::snap::SnapError> {
        use drishti_noc::snap::Persist;
        self.rrpv.load(r)?;
        self.outcome.load(r)?;
        self.selectors.load(r)?;
        self.shct.load(r)?;
        self.fabric.load_state(r)?;
        self.trains_up.load(r)?;
        self.trains_down.load(r)
    }

    fn name(&self) -> String {
        self.label.clone()
    }

    fn on_hit(
        &mut self,
        loc: LlcLoc,
        way: usize,
        line: &LlcLineState,
        acc: &Access,
        cycle: u64,
    ) -> u64 {
        self.selectors[loc.slice].observe(loc.set, true);
        *self.rrpv.get_mut(loc.slice, loc.set, way) = 0;
        // Sampled sets train on the first reuse of a line.
        if self.selectors[loc.slice].slot_of(loc.set).is_some()
            && !*self.outcome.get(loc.slice, loc.set, way)
        {
            *self.outcome.get_mut(loc.slice, loc.set, way) = true;
            if acc.kind.has_pc() {
                self.train(loc.slice, line.signature, line.core, true, cycle);
            }
        }
        0
    }

    fn on_miss(&mut self, loc: LlcLoc, _acc: &Access, _cycle: u64) {
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
        evicted: Option<&LlcLineState>,
        cycle: u64,
    ) -> u64 {
        // Detrain the dead victim if this is a sampled set.
        if let Some(v) = evicted {
            if self.selectors[loc.slice].slot_of(loc.set).is_some()
                && v.signature != 0
                && !*self.outcome.get(loc.slice, loc.set, way)
            {
                self.train(loc.slice, v.signature, v.core, false, cycle);
            }
        }
        *self.outcome.get_mut(loc.slice, loc.set, way) = false;

        let (insert, lat) = if acc.kind == AccessKind::Writeback {
            (MAX_RRPV, 0)
        } else {
            let p = self.fabric.predict(loc.slice, acc.core, cycle);
            let lat = p.latency;
            // An abandoned lookup uses the untrained-default counter
            // (intermediate confidence ⇒ SRRIP-like RRPV 2 below).
            let c = if p.fallback {
                SHCT_INIT
            } else {
                self.shct[p.bank][predictor_index(acc.signature(), acc.core, SHCT_BITS)]
            };
            let rrpv = if c == 0 {
                MAX_RRPV // never reused: distant
            } else if c >= SHCT_MAX {
                1 // strongly reused: near
            } else {
                2 // default long re-reference
            };
            (rrpv, lat)
        };
        *self.rrpv.get_mut(loc.slice, loc.set, way) = insert;
        lat
    }

    fn fabric_stats(&self) -> NocStats {
        self.fabric.link_stats()
    }

    fn diagnostics(&self) -> Vec<(String, u64)> {
        let fc = self.fabric.counters();
        vec![
            ("trains_up".into(), self.trains_up),
            ("trains_down".into(), self.trains_down),
            ("fabric_fallbacks".into(), fc.fallback_decisions),
            ("fabric_dropped_predictions".into(), fc.dropped_predictions),
            ("fabric_dropped_trainings".into(), fc.dropped_trainings),
            ("fabric_retried_trainings".into(), fc.retried_trainings),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drishti_mem::llc::SlicedLlc;
    use drishti_noc::slicehash::ModuloHash;

    fn geom() -> LlcGeometry {
        LlcGeometry {
            slices: 1,
            sets_per_slice: 16,
            ways: 4,
            latency: 20,
        }
    }

    fn cfg() -> DrishtiConfig {
        let mut c = DrishtiConfig::baseline(1);
        c.sampled_sets_override = Some(16);
        c
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
    fn names() {
        assert_eq!(
            ShipPp::new(&geom(), &DrishtiConfig::baseline(1)).name(),
            "ship++"
        );
        assert_eq!(
            ShipPp::new(&geom(), &DrishtiConfig::drishti(1)).name(),
            "d-ship++"
        );
    }

    #[test]
    fn scanning_pc_becomes_distant_and_reuse_survives() {
        let g = geom();
        let mut llc = SlicedLlc::with_hasher(
            g,
            Box::new(ShipPp::new(&g, &cfg())),
            Box::new(ModuloHash::new()),
        );
        // SHiP learns from *observed* reuse, so the friendly working set is
        // walked twice per iteration (it hits within the iteration) while a
        // scan tries to flush it between iterations.
        let mut trace = Vec::new();
        let mut stream = 50_000u64;
        for _ in 0..300 {
            for _ in 0..2 {
                for k in 0..16u64 {
                    trace.push((0xAAAA, k));
                }
            }
            for _ in 0..64 {
                stream += 1;
                trace.push((0xBBBB, stream));
            }
        }
        let ship_hits = run(&mut llc, &trace);
        let mut lru = SlicedLlc::with_hasher(
            g,
            Box::new(crate::lru::Lru::new(&g)),
            Box::new(ModuloHash::new()),
        );
        let lru_hits = run(&mut lru, &trace);
        assert!(
            ship_hits > lru_hits,
            "ship++ {ship_hits} should beat lru {lru_hits}"
        );
        let d = llc.policy().diagnostics();
        assert!(d.iter().find(|(k, _)| k == "trains_down").unwrap().1 > 0);
        assert!(d.iter().find(|(k, _)| k == "trains_up").unwrap().1 > 0);
    }
}
