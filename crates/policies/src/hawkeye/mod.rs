//! Hawkeye: mimicking Belady's OPT [Jain & Lin, ISCA 2016; paper ref 27].
//!
//! Hawkeye classifies load PCs as *cache-friendly* or *cache-averse* by
//! replaying what Belady's OPT would have done on the accesses seen by a
//! few sampled sets ([`optgen::OptGen`]). A PC-indexed table of 3-bit
//! counters is incremented when a PC's load would have hit under OPT and
//! decremented otherwise. Fills by friendly PCs insert at RRPV 0 (and age
//! everyone else), averse fills insert at RRPV 7; evicting a line that was
//! predicted friendly detrains its PC.
//!
//! The Drishti knobs ([`DrishtiConfig`]) decide whether the sampler trains
//! one predictor bank per slice (myopic baseline), a single centralized
//! bank, or the per-core-yet-global banks reached over NOCSTAR
//! (D-Hawkeye), and whether sampled sets are chosen randomly (64/slice) or
//! by the dynamic sampled cache (8/slice).

pub mod optgen;

use crate::common::{line_tag, predictor_index, PerLine};
use drishti_core::config::DrishtiConfig;
use drishti_core::dsc::DscEvent;
use drishti_core::fabric::PredictorFabric;
use drishti_core::select::SetSelector;
use drishti_mem::access::{Access, AccessKind};
use drishti_mem::llc::LlcGeometry;
use drishti_mem::policy::{
    Decision, LlcLineState, LlcLoc, LlcPolicy, PolicyProbe, ProbeKind, SetProbe,
};
use drishti_noc::NocStats;
use optgen::OptGen;

/// RRPV ceiling (3-bit).
const MAX_RRPV: u8 = 7;
/// Friendly lines age up to this value, staying below averse insertions.
const AGE_CEILING: u8 = 6;
/// Predictor counter range (3-bit) and friendliness threshold.
const COUNTER_MAX: u8 = 7;
const COUNTER_INIT: u8 = 4;
const FRIENDLY_THRESHOLD: u8 = 4;
/// Predictor index width: 8 K entries × 3 bits = 3 KB (Table 3).
const INDEX_BITS: u32 = 13;
/// Sampler history per sampled set, in multiples of associativity.
const HISTORY_FACTOR: usize = 8;

/// Default sampled sets per slice: conventional random / Drishti dynamic.
pub const STATIC_SAMPLED_SETS: usize = 64;
pub const DYNAMIC_SAMPLED_SETS: usize = 8;

#[derive(Debug, Clone, Copy, Default)]
struct SamplerEntry {
    valid: bool,
    tag: u32,
    signature: u64,
    core: u32,
    last: u64,
}

drishti_noc::impl_persist_fields!(SamplerEntry {
    valid,
    tag,
    signature,
    core,
    last,
});

/// State of one sampled set: its reuse history and OPT emulator.
#[derive(Debug, Clone, Default)]
struct SampledSet {
    entries: Vec<SamplerEntry>,
    optgen: OptGen,
}

drishti_noc::impl_persist_fields!(SampledSet { entries, optgen });

impl SampledSet {
    fn new(ways: usize) -> Self {
        SampledSet {
            entries: vec![SamplerEntry::default(); HISTORY_FACTOR * ways],
            optgen: OptGen::new(ways, HISTORY_FACTOR * ways),
        }
    }

    fn reset(&mut self) {
        self.entries.fill(SamplerEntry::default());
        self.optgen.reset();
    }
}

/// Aggregated diagnostics counters.
#[derive(Debug, Clone, Copy, Default)]
struct HawkeyeDiag {
    opt_hits: u64,
    opt_misses: u64,
    detrains: u64,
    fills_friendly: u64,
    fills_averse: u64,
}

drishti_noc::impl_persist_fields!(HawkeyeDiag {
    opt_hits,
    opt_misses,
    detrains,
    fills_friendly,
    fills_averse,
});

/// The Hawkeye replacement policy (and D-Hawkeye when built with a Drishti
/// configuration).
#[derive(Debug)]
pub struct Hawkeye {
    label: String,
    rrpv: PerLine<u8>,
    selectors: Vec<SetSelector>,
    samplers: Vec<Vec<SampledSet>>,
    /// 3-bit saturating counters per predictor bank.
    predictors: Vec<Vec<u8>>,
    fabric: PredictorFabric,
    diag: HawkeyeDiag,
    /// Distribution of predicted RRIP values at fill (paper Fig 4c/d).
    rrip_histogram: [u64; 8],
}

impl Hawkeye {
    /// Build Hawkeye for `geom` under the organisation `cfg`.
    pub fn new(geom: &LlcGeometry, cfg: &DrishtiConfig) -> Self {
        let fabric = cfg.build_fabric();
        let selectors: Vec<SetSelector> = (0..geom.slices)
            .map(|s| {
                cfg.build_selector(
                    s,
                    geom.sets_per_slice,
                    STATIC_SAMPLED_SETS.min(geom.sets_per_slice),
                    DYNAMIC_SAMPLED_SETS.min(geom.sets_per_slice),
                )
            })
            .collect();
        let samplers = selectors
            .iter()
            .map(|sel| {
                (0..sel.n_sampled())
                    .map(|_| SampledSet::new(geom.ways))
                    .collect()
            })
            .collect();
        let label = match cfg.label().as_str() {
            "baseline" => "hawkeye".to_string(),
            "drishti" => "d-hawkeye".to_string(),
            other => format!("hawkeye:{other}"),
        };
        Hawkeye {
            label,
            rrpv: PerLine::new(geom),
            selectors,
            samplers,
            predictors: vec![vec![COUNTER_INIT; 1 << INDEX_BITS]; fabric.banks()],
            fabric,
            diag: HawkeyeDiag::default(),
            rrip_histogram: [0; 8],
        }
    }

    fn train(&mut self, slice: usize, signature: u64, core: usize, friendly: bool, cycle: u64) {
        let t = self.fabric.train(slice, core, cycle);
        if !t.delivered {
            return; // update lost in transit; later samples retrain
        }
        let bank = t.bank;
        let idx = predictor_index(signature, core, INDEX_BITS);
        let update = |c: &mut u8| {
            *c = if friendly {
                (*c + 1).min(COUNTER_MAX)
            } else {
                c.saturating_sub(1)
            };
        };
        if self.fabric.sampler_org().requires_broadcast()
            && self.fabric.org() == drishti_core::org::PredictorOrg::LocalPerSlice
        {
            // Global sampled cache with local predictors: the training is
            // broadcast to the core's entry in every slice (paper Figs 6–7).
            for b in self.fabric.broadcast_banks(core) {
                update(&mut self.predictors[b][idx]);
            }
        } else {
            update(&mut self.predictors[bank][idx]);
        }
    }

    /// Whether the predictor currently classifies `(signature, core)` as
    /// cache-friendly, plus the charged lookup latency.
    fn predict(&mut self, slice: usize, signature: u64, core: usize, cycle: u64) -> (bool, u64) {
        let p = self.fabric.predict(slice, core, cycle);
        // An abandoned lookup uses the untrained-default classification
        // (counter at its initial value) — the local static decision.
        let c = if p.fallback {
            COUNTER_INIT
        } else {
            self.predictors[p.bank][predictor_index(signature, core, INDEX_BITS)]
        };
        (c >= FRIENDLY_THRESHOLD, p.latency)
    }

    /// Sampler bookkeeping for one access to a (possibly) sampled set.
    fn sample_access(&mut self, loc: LlcLoc, acc: &Access, llc_hit: bool, cycle: u64) {
        if self.selectors[loc.slice].observe(loc.set, llc_hit) == DscEvent::Reselected {
            // Only slots whose set changed lose their history; retained
            // sets keep training across the reselection.
            let changed: Vec<usize> = self.selectors[loc.slice].changed_slots().to_vec();
            for slot in changed {
                self.samplers[loc.slice][slot].reset();
            }
        }
        if !acc.kind.has_pc() {
            return;
        }
        let Some(slot) = self.selectors[loc.slice].slot_of(loc.set) else {
            return;
        };
        let tag = line_tag(acc.line, 16);
        let sig = acc.signature();

        let sampler = &mut self.samplers[loc.slice][slot];
        sampler.optgen.advance();
        let now = sampler.optgen.now();

        if let Some(i) = sampler.entries.iter().position(|e| e.valid && e.tag == tag) {
            let prev = sampler.entries[i].last;
            let prev_sig = sampler.entries[i].signature;
            let prev_core = sampler.entries[i].core as usize;
            let opt_hit = sampler.optgen.decide(prev);
            if opt_hit {
                self.diag.opt_hits += 1;
            } else {
                self.diag.opt_misses += 1;
            }
            self.train(loc.slice, prev_sig, prev_core, opt_hit, cycle);
            let sampler = &mut self.samplers[loc.slice][slot];
            sampler.entries[i] = SamplerEntry {
                valid: true,
                tag,
                signature: sig,
                core: acc.core as u32,
                last: now,
            };
        } else {
            // Insert; evict the stalest entry and detrain it (never reused).
            let victim = sampler
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| if e.valid { e.last } else { 0 })
                .map(|(i, _)| i)
                .expect("sampler nonempty");
            let old = sampler.entries[victim];
            sampler.entries[victim] = SamplerEntry {
                valid: true,
                tag,
                signature: sig,
                core: acc.core as u32,
                last: now,
            };
            if old.valid {
                self.diag.detrains += 1;
                self.train(loc.slice, old.signature, old.core as usize, false, cycle);
            }
        }
    }

    /// Histogram of RRIP values assigned at fill time (Fig 4 style).
    pub fn rrip_histogram(&self) -> &[u64; 8] {
        &self.rrip_histogram
    }
}

impl PolicyProbe for Hawkeye {
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

impl LlcPolicy for Hawkeye {
    fn probe(&self) -> Option<&dyn PolicyProbe> {
        Some(self)
    }

    // `label` is config-derived and excluded; the fabric serializes through
    // its own hooks (its link is a trait object).
    fn save_state(&self, w: &mut drishti_noc::snap::StateWriter) {
        use drishti_noc::snap::Persist;
        self.rrpv.save(w);
        self.selectors.save(w);
        self.samplers.save(w);
        self.predictors.save(w);
        self.fabric.save_state(w);
        self.diag.save(w);
        self.rrip_histogram.save(w);
    }

    fn load_state(
        &mut self,
        r: &mut drishti_noc::snap::StateReader<'_>,
    ) -> Result<(), drishti_noc::snap::SnapError> {
        use drishti_noc::snap::Persist;
        self.rrpv.load(r)?;
        self.selectors.load(r)?;
        self.samplers.load(r)?;
        self.predictors.load(r)?;
        self.fabric.load_state(r)?;
        self.diag.load(r)?;
        self.rrip_histogram.load(r)
    }

    fn name(&self) -> String {
        self.label.clone()
    }

    fn on_hit(
        &mut self,
        loc: LlcLoc,
        way: usize,
        _line: &LlcLineState,
        acc: &Access,
        cycle: u64,
    ) -> u64 {
        self.sample_access(loc, acc, true, cycle);
        *self.rrpv.get_mut(loc.slice, loc.set, way) = 0;
        0
    }

    fn on_miss(&mut self, loc: LlcLoc, acc: &Access, cycle: u64) {
        self.sample_access(loc, acc, false, cycle);
    }

    fn choose_victim(&mut self, loc: LlcLoc, _acc: &Access, _cycle: u64) -> Decision {
        let rrpvs = self.rrpv.set(loc.slice, loc.set);
        // Prefer a cache-averse line.
        if let Some(w) = rrpvs.iter().position(|&r| r == MAX_RRPV) {
            return Decision::Evict(w);
        }
        // No averse line: evict the oldest friendly line (`on_fill`
        // detrains its PC).
        let w = (0..rrpvs.len())
            .max_by_key(|&w| rrpvs[w])
            .expect("nonzero ways");
        Decision::Evict(w)
    }

    fn on_fill(
        &mut self,
        loc: LlcLoc,
        way: usize,
        acc: &Access,
        evicted: Option<&LlcLineState>,
        cycle: u64,
    ) -> u64 {
        // `rrpv[way]` still holds the victim's value: below MAX_RRPV exactly
        // when `choose_victim` found no averse line and evicted a friendly
        // one, whose PC is detrained.
        if let Some(v) = evicted {
            if *self.rrpv.get(loc.slice, loc.set, way) != MAX_RRPV && v.signature != 0 {
                self.diag.detrains += 1;
                self.train(loc.slice, v.signature, v.core, false, cycle);
            }
        }
        if acc.kind == AccessKind::Writeback {
            // Dirty lines get the lowest priority (paper §5.2, Table 5).
            *self.rrpv.get_mut(loc.slice, loc.set, way) = MAX_RRPV;
            self.rrip_histogram[MAX_RRPV as usize] += 1;
            return 0;
        }
        let (friendly, lat) = self.predict(loc.slice, acc.signature(), acc.core, cycle);
        let insert = if friendly {
            self.diag.fills_friendly += 1;
            0
        } else {
            self.diag.fills_averse += 1;
            MAX_RRPV
        };
        self.rrip_histogram[insert as usize] += 1;
        let set = self.rrpv.set_mut(loc.slice, loc.set);
        if friendly {
            // Friendly insertion ages every other line (saturating at 6).
            for (w, r) in set.iter_mut().enumerate() {
                if w != way && *r < AGE_CEILING {
                    *r += 1;
                }
            }
        }
        set[way] = insert;
        lat
    }

    fn fabric_stats(&self) -> NocStats {
        self.fabric.link_stats()
    }

    fn diagnostics(&self) -> Vec<(String, u64)> {
        vec![
            ("opt_hits".into(), self.diag.opt_hits),
            ("opt_misses".into(), self.diag.opt_misses),
            ("detrains".into(), self.diag.detrains),
            ("fills_friendly".into(), self.diag.fills_friendly),
            ("fills_averse".into(), self.diag.fills_averse),
            (
                "predictor_train".into(),
                self.fabric.counters().train_accesses,
            ),
            (
                "predictor_predict".into(),
                self.fabric.counters().predict_accesses,
            ),
            (
                "fabric_fallbacks".into(),
                self.fabric.counters().fallback_decisions,
            ),
            (
                "fabric_dropped_predictions".into(),
                self.fabric.counters().dropped_predictions,
            ),
            (
                "fabric_dropped_trainings".into(),
                self.fabric.counters().dropped_trainings,
            ),
            (
                "fabric_retried_trainings".into(),
                self.fabric.counters().retried_trainings,
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drishti_mem::llc::SlicedLlc;
    use drishti_noc::slicehash::ModuloHash;

    fn small_geom() -> LlcGeometry {
        LlcGeometry {
            slices: 1,
            sets_per_slice: 16,
            ways: 4,
            latency: 20,
        }
    }

    fn cfg_all_sampled() -> DrishtiConfig {
        // Sample every set so the tiny tests always train.
        let mut c = DrishtiConfig::baseline(1);
        c.sampled_sets_override = Some(16);
        c
    }

    fn llc_with(geom: LlcGeometry, cfg: &DrishtiConfig) -> SlicedLlc {
        SlicedLlc::with_hasher(
            geom,
            Box::new(Hawkeye::new(&geom, cfg)),
            Box::new(ModuloHash::new()),
        )
    }

    /// Run a trace of (pc, line) pairs, returning demand hit count.
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
    fn names_follow_configuration() {
        let g = small_geom();
        assert_eq!(
            Hawkeye::new(&g, &DrishtiConfig::baseline(1)).name(),
            "hawkeye"
        );
        assert_eq!(
            Hawkeye::new(&g, &DrishtiConfig::drishti(1)).name(),
            "d-hawkeye"
        );
        assert!(Hawkeye::new(&g, &DrishtiConfig::global_view_only(1))
            .name()
            .contains("global-view-only"));
    }

    #[test]
    fn protects_reused_lines_from_streaming_pc() {
        // One PC re-loops over a small set (friendly); another PC streams
        // (averse). Hawkeye must keep the friendly working set resident.
        let mut llc = llc_with(small_geom(), &cfg_all_sampled());
        let mut trace = Vec::new();
        let mut stream = 10_000u64;
        for _ in 0..400 {
            for k in 0..32u64 {
                trace.push((0xAAAA, k)); // friendly: 32 lines over 16 sets × 4 ways
            }
            for _ in 0..64 {
                stream += 1;
                trace.push((0xBBBB, stream)); // averse scan
            }
        }
        let hits = run(&mut llc, &trace);
        // LRU reference: the scan flushes everything every iteration.
        let geom = small_geom();
        let mut lru = SlicedLlc::with_hasher(
            geom,
            Box::new(crate::lru::Lru::new(&geom)),
            Box::new(ModuloHash::new()),
        );
        let lru_hits = run(&mut lru, &trace);
        assert!(
            hits > lru_hits + (trace.len() / 10) as u64,
            "hawkeye {hits} must clearly beat lru {lru_hits}"
        );
    }

    #[test]
    fn averse_fills_use_max_rrpv() {
        let mut llc = llc_with(small_geom(), &cfg_all_sampled());
        // Pure streaming: PC never reuses ⇒ becomes averse after detraining.
        let trace: Vec<(u64, u64)> = (0..3000u64).map(|i| (0xCCCC, i)).collect();
        run(&mut llc, &trace);
        let diags = llc.policy().diagnostics();
        let averse = diags.iter().find(|(n, _)| n == "fills_averse").unwrap().1;
        let friendly = diags.iter().find(|(n, _)| n == "fills_friendly").unwrap().1;
        assert!(
            averse > friendly,
            "stream should be classified averse: {averse} vs {friendly}"
        );
    }

    #[test]
    fn writebacks_are_lowest_priority() {
        let geom = LlcGeometry {
            slices: 1,
            sets_per_slice: 1,
            ways: 2,
            latency: 20,
        };
        let mut c = DrishtiConfig::baseline(1);
        c.sampled_sets_override = Some(1);
        let mut llc = llc_with(geom, &c);
        let wb = Access::writeback(0, 500);
        llc.lookup(&wb, 0);
        llc.fill(&wb, 0);
        let ld = Access::load(0, 0x1, 600);
        llc.lookup(&ld, 1);
        llc.fill(&ld, 1);
        // Fill a third line: the write-back (RRPV 7) must be the victim.
        let ld2 = Access::load(0, 0x1, 700);
        llc.lookup(&ld2, 2);
        let fr = llc.fill(&ld2, 2);
        assert_eq!(fr.writeback, Some(500));
    }

    #[test]
    fn evicting_a_friendly_victim_detrains_its_pc() {
        // One sampled 2-way set; fewer distinct lines than the sampler's
        // history holds, so every detrain counted here is an LLC eviction.
        let geom = LlcGeometry {
            slices: 1,
            sets_per_slice: 1,
            ways: 2,
            latency: 20,
        };
        let mut c = DrishtiConfig::baseline(1);
        c.sampled_sets_override = Some(1);
        let mut llc = llc_with(geom, &c);
        let detrains = |llc: &SlicedLlc| {
            let diags = llc.policy().diagnostics();
            diags.iter().find(|(n, _)| n == "detrains").unwrap().1
        };
        let step = |llc: &mut SlicedLlc, a: Access, cycle: u64| {
            assert!(!llc.lookup(&a, cycle).hit);
            llc.fill(&a, cycle);
            detrains(llc)
        };

        // Fresh PCs start friendly: A and B insert at RRPV 0, A ages to 1.
        assert_eq!(step(&mut llc, Access::load(0, 0x1, 10), 0), 0);
        assert_eq!(step(&mut llc, Access::load(0, 0x2, 20), 1), 0);
        // Full set, no averse line: the oldest friendly line (A) goes and
        // PC 0x1 is detrained below the friendly threshold.
        assert_eq!(step(&mut llc, Access::load(0, 0x3, 30), 2), 1);
        // PC 0x1 is now averse: its fill evicts friendly B (detrain) and
        // inserts at MAX_RRPV.
        assert_eq!(step(&mut llc, Access::load(0, 0x1, 40), 3), 2);
        // The averse line is the victim: evicting it detrains nothing.
        assert_eq!(step(&mut llc, Access::load(0, 0x3, 50), 4), 2);
        // A write-back fill into the full set still detrains the friendly
        // victim it displaces.
        assert_eq!(step(&mut llc, Access::writeback(0, 60), 5), 3);
    }

    #[test]
    fn drishti_variant_reports_fabric_traffic() {
        let g = LlcGeometry {
            slices: 4,
            sets_per_slice: 16,
            ways: 4,
            latency: 20,
        };
        let mut c = DrishtiConfig::drishti(4);
        c.sampled_sets_override = Some(8);
        let mut llc = SlicedLlc::new(g, Box::new(Hawkeye::new(&g, &c)));
        for i in 0..20_000u64 {
            let a = Access::load((i % 4) as usize, 0x40 + (i % 7), i % 512);
            if !llc.lookup(&a, i).hit {
                llc.fill(&a, i);
            }
        }
        assert!(
            llc.policy().fabric_stats().messages > 0,
            "global predictor must generate fabric traffic"
        );
    }

    #[test]
    fn baseline_variant_generates_no_fabric_traffic() {
        let g = small_geom();
        let mut llc = llc_with(g, &cfg_all_sampled());
        let trace: Vec<(u64, u64)> = (0..5000u64).map(|i| (0x1, i % 100)).collect();
        run(&mut llc, &trace);
        assert_eq!(llc.policy().fabric_stats().messages, 0);
    }
}
