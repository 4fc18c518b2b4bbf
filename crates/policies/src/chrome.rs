//! CHROME-like: online reinforcement-learning cache management
//! [Lu et al., HPCA 2024 — paper ref 38].
//!
//! CHROME frames insertion as a sequential decision problem solved with
//! SARSA: the state summarises the requesting PC and current cache
//! pressure, the actions are insertion priorities (near / long / distant /
//! bypass), and the reward is +1 when an inserted line is reused and −1
//! when it dies unreused (or when a bypassed line is demanded again soon).
//!
//! This model keeps the tabular value function, ε-greedy exploration with a
//! deterministic seeded generator, and the reuse/death reward shaping; the
//! original's DRAM-page-level actions and holistic prefetch coordination
//! are out of scope (DESIGN.md §1). Under a Drishti configuration
//! (D-CHROME, Table 8) the Q-tables follow the per-core-yet-global
//! organisation — every slice's experience trains the owning core's table —
//! and the learning-trigger sets follow the dynamic sampled cache.

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
const STATE_BITS: u32 = 10;
const N_ACTIONS: usize = 4;
/// Q-values are fixed-point with this scale.
const Q_SCALE: i32 = 16;
const ALPHA_SHIFT: u32 = 3; // learning rate 1/8
const EPSILON_RECIPROCAL: u64 = 64; // explore 1/64 of decisions

/// Default sampled (learning-trigger) sets per slice.
pub const STATIC_SAMPLED_SETS: usize = 64;
pub const DYNAMIC_SAMPLED_SETS: usize = 16;

/// Insertion actions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    Near,    // RRPV 0
    Long,    // RRPV 2
    Distant, // RRPV 3
    Bypass,
}

const ACTIONS: [Action; N_ACTIONS] = [Action::Near, Action::Long, Action::Distant, Action::Bypass];

/// Action index used when a predictor lookup is abandoned (fault
/// fallback): `Action::Long`, the SRRIP-like static insertion.
const FALLBACK_ACTION: usize = 1;

impl Action {
    fn rrpv(self) -> u8 {
        match self {
            Action::Near => 0,
            Action::Long => 2,
            Action::Distant => MAX_RRPV,
            Action::Bypass => MAX_RRPV,
        }
    }
}

/// Per-line provenance so rewards credit the right decision.
#[derive(Debug, Clone, Copy, Default)]
struct Provenance {
    state: u16,
    action: u8,
    core: u8,
    rewarded: bool,
}

drishti_noc::impl_persist_fields!(Provenance {
    state,
    action,
    core,
    rewarded,
});

/// The CHROME-like RL replacement policy.
#[derive(Debug)]
pub struct Chrome {
    label: String,
    rrpv: PerLine<u8>,
    prov: PerLine<Provenance>,
    selectors: Vec<SetSelector>,
    /// `q[bank][state * N_ACTIONS + action]`, fixed point.
    q: Vec<Vec<i32>>,
    fabric: PredictorFabric,
    /// Recent bypass decisions: (line, state, action, core) ring.
    bypassed: Vec<(u64, u16, u8, u8)>,
    bypassed_next: usize,
    rng: u64,
    decisions: u64,
    explorations: u64,
    rewards_pos: u64,
    rewards_neg: u64,
    /// Per-slice short miss-streak counter: the pressure feature.
    pressure: Vec<u8>,
}

impl Chrome {
    /// Build CHROME for `geom` under the organisation `cfg`.
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
            "baseline" => "chrome".to_string(),
            "drishti" => "d-chrome".to_string(),
            other => format!("chrome:{other}"),
        };
        Chrome {
            label,
            rrpv: PerLine::new(geom),
            prov: PerLine::new(geom),
            selectors,
            q: vec![vec![0; (1 << STATE_BITS) * N_ACTIONS]; fabric.banks()],
            fabric,
            bypassed: vec![(u64::MAX, 0, 0, 0); 128],
            bypassed_next: 0,
            rng: cfg.seed | 1,
            decisions: 0,
            explorations: 0,
            rewards_pos: 0,
            rewards_neg: 0,
            pressure: vec![0; geom.slices],
        }
    }

    fn next_rand(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// State: hash of (PC signature, pressure bucket).
    fn state(&self, acc: &Access, slice: usize) -> u16 {
        let pressure_bucket = u64::from(self.pressure[slice] / 64); // 0..3
        let idx = predictor_index(
            acc.signature() ^ (pressure_bucket << 57),
            acc.core,
            STATE_BITS,
        );
        idx as u16
    }

    fn best_action(&self, bank: usize, state: u16) -> (usize, i32) {
        let base = state as usize * N_ACTIONS;
        (0..N_ACTIONS)
            .map(|a| (a, self.q[bank][base + a]))
            .max_by_key(|&(a, q)| (q, std::cmp::Reverse(a)))
            .expect("actions nonempty")
    }

    fn reward(&mut self, slice: usize, state: u16, action: u8, core: usize, r: i32, cycle: u64) {
        if r > 0 {
            self.rewards_pos += 1;
        } else {
            self.rewards_neg += 1;
        }
        let t = self.fabric.train(slice, core, cycle);
        if !t.delivered {
            return; // update lost in transit; the next reward retrains
        }
        let q = &mut self.q[t.bank][state as usize * N_ACTIONS + action as usize];
        *q += (r * Q_SCALE - *q) >> ALPHA_SHIFT;
    }
}

impl PolicyProbe for Chrome {
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

impl LlcPolicy for Chrome {
    fn probe(&self) -> Option<&dyn PolicyProbe> {
        Some(self)
    }

    // `label` is config-derived and excluded; the fabric serializes through
    // its own hooks. The ε-greedy RNG stream is captured so resumed runs
    // replay the exact exploration sequence.
    fn save_state(&self, w: &mut drishti_noc::snap::StateWriter) {
        use drishti_noc::snap::Persist;
        self.rrpv.save(w);
        self.prov.save(w);
        self.selectors.save(w);
        self.q.save(w);
        self.fabric.save_state(w);
        self.bypassed.save(w);
        self.bypassed_next.save(w);
        self.rng.save(w);
        self.decisions.save(w);
        self.explorations.save(w);
        self.rewards_pos.save(w);
        self.rewards_neg.save(w);
        self.pressure.save(w);
    }

    fn load_state(
        &mut self,
        r: &mut drishti_noc::snap::StateReader<'_>,
    ) -> Result<(), drishti_noc::snap::SnapError> {
        use drishti_noc::snap::Persist;
        self.rrpv.load(r)?;
        self.prov.load(r)?;
        self.selectors.load(r)?;
        self.q.load(r)?;
        self.fabric.load_state(r)?;
        self.bypassed.load(r)?;
        self.bypassed_next.load(r)?;
        self.rng.load(r)?;
        self.decisions.load(r)?;
        self.explorations.load(r)?;
        self.rewards_pos.load(r)?;
        self.rewards_neg.load(r)?;
        self.pressure.load(r)
    }

    fn name(&self) -> String {
        self.label.clone()
    }

    fn on_hit(
        &mut self,
        loc: LlcLoc,
        way: usize,
        _line: &LlcLineState,
        _acc: &Access,
        cycle: u64,
    ) -> u64 {
        self.selectors[loc.slice].observe(loc.set, true);
        self.pressure[loc.slice] = self.pressure[loc.slice].saturating_sub(1);
        *self.rrpv.get_mut(loc.slice, loc.set, way) = 0;
        // First reuse rewards the inserting decision.
        let p = *self.prov.get(loc.slice, loc.set, way);
        if !p.rewarded {
            self.prov.get_mut(loc.slice, loc.set, way).rewarded = true;
            self.reward(loc.slice, p.state, p.action, p.core as usize, 1, cycle);
        }
        0
    }

    fn on_miss(&mut self, loc: LlcLoc, acc: &Access, cycle: u64) {
        self.selectors[loc.slice].observe(loc.set, false);
        self.pressure[loc.slice] = self.pressure[loc.slice].saturating_add(1);
        // A miss on a recently bypassed line: the bypass was wrong.
        if let Some(i) = self.bypassed.iter().position(|&(l, ..)| l == acc.line) {
            let (_, state, action, core) = self.bypassed[i];
            self.bypassed[i].0 = u64::MAX;
            self.reward(loc.slice, state, action, core as usize, -1, cycle);
        }
    }

    fn choose_victim(&mut self, loc: LlcLoc, acc: &Access, cycle: u64) -> Decision {
        // Decide the action for the incoming line; bypass is an action.
        if acc.kind != AccessKind::Writeback {
            self.decisions += 1;
            let state = self.state(acc, loc.slice);
            let p = self.fabric.predict(loc.slice, acc.core, cycle);
            let explore = self.next_rand().is_multiple_of(EPSILON_RECIPROCAL);
            let action = if explore {
                self.explorations += 1;
                (self.next_rand() % N_ACTIONS as u64) as usize
            } else if p.fallback {
                FALLBACK_ACTION
            } else {
                self.best_action(p.bank, state).0
            };
            if ACTIONS[action] == Action::Bypass {
                self.bypassed[self.bypassed_next] = (acc.line, state, action as u8, acc.core as u8);
                self.bypassed_next = (self.bypassed_next + 1) % self.bypassed.len();
                // Mildly positive reward for bypassing keeps dead streams out;
                // the -1 penalty on re-demand corrects mistakes.
                self.reward(loc.slice, state, action as u8, acc.core, 0, cycle);
                return Decision::Bypass;
            }
        }
        // Victim: RRIP with aging.
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
        // The dead victim penalises its inserting decision.
        if evicted.is_some() {
            let p = *self.prov.get(loc.slice, loc.set, way);
            if !p.rewarded && p.state != 0 {
                self.reward(loc.slice, p.state, p.action, p.core as usize, -1, cycle);
            }
        }
        let (action, lat) = if acc.kind == AccessKind::Writeback {
            (Action::Distant, 0)
        } else {
            let state = self.state(acc, loc.slice);
            let p = self.fabric.predict(loc.slice, acc.core, cycle);
            let lat = p.latency;
            let a = if p.fallback {
                FALLBACK_ACTION
            } else {
                self.best_action(p.bank, state).0
            };
            let chosen = if ACTIONS[a] == Action::Bypass {
                Action::Long
            } else {
                ACTIONS[a]
            };
            *self.prov.get_mut(loc.slice, loc.set, way) = Provenance {
                state,
                action: a as u8,
                core: acc.core as u8,
                rewarded: false,
            };
            (chosen, lat)
        };
        *self.rrpv.get_mut(loc.slice, loc.set, way) = action.rrpv();
        lat
    }

    fn fabric_stats(&self) -> NocStats {
        self.fabric.link_stats()
    }

    fn diagnostics(&self) -> Vec<(String, u64)> {
        let fc = self.fabric.counters();
        vec![
            ("decisions".into(), self.decisions),
            ("explorations".into(), self.explorations),
            ("rewards_pos".into(), self.rewards_pos),
            ("rewards_neg".into(), self.rewards_neg),
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
            Chrome::new(&geom(), &DrishtiConfig::baseline(1)).name(),
            "chrome"
        );
        assert_eq!(
            Chrome::new(&geom(), &DrishtiConfig::drishti(1)).name(),
            "d-chrome"
        );
    }

    #[test]
    fn learns_to_protect_reuse_from_scan() {
        let g = geom();
        let mut llc = SlicedLlc::with_hasher(
            g,
            Box::new(Chrome::new(&g, &cfg())),
            Box::new(ModuloHash::new()),
        );
        let mut trace = Vec::new();
        let mut stream = 200_000u64;
        for _ in 0..400 {
            for k in 0..32u64 {
                trace.push((0xAAAA, k));
            }
            for _ in 0..64 {
                stream += 1;
                trace.push((0xBBBB, stream));
            }
        }
        let rl_hits = run(&mut llc, &trace);
        let mut lru = SlicedLlc::with_hasher(
            g,
            Box::new(crate::lru::Lru::new(&g)),
            Box::new(ModuloHash::new()),
        );
        let lru_hits = run(&mut lru, &trace);
        assert!(
            rl_hits > lru_hits,
            "chrome {rl_hits} should beat lru {lru_hits}"
        );
    }

    #[test]
    fn rewards_flow_both_ways() {
        let g = geom();
        let mut llc = SlicedLlc::with_hasher(
            g,
            Box::new(Chrome::new(&g, &cfg())),
            Box::new(ModuloHash::new()),
        );
        let trace: Vec<(u64, u64)> = (0..20_000u64)
            .map(|i| {
                if i % 3 == 0 {
                    (0x1, i % 20)
                } else {
                    (0x2, 10_000 + i)
                }
            })
            .collect();
        run(&mut llc, &trace);
        let d = llc.policy().diagnostics();
        let get = |n: &str| d.iter().find(|(k, _)| k == n).unwrap().1;
        assert!(get("rewards_pos") > 0);
        assert!(get("rewards_neg") > 0);
        assert!(get("decisions") > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = geom();
        let trace: Vec<(u64, u64)> = (0..5000u64).map(|i| (i % 7, i % 300)).collect();
        let mut a = SlicedLlc::with_hasher(
            g,
            Box::new(Chrome::new(&g, &cfg())),
            Box::new(ModuloHash::new()),
        );
        let mut b = SlicedLlc::with_hasher(
            g,
            Box::new(Chrome::new(&g, &cfg())),
            Box::new(ModuloHash::new()),
        );
        assert_eq!(run(&mut a, &trace), run(&mut b, &trace));
    }
}
