//! True least-recently-used replacement — the paper's baseline policy.

use crate::common::PerLine;
use drishti_mem::access::Access;
use drishti_mem::llc::LlcGeometry;
use drishti_mem::policy::{
    Decision, LlcLineState, LlcLoc, LlcPolicy, PolicyProbe, ProbeKind, SetProbe,
};

/// Per-slice true LRU. Every figure in the paper normalises to this.
#[derive(Debug)]
pub struct Lru {
    stamp: PerLine<u64>,
    clock: u64,
}

impl Lru {
    /// Build an LRU policy for the given geometry.
    pub fn new(geom: &LlcGeometry) -> Self {
        Lru {
            stamp: PerLine::new(geom),
            clock: 0,
        }
    }
}

drishti_noc::impl_persist_fields!(Lru { stamp, clock });

impl PolicyProbe for Lru {
    fn probe_set(&self, loc: LlcLoc) -> SetProbe {
        SetProbe {
            kind: ProbeKind::RecencyStamp,
            values: self
                .stamp
                .set(loc.slice, loc.set)
                .iter()
                .map(|&v| v as i64)
                .collect(),
        }
    }
}

impl LlcPolicy for Lru {
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
        "lru".into()
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
        0
    }

    fn on_miss(&mut self, _loc: LlcLoc, _acc: &Access, _cycle: u64) {}

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
        _acc: &Access,
        _evicted: Option<&LlcLineState>,
        _cycle: u64,
    ) -> u64 {
        self.clock += 1;
        *self.stamp.get_mut(loc.slice, loc.set, way) = self.clock;
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drishti_mem::llc::SlicedLlc;
    use drishti_noc::slicehash::ModuloHash;

    fn tiny_llc() -> SlicedLlc {
        let geom = LlcGeometry {
            slices: 1,
            sets_per_slice: 1,
            ways: 2,
            latency: 20,
        };
        SlicedLlc::with_hasher(geom, Box::new(Lru::new(&geom)), Box::new(ModuloHash::new()))
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut llc = tiny_llc();
        for (i, line) in [10u64, 20].iter().enumerate() {
            let a = Access::load(0, 0x1, *line);
            llc.lookup(&a, i as u64);
            llc.fill(&a, i as u64);
        }
        // Touch 10: now 20 is LRU.
        llc.lookup(&Access::load(0, 0x1, 10), 5);
        let a = Access::load(0, 0x1, 30);
        llc.lookup(&a, 6);
        llc.fill(&a, 6);
        assert!(llc.peek(10));
        assert!(!llc.peek(20));
        assert!(llc.peek(30));
    }

    #[test]
    fn lru_stack_property_on_scan() {
        // A cyclic scan over ways+1 lines never hits under LRU.
        let mut llc = tiny_llc();
        let mut hits = 0;
        for i in 0..30u64 {
            let a = Access::load(0, 0x1, i % 3);
            if llc.lookup(&a, i).hit {
                hits += 1;
            } else {
                llc.fill(&a, i);
            }
        }
        assert_eq!(hits, 0, "cyclic thrash must never hit in true LRU");
    }
}
