//! Checkpoint seam of the event-driven scheduler (DESIGN.md §16).
//!
//! The engine orders core steps on a min-heap of `(sched_key, core)`
//! entries that `run_steps` rebuilds from core state on every call, so
//! nothing scheduler-related is saved in a checkpoint. A snapshot taken
//! mid-run must still resume exactly where the uninterrupted run would
//! be: `run(N)` equals `run(k); save; restore; run(N − k)`.

use drishti::core::config::DrishtiConfig;
use drishti::policies::factory::PolicyKind;
use drishti::sim::ckpt::{restore_engine_bytes, save_engine_bytes};
use drishti::sim::config::SystemConfig;
use drishti::sim::engine::Engine;
use drishti::trace::mix::Mix;
use drishti::trace::presets::Benchmark;
use drishti::trace::WorkloadGen;

const CORES: usize = 4;
const ACCESSES: u64 = 3_000;
const WARMUP: u64 = 400;

fn engine() -> Engine {
    let mix = Mix::heterogeneous(&Benchmark::spec_and_gap(), CORES, 9);
    let cfg = SystemConfig::paper_baseline(CORES);
    let workloads = mix
        .build()
        .into_iter()
        .map(|w| Some(Box::new(w) as Box<dyn WorkloadGen>))
        .collect();
    let pol = PolicyKind::Mockingjay.build(&cfg.llc, DrishtiConfig::drishti(CORES));
    Engine::new(cfg, workloads, pol, ACCESSES, WARMUP, false)
}

/// `run(N)` equals `run(k); save; restore; run(N − k)` for several split
/// points, including one before warm-up completes.
#[test]
fn event_engine_checkpoint_seam_is_bit_identical() {
    let mut whole = engine();
    let expect = whole.run();
    for k in [1u64, 300, 3_000, 9_000] {
        let mut first = engine();
        first.run_steps(k);
        let bytes = save_engine_bytes(&first);
        let mut second = engine();
        restore_engine_bytes(&mut second, &bytes)
            .unwrap_or_else(|e| panic!("k={k}: restore failed: {e}"));
        assert_eq!(second.run(), expect, "k={k}: seam diverged");
        assert_eq!(second.llc().stats(), whole.llc().stats(), "k={k}");
        assert_eq!(second.dram().stats(), whole.dram().stats(), "k={k}");
    }
}
