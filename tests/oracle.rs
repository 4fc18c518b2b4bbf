//! Oracle differential tests: Belady's MIN (`simulate_opt`) is optimal,
//! so on any trace its miss count lower-bounds every online policy's.
//! Running the whole policy roster against the oracle on fixed-seed
//! traces catches inverted hit accounting (a policy "beating" OPT means
//! the bookkeeping is wrong, not the policy clever) and keeps the
//! lookup/fill contract of [`drishti::mem::llc::SlicedLlc`] honest.

use drishti::core::config::DrishtiConfig;
use drishti::mem::access::Access;
use drishti::mem::llc::{LlcGeometry, SlicedLlc};
use drishti::policies::factory::PolicyKind;
use drishti::policies::opt::simulate_opt;
use drishti::trace::presets::Benchmark;
use drishti::trace::scenario::datacenter_mix;
use drishti::trace::{TraceRecord, WorkloadGen};

fn small_geom() -> LlcGeometry {
    LlcGeometry {
        slices: 2,
        sets_per_slice: 4,
        ways: 2,
        latency: 20,
    }
}

/// A deterministic trace: `len` loads over a working set of `lines`
/// distinct lines, spread over a handful of PCs so prediction-based
/// policies have signatures to train on.
fn lcg_trace(seed: u64, len: usize, lines: u64) -> Vec<Access> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let line = (state >> 33) % lines;
            let pc = 0x400 + (state >> 21) % 8;
            Access::load(0, pc, line)
        })
        .collect()
}

/// Misses of `policy` driven over `trace` on a fresh LLC of `geom`,
/// using the same lookup-then-fill discipline as the engine.
fn policy_misses(policy: PolicyKind, org: &DrishtiConfig, trace: &[Access]) -> u64 {
    let geom = small_geom();
    let mut llc = SlicedLlc::new(geom, policy.build(&geom, org.clone()));
    let mut misses = 0;
    for (cycle, a) in trace.iter().enumerate() {
        if llc.lookup(a, cycle as u64).hit {
            continue;
        }
        misses += 1;
        llc.fill(a, cycle as u64);
    }
    misses
}

#[test]
fn opt_lower_bounds_every_policy_and_organisation() {
    let geom = small_geom();
    let roster = [
        PolicyKind::Lru,
        PolicyKind::ShipPp,
        PolicyKind::Hawkeye,
        PolicyKind::Mockingjay,
        PolicyKind::Glider,
        PolicyKind::Chrome,
    ];
    for seed in [0x1234, 0xdead_beef, 0x00c0_ffee] {
        let trace = lcg_trace(seed, 600, 40);
        let opt = simulate_opt(&trace, &geom);
        assert_eq!(opt.hits + opt.misses, trace.len() as u64);
        for policy in roster {
            for (org_label, org) in [
                ("baseline", DrishtiConfig::baseline(geom.slices)),
                ("drishti", DrishtiConfig::drishti(geom.slices)),
            ] {
                let misses = policy_misses(policy, &org, &trace);
                assert!(
                    opt.misses <= misses,
                    "seed {seed:#x}: OPT misses ({}) must lower-bound {policy}/{org_label} ({misses})",
                    opt.misses
                );
            }
        }
    }
}

fn record_access(core: usize, r: &TraceRecord) -> Access {
    if r.is_store {
        Access::store(core, r.pc, r.line)
    } else {
        Access::load(core, r.pc, r.line)
    }
}

/// The scenario families (DESIGN.md §18) as oracle traces. Phase and
/// adversarial traces are single-core generator streams; the datacenter
/// trace interleaves its mix's per-core generators round-robin, an
/// equal-rate stand-in for how the scheduler presents a consolidation mix
/// to the shared LLC.
fn scenario_traces(len: usize) -> Vec<(String, Vec<Access>)> {
    let mut traces = Vec::new();
    for bench in [Benchmark::PhaseMcfLbm, Benchmark::AdvScatter] {
        let records = bench.build(0x5eed).collect(len);
        traces.push((
            bench.label().to_string(),
            records.iter().map(|r| record_access(0, r)).collect(),
        ));
    }
    let mix = datacenter_mix(4, 2);
    let mut gens: Vec<_> = (0..mix.cores())
        .map(|c| mix.benchmarks[c].build(mix.seeds[c]))
        .collect();
    let dc: Vec<Access> = (0..len)
        .map(|i| {
            let core = i % gens.len();
            record_access(core, &gens[core].next_record())
        })
        .collect();
    traces.push((mix.name, dc));
    traces
}

/// OPT lower-bounds the roster on the new scenario families too: the
/// phase flip, the adversarial scatter and the datacenter interleaving
/// all stress bookkeeping paths (store accesses, multi-core interleave,
/// mid-trace archetype change) the lcg traces above never exercise.
#[test]
fn opt_lower_bounds_policies_on_scenario_families() {
    let geom = small_geom();
    let roster = [
        PolicyKind::Lru,
        PolicyKind::ShipPp,
        PolicyKind::Hawkeye,
        PolicyKind::Mockingjay,
        PolicyKind::Glider,
        PolicyKind::Chrome,
    ];
    for (name, trace) in scenario_traces(600) {
        let opt = simulate_opt(&trace, &geom);
        assert_eq!(opt.hits + opt.misses, trace.len() as u64);
        assert!(opt.misses > 0, "{name}: a 600-record trace must cold-miss");
        for policy in roster {
            // Orgs are sized for the datacenter mix's 4 cores (the
            // single-core traces only ever present core 0).
            for (org_label, org) in [
                ("baseline", DrishtiConfig::baseline(4)),
                ("drishti", DrishtiConfig::drishti(4)),
            ] {
                let misses = policy_misses(policy, &org, &trace);
                assert!(
                    opt.misses <= misses,
                    "{name}: OPT misses ({}) must lower-bound {policy}/{org_label} ({misses})",
                    opt.misses
                );
            }
        }
    }
}

#[test]
fn lru_on_cyclic_working_set_strictly_exceeds_opt() {
    // The classic adversarial case: 3 lines cycling through a 2-way set.
    // LRU always evicts the line needed next (zero hits after cold
    // misses); OPT pins one line and hits on every third access. A policy
    // harness with inverted hit accounting would report the opposite
    // ordering, which is exactly what this guards against.
    let geom = LlcGeometry {
        slices: 1,
        sets_per_slice: 1,
        ways: 2,
        latency: 20,
    };
    let trace: Vec<Access> = (0..30).map(|i| Access::load(0, 0x1, i % 3)).collect();
    let opt = simulate_opt(&trace, &geom);
    let mut llc = SlicedLlc::new(
        geom,
        PolicyKind::Lru.build(&geom, DrishtiConfig::baseline(1)),
    );
    let mut lru_misses = 0;
    for (cycle, a) in trace.iter().enumerate() {
        if !llc.lookup(a, cycle as u64).hit {
            lru_misses += 1;
            llc.fill(a, cycle as u64);
        }
    }
    assert_eq!(lru_misses, 30, "LRU must thrash the cyclic working set");
    assert!(
        opt.misses < lru_misses,
        "OPT ({}) must strictly beat LRU ({lru_misses}) here",
        opt.misses
    );
    assert!(opt.hits >= 9, "OPT retains a pinned line: {opt:?}");
}
