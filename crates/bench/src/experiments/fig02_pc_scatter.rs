//! Figure 2: fraction of PCs per core (excluding single-load PCs) whose
//! demand loads map to exactly one LLC slice, for 16-core mixes.
//!
//! Paper: 66.2% average across 35 homogeneous + 35 heterogeneous mixes;
//! xalan is the worst (~40%, heavily scattered PCs), pr the best. The
//! metric is policy- and prefetcher-independent, so it is computed on the
//! recorded LLC-level demand stream of an LRU run.

use crate::{ExpError, ExpOpts};
use drishti_core::config::DrishtiConfig;
use drishti_noc::slicehash::{SliceHasher, XorFoldHash};
use drishti_policies::factory::PolicyKind;
use drishti_sim::pcstats::pc_slice_concentration;
use drishti_sim::runner::run_mix;
use drishti_trace::mix::Mix;
use drishti_trace::presets::Benchmark;

pub fn run(opts: &ExpOpts) -> Result<(), ExpError> {
    let cores = opts.last_cores();
    let mut rc = opts.rc(cores);
    rc.record_llc_stream = true;
    println!("# Figure 2: fraction of multi-load PCs mapping to one slice ({cores} cores)\n");
    let hasher = XorFoldHash::new();

    // Named homogeneous case studies first (the paper calls out xalan low,
    // pr high), then the mixed set for the average.
    let mut mixes = vec![
        Mix::homogeneous(Benchmark::Xalan, cores, 400),
        Mix::homogeneous(Benchmark::Mcf, cores, 401),
        Mix::homogeneous(Benchmark::PrKron, cores, 402),
    ];
    mixes.extend(opts.paper_mixes(cores));

    let mut fractions = Vec::new();
    println!("{:<24} {:>22}", "mix", "one-slice PCs (avg %)");
    for mix in &mixes {
        let r = run_mix(mix, PolicyKind::Lru, DrishtiConfig::baseline(cores), &rc);
        let stats =
            pc_slice_concentration(&r.llc_stream, cores, |line| hasher.slice_of(line, cores));
        let avg = stats.average() * 100.0;
        println!("{:<24} {avg:>21.1}%", mix.name);
        fractions.push(avg);
    }
    let mean = fractions.iter().sum::<f64>() / fractions.len() as f64;
    println!("\naverage: {mean:.1}%  (paper: 66.2% average; xalan ≈40% — lowest)");
    Ok(())
}
