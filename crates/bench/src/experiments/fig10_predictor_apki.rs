//! Figure 10: predictor accesses (training + prediction lookups) per
//! kilo-instruction, centralized global predictor vs. Drishti's per-core
//! global predictors, on 4/8/16/32 cores.
//!
//! Paper: centralized — >65 APKI average at 32 cores (max 257.76, mcf);
//! per-core — 2.46 APKI average per core (max 8.05). The point is that a
//! single centralized structure must absorb the *sum* of all cores'
//! traffic, while per-core structures split it.

use crate::{ExpError, ExpOpts};
use drishti_core::config::DrishtiConfig;
use drishti_policies::factory::PolicyKind;
use drishti_sim::runner::run_mix;

pub fn run(opts: &ExpOpts) -> Result<(), ExpError> {
    println!("# Figure 10: predictor accesses per kilo-instruction\n");
    println!(
        "{:<8} {:>22} {:>26}",
        "cores", "centralized (total)", "per-core global (per bank)"
    );
    for &cores in opts.cores() {
        let rc = opts.rc(cores);
        let mixes = opts.paper_mixes(cores);
        let mut centralized = Vec::new();
        let mut per_core = Vec::new();
        for mix in &mixes {
            let c = run_mix(
                mix,
                PolicyKind::Mockingjay,
                DrishtiConfig::centralized(cores),
                &rc,
            );
            centralized.push(c.predictor_apki());
            let d = run_mix(
                mix,
                PolicyKind::Mockingjay,
                DrishtiConfig::drishti(cores),
                &rc,
            );
            // Per-core banks split the same traffic across `cores` banks.
            per_core.push(d.predictor_apki() / cores as f64);
        }
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        println!(
            "{cores:<8} {:>22.2} {:>26.2}",
            avg(&centralized),
            avg(&per_core)
        );
    }
    println!("\npaper (32 cores): centralized >65 APKI (max 257.8); per-core 2.46 (max 8.05)");
    Ok(())
}
