//! Table 7: applicability of Drishti's two enhancements across replacement
//! policy families — the per-core-yet-global predictor applies to
//! prediction-based policies, the dynamic sampled cache to anything that
//! samples sets (set-dueling included); EVA-style distribution policies use
//! neither.
//!
//! The experiment prints the matrix and *verifies each row by construction*:
//! it builds every policy under the Drishti configuration and checks that
//! predictor-fabric traffic appears exactly when the matrix says
//! Enhancement I applies.

use crate::{ExpError, ExpOpts};
use drishti_core::config::DrishtiConfig;
use drishti_policies::factory::PolicyKind;
use drishti_sim::runner::run_mix;
use drishti_trace::mix::Mix;
use drishti_trace::presets::Benchmark;

pub fn run(opts: &ExpOpts) -> Result<(), ExpError> {
    let cores = opts.last_cores();
    let mut rc = opts.rc(cores);
    rc.accesses_per_core = rc.accesses_per_core.min(30_000);
    rc.warmup_accesses = rc.accesses_per_core / 4;
    let mix = Mix::homogeneous(Benchmark::Gcc, cores, 1);
    println!("# Table 7: applicability across policy families\n");
    println!(
        "{:<14} {:<20} {:>22} {:>18}",
        "policy", "family", "per-core predictor", "dynamic sampling"
    );
    for pk in PolicyKind::all() {
        let family = match pk {
            PolicyKind::Lru => "baseline",
            PolicyKind::Srrip | PolicyKind::Dip => "memoryless",
            _ => "prediction-based",
        };
        let pred = pk.is_prediction_based();
        let dsc = pk != PolicyKind::Lru && pk != PolicyKind::Srrip;
        println!(
            "{:<14} {:<20} {:>22} {:>18}",
            pk.label(),
            family,
            if pred { "yes" } else { "no (x)" },
            if dsc { "yes" } else { "no (x)" },
        );
        // Verify by construction: fabric traffic iff Enhancement I applies.
        let r = run_mix(&mix, pk, DrishtiConfig::drishti(cores), &rc);
        let has_traffic = r.fabric.messages > 0;
        if has_traffic != pred {
            return Err(ExpError::Failed(format!(
                "{pk}: fabric traffic {has_traffic} but matrix says {pred}"
            )));
        }
    }
    println!("\nverified: predictor-fabric traffic appears exactly for the");
    println!("prediction-based rows (paper Table 7's ✓ column).");
    Ok(())
}
