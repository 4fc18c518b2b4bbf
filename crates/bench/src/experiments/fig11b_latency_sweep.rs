//! Figure 11b: sensitivity of D-Mockingjay to the slice↔predictor
//! interconnect latency (1…30 cycles) on a 32-core system.
//!
//! Paper: latencies below five cycles cost nothing; ~20 cycles is where the
//! slowdown becomes significant (the mesh's average latency at 32 cores).

use crate::{mean_improvements, pct, sweep_groups, write_reports, ExpError, ExpOpts, MixGroup};
use drishti_core::config::DrishtiConfig;
use drishti_policies::factory::PolicyKind;

const LATENCIES: [u64; 6] = [1, 3, 5, 10, 20, 30];

pub fn run(opts: &ExpOpts) -> Result<(), ExpError> {
    let cores = opts.last_cores();
    println!("# Figure 11b: predictor-interconnect latency sensitivity ({cores} cores)\n");
    println!("{:<12} {:>26}", "latency", "D-Mockingjay WS vs LRU");
    let groups: Vec<MixGroup> = LATENCIES
        .iter()
        .map(|&latency| MixGroup {
            label: format!("lat{latency}"),
            ..MixGroup::paper(
                opts,
                cores,
                vec![(
                    PolicyKind::Mockingjay,
                    DrishtiConfig::drishti_fixed_latency(cores, latency),
                )],
            )
        })
        .collect();
    let (group_evals, report, timing) = sweep_groups("fig11b_latency_sweep", &groups, opts)?;
    for (g, latency) in group_evals.iter().zip(LATENCIES) {
        println!(
            "{latency:<12} {:>26}",
            pct(mean_improvements(&g.evals)[0].1)
        );
    }
    println!("\npaper: flat below 5 cycles, visibly degrading by 20–30 cycles");
    write_reports(opts, &report, &timing)
}
