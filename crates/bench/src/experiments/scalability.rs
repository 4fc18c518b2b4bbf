//! Scalability (paper §5.3): D-Mockingjay on 64- and 128-core systems with
//! 128/256 MB sliced LLCs.
//!
//! Paper: the D-Mockingjay advantage persists at 64 and 128 cores (about
//! +1% more than at 32 cores).

use crate::{header, improvement_row, sweep_groups, write_reports, ExpError, ExpOpts, MixGroup};
use drishti_core::config::DrishtiConfig;
use drishti_policies::factory::PolicyKind;

pub fn run(opts: &ExpOpts) -> Result<(), ExpError> {
    println!("# Scalability: Mockingjay vs D-Mockingjay at high core counts\n");
    header("cores (LLC)", &["mockingjay", "d-mockingjay"]);
    // The registry defaults to the larger systems (32/64 cores).
    let groups: Vec<MixGroup> = opts
        .cores()
        .iter()
        .map(|&cores| {
            let policies = vec![
                (PolicyKind::Mockingjay, DrishtiConfig::baseline(cores)),
                (PolicyKind::Mockingjay, DrishtiConfig::drishti(cores)),
            ];
            let mut g = MixGroup::paper(opts, cores, policies);
            g.mixes.truncate(4);
            // Keep wall-clock bounded at very high core counts.
            g.rc.accesses_per_core = g.rc.accesses_per_core.min(60_000);
            g.rc.warmup_accesses = g.rc.accesses_per_core / 4;
            g
        })
        .collect();
    let (group_evals, report, timing) = sweep_groups("scalability", &groups, opts)?;
    for (g, cores) in group_evals.iter().zip(opts.cores()) {
        improvement_row(&format!("{cores} cores ({} MB)", cores * 2), &g.evals);
    }
    println!("\npaper: the advantage holds at 64/128 cores (≈ +1% over 32 cores)");
    write_reports(opts, &report, &timing)
}
