//! Figure 16: per-mix performance of Mockingjay vs D-Mockingjay on 32-core
//! systems, sorted by improvement (an "S-curve").
//!
//! Paper: D-Mockingjay ≥ Mockingjay on every mix; max 77% (mcf homo) vs
//! 59%, xalan homo 26% vs 20%.

use crate::{sweep_groups, write_reports, ExpError, ExpOpts, MixGroup};
use drishti_core::config::DrishtiConfig;
use drishti_policies::factory::PolicyKind;

pub fn run(opts: &ExpOpts) -> Result<(), ExpError> {
    let cores = opts.last_cores();
    println!("# Figure 16: per-mix WS improvement over LRU, sorted ({cores} cores)\n");
    let policies = vec![
        (PolicyKind::Mockingjay, DrishtiConfig::baseline(cores)),
        (PolicyKind::Mockingjay, DrishtiConfig::drishti(cores)),
    ];
    let group = MixGroup::paper(opts, cores, policies);
    let (mut group_evals, report, timing) = sweep_groups("fig16_scurve", &[group], opts)?;
    let mut rows: Vec<(String, f64, f64)> = group_evals
        .remove(0)
        .evals
        .into_iter()
        .map(|e| {
            (
                e.mix,
                e.cells[0].ws_improvement_pct,
                e.cells[1].ws_improvement_pct,
            )
        })
        .collect();
    rows.sort_by(|a, b| a.2.partial_cmp(&b.2).expect("finite"));
    println!("{:<24} {:>12} {:>14}", "mix", "mockingjay", "d-mockingjay");
    let mut wins = 0;
    for (name, mj, dmj) in &rows {
        println!("{name:<24} {mj:>11.1}% {dmj:>13.1}%");
        if dmj >= mj {
            wins += 1;
        }
    }
    println!(
        "\nD-Mockingjay >= Mockingjay on {wins}/{} mixes (paper: all mixes)",
        rows.len()
    );
    write_reports(opts, &report, &timing)
}
