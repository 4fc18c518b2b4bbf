//! Figure 11a: slowdown of D-Mockingjay when the slice↔predictor traffic
//! rides the existing mesh instead of NOCSTAR, vs. baseline Mockingjay, on
//! 4/16/32 cores.
//!
//! Paper: −2.8% (4 cores), −5.5% (16), −9% (32; up to −40% for mcf homo) —
//! without a low-latency interconnect, the benefit of global training is
//! nullified by the added fill-path latency.

use crate::{mean_improvements, pct, sweep_groups, write_reports, ExpError, ExpOpts, MixGroup};
use drishti_core::config::DrishtiConfig;
use drishti_policies::factory::PolicyKind;

pub fn run(opts: &ExpOpts) -> Result<(), ExpError> {
    println!("# Figure 11a: D-Mockingjay without NOCSTAR (mesh fabric) vs Mockingjay\n");
    println!(
        "{:<8} {:>16} {:>18} {:>22}",
        "cores", "mockingjay", "d-mockingjay", "d-mockingjay (mesh)"
    );
    let groups: Vec<MixGroup> = opts
        .cores()
        .iter()
        .map(|&cores| {
            let policies = vec![
                (PolicyKind::Mockingjay, DrishtiConfig::baseline(cores)),
                (PolicyKind::Mockingjay, DrishtiConfig::drishti(cores)),
                (
                    PolicyKind::Mockingjay,
                    DrishtiConfig::drishti_without_nocstar(cores),
                ),
            ];
            MixGroup::paper(opts, cores, policies)
        })
        .collect();
    let (group_evals, report, timing) = sweep_groups("fig11a_no_nocstar", &groups, opts)?;
    for (g, cores) in group_evals.iter().zip(opts.cores()) {
        let avg: Vec<String> = mean_improvements(&g.evals)
            .iter()
            .map(|(_, v)| pct(*v))
            .collect();
        println!("{cores:<8} {:>16} {:>18} {:>22}", avg[0], avg[1], avg[2]);
    }
    println!("\npaper: mesh-fabric slowdown vs Mockingjay grows with cores (−2.8/−5.5/−9%)");
    write_reports(opts, &report, &timing)
}
