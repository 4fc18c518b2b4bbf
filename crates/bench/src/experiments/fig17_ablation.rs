//! Figure 17: utility of each Drishti enhancement on Mockingjay (32-core
//! mixes): baseline Mockingjay → + per-core global predictor ("global
//! view") → + dynamic sampled cache (full D-Mockingjay), split by
//! SPEC-dominated vs GAP-dominated mixes.
//!
//! Runs on the parallel sweep harness (`--jobs N`); the sweep report
//! lands in `target/sweep/fig17_ablation.json`.
//!
//! Paper: Mockingjay 3.8% (SPEC+GAP homo) / 9.7% (hetero); global view
//! raises SPEC to ~7.4% and GAP to ~6.9%; +DSC reaches 10.2% (SPEC) /
//! 8.5% (GAP).

use crate::{
    column_means, header, pct, row, sweep_groups, write_reports, ExpError, ExpOpts, MixEval,
    MixGroup,
};
use drishti_core::config::DrishtiConfig;
use drishti_policies::factory::PolicyKind;

pub fn run(opts: &ExpOpts) -> Result<(), ExpError> {
    let cores = opts.last_cores();
    println!("# Figure 17: Drishti enhancement ablation on Mockingjay ({cores} cores)\n");
    let policies = vec![
        (PolicyKind::Mockingjay, DrishtiConfig::baseline(cores)),
        (
            PolicyKind::Mockingjay,
            DrishtiConfig::global_view_only(cores),
        ),
        (PolicyKind::Mockingjay, DrishtiConfig::drishti(cores)),
        (PolicyKind::Mockingjay, DrishtiConfig::dsc_only(cores)),
    ];
    let group = MixGroup::paper(opts, cores, policies);
    let (mut group_evals, report, timing) = sweep_groups("fig17_ablation", &[group], opts)?;
    let g = group_evals.remove(0);
    header(
        "mix class",
        &["baseline", "global-view", "global+DSC", "DSC-only"],
    );
    for (label, filter) in [("homogeneous", true), ("heterogeneous", false)] {
        let evals: Vec<&MixEval> = g
            .mixes
            .iter()
            .zip(&g.evals)
            .filter(|(m, _)| m.is_homogeneous() == filter)
            .map(|(_, e)| e)
            .collect();
        if evals.is_empty() {
            continue;
        }
        let means = column_means(evals, |c, _| c.ws_improvement_pct);
        row(label, &means.iter().map(|v| pct(*v)).collect::<Vec<_>>());
    }
    println!("\npaper: global view contributes most of the gain; DSC adds on top");
    println!("(Mockingjay 3.8→6→9.7% homo; the DSC also halves sampled-set storage).");
    write_reports(opts, &report, &timing)
}
