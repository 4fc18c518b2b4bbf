//! Figure 19: Hawkeye/D-Hawkeye/Mockingjay/D-Mockingjay on server-class
//! workloads (CVP1, Google datacenter, CloudSuite, XSBench) for 16- and
//! 32-core mixes.
//!
//! Paper: on these traces the base policies only gain 2–3% (max 13%) —
//! server workloads have low LLC MPKI — and Drishti adds ~2% on average.

use crate::{
    header, headline_policies, improvement_row, sweep_groups, write_reports, ExpError, ExpOpts,
    MixGroup, HEADLINE_LABELS,
};
use drishti_trace::mix::server_mixes;

pub fn run(opts: &ExpOpts) -> Result<(), ExpError> {
    println!("# Figure 19: server-class workloads\n");
    header("cores", &HEADLINE_LABELS);
    let n = if opts.full { 50 } else { opts.mixes };
    let groups: Vec<MixGroup> = opts
        .cores()
        .iter()
        .map(|&cores| MixGroup {
            mixes: server_mixes(cores, n),
            ..MixGroup::paper(opts, cores, headline_policies(cores))
        })
        .collect();
    let (group_evals, report, timing) = sweep_groups("fig19_server", &groups, opts)?;
    for (g, cores) in group_evals.iter().zip(opts.cores()) {
        improvement_row(&format!("{cores} cores"), &g.evals);
    }
    println!("\npaper: base policies 2–3%; Drishti adds ~2% on top of each");
    write_reports(opts, &report, &timing)
}
