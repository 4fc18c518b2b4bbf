//! Figure 14: LLC miss (MPKI) reduction over LRU on 4/16/32 cores,
//! averaged across the homogeneous + heterogeneous mixes.
//!
//! Paper values: 4 cores — Hawkeye −12.9%, D-Hawkeye −14.5%,
//! Mockingjay −23.8%, D-Mockingjay −24.0%; 32 cores — Hawkeye −10.6%,
//! D-Hawkeye −14.1%, Mockingjay −21.2%, D-Mockingjay −24.1%.

use crate::{
    column_means, header, headline_groups, pct, row, sweep_groups, write_reports, ExpError,
    ExpOpts, HEADLINE_LABELS,
};

pub fn run(opts: &ExpOpts) -> Result<(), ExpError> {
    println!("# Figure 14: LLC MPKI reduction vs LRU (more negative = better)\n");
    header("cores", &HEADLINE_LABELS);
    let groups = headline_groups(opts);
    let (group_evals, report, timing) = sweep_groups("fig14_mpki_reduction", &groups, opts)?;
    for (g, cores) in group_evals.iter().zip(opts.cores()) {
        // Mixes on which LRU never misses have no reduction to report.
        let missing = g.evals.iter().filter(|e| e.lru.llc_mpki() > 0.0);
        let reductions = column_means(missing, |c, e| {
            (c.result.llc_mpki() / e.lru.llc_mpki() - 1.0) * 100.0
        });
        let reductions: Vec<String> = reductions.into_iter().map(pct).collect();
        row(&format!("{cores} cores"), &reductions);
    }
    println!("\npaper: 4-core -12.9/-14.5/-23.8/-24.0; 32-core -10.6/-14.1/-21.2/-24.1");
    write_reports(opts, &report, &timing)
}
