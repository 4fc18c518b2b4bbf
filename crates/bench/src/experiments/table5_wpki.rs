//! Table 5: average LLC write-backs per kilo-instruction (WPKI) for LRU,
//! Hawkeye, D-Hawkeye, Mockingjay and D-Mockingjay.
//!
//! Paper values (16 cores): LRU 0.18, Hawkeye 1.15, D-Hawkeye 2.63,
//! Mockingjay 7.16, D-Mockingjay 7.02 — Belady-mimicking policies assign
//! dirty lines the lowest priority, so write-back traffic rises sharply
//! versus LRU.

use crate::{
    column_means, f2, header, headline_groups, row, sweep_groups, write_reports, ExpError, ExpOpts,
};
use drishti_sim::metrics::mean;

pub fn run(opts: &ExpOpts) -> Result<(), ExpError> {
    println!("# Table 5: LLC WPKI (write-backs per kilo-instruction)\n");
    header(
        "cores",
        &["lru", "hawkeye", "d-hawkeye", "mockingjay", "d-mockingjay"],
    );
    let groups = headline_groups(opts);
    let (group_evals, report, timing) = sweep_groups("table5_wpki", &groups, opts)?;
    for (g, cores) in group_evals.iter().zip(opts.cores()) {
        let mut values = vec![f2(mean(
            &g.evals.iter().map(|e| e.lru.wpki()).collect::<Vec<_>>(),
        ))];
        values.extend(
            column_means(&g.evals, |c, _| c.result.wpki())
                .into_iter()
                .map(f2),
        );
        row(&format!("{cores} cores"), &values);
    }
    println!("\npaper (16 cores): 0.18 / 1.15 / 2.63 / 7.16 / 7.02");
    println!("shape check: every Belady-mimicking policy must exceed LRU's WPKI.");
    write_reports(opts, &report, &timing)
}
