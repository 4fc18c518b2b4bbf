//! Figure 15: uncore (LLC + NoC + DRAM, plus NOCSTAR for D-variants)
//! dynamic energy, normalised to LRU, on 16- and 32-core systems.
//!
//! Paper values (32 cores): Hawkeye 0.98, Mockingjay 0.95, D-Hawkeye 0.97,
//! D-Mockingjay 0.91 (lower is better; savings come from fewer DRAM reads
//! and LLC write-backs).

use crate::{
    column_means, f2, header, headline_groups, row, sweep_groups, write_reports, ExpError, ExpOpts,
    HEADLINE_LABELS,
};

pub fn run(opts: &ExpOpts) -> Result<(), ExpError> {
    println!("# Figure 15: uncore energy normalised to LRU (lower is better)\n");
    header("cores", &HEADLINE_LABELS);
    let groups = headline_groups(opts);
    let (group_evals, report, timing) = sweep_groups("fig15_energy", &groups, opts)?;
    for (g, cores) in group_evals.iter().zip(opts.cores()) {
        let ratios = column_means(&g.evals, |c, e| {
            c.result.energy.normalized_to(&e.lru.energy)
        });
        let values: Vec<String> = ratios.into_iter().map(f2).collect();
        row(&format!("{cores} cores"), &values);
    }
    println!("\npaper (32 cores): 0.98 / 0.97 / 0.95 / 0.91");
    write_reports(opts, &report, &timing)
}
