//! Figure 13: performance improvement of Hawkeye, D-Hawkeye, Mockingjay and
//! D-Mockingjay over LRU on 4-, 16- and 32-core systems with 8, 32 and
//! 64 MB sliced LLCs, across homogeneous + heterogeneous mixes.
//!
//! Runs on the parallel sweep harness: every `(mix, policy, organisation)`
//! cell — across *all* requested core counts — goes into one job batch,
//! and the report written to `target/sweep/` is bit-identical for any
//! `--jobs` value (the CI determinism gate diffs `--jobs 1` against
//! `--jobs max` on exactly this experiment).
//!
//! Paper values (average normalised weighted speedup over LRU):
//!   4 cores:  Hawkeye +3.1%, D-Hawkeye +4.2%, Mockingjay +6.4%, D-Mockingjay +6.9%
//!   16 cores: (trend between 4 and 32)
//!   32 cores: Hawkeye +3.3%, D-Hawkeye +5.6%, Mockingjay +6.7%, D-Mockingjay +13.2%

use crate::{
    header, headline_groups, improvement_row, sweep_groups, write_reports, ExpError, ExpOpts,
    HEADLINE_LABELS,
};

pub fn run(opts: &ExpOpts) -> Result<(), ExpError> {
    println!("# Figure 13: normalised weighted speedup over LRU\n");
    header("cores (LLC)", &HEADLINE_LABELS);
    let groups = headline_groups(opts);
    let (group_evals, report, timing) = sweep_groups("fig13_main_performance", &groups, opts)?;
    for g in &group_evals {
        let cores = g.mixes[0].cores();
        improvement_row(&format!("{cores} cores ({} MB)", cores * 2), &g.evals);
    }
    println!("\npaper: 4-core +3.1/+4.2/+6.4/+6.9; 32-core +3.3/+5.6/+6.7/+13.2");
    write_reports(opts, &report, &timing)
}
