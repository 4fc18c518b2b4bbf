//! Table 6: weighted speedup, harmonic speedup, unfairness and maximum
//! individual slowdown for Hawkeye/D-Hawkeye/Mockingjay/D-Mockingjay on a
//! 32-core, 64 MB system.
//!
//! Runs on the parallel sweep harness (`--jobs N`); the sweep report
//! lands in `target/sweep/table6_metrics.json`.
//!
//! Paper values: WS +3.3/+5.6/+6.7/+13.3 %, HS +3.4/+5/+4.5/+12.8 %,
//! Unfairness 1.2/1.2/1.30/1.28, MIS 41.4/40/37/34.2 %.

use crate::{
    column_means, f2, header, headline_policies, pct, row, sweep_groups, write_reports, ExpError,
    ExpOpts, MixGroup, HEADLINE_LABELS,
};

pub fn run(opts: &ExpOpts) -> Result<(), ExpError> {
    // Table 6 is a single-core-count table: the last one requested.
    let cores = opts.last_cores();
    println!("# Table 6: multi-programmed metrics on {cores} cores\n");
    let policies = headline_policies(cores);
    let group = MixGroup::paper(opts, cores, policies.clone());
    let (mut group_evals, mut report, timing) = sweep_groups("table6_metrics", &[group], opts)?;
    let evals = group_evals.remove(0).evals;
    header("metric", &HEADLINE_LABELS);
    let ws = column_means(&evals, |c, _| c.ws_improvement_pct);
    row(
        "WS improvement",
        &ws.iter().map(|v| pct(*v)).collect::<Vec<_>>(),
    );
    let hs = column_means(&evals, |c, e| {
        (c.metrics.harmonic_speedup() / e.lru_metrics.harmonic_speedup() - 1.0) * 100.0
    });
    row(
        "HS improvement",
        &hs.iter().map(|v| pct(*v)).collect::<Vec<_>>(),
    );
    let unf = column_means(&evals, |c, _| c.metrics.unfairness());
    row(
        "Unfairness",
        &unf.iter().map(|v| f2(*v)).collect::<Vec<_>>(),
    );
    let mis = column_means(&evals, |c, _| c.metrics.max_individual_slowdown() * 100.0);
    row(
        "MIS (%)",
        &mis.iter().map(|v| format!("{v:.1}")).collect::<Vec<_>>(),
    );
    // The table's aggregates also go into the report summary, keyed by
    // the same policy/org columns as the per-group WS means.
    for (section, values) in [("mean_hs_improvement_pct", &hs), ("mean_unfairness", &unf)] {
        report.summary.push((
            section.to_string(),
            policies
                .iter()
                .zip(values)
                .map(|((pk, cfg), v)| (format!("{}/{}", pk.label(), cfg.label()), *v))
                .collect(),
        ));
    }
    println!("\npaper (32 cores): WS +3.3/+5.6/+6.7/+13.3; HS +3.4/+5/+4.5/+12.8;");
    println!("                  unfairness 1.2/1.2/1.30/1.28; MIS 41.4/40/37/34.2");
    write_reports(opts, &report, &timing)
}
