//! Figure 5: misses per kilo-access (MPKA) per LLC set for 16-core
//! homogeneous mcf, gcc and lbm mixes.
//!
//! Paper: mcf — strong skew (many sets under 100 MPKA, a few very hot);
//! gcc — milder skew; lbm — uniform MPKA across all sets (streaming).

use crate::{ExpError, ExpOpts};
use drishti_core::config::DrishtiConfig;
use drishti_policies::factory::PolicyKind;
use drishti_sim::runner::run_mix;
use drishti_trace::mix::Mix;
use drishti_trace::presets::Benchmark;

pub fn run(opts: &ExpOpts) -> Result<(), ExpError> {
    let cores = opts.last_cores();
    let rc = opts.rc(cores);
    println!("# Figure 5: per-set MPKA distribution ({cores} cores, slice 0)\n");
    println!(
        "{:<8} {:>8} {:>8} {:>8} {:>8} {:>10} {:>12}",
        "mix", "min", "p50", "p90", "max", "mean", "cv(stddev/mean)"
    );
    for bench in [Benchmark::Mcf, Benchmark::Gcc, Benchmark::Lbm] {
        let mix = Mix::homogeneous(bench, cores, 3);
        let r = run_mix(&mix, PolicyKind::Lru, DrishtiConfig::baseline(cores), &rc);
        // Aggregate MPKA across all slices' sets.
        let mut mpkas: Vec<f64> = r
            .set_counters
            .iter()
            .flat_map(|slice| slice.iter())
            .filter(|c| c.accesses > 0)
            .map(|c| c.mpka())
            .collect();
        mpkas.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let n = mpkas.len();
        let mean = mpkas.iter().sum::<f64>() / n as f64;
        let var = mpkas.iter().map(|m| (m - mean).powi(2)).sum::<f64>() / n as f64;
        let cv = var.sqrt() / mean.max(1e-9);
        println!(
            "{:<8} {:>8.0} {:>8.0} {:>8.0} {:>8.0} {:>10.1} {:>12.3}",
            bench.label(),
            mpkas[0],
            mpkas[n / 2],
            mpkas[n * 9 / 10],
            mpkas[n - 1],
            mean,
            cv
        );
    }
    println!("\npaper shape: cv(mcf) > cv(gcc) >> cv(lbm) ≈ 0 (uniform)");
    Ok(())
}
