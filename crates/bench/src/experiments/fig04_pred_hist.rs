//! Figure 4: frequency distribution of predicted reuse values under the
//! myopic vs. global views — ETR classes for Mockingjay (a: xalan, b: pr)
//! and RRIP values for Hawkeye (c: xalan, d: pr), on 16-core homogeneous
//! mixes.
//!
//! Paper: the myopic/global distributions differ much more for xalan
//! (scattered PCs) than for pr (concentrated PCs).

use crate::{ExpError, ExpOpts};
use drishti_core::config::DrishtiConfig;
use drishti_policies::factory::PolicyKind;
use drishti_sim::runner::run_mix;
use drishti_trace::mix::Mix;
use drishti_trace::presets::Benchmark;

/// L1 distance between two normalised distributions (0 = identical,
/// 2 = disjoint).
fn l1(a: &[u64], b: &[u64]) -> f64 {
    let sa: u64 = a.iter().sum();
    let sb: u64 = b.iter().sum();
    if sa == 0 || sb == 0 {
        return 0.0;
    }
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x as f64 / sa as f64 - y as f64 / sb as f64).abs())
        .sum()
}

fn hist_from_diag(diag: &[(String, u64)], keys: &[&str]) -> Vec<u64> {
    let get = |k: &str| diag.iter().find(|(n, _)| n == k).map_or(0, |(_, v)| *v);
    keys.iter().map(|k| get(k)).collect()
}

pub fn run(opts: &ExpOpts) -> Result<(), ExpError> {
    let cores = opts.last_cores();
    let rc = opts.rc(cores);
    println!("# Figure 4: predicted-value distributions, myopic vs global view\n");
    for bench in [Benchmark::Xalan, Benchmark::PrKron] {
        let mix = Mix::homogeneous(bench, cores, 9);
        for pk in [PolicyKind::Mockingjay, PolicyKind::Hawkeye] {
            let myopic = run_mix(&mix, pk, DrishtiConfig::baseline(cores), &rc);
            let global = run_mix(&mix, pk, DrishtiConfig::global_view_only(cores), &rc);
            // Hawkeye exposes its insertion split through diagnostics;
            // Mockingjay's fill classes are proxied the same way
            // (friendly ↔ short-distance, averse ↔ bypass/INF classes).
            let (hm, hg) = match pk {
                PolicyKind::Hawkeye => (
                    hist_from_diag(&myopic.diagnostics, &["fills_friendly", "fills_averse"]),
                    hist_from_diag(&global.diagnostics, &["fills_friendly", "fills_averse"]),
                ),
                _ => (
                    hist_from_diag(
                        &myopic.diagnostics,
                        &["pred_q0", "pred_q1", "pred_q2", "pred_q3"],
                    ),
                    hist_from_diag(
                        &global.diagnostics,
                        &["pred_q0", "pred_q1", "pred_q2", "pred_q3"],
                    ),
                ),
            };
            println!(
                "{:<10} {:<12} myopic={:?} global={:?}  L1-divergence={:.3}",
                bench.label(),
                pk.label(),
                hm,
                hg,
                l1(&hm, &hg)
            );
        }
    }
    println!("\npaper: divergence(xalan) >> divergence(pr) for both policies");
    Ok(())
}
