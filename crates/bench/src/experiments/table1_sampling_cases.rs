//! Table 1: speedup on top of Mockingjay (random sampled sets) when the
//! sampled sets are chosen by per-set MPKA, for a 16-core homogeneous mcf
//! mix: Case I — top-32 MPKA sets; Case II — bottom-32; Case III — 16 top
//! + 16 bottom.
//!
//! Paper: Case I +16.4%, Case II +8.3%, Case III +9.5% — the high-MPKA
//! sets carry the training signal.

use crate::{ExpError, ExpOpts};
use drishti_core::config::{DrishtiConfig, SamplingMode};
use drishti_policies::factory::PolicyKind;
use drishti_sim::runner::run_mix;
use drishti_trace::mix::Mix;
use drishti_trace::presets::Benchmark;

pub fn run(opts: &ExpOpts) -> Result<(), ExpError> {
    let cores = opts.last_cores();
    let rc = opts.rc(cores);
    let mix = Mix::homogeneous(Benchmark::Mcf, cores, 5);
    println!("# Table 1: MPKA-informed sampled-set selection, 16-core mcf\n");

    // Profile per-set MPKA under LRU (the workload's intrinsic per-set
    // pressure, paper Fig 5), then evaluate Mockingjay with each selection.
    let profile = run_mix(&mix, PolicyKind::Lru, DrishtiConfig::baseline(cores), &rc);
    let baseline = run_mix(
        &mix,
        PolicyKind::Mockingjay,
        DrishtiConfig::baseline(cores),
        &rc,
    );
    let baseline_ipc = baseline.total_ipc();

    // Rank each slice's sets by MPKA.
    let ranked: Vec<Vec<usize>> = profile
        .set_counters
        .iter()
        .map(|slice| {
            let mut idx: Vec<usize> = (0..slice.len()).collect();
            idx.sort_by(|&a, &b| {
                slice[b]
                    .mpka()
                    .partial_cmp(&slice[a].mpka())
                    .expect("finite")
            });
            idx
        })
        .collect();

    let n = 32.min(rc.system.llc.sets_per_slice);
    let cases: Vec<(&str, Vec<Vec<usize>>)> = vec![
        (
            "Case I (top-32 MPKA)",
            ranked.iter().map(|r| r[..n].to_vec()).collect(),
        ),
        (
            "Case II (bottom-32 MPKA)",
            ranked.iter().map(|r| r[r.len() - n..].to_vec()).collect(),
        ),
        (
            "Case III (16 top + 16 bottom)",
            ranked
                .iter()
                .map(|r| {
                    let mut v = r[..n / 2].to_vec();
                    v.extend_from_slice(&r[r.len() - n / 2..]);
                    v
                })
                .collect(),
        ),
    ];

    println!("baseline Mockingjay (random sampled sets) total IPC: {baseline_ipc:.3}\n");
    for (label, lists) in cases {
        let mut cfg = DrishtiConfig::baseline(cores);
        cfg.sampling = SamplingMode::Explicit(lists);
        let r = run_mix(&mix, PolicyKind::Mockingjay, cfg, &rc);
        println!(
            "{label:<32} speedup over random sampling: {:+.1}%",
            (r.total_ipc() / baseline_ipc - 1.0) * 100.0
        );
    }
    println!("\npaper: +16.4% / +8.3% / +9.5% — Case I (high-MPKA) must win");
    Ok(())
}
