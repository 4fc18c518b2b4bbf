//! Scenario-diversity study (DESIGN.md §18): Drishti vs its baseline on
//! the three workload families *outside* the paper's SPEC/GAP/server
//! protocol — phase-alternating composites, the adversarial slice-scatter
//! family, and datacenter consolidation mixes.
//!
//! The paper's evaluation (like most replacement-policy papers) holds the
//! workload archetype fixed for a whole run. This study probes the
//! blind spots that protocol leaves: does the slicing-aware organisation
//! still pay off when the archetype flips mid-run, when an adversary
//! maximises slice scattering, and when a few batch thrashers share the
//! LLC with many quiet server cores?
//!
//! The adversarial group is two-staged: a deterministic seed-space search
//! (`drishti_sim::conformance::adversarial`) first finds the worst-case
//! scatter seed against the D-Mockingjay cell, then that seed's workload
//! runs through the full harness like any other mix.
//!
//! Runs on the parallel sweep harness; the report written to
//! `target/sweep/scenarios.json` carries the `scenario_coverage` table
//! (every family × scenario × cores bucket the sweep exercised) and one
//! `scenario_ws_improvement_pct/*` summary row per family.

use crate::{
    header, improvement_row, mean_improvements, row, sweep_groups, write_reports, ExpError,
    ExpOpts, MixGroup,
};
use drishti_core::config::DrishtiConfig;
use drishti_policies::factory::PolicyKind;
use drishti_sim::conformance::adversarial::{search, SearchSpec};
use drishti_trace::mix::Mix;
use drishti_trace::presets::Benchmark;
use drishti_trace::scenario::datacenter_mix;

/// The policy columns: Mockingjay under the baseline and Drishti
/// organisations (the paper's headline pair, kept small so the smoke
/// gate's 4 family-runs stay fast).
fn policies(cores: usize) -> Vec<(PolicyKind, DrishtiConfig)> {
    vec![
        (PolicyKind::Mockingjay, DrishtiConfig::baseline(cores)),
        (PolicyKind::Mockingjay, DrishtiConfig::drishti(cores)),
    ]
}

pub fn run(opts: &ExpOpts) -> Result<(), ExpError> {
    let cores = opts.cores()[0];
    println!("# Scenario diversity: phase / adversarial / datacenter families\n");

    // Stage 1 — adversarial search. Deterministic at any worker count
    // (max-misses reduction with ties to the lowest seed), so the report
    // stays byte-identical across --jobs settings.
    let spec = SearchSpec {
        jobs: opts.jobs,
        ..SearchSpec::quick(PolicyKind::Mockingjay, true, 0xd1517)
    };
    let (scores, worst) = search(&spec);
    println!(
        "adversarial search: {} candidates against d-mockingjay/drishti, \
         worst seed {:#x} ({} misses, {} slices touched)\n",
        scores.len(),
        worst.seed,
        worst.misses,
        worst.per_slice_misses.iter().filter(|&&m| m > 0).count()
    );

    // Stage 2 — the family sweep. --mixes caps each family's mix count
    // (the phase family tops out at its three presets).
    let take = opts.mixes.max(1);
    let groups = vec![
        MixGroup {
            label: "phase".to_string(),
            mixes: Benchmark::phase()
                .iter()
                .take(take)
                .map(|&b| Mix::homogeneous(b, cores, 1))
                .collect(),
            ..MixGroup::paper(opts, cores, policies(cores))
        },
        MixGroup {
            label: "adversarial".to_string(),
            mixes: vec![Mix::homogeneous(Benchmark::AdvScatter, cores, worst.seed)],
            ..MixGroup::paper(opts, cores, policies(cores))
        },
        MixGroup {
            label: "datacenter".to_string(),
            mixes: (1..=take as u64)
                .map(|s| datacenter_mix(cores, s))
                .collect(),
            ..MixGroup::paper(opts, cores, policies(cores))
        },
    ];

    let (group_evals, mut report, timing) = sweep_groups("scenarios", &groups, opts)?;
    report
        .config
        .push(("adv_worst_seed".to_string(), format!("{:#x}", worst.seed)));
    for g in &group_evals {
        report.summary.push((
            format!("scenario_ws_improvement_pct/{}", g.label),
            mean_improvements(&g.evals),
        ));
    }

    println!("## Scenario coverage\n");
    header("family/scenario", &["cores", "cells"]);
    for c in &report.scenario_coverage {
        row(
            &format!("{}/{}", c.family, c.scenario),
            &[c.cores.to_string(), c.cells.to_string()],
        );
    }

    println!("\n## Weighted speedup over LRU\n");
    header("family", &["mockingjay/baseline", "mockingjay/drishti"]);
    for g in &group_evals {
        improvement_row(&g.label, &g.evals);
    }
    println!(
        "\npaper: slicing-awareness is argued on steady archetypes (§5); \
         these families probe re-learning, worst-case scattering and \
         consolidation isolation"
    );
    write_reports(opts, &report, &timing)
}
