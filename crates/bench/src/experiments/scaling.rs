//! Slice-count scaling study (DESIGN.md §17): Drishti vs LRU/Mockingjay
//! as the sliced LLC grows from 8 to 256 slices, spread over 1-, 2- and
//! 4-chip topologies with serializing inter-chip links.
//!
//! The paper evaluates Drishti on single-chip meshes up to 128 cores
//! (§5.3). This study extends the axis: once the slice count outgrows
//! one die, the NOCSTAR side-band no longer reaches every slice at mesh
//! latency — cross-chip predictor lookups pay the serialized gateway
//! path, recreating the Fig 11 latency tension at scale. Each rung of
//! the ladder is labelled `s<slices>c<chips>`; the 1-chip rungs use the
//! flat-mesh configuration and their report cells are byte-identical to
//! a flat-topology run of the same shape.
//!
//! Runs on the parallel sweep harness; the report written to
//! `target/sweep/scaling.json` carries one `scaling_ws_improvement_pct/*`
//! summary row per policy — the speedup-vs-slice-count table.

use crate::{
    header, improvement_row, mean_improvements, sweep_groups, write_reports, ExpError, ExpOpts,
    MixGroup,
};
use drishti_core::config::DrishtiConfig;
use drishti_policies::factory::PolicyKind;
use drishti_sim::config::SystemConfig;

/// Keep the total simulated work per cell roughly constant as the slice
/// count grows: ~480k measured accesses per run, never fewer than 1k per
/// core.
fn capped_accesses(requested: u64, slices: usize) -> u64 {
    requested.min((480_000 / slices as u64).max(1_000))
}

/// The default ladder's slice counts, run when `--cores` is not given.
/// 16 is listed twice so the chip split itself is isolated once (16×1 vs
/// 16×2, see [`ladder`]), and the top rungs push past the paper's
/// 128-core ceiling.
pub const DEFAULT_LADDER: &[usize] = &[8, 16, 16, 32, 64, 128, 256];

/// Chips for a slice count: grow the package with the die area, falling
/// back to one chip when the count does not divide.
fn auto_chips(slices: usize) -> usize {
    for chips in [
        if slices <= 8 {
            1
        } else if slices <= 32 {
            2
        } else {
            4
        },
        2,
        1,
    ] {
        if slices.is_multiple_of(chips) {
            return chips;
        }
    }
    1
}

/// The `(slices, chips)` rungs for a list of slice counts: each count
/// runs on `auto_chips` chips, except that a count listed twice in a
/// row runs first on one chip.
pub fn ladder(slices: &[usize]) -> Vec<(usize, usize)> {
    slices
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            let chips = if slices.get(i + 1) == Some(&s) {
                1
            } else {
                auto_chips(s)
            };
            (s, chips)
        })
        .collect()
}

pub fn run(opts: &ExpOpts) -> Result<(), ExpError> {
    println!("# Scaling study: weighted speedup over LRU, 8 → 256 slices\n");
    let ladder = ladder(opts.cores());
    let take = if opts.full {
        opts.mixes
    } else {
        opts.mixes.min(2)
    };

    let groups: Vec<MixGroup> = ladder
        .iter()
        .map(|&(slices, chips)| {
            let orgs = [
                DrishtiConfig::baseline(slices),
                DrishtiConfig::drishti(slices),
            ];
            let policies = orgs.map(|org| (PolicyKind::Mockingjay, org.with_chips(chips)));
            let mut g = MixGroup::paper(opts, slices, policies.into());
            g.label = format!("s{slices}c{chips}");
            g.mixes.truncate(take);
            g.rc.system = SystemConfig::with_chips(slices, chips);
            g.rc.accesses_per_core = capped_accesses(opts.accesses, slices);
            g.rc.warmup_accesses = g.rc.accesses_per_core / 4;
            g
        })
        .collect();

    let (group_evals, mut report, timing) = sweep_groups("scaling", &groups, opts)?;

    // The speedup-vs-slice-count table: one summary row per policy
    // column, one (rung label, mean WS improvement) pair per rung.
    let columns = ["mockingjay/baseline", "mockingjay/drishti"];
    for (p, col) in columns.iter().enumerate() {
        let pairs = group_evals
            .iter()
            .map(|g| (g.label.clone(), mean_improvements(&g.evals)[p].1))
            .collect();
        report
            .summary
            .push((format!("scaling_ws_improvement_pct/{col}"), pairs));
    }

    header("slices × chips", &columns);
    for (g, &(slices, chips)) in group_evals.iter().zip(&ladder) {
        improvement_row(&format!("{slices} slices / {chips} chip(s)"), &g.evals);
    }
    println!(
        "\npaper: single-chip advantage persists to 128 cores (§5.3); \
         past one die the side-band pays the serialized gateway path"
    );
    write_reports(opts, &report, &timing)
}
