//! Table 8: Drishti applied to SHiP++, CHROME and Glider on 16-core
//! systems (normalised weighted speedup over LRU).
//!
//! Paper: SHiP++ 1.03 → D-SHiP++ 1.08; CHROME 1.06 → D-CHROME 1.13;
//! Glider 1.03 → D-Glider 1.06.

use crate::{
    header, mean_improvements, row, sweep_groups, write_reports, ExpError, ExpOpts, MixGroup,
};
use drishti_core::config::DrishtiConfig;
use drishti_policies::factory::PolicyKind;

pub fn run(opts: &ExpOpts) -> Result<(), ExpError> {
    let cores = opts.last_cores();
    println!("# Table 8: Drishti with SHiP++, CHROME and Glider ({cores} cores)\n");
    let policies = vec![
        (PolicyKind::ShipPp, DrishtiConfig::baseline(cores)),
        (PolicyKind::ShipPp, DrishtiConfig::drishti(cores)),
        (PolicyKind::Chrome, DrishtiConfig::baseline(cores)),
        (PolicyKind::Chrome, DrishtiConfig::drishti(cores)),
        (PolicyKind::Glider, DrishtiConfig::baseline(cores)),
        (PolicyKind::Glider, DrishtiConfig::drishti(cores)),
    ];
    let group = MixGroup::paper(opts, cores, policies);
    let (group_evals, report, timing) = sweep_groups("table8_other_policies", &[group], opts)?;
    let means = mean_improvements(&group_evals[0].evals);
    header(
        "normalised WS",
        &means.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
    );
    row(
        "vs LRU",
        &means
            .iter()
            .map(|(_, v)| format!("{:.3}", 1.0 + v / 100.0))
            .collect::<Vec<_>>(),
    );
    println!("\npaper: 1.03→1.08 (SHiP++), 1.06→1.13 (CHROME), 1.03→1.06 (Glider)");
    write_reports(opts, &report, &timing)
}
