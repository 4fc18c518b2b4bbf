//! Figure 22: DRAM channel-count sensitivity (2/4/8 channels for 16 cores),
//! homogeneous mixes.
//!
//! Paper: with 2 channels, Hawkeye gains 2.3% → D-Hawkeye 5.5% and
//! Mockingjay 4.7% → D-Mockingjay 10.4%; with 8 channels the LLC miss
//! penalty shrinks and so does every policy's headroom.

use crate::{header, headline_sensitivity, write_reports, ExpError, ExpOpts, HEADLINE_LABELS};
use drishti_sim::config::SystemConfig;

pub fn run(opts: &ExpOpts) -> Result<(), ExpError> {
    let cores = opts.last_cores();
    println!("# Figure 22: DRAM channel sensitivity ({cores} cores)\n");
    header("channels", &HEADLINE_LABELS);
    let points = [2, 4, 8].map(|channels| {
        let system = SystemConfig::with_dram_channels(cores, channels);
        (format!("{channels} channels"), system)
    });
    let (report, timing) =
        headline_sensitivity("fig22_dram_channels", opts, cores, points.into(), true)?;
    println!("\npaper: fewer channels ⇒ bigger gains (2ch: +2.3/+5.5/+4.7/+10.4)");
    write_reports(opts, &report, &timing)
}
