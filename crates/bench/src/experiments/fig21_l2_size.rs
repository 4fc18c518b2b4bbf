//! Figure 21: L2 size sensitivity (256 KB … 2 MB) on a 16-core system,
//! homogeneous mixes.
//!
//! Paper: Drishti keeps enhancing both policies at every L2 size, but with
//! a 2 MB L2 the headroom shrinks (working sets start fitting in L2 and
//! baseline LLC MPKI drops below 1).

use crate::{header, headline_sensitivity, write_reports, ExpError, ExpOpts, HEADLINE_LABELS};
use drishti_sim::config::SystemConfig;

pub fn run(opts: &ExpOpts) -> Result<(), ExpError> {
    let cores = opts.last_cores();
    println!("# Figure 21: L2 size sensitivity ({cores} cores)\n");
    header("L2 size", &HEADLINE_LABELS);
    let points = [256, 512, 1024, 2048].map(|kib| {
        let system = SystemConfig::with_l2_kib(cores, kib);
        (format!("{kib} KB"), system)
    });
    let (report, timing) = headline_sensitivity("fig21_l2_size", opts, cores, points.into(), true)?;
    println!("\npaper: gains shrink as L2 grows (working sets fit in L2)");
    write_reports(opts, &report, &timing)
}
