//! Figure 20: LLC slice-size sensitivity (1/2/4 MB per core) on a 16-core
//! system, homogeneous mixes.
//!
//! Paper: Drishti's advantage holds across sizes and peaks at the 2 MB
//! baseline (the sampled-set counts are tuned for 2 MB slices).

use crate::{header, headline_sensitivity, write_reports, ExpError, ExpOpts, HEADLINE_LABELS};
use drishti_sim::config::SystemConfig;

pub fn run(opts: &ExpOpts) -> Result<(), ExpError> {
    let cores = opts.last_cores();
    println!("# Figure 20: LLC slice size sensitivity ({cores} cores)\n");
    header("slice size", &HEADLINE_LABELS);
    let points = [1, 2, 4].map(|mib| {
        let system = SystemConfig::with_llc_mib(cores, mib);
        (format!("{mib} MB/core"), system)
    });
    let (report, timing) =
        headline_sensitivity("fig20_llc_size", opts, cores, points.into(), true)?;
    println!("\npaper: effectiveness holds at all sizes, best at 2 MB/core");
    write_reports(opts, &report, &timing)
}
