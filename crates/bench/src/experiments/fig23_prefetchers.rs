//! Figure 23: Drishti with five state-of-the-art prefetchers (SPP+PPF,
//! Bingo, IPCP, Berti, Gaze) replacing the baseline next-line + IP-stride
//! pair. Each column is normalised to an LRU baseline *with the same
//! prefetcher*.
//!
//! Paper: Drishti's enhancements stay synergistic with every prefetcher;
//! highly accurate prefetchers (SPP+PPF, Berti) raise the baseline and
//! shrink the remaining headroom slightly.

use crate::{header, headline_sensitivity, write_reports, ExpError, ExpOpts, HEADLINE_LABELS};
use drishti_mem::prefetch::PrefetcherKind;
use drishti_sim::config::SystemConfig;

pub fn run(opts: &ExpOpts) -> Result<(), ExpError> {
    let cores = opts.last_cores();
    println!("# Figure 23: prefetcher sensitivity ({cores} cores)\n");
    header("L2 prefetcher", &HEADLINE_LABELS);
    let points = [
        PrefetcherKind::IpStride,
        PrefetcherKind::SppPpf,
        PrefetcherKind::Bingo,
        PrefetcherKind::Ipcp,
        PrefetcherKind::Berti,
        PrefetcherKind::Gaze,
    ]
    .map(|l2pf| {
        let system = SystemConfig::with_prefetchers(cores, PrefetcherKind::NextLine, l2pf);
        (l2pf.label().to_string(), system)
    });
    let (report, timing) =
        headline_sensitivity("fig23_prefetchers", opts, cores, points.into(), false)?;
    println!("\npaper: D-variants ≥ baselines under every prefetcher");
    write_reports(opts, &report, &timing)
}
