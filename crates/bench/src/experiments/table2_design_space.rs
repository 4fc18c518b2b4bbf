//! Table 2: the sampler/predictor organisation design space — global view,
//! bandwidth demand and broadcast requirement per choice — measured rather
//! than asserted.
//!
//! For each design point we run a 16-core mix and report the fabric
//! traffic it generates: centralized organisations funnel everything
//! through one node (high bandwidth), global-sampler organisations
//! broadcast every training to all predictor banks.

use crate::{ExpError, ExpOpts};
use drishti_core::config::DrishtiConfig;
use drishti_core::fabric::FabricKind;
use drishti_core::org::{DesignPoint, PredictorOrg, SamplerOrg};
use drishti_policies::factory::PolicyKind;
use drishti_sim::runner::run_mix;
use drishti_trace::mix::Mix;
use drishti_trace::presets::Benchmark;

pub fn run(opts: &ExpOpts) -> Result<(), ExpError> {
    let cores = opts.last_cores();
    let rc = opts.rc(cores);
    let mix = Mix::homogeneous(Benchmark::Mcf, cores, 11);
    println!("# Table 2: design-space measurement ({cores}-core mcf)\n");
    println!(
        "{:<34} {:>7} {:>11} {:>11} {:>12}",
        "sampler/predictor", "global?", "msgs/KI", "broadcasts", "mean lat"
    );
    for point in DesignPoint::design_space() {
        let mut cfg = DrishtiConfig::baseline(cores);
        cfg.predictor_org = point.predictor;
        cfg.sampler_org = point.sampler;
        cfg.fabric = match (point.predictor, point.sampler) {
            (PredictorOrg::LocalPerSlice, SamplerOrg::LocalPerSlice) => FabricKind::Local,
            _ => FabricKind::Mesh,
        };
        let r = run_mix(&mix, PolicyKind::Mockingjay, cfg, &rc);
        let instr = r.total_instructions().max(1);
        let msgs_per_ki = r.fabric.messages as f64 * 1000.0 / instr as f64;
        println!(
            "{:<34} {:>7} {:>11.1} {:>11} {:>12.1}",
            format!("{}/{}", point.sampler, point.predictor),
            if point.global_view() { "yes" } else { "no" },
            msgs_per_ki,
            if point.broadcast() { "yes" } else { "no" },
            r.fabric.mean_latency(),
        );
    }
    println!("\npaper Table 2: only local-sampler + distributed (per-core) predictor");
    println!("achieves a global view with low bandwidth and no broadcast.");
    Ok(())
}
