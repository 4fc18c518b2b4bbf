//! Figure 3 (and the companion Figure 18): predicted ETR values for the
//! loads of one hot PC under the *myopic* view (per-slice predictors), the
//! *global* view (per-core-yet-global predictor) and Drishti's view
//! (global + dynamic sampled cache), against the *oracle* view (true
//! forward reuse distance), on a 16-core homogeneous xalan mix.
//!
//! Paper: myopic predictions scatter away from the oracle; the global view
//! tracks it closely; Drishti's view ≈ the global view (Fig 18).

use crate::{ExpError, ExpOpts};
use drishti_core::config::DrishtiConfig;
use drishti_mem::llc::LlcGeometry;
use drishti_policies::mockingjay::Mockingjay;
use drishti_policies::opt::oracle_etr_for_pc;
use drishti_sim::runner::{run_mix_with_policy, RunConfig};
use drishti_trace::mix::Mix;
use drishti_trace::presets::Benchmark;
use drishti_trace::WorkloadGen;

/// Pick the PC with the most LLC demand loads in a probe run (the paper
/// hand-picks 0x59cdbf for xalancbmk).
fn hottest_pc(mix: &Mix, rc: &RunConfig, cores: usize) -> u64 {
    let mut rc = rc.clone();
    rc.record_llc_stream = true;
    let geom = rc.system.llc;
    let policy = Box::new(Mockingjay::new(&geom, &DrishtiConfig::baseline(cores)));
    let r = run_mix_with_policy(mix, policy, &rc);
    let mut counts = std::collections::HashMap::new();
    for a in r.llc_stream.iter().filter(|a| a.kind.is_demand()) {
        *counts.entry(a.pc).or_insert(0u64) += 1;
    }
    // Ties go to the lowest PC: `HashMap` iteration order is random per
    // process, so breaking them by position would change the target PC
    // (and the whole figure) from run to run.
    counts
        .into_iter()
        .max_by_key(|&(pc, c)| (c, std::cmp::Reverse(pc)))
        .map(|(pc, _)| pc)
        .unwrap_or(0)
}

fn summarize(label: &str, samples: &[u8]) -> f64 {
    if samples.is_empty() {
        println!("{label:<10} (no samples)");
        return 0.0;
    }
    let mut s: Vec<u8> = samples.to_vec();
    s.sort_unstable();
    let mean = s.iter().map(|&x| f64::from(x)).sum::<f64>() / s.len() as f64;
    let p = |q: f64| s[((s.len() - 1) as f64 * q) as usize];
    println!(
        "{label:<10} n={:<7} mean={mean:>6.1}  p10={:>3}  p50={:>3}  p90={:>3}",
        s.len(),
        p(0.1),
        p(0.5),
        p(0.9)
    );
    mean
}

pub fn run(opts: &ExpOpts) -> Result<(), ExpError> {
    let cores = opts.last_cores();
    let rc = opts.rc(cores);
    let mix = Mix::homogeneous(Benchmark::Xalan, cores, 77);
    println!("# Figure 3/18: ETR views for the hottest xalan PC ({cores} cores)\n");

    let pc = hottest_pc(&mix, &rc, cores);
    println!("target PC: {pc:#x}\n");
    let geom: LlcGeometry = rc.system.llc;

    // Oracle: true forward set-local reuse distances of that PC's loads.
    let trace: Vec<_> = {
        let mut gens = mix.build();
        let mut all = Vec::new();
        for (core, g) in gens.iter_mut().enumerate() {
            for r in g.collect((rc.warmup_accesses + rc.accesses_per_core) as usize) {
                all.push(drishti_mem::access::Access::load(core, r.pc, r.line));
            }
        }
        all
    };
    let oracle = oracle_etr_for_pc(&trace, &geom, pc, 1, 127);
    let oracle_mean = summarize("oracle", &oracle);

    let views = [
        ("myopic", DrishtiConfig::baseline(cores)),
        ("global", DrishtiConfig::global_view_only(cores)),
        ("drishti", DrishtiConfig::drishti(cores)),
    ];
    let mut deviations = Vec::new();
    for (label, cfg) in views {
        let mut policy = Mockingjay::new(&geom, &cfg);
        let handle = policy.enable_etr_log(pc);
        let _ = run_mix_with_policy(&mix, Box::new(policy), &rc);
        let samples: Vec<u8> = handle.borrow().iter().map(|s| s.pred_units).collect();
        let mean = summarize(label, &samples);
        deviations.push((label, (mean - oracle_mean).abs()));
    }
    println!("\n|mean − oracle-mean| per view:");
    for (label, d) in &deviations {
        println!("  {label:<10} {d:.1}");
    }
    println!("\npaper: myopic deviates from oracle; global ≈ oracle; drishti ≈ global");
    Ok(())
}
