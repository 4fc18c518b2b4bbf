//! The experiment registry: one entry per reproduced table or figure,
//! dispatched by `drishti-exp <name>|all [flags]`.
//!
//! ```text
//! cargo run --release -p drishti-bench --bin drishti-exp -- fig13_main_performance
//! cargo run --release -p drishti-bench --bin drishti-exp -- all --full
//! ```
//!
//! `all` runs every experiment in [`EXPERIMENTS`] order with the same
//! flags and fails (exit 1) if any of them failed.

use crate::{ExpError, ExpOpts, OPTS_USAGE};

pub mod fig02_pc_scatter;
pub mod fig03_etr_views;
pub mod fig04_pred_hist;
pub mod fig05_set_mpka;
pub mod fig10_predictor_apki;
pub mod fig11a_no_nocstar;
pub mod fig11b_latency_sweep;
pub mod fig13_main_performance;
pub mod fig14_mpki_reduction;
pub mod fig15_energy;
pub mod fig16_scurve;
pub mod fig17_ablation;
pub mod fig19_server;
pub mod fig20_llc_size;
pub mod fig21_l2_size;
pub mod fig22_dram_channels;
pub mod fig23_prefetchers;
pub mod resilience;
pub mod scalability;
pub mod scaling;
pub mod scenarios;
pub mod table1_sampling_cases;
pub mod table2_design_space;
pub mod table3_budget;
pub mod table5_wpki;
pub mod table6_metrics;
pub mod table7_applicability;
pub mod table8_other_policies;

/// One experiment `drishti-exp` can run.
#[derive(Debug)]
pub struct Experiment {
    /// The name on the command line: the experiment's module name, which
    /// also names the sweep report it writes.
    pub name: &'static str,
    /// The core counts run when `--cores` is not given; `None` is the
    /// paper's list (see [`ExpOpts::cores`]).
    pub default_cores: Option<&'static [usize]>,
    /// The experiment body: prints its table on stdout.
    pub run: fn(&ExpOpts) -> Result<(), ExpError>,
}

/// Builds each [`EXPERIMENTS`] entry from its module, so a name cannot
/// drift from its module.
macro_rules! registry {
    ($($name:ident => $cores:expr,)*) => {
        /// Every experiment, in the order `all` runs them.
        pub const EXPERIMENTS: &[Experiment] = &[$(Experiment {
            name: stringify!($name),
            default_cores: $cores,
            run: $name::run,
        },)*];
    };
}

registry! {
    fig02_pc_scatter => None,
    fig03_etr_views => None,
    fig04_pred_hist => None,
    fig05_set_mpka => None,
    table1_sampling_cases => None,
    fig10_predictor_apki => None,
    fig11a_no_nocstar => None,
    fig11b_latency_sweep => None,
    table2_design_space => None,
    table3_budget => None,
    fig13_main_performance => None,
    fig14_mpki_reduction => None,
    table5_wpki => None,
    fig15_energy => None,
    table6_metrics => None,
    fig16_scurve => None,
    fig17_ablation => None,
    fig19_server => None,
    fig20_llc_size => None,
    fig21_l2_size => None,
    fig22_dram_channels => None,
    fig23_prefetchers => None,
    table8_other_policies => None,
    table7_applicability => None,
    scalability => Some(&[32, 64]),
    scaling => Some(scaling::DEFAULT_LADDER),
    scenarios => None,
    resilience => None,
}

impl Experiment {
    /// `opts` with this experiment's default core list filled in when
    /// `--cores` was not given.
    pub fn resolve(&self, opts: &ExpOpts) -> ExpOpts {
        let mut opts = opts.clone();
        if opts.cores.is_none() {
            opts.cores = self.default_cores.map(<[usize]>::to_vec);
        }
        opts
    }

    /// Run the experiment under `opts`.
    pub fn execute(&self, opts: &ExpOpts) -> Result<(), ExpError> {
        (self.run)(&self.resolve(opts))
    }
}

/// The usage text `drishti-exp` prints with every argument error, listing
/// every valid experiment name.
pub fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    format!(
        "usage: drishti-exp <name>|all {OPTS_USAGE}\nexperiments: {}",
        names.join(", ")
    )
}

/// Parse `drishti-exp`'s arguments: the experiment name, then the shared
/// flags. `all` selects no single experiment (`None`): every one runs. An
/// error is a message for stderr (exit status 2).
pub fn parse_command(args: &[String]) -> Result<(Option<&'static Experiment>, ExpOpts), String> {
    let (name, flags) = args
        .split_first()
        .ok_or_else(|| "missing experiment name".to_string())?;
    let opts = ExpOpts::parse(flags)?;
    if name == "all" {
        if opts.report.is_some() {
            return Err("`all --report` would send every sweep's report and resume \
                        journal to one path; drop --report (each sweep then writes \
                        target/sweep/<name>.json) or run the experiments one by one"
                .to_string());
        }
        return Ok((None, opts));
    }
    let exp = EXPERIMENTS
        .iter()
        .find(|e| e.name == name)
        .ok_or_else(|| format!("unknown experiment `{name}`"))?;
    Ok((Some(exp), opts))
}

/// Run every experiment under `opts`, each behind a banner, and return the
/// names of those that failed. A panicking experiment counts as failed
/// and the rest still run.
pub fn run_all(opts: &ExpOpts) -> Vec<&'static str> {
    let mut failures = Vec::new();
    for exp in EXPERIMENTS {
        println!("\n================================================================");
        println!("==> {}", exp.name);
        println!("================================================================");
        let outcome = std::panic::catch_unwind(|| exp.execute(opts))
            .unwrap_or_else(|_| Err(ExpError::Failed("panicked".to_string())));
        if let Err(e) = outcome {
            eprintln!("!! {} failed: {e}", exp.name);
            failures.push(exp.name);
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    /// The options experiment `line`'s first word runs under.
    fn resolved(line: &str) -> ExpOpts {
        let (exp, opts) = parse_command(&args(line)).unwrap();
        exp.expect("one experiment").resolve(&opts)
    }

    #[test]
    fn registry_names_are_unique_and_all_keeps_the_suite_order() {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "duplicate experiment names");
        assert!(!unique.contains("all"), "`all` is the suite, not an entry");
        // The order the experiments have always been regenerated in.
        let suite_order = "fig02_pc_scatter fig03_etr_views fig04_pred_hist fig05_set_mpka \
            table1_sampling_cases fig10_predictor_apki fig11a_no_nocstar fig11b_latency_sweep \
            table2_design_space table3_budget fig13_main_performance fig14_mpki_reduction \
            table5_wpki fig15_energy table6_metrics fig16_scurve fig17_ablation fig19_server \
            fig20_llc_size fig21_l2_size fig22_dram_channels fig23_prefetchers \
            table8_other_policies table7_applicability scalability scaling scenarios resilience";
        assert_eq!(names, suite_order.split_whitespace().collect::<Vec<_>>());
    }

    #[test]
    fn parse_selects_by_name_and_refuses_what_it_cannot_run() {
        for exp in EXPERIMENTS {
            let (sel, _) = parse_command(&args(exp.name)).expect("known name");
            assert_eq!(sel.map(|e| e.name), Some(exp.name));
        }
        let (sel, opts) = parse_command(&args("all --mixes 1 --cores 4")).expect("all");
        assert!(sel.is_none());
        assert_eq!(opts.cores(), [4]);

        let err = parse_command(&args("fig13 --jobs 8")).unwrap_err();
        assert!(err.contains("unknown experiment `fig13`"), "{err}");
        for name in ["all"].iter().chain(EXPERIMENTS.iter().map(|e| &e.name)) {
            assert!(usage().contains(name), "usage lacks {name}");
        }
        assert!(parse_command(&[]).is_err());
        assert!(parse_command(&args("fig16_scurve --bogus")).is_err());
        assert!(parse_command(&args("fig16_scurve --cores 4,0")).is_err());

        // One report path cannot hold every sweep's report.
        let err = parse_command(&args("all --report r.json")).unwrap_err();
        assert!(err.contains("--report"), "{err}");
        assert!(parse_command(&args("fig13_main_performance --report r.json")).is_ok());
    }

    #[test]
    fn registry_default_cores_apply_only_without_cores() {
        assert_eq!(resolved("scalability").cores(), [32, 64]);
        assert_eq!(resolved("scalability --full").cores(), [32, 64]);
        assert_eq!(resolved("scalability --cores 4,16").cores(), [4, 16]);
        assert_eq!(resolved("fig13_main_performance").cores(), [4, 16]);
        assert_eq!(
            resolved("fig13_main_performance --full").cores(),
            [4, 16, 32]
        );
        assert_eq!(resolved("resilience").last_cores(), 16);
        assert_eq!(resolved("table7_applicability --full").last_cores(), 32);
        let explicit = resolved("table6_metrics --cores 8,2 --full");
        assert_eq!((explicit.cores(), explicit.last_cores()), (&[8, 2][..], 2));
    }

    #[test]
    fn explicit_cores_reach_the_scaling_ladder_as_given() {
        let ladder = |flags: &str| scaling::ladder(resolved(&format!("scaling {flags}")).cores());
        assert_eq!(ladder("--cores 4,16"), [(4, 1), (16, 2)]);
        let (slices, chips): (Vec<usize>, Vec<usize>) = ladder("").into_iter().unzip();
        assert_eq!(slices, scaling::DEFAULT_LADDER);
        assert_eq!(chips, [1, 1, 2, 2, 4, 4, 4]);
    }
}
