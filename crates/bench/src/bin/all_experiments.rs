//! Run every table/figure experiment binary in sequence (reduced scale).
//!
//! This is the one-command regeneration entry point:
//!
//! ```text
//! cargo run --release -p drishti-bench --bin all_experiments
//! ```
//!
//! Arguments are forwarded to every experiment (e.g. `--full`).

use std::process::Command;

const EXPERIMENTS: &[&str] = &[
    "fig02_pc_scatter",
    "fig03_etr_views",
    "fig04_pred_hist",
    "fig05_set_mpka",
    "table1_sampling_cases",
    "fig10_predictor_apki",
    "fig11a_no_nocstar",
    "fig11b_latency_sweep",
    "table2_design_space",
    "table3_budget",
    "fig13_main_performance",
    "fig14_mpki_reduction",
    "table5_wpki",
    "fig15_energy",
    "table6_metrics",
    "fig16_scurve",
    "fig17_ablation",
    "fig19_server",
    "fig20_llc_size",
    "fig21_l2_size",
    "fig22_dram_channels",
    "fig23_prefetchers",
    "table8_other_policies",
    "table7_applicability",
    "scalability",
    "scaling",
    "scenarios",
    "resilience",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let exe = std::env::current_exe().expect("current exe path");
    let bin_dir = exe.parent().expect("bin dir").to_path_buf();
    let mut failures = Vec::new();
    for name in EXPERIMENTS {
        println!("\n================================================================");
        println!("==> {name}");
        println!("================================================================");
        match Command::new(bin_dir.join(name)).args(&args).status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("!! {name} failed with {status}");
                failures.push(*name);
            }
            Err(e) => {
                eprintln!("!! failed to launch {name}: {e}");
                failures.push(*name);
            }
        }
    }
    println!("\n================================================================");
    if failures.is_empty() {
        println!("all {} experiments completed", EXPERIMENTS.len());
    } else {
        println!("{} experiments FAILED: {failures:?}", failures.len());
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::EXPERIMENTS;

    #[test]
    fn every_experiment_binary_is_listed() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/src/bin");
        let mut stems: Vec<String> = std::fs::read_dir(dir)
            .expect("read src/bin")
            .map(|entry| {
                let path = entry.expect("dir entry").path();
                let stem = path.file_stem().expect("file stem");
                stem.to_string_lossy().into_owned()
            })
            .filter(|stem| stem != "all_experiments")
            .collect();
        stems.sort();
        let mut listed: Vec<&str> = EXPERIMENTS.to_vec();
        listed.sort_unstable();
        assert_eq!(stems, listed);
    }
}
