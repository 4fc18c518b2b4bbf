//! `drishti-exp <name>|all [flags]`: run one experiment of the Drishti
//! reproduction, or all of them in order (see
//! [`drishti_bench::experiments`] for the registry and
//! [`drishti_bench::ExpOpts`] for the flags).
//!
//! Exit status: 0 on success, 1 if an experiment (or, under `all`, any
//! experiment) failed, 2 on malformed arguments or a refused resume.

use drishti_bench::experiments::{parse_command, run_all, usage, EXPERIMENTS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (selection, opts) = parse_command(&args).unwrap_or_else(|msg| {
        eprintln!("error: {msg}\n{}", usage());
        std::process::exit(2);
    });
    if let Some(exp) = selection {
        if let Err(e) = exp.execute(&opts) {
            eprintln!("error: {e}");
            std::process::exit(e.exit_code());
        }
        return;
    }
    let failures = run_all(&opts);
    println!("\n================================================================");
    if failures.is_empty() {
        println!("all {} experiments completed", EXPERIMENTS.len());
    } else {
        println!("{} experiments FAILED: {failures:?}", failures.len());
        std::process::exit(1);
    }
}
