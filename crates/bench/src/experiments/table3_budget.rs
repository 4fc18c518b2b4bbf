//! Table 3: per-core hardware budget with and without Drishti for a 16-way
//! 2 MB LLC slice. Purely structural — computed by
//! [`drishti_core::budget`], no simulation.
//!
//! Paper: Hawkeye 28 KB → 20.75 KB; Mockingjay 31.91 KB → 28.95 KB
//! (savings of 7.25 KB and 2.96 KB per core).

use crate::{ExpError, ExpOpts};
use drishti_core::budget::Budget;

pub fn run(_opts: &ExpOpts) -> Result<(), ExpError> {
    println!("# Table 3: per-core storage budget (16-way 2 MB slice)\n");
    for (policy, make) in [
        ("Hawkeye", Budget::hawkeye as fn(bool) -> Budget),
        ("Mockingjay", Budget::mockingjay as fn(bool) -> Budget),
    ] {
        for with in [false, true] {
            let b = make(with);
            println!(
                "{policy} {}:",
                if with {
                    "with Drishti"
                } else {
                    "without Drishti"
                }
            );
            for c in &b.components {
                println!("    {:<22} {:>7.2} KB", c.name, c.kib());
            }
            println!("    {:<22} {:>7.2} KB\n", "Total", b.total_kib());
        }
        println!(
            "  Drishti saves {:.2} KB per core on {policy}\n",
            Budget::drishti_savings_kib(&policy.to_lowercase())
        );
    }
    println!("paper: Hawkeye 28 → 20.75 KB; Mockingjay 31.91 → 28.95 KB");
    Ok(())
}
