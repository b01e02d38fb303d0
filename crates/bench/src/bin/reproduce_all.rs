//! Master harness: runs every figure/table reproduction in-process with
//! shared settings, writing each output to `results/<name>.tsv` (or
//! `.json` with `--json`; choose the directory with `--out DIR`).
//!
//! Usage: `cargo run --release -p dqec_bench --bin reproduce_all -- [--full] [--samples N] [--shots N] [--json]`

use dqec_bench::{figs, run_reproduction, RunConfig};

fn main() {
    let mut cfg = RunConfig::from_args();
    // Default the output directory so stdout stays a progress log.
    cfg.out.get_or_insert_with(|| "results".into());
    let mut failures = Vec::new();
    let total = std::time::Instant::now();
    for rep in figs::ALL {
        eprintln!("=== running {} ===", rep.name);
        let started = std::time::Instant::now();
        match cfg.with_threads(|| run_reproduction(rep.name, &cfg)) {
            Ok(()) => {
                let ext = if cfg.json { "json" } else { "tsv" };
                eprintln!(
                    "    -> {}/{}.{ext} ({:.1?})",
                    cfg.out.as_ref().expect("out dir set above").display(),
                    rep.name,
                    started.elapsed()
                );
            }
            Err(e) => {
                eprintln!("    FAILED: {e}");
                failures.push(rep.name);
            }
        }
    }
    eprintln!("total wall time {:.1?}", total.elapsed());
    if failures.is_empty() {
        eprintln!(
            "all {} reproductions complete; outputs in {}/",
            figs::ALL.len(),
            cfg.out.as_ref().expect("out dir set above").display()
        );
    } else {
        eprintln!("failed: {failures:?}");
        std::process::exit(1);
    }
}
