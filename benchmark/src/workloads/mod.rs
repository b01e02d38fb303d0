//! The four workloads. Each generates its inputs from the seed, and
//! implements [`Workload`](crate::harness::Workload): a cold set-up, a
//! segment through the top-level API, the same segment by hand under
//! spans, and its own per-layer extras.

pub mod compile_churn;
pub mod ler_mwpm;
pub mod ler_uf;
pub mod serve_warm;

/// Workload names, in the order the suite runs them.
pub const NAMES: [&str; 4] = [
    "ler-mwpm-slope",
    "ler-uf-lowp",
    "compile-churn",
    "serve-warm",
];

/// Runs `f` with every fan-out under it sequential: the batch workloads
/// never use more than one busy thread on the two shared cores, and
/// parallel scaling is a per-layer number only.
pub fn one_worker<R>(f: impl FnOnce() -> R) -> R {
    rayon::with_worker_cap(1, f)
}

/// The physical error rates of the MWPM workloads: the upper three
/// points of the paper's slope window (`RunConfig::slope_window` in
/// full mode), where a few thousand shots per point take seconds, not
/// minutes.
pub fn paper_window() -> Vec<f64> {
    let window = dqec_bench::RunConfig::parse(&["--full".to_string()])
        .expect("--full is a valid flag")
        .slope_window();
    window[window.len() - 3..].to_vec()
}
