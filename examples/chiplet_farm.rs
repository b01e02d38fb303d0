//! Chiplet farm: sweep fabrication error rates and chiplet sizes,
//! reporting yield and resource overhead for a target code distance —
//! a miniature version of the paper's Fig. 12/13 evaluation.
//!
//! Run with: `cargo run --release --example chiplet_farm`

use dqec::chiplet::criteria::QualityTarget;
use dqec::chiplet::defect_model::DefectModel;
use dqec::chiplet::yields::{
    overhead_factor, sample_indicators_range, yield_from_indicators, SampleConfig,
};
use dqec::core::PatchLayout;

fn main() {
    let d_target = 9u32;
    let target = QualityTarget::defect_free(d_target);
    let samples = 1500;
    let rates = [0.002, 0.005, 0.01];
    let sizes = [11u32, 13, 15];

    println!("target: perform as well as the defect-free d={d_target} patch");
    println!("model: links and qubits faulty at the same rate\n");
    println!(
        "{:>6} {:>6} {:>8} {:>10} {:>10}",
        "rate", "l", "yield", "overhead", "qubits/patch"
    );
    for &rate in &rates {
        // Defect-intolerant baseline: l = 9, zero tolerance.
        let y0 =
            DefectModel::LinkAndQubit.defect_free_probability(&PatchLayout::memory(d_target), rate);
        println!(
            "{rate:>6.3} {:>6} {y0:>8.3} {:>10.2} {:>10}",
            d_target,
            overhead_factor(d_target, y0, d_target),
            2 * d_target * d_target - 1
        );
        for &l in &sizes {
            let config = SampleConfig {
                seed: 123,
                ..SampleConfig::new(l, DefectModel::LinkAndQubit, rate)
            };
            let inds = sample_indicators_range(&config, 0..samples);
            let y = yield_from_indicators(&inds, &target).fraction();
            println!(
                "{rate:>6.3} {l:>6} {y:>8.3} {:>10.2} {:>10}",
                overhead_factor(l, y, d_target),
                2 * l * l - 1
            );
        }
        println!();
    }
    println!("pick, per rate, the size with the smallest overhead factor;");
    println!("the optimum moves to larger chiplets as the defect rate grows");
    println!("(paper Figs. 12-13).");
}
