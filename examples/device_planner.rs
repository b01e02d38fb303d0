//! Device planner: estimate the resources and application fidelity of a
//! fault-tolerant device built from defective chiplets — the paper's
//! §5.3 case study (Shor-2048) at a user-adjustable defect rate.
//!
//! Run with: `cargo run --release --example device_planner -- [rate]`
//! (default rate 0.001; try 0.003 for the paper's Table 2/4 setting).

use dqec::chiplet::criteria::QualityTarget;
use dqec::chiplet::defect_model::DefectModel;
use dqec::chiplet::yields::sample_indicators_range;
use dqec::estimator::fidelity::{distance_distribution, fidelity_from_distances};
use dqec::estimator::{
    candidate_populations, defect_intolerant_row, no_defect_row, super_stabilizer_row,
    ApplicationSpec,
};

fn main() {
    let rate: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.001);
    let samples = 800;
    let spec = ApplicationSpec::shor_2048();
    println!(
        "application: Shor-2048 = {} patches of d={} for {:.0e} cycles (p = {:.0e})",
        spec.patches, spec.target_distance, spec.cycles, spec.p_phys
    );
    println!("defect rate: {rate} on both qubits and links\n");

    let ideal = no_defect_row(&spec);
    let intolerant = defect_intolerant_row(&spec, DefectModel::LinkAndQubit, rate);
    let candidates: Vec<u32> = (0..5).map(|i| spec.target_distance + 2 + 2 * i).collect();
    let populations = candidate_populations(DefectModel::LinkAndQubit, rate, &candidates, 777);
    let drawn = populations
        .iter()
        .map(|config| (config.l, sample_indicators_range(config, 0..samples)));
    let Some((ss, inds)) = super_stabilizer_row(&spec, drawn) else {
        eprintln!("device_planner: no candidate chiplet sizes");
        std::process::exit(1);
    };

    println!(
        "{:>20} {:>5} {:>10} {:>11} {:>12}",
        "approach", "l", "yield", "overhead", "qubits"
    );
    for row in [&ideal, &intolerant, &ss] {
        println!(
            "{:>20} {:>5} {:>10.4} {:>11.2} {:>12.3e}",
            row.label, row.l, row.yield_fraction, row.overhead, row.total_qubits
        );
    }

    // Application fidelity with the post-selected distance distribution.
    let target = QualityTarget::defect_free(spec.target_distance);
    let kept: Vec<_> = inds.iter().filter(|i| target.accepts(i)).cloned().collect();
    let dist = distance_distribution(&kept);
    let fid = fidelity_from_distances(&spec, &dist);
    let fid_ideal = fidelity_from_distances(&spec, &[(spec.target_distance, 1.0)]);
    println!("\nestimated application fidelity:");
    println!("  ideal no-defect device:        {:.1}%", 100.0 * fid_ideal);
    println!("  modular + super-stabilizers:   {:.1}%", 100.0 * fid);
    println!("\nselected-patch distance distribution (l = {}):", ss.l);
    for (d, w) in &dist {
        println!("  d={d:>2}: {:>5.1}%", 100.0 * w);
    }
}
