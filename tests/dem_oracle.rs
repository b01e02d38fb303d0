//! Detector-error-model extraction against the walk it replaced, on the
//! circuits the paper's figures are built from: adapted l = 5, 7 and 9
//! patches with random qubit + link defects (so super-stabilizer gauge
//! schedules and deformed boundaries are in the circuit), noised by the
//! paper's model. `ParametricDem::from_noisy` must equal the oracle bit
//! for bit: mechanism ids, observable masks, branches in order,
//! probabilities.

use dqec::chiplet::runner::default_rounds;
use dqec::chiplet::DefectModel;
use dqec::core::{memory_z, AdaptedPatch, PatchLayout};
use dqec::sim::noise::NoiseModel;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// The oracle is written against `crate::{circuit, dem, noise}`.
use dqec::sim::{circuit, dem, noise};

#[path = "../crates/sim/tests/support/dem_oracle.rs"]
mod oracle;

/// Draws defective `LinkAndQubit` patches of size `l` until one is
/// valid, hosts a memory experiment and has a defect; returns its clean
/// memory circuit.
fn defective_circuit(l: u32, rng: &mut StdRng) -> circuit::Circuit {
    let layout = PatchLayout::memory(l);
    loop {
        let defects = DefectModel::LinkAndQubit.sample(&layout, 0.02, rng);
        let patch = AdaptedPatch::new(layout.clone(), &defects);
        if defects.is_empty() || !patch.is_valid() {
            continue;
        }
        if let Ok(exp) = memory_z(&patch, default_rounds(&patch)) {
            return exp.circuit;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn extraction_matches_the_oracle_on_defective_patches(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        for l in [5u32, 7, 9] {
            let clean = defective_circuit(l, &mut rng);
            let mut model = NoiseModel::new(rng.gen_range(5e-4..5e-3));
            if rng.gen_bool(0.5) {
                model = model.with_bad_qubit(rng.gen_range(0..clean.num_qubits()), 0.1);
            }
            let (noisy, params) = model.apply_with_params(&clean);
            oracle::assert_matches_oracle(&noisy, &params);
        }
    }
}
