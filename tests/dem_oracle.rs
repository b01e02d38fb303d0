//! Detector-error-model extraction against the independent reference
//! walk, on the circuits the paper's figures are built from: adapted
//! l = 5, 7 and 9 memory patches with random qubit + link defects (so
//! super-stabilizer gauge schedules and deformed boundaries are in the
//! circuit), and defective 4 × 4 and 6 × 6 stability patches under both
//! defect models, noised by the paper's model.
//! `ParametricDem::from_noisy` must equal the oracle bit for bit:
//! mechanism ids, observable masks, branches in order, probabilities.
//! Memory l = 11 and 13 are `#[ignore]`d; run them with
//! `cargo test --release --test dem_oracle -- --ignored`.

use dqec::chiplet::runner::default_rounds;
use dqec::chiplet::DefectModel;
use dqec::core::{memory_z, stability, AdaptedPatch, PatchLayout};
use dqec::sim::noise::NoiseModel;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// The oracle is written against `crate::{circuit, dem, noise}`.
use dqec::sim::{circuit, dem, noise};

#[path = "../crates/sim/tests/support/dem_oracle.rs"]
mod oracle;

/// Draws defective `model` patches of `layout` until one is valid, has
/// a defect and `build` turns it into a circuit.
fn defective(
    layout: &PatchLayout,
    model: DefectModel,
    rng: &mut StdRng,
    build: impl Fn(&AdaptedPatch) -> Option<circuit::Circuit>,
) -> circuit::Circuit {
    for _ in 0..10_000 {
        let defects = model.sample(layout, 0.02, rng);
        let patch = AdaptedPatch::new(layout.clone(), &defects);
        if defects.is_empty() || !patch.is_valid() {
            continue;
        }
        if let Some(c) = build(&patch) {
            return c;
        }
    }
    panic!("no usable {model:?} patch drawn");
}

/// The clean memory circuit of a defective `model` patch of size `l`.
fn memory(l: u32, model: DefectModel, rng: &mut StdRng) -> circuit::Circuit {
    defective(&PatchLayout::memory(l), model, rng, |patch| {
        memory_z(patch, default_rounds(patch))
            .ok()
            .map(|e| e.circuit)
    })
}

/// Noises `clean` at a random operating-point rate, with one bad qubit
/// in half of the draws, and checks the extraction against the oracle.
fn check(clean: &circuit::Circuit, rng: &mut StdRng) {
    let mut model = NoiseModel::new(rng.gen_range(5e-4..5e-3));
    if rng.gen_bool(0.5) {
        model = model.with_bad_qubit(rng.gen_range(0..clean.num_qubits()), 0.1);
    }
    let (noisy, params) = model.apply_with_params(clean);
    oracle::assert_matches_oracle(&noisy, &params);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn extraction_matches_the_oracle_on_defective_patches(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        for l in [5u32, 7, 9] {
            let clean = memory(l, DefectModel::LinkAndQubit, &mut rng);
            check(&clean, &mut rng);
        }
    }
}

#[test]
fn extraction_matches_the_oracle_on_defective_stability_patches() {
    let mut rng = StdRng::seed_from_u64(0xde30_0002);
    for size in [4u32, 6] {
        for model in [DefectModel::LinkOnly, DefectModel::LinkAndQubit] {
            let layout = PatchLayout::stability(size, size);
            let clean = defective(&layout, model, &mut rng, |patch| {
                stability(patch, size).ok().map(|e| e.circuit)
            });
            check(&clean, &mut rng);
        }
    }
}

#[test]
#[ignore = "l = 11 and 13; seconds in release"]
fn extraction_matches_the_oracle_on_large_memory_patches() {
    let mut rng = StdRng::seed_from_u64(0xde30_0003);
    for l in [11u32, 13] {
        for model in [DefectModel::LinkOnly, DefectModel::LinkAndQubit] {
            let clean = memory(l, model, &mut rng);
            check(&clean, &mut rng);
        }
    }
}
