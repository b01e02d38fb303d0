//! Decoding-graph builds against the map-based build they replaced, on
//! the circuits the paper's figures decode: adapted l = 5, 7 and 9
//! patches with random qubit + link defects (super-stabilizers,
//! deformed boundaries), noised by the paper's model, plus one patch
//! whose parallel edges disagree on their observables. Both decoder
//! constructors — `new` on the noisy circuit as it stands and
//! `from_clean`, which re-noises the clean circuit — must equal the
//! oracle built from the same parametric DEM field by field, bit for
//! bit. (These patches' mechanisms are all
//! graphlike per basis, so decomposition is exercised by the random
//! circuits of `dqec_matching`'s `graph` unit tests.)

use dqec::chiplet::runner::default_rounds;
use dqec::chiplet::DefectModel;
use dqec::core::{memory_z, AdaptedPatch, Coord, DefectSet, PatchLayout};
use dqec::matching::MwpmDecoder;
use dqec::sim::circuit::Circuit;
use dqec::sim::dem::ParametricDem;
use dqec::sim::noise::{NoiseModel, NoiseParam};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// The oracle is written against `crate::graph`.
use dqec::matching::graph;

#[path = "../crates/matching/tests/support/graph_oracle.rs"]
mod oracle;

/// Asserts that `decoder`'s graphs equal the oracle's from `noisy`'s
/// DEM under `params` at baseline rate `p`; returns the oracle's
/// diagnostics.
fn assert_decoder_matches_oracle(
    decoder: &MwpmDecoder,
    noisy: &Circuit,
    params: &[NoiseParam],
    p: f64,
) -> [graph::GraphDiagnostics; 2] {
    let dem = ParametricDem::from_noisy(noisy, params);
    let mut probabilities = Vec::new();
    dem.probabilities_into(p, &mut probabilities);
    oracle::assert_pair_matches_oracle(
        noisy,
        &dem,
        &probabilities,
        [decoder.z_graph(), decoder.x_graph()],
    )
}

/// Draws defective `LinkAndQubit` patches of size `l` until one is
/// valid, hosts a memory experiment and has a defect; returns its clean
/// memory circuit.
fn defective_circuit(l: u32, rng: &mut StdRng) -> Circuit {
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
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn graphs_match_the_oracle_on_defective_patches(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        for l in [5u32, 7, 9] {
            let clean = defective_circuit(l, &mut rng);
            let mut model = NoiseModel::new(rng.gen_range(5e-4..5e-3));
            if rng.gen_bool(0.5) {
                model = model.with_bad_qubit(rng.gen_range(0..clean.num_qubits()), 0.1);
            }
            let (noisy, params) = model.apply_with_params(&clean);

            let (_, fixed) = NoiseModel::new(0.0).apply_with_params(&noisy);
            assert_decoder_matches_oracle(&MwpmDecoder::new(&noisy), &noisy, &fixed, 0.0);

            let decoder = MwpmDecoder::from_clean(&clean, &model);
            assert_decoder_matches_oracle(&decoder, &noisy, &params, model.p());
        }
    }
}

/// The l = 5 patch of `tests/graph_determinism.rs` (a broken data qubit
/// on the top edge, a broken face beside it): its graphs have parallel
/// edges whose observable masks disagree, so the vote decides.
#[test]
fn conflicted_patch_matches_the_oracle() {
    let mut defects = DefectSet::new();
    defects.add_data(Coord::new(3, 1));
    defects.add_synd(Coord::new(4, 4));
    let patch = AdaptedPatch::new(PatchLayout::memory(5), &defects);
    let clean = memory_z(&patch, default_rounds(&patch))
        .expect("the patch is valid")
        .circuit;
    for p in [5e-4, 2e-3] {
        let model = NoiseModel::new(p);
        let (noisy, params) = model.apply_with_params(&clean);
        let decoder = MwpmDecoder::from_clean(&clean, &model);
        let diagnostics = assert_decoder_matches_oracle(&decoder, &noisy, &params, p);
        let conflicts: usize = diagnostics
            .iter()
            .map(|d| d.conflicting_observable_edges)
            .sum();
        assert!(conflicts > 0, "p = {p}: {diagnostics:?}");
    }
}
