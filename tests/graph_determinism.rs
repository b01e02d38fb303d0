//! A decoding-graph build must be a pure function of the circuit: when
//! parallel edges disagree on their observable mask, the vote between
//! them — ties included — may not depend on hash-map iteration order,
//! or two builds of one patch decode the same syndrome differently and
//! "served == one-shot" fails by chance.

use dqec::chiplet::runner::default_rounds;
use dqec::core::{memory_z, AdaptedPatch, Coord, DefectSet, PatchLayout};
use dqec::matching::{Decoder, MwpmDecoder, UfDecoder};
use dqec::sim::{Circuit, NoiseModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The circuit of an l = 5 patch (a broken data qubit on the top edge
/// and a broken face beside it) whose graphs have edges with
/// conflicting observable masks, tied votes among them: built twice
/// under hash-order tie-breaking, its edge lists differed.
fn conflicted_circuit(noise: &NoiseModel) -> Circuit {
    let mut defects = DefectSet::new();
    defects.add_data(Coord::new(3, 1));
    defects.add_synd(Coord::new(4, 4));
    let patch = AdaptedPatch::new(PatchLayout::memory(5), &defects);
    let exp = memory_z(&patch, default_rounds(&patch)).expect("the patch is valid");
    let decoder = MwpmDecoder::from_clean(&exp.circuit, noise);
    let conflicts: usize = [decoder.z_graph(), decoder.x_graph()]
        .iter()
        .map(|g| g.diagnostics().conflicting_observable_edges)
        .sum();
    assert!(conflicts > 0, "the fixture must have conflicting edges");
    exp.circuit
}

#[test]
fn twenty_builds_of_a_conflicted_patch_agree() {
    let noise = NoiseModel::new(2e-3);
    let circuit = conflicted_circuit(&noise);
    let detectors = circuit.detectors().len() as u32;
    let mut rng = StdRng::seed_from_u64(0x71e5);
    let syndromes: Vec<Vec<u32>> = (0..1000)
        .map(|_| {
            let mut events: Vec<u32> = (0..rng.gen_range(1..9usize))
                .map(|_| rng.gen_range(0..detectors))
                .collect();
            events.sort_unstable();
            events.dedup();
            events
        })
        .collect();

    let first = MwpmDecoder::from_clean(&circuit, &noise);
    let first_uf = UfDecoder::from_clean(&circuit, &noise);
    let want: Vec<u64> = syndromes.iter().map(|s| first.decode_events(s)).collect();
    let want_uf: Vec<u64> = syndromes
        .iter()
        .map(|s| first_uf.decode_events(s))
        .collect();
    for build in 1..20 {
        let again = MwpmDecoder::from_clean(&circuit, &noise);
        assert_eq!(
            again.z_graph().edges(),
            first.z_graph().edges(),
            "build {build}"
        );
        assert_eq!(
            again.x_graph().edges(),
            first.x_graph().edges(),
            "build {build}"
        );
        let got: Vec<u64> = syndromes.iter().map(|s| again.decode_events(s)).collect();
        assert_eq!(got, want, "mwpm predictions of build {build}");
        let again_uf = UfDecoder::from_clean(&circuit, &noise);
        let got_uf: Vec<u64> = syndromes
            .iter()
            .map(|s| again_uf.decode_events(s))
            .collect();
        assert_eq!(got_uf, want_uf, "uf predictions of build {build}");
    }
}
