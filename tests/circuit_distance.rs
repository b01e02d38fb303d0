//! Cross-validation of the two distance notions: the adapted patch's
//! combinatorial code distance must equal the graphlike circuit-level
//! distance of its generated memory circuit (data errors along the
//! shortest logical are exactly the cheapest undetectable mechanisms;
//! the measurement schedule must not create anything cheaper).

use dqec::core::{memory_z, AdaptedPatch, Coord, DefectSet, PatchIndicators, PatchLayout};
use dqec::matching::MwpmDecoder;
use dqec::sim::noise::NoiseModel;

/// The graphlike distance of `patch`'s memory circuit over `rounds`
/// rounds, read off the Z graph that owns its observable. Both graphs
/// must be fully graphlike (nothing decomposed, nothing undecomposable),
/// so that distance is the circuit-level distance of the basis.
fn circuit_distance(patch: &AdaptedPatch, rounds: u32) -> u32 {
    let exp = memory_z(patch, rounds).expect("circuit builds");
    let noisy = NoiseModel::new(1e-3).apply(&exp.circuit);
    let decoder = MwpmDecoder::new(&noisy);
    for g in [decoder.z_graph(), decoder.x_graph()] {
        let d = g.diagnostics();
        assert_eq!(
            (d.decomposed_mechanisms, d.undecomposable_mechanisms),
            (0, 0),
            "{:?} graph: every mechanism must be an edge",
            g.basis()
        );
    }
    let g = decoder.z_graph();
    assert!(
        g.edges().iter().any(|e| e.observables & 1 == 1),
        "memory-Z observable belongs to the Z graph"
    );
    g.graphlike_distance(0).expect("a logical error exists")
}

#[test]
fn defect_free_circuit_distance_equals_d() {
    for l in [3u32, 5] {
        let patch = AdaptedPatch::new(PatchLayout::memory(l), &DefectSet::new());
        assert_eq!(circuit_distance(&patch, l), l, "l={l}");
    }
}

#[test]
fn interior_defect_circuit_distance_matches_adapted_distance() {
    let mut d = DefectSet::new();
    d.add_data(Coord::new(5, 5));
    let patch = AdaptedPatch::new(PatchLayout::memory(5), &d);
    let expected = PatchIndicators::of(&patch).dist_x;
    assert_eq!(circuit_distance(&patch, 6), expected);
}

#[test]
fn boundary_defect_circuit_distance_matches_adapted_distance() {
    let mut d = DefectSet::new();
    d.add_data(Coord::new(5, 1));
    let patch = AdaptedPatch::new(PatchLayout::memory(5), &d);
    let expected = PatchIndicators::of(&patch).dist_x;
    assert_eq!(circuit_distance(&patch, 5), expected);
}

#[test]
fn super_stabilizer_schedule_preserves_distance() {
    // The gauge measurement schedule (XXZZ blocks) must not open a
    // cheaper logical channel through the cluster.
    let mut d = DefectSet::new();
    d.add_synd(Coord::new(6, 6));
    let patch = AdaptedPatch::new(PatchLayout::memory(7), &d);
    let expected = PatchIndicators::of(&patch).dist_x;
    let got = circuit_distance(&patch, 8);
    assert_eq!(
        got, expected,
        "schedule must preserve the distance: got {got}, adapted {expected}"
    );
}
