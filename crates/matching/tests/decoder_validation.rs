//! Decoder validation: graph-distance sanity on structured circuits and
//! behaviour under extreme syndromes.

use dqec_matching::{Decoder, MwpmDecoder, PathTables};
use dqec_sim::circuit::{CheckBasis, Circuit, Noise1};

/// A 1D matching chain: n checks in a row, data errors between them.
fn chain_circuit(n: u32, p: f64) -> Circuit {
    // Data qubits 0..=n, ancillas n+1..=2n.
    let mut c = Circuit::new(2 * n + 1);
    for q in 0..=2 * n {
        c.reset(q).unwrap();
    }
    for q in 0..=n {
        c.noise1(Noise1::XError, q, p).unwrap();
    }
    let mut records = Vec::new();
    for i in 0..n {
        let anc = n + 1 + i;
        c.cx(i, anc).unwrap();
        c.cx(i + 1, anc).unwrap();
        records.push(c.measure(anc).unwrap());
    }
    for (i, &m) in records.iter().enumerate() {
        c.add_detector(&[m], CheckBasis::Z, (i as i32, 0, 0))
            .unwrap();
    }
    // Observable: data qubit 0 (its X flip is logical).
    let d0 = c.measure(0).unwrap();
    c.include_observable(0, &[d0]).unwrap();
    c
}

#[test]
fn chain_graph_distances_are_monotone_in_separation() {
    let c = chain_circuit(6, 0.01);
    let tables = PathTables::build(MwpmDecoder::new(&c).z_graph());
    // All edges share the same probability, so the direct distance
    // grows linearly with separation — until routing through the shared
    // boundary becomes cheaper (0 and 5 are each one edge from an end,
    // so their distance saturates at two edge weights).
    let d01 = tables.distance(Some(0), Some(1));
    let d02 = tables.distance(Some(0), Some(2));
    let d05 = tables.distance(Some(0), Some(5));
    assert!(d01 < d02);
    assert!((d02 - 2.0 * d01).abs() < 1e-9, "uniform chain is additive");
    assert!(
        (d05 - d02).abs() < 1e-9,
        "far pair reroutes through the boundary: {d05} vs {d02}"
    );
}

#[test]
fn boundary_distance_reflects_position() {
    let c = chain_circuit(6, 0.01);
    let tables = PathTables::build(MwpmDecoder::new(&c).z_graph());
    // Check 0 is one error from the left boundary; check 3 is four away
    // from either side (going through the nearer one is cheaper but
    // still costlier than check 0's).
    let b0 = tables.distance(Some(0), None);
    let b3 = tables.distance(Some(3), None);
    assert!(b0 < b3);
}

#[test]
fn single_event_matches_to_nearest_boundary_and_predicts_obs() {
    let c = chain_circuit(4, 0.01);
    let decoder = MwpmDecoder::new(&c);
    // Event at detector 0: nearest explanation is an X on data 0, which
    // flips the observable.
    assert_eq!(decoder.decode_events(&[0]), 1);
    // Event at detector 3 (right end): nearest explanation is data 4 —
    // no observable flip.
    assert_eq!(decoder.decode_events(&[3]), 0);
}

#[test]
fn adjacent_pair_matches_internally() {
    let c = chain_circuit(4, 0.01);
    let decoder = MwpmDecoder::new(&c);
    // Events at detectors 1 and 2: the single error on data qubit 2
    // between them explains both without an observable flip.
    assert_eq!(decoder.decode_events(&[1, 2]), 0);
}

#[test]
fn full_syndrome_decodes_without_panicking() {
    let c = chain_circuit(8, 0.01);
    let decoder = MwpmDecoder::new(&c);
    let all: Vec<u32> = (0..8).collect();
    // Any prediction is acceptable; it must simply terminate and be
    // consistent under repetition.
    let p1 = decoder.decode_events(&all);
    let p2 = decoder.decode_events(&all);
    assert_eq!(p1, p2);
}

#[test]
fn observable_ownership_splits_by_basis() {
    // A circuit whose observable is only flippable by X errors must
    // assign the observable to the Z graph.
    let c = chain_circuit(3, 0.02);
    let decoder = MwpmDecoder::new(&c);
    let carries = |edges: &[dqec_matching::GraphEdge]| edges.iter().any(|e| e.observables & 1 != 0);
    assert!(carries(decoder.z_graph().edges()));
    assert!(!carries(decoder.x_graph().edges()));
}

#[test]
fn graphlike_distance_of_chain_matches_code_distance() {
    // The only undetectable logical of the 5-data-qubit repetition
    // chain is flipping all five qubits (a boundary-to-boundary string
    // crossing the observable once), so the circuit distance is 5.
    let c = chain_circuit(4, 0.01);
    let decoder = MwpmDecoder::new(&c);
    assert_eq!(decoder.z_graph().graphlike_distance(0), Some(5));
}
