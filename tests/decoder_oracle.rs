//! Decoder-level oracle on real decoding graphs.
//!
//! The exact MWPM kernel splits a syndrome into independent components
//! before it runs blossom on each (`decode_basis_sparse`). On adapted
//! patches with random qubit + link defects — so deformed boundaries
//! and super-stabilizer gauge schedules are in the graphs — and in both
//! bases, its total matching weight must equal that of the one dense
//! reference (`decode_basis_dense`: no split, no fast path) on sampled
//! and on random dense syndromes, and must equal brute-force
//! enumeration of every matching on syndromes of at most ten events.
//! Equal-weight ties may pick different matchings; the weight may not
//! differ.

use dqec::chiplet::runner::default_rounds;
use dqec::chiplet::DefectModel;
use dqec::core::{memory_z, AdaptedPatch, PatchLayout};
use dqec::matching::decoder::{decode_basis_dense, decode_basis_sparse};
use dqec::matching::{DecodeScratch, DecodingGraph, MwpmDecoder};
use dqec::sim::frame::FrameSampler;
use dqec::sim::noise::NoiseModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Distances above this are the graph's "no path" sentinel (1e12).
const FAR: f64 = 1e11;

/// Largest syndrome the brute-force enumeration is asked to cover.
const BRUTE_MAX: usize = 10;

/// Minimum total weight over every way of matching `nodes[i..]` not yet
/// `used`: the first free node goes to the boundary or pairs with any
/// later free node.
fn brute_force(graph: &DecodingGraph, nodes: &[u32], used: &mut [bool]) -> f64 {
    let Some(i) = used.iter().position(|&u| !u) else {
        return 0.0;
    };
    used[i] = true;
    let mut best = graph.distance(Some(nodes[i]), None) + brute_force(graph, nodes, used);
    for j in (i + 1)..nodes.len() {
        if !used[j] {
            used[j] = true;
            let pair = graph.distance(Some(nodes[i]), Some(nodes[j]));
            best = best.min(pair + brute_force(graph, nodes, used));
            used[j] = false;
        }
    }
    used[i] = false;
    best
}

/// How many syndromes each oracle judged.
#[derive(Default)]
struct Checked {
    dense: usize,
    brute: usize,
    split: usize,
}

/// Checks one basis's share of `events` against both oracles.
fn check(
    graph: &DecodingGraph,
    events: &[u32],
    sparse: &mut DecodeScratch,
    dense: &mut DecodeScratch,
    checked: &mut Checked,
) {
    let mut nodes: Vec<u32> = events
        .iter()
        .filter_map(|&d| graph.node_of_detector(d))
        .collect();
    nodes.sort_unstable();
    let (_, sc) = decode_basis_sparse(graph, events, sparse);
    let (_, dc) = decode_basis_dense(graph, events, dense);
    // Both are realizable matchings, so neither can beat the optimum;
    // the sparse path must never be the worse one.
    assert!(
        sc <= dc + 1e-6,
        "sparse weight {sc} exceeds dense {dc} on {nodes:?}"
    );
    // With an unreachable-node sentinel in the dense matrix its integer
    // scaling quantizes real weights away, and only the one-sided bound
    // holds.
    if nodes.iter().any(|&n| graph.distance(Some(n), None) > FAR) {
        return;
    }
    assert!(
        (sc - dc).abs() < 1e-6,
        "sparse weight {sc} != dense weight {dc} on {nodes:?}"
    );
    checked.dense += 1;
    if nodes.len() >= 3 && sc + 1e-6 < nodes.iter().map(|&n| graph.distance(Some(n), None)).sum() {
        checked.split += 1; // some pair beat the boundary: a real component
    }
    if nodes.len() <= BRUTE_MAX {
        let bf = brute_force(graph, &nodes, &mut vec![false; nodes.len()]);
        assert!(
            (sc - bf).abs() < 1e-6,
            "sparse weight {sc} != brute-force minimum {bf} on {nodes:?}"
        );
        checked.brute += 1;
    }
}

#[test]
fn sparse_weight_equals_dense_and_brute_force_on_defective_patches() {
    let mut rng = StdRng::seed_from_u64(0x0dec_0de5);
    let mut checked = Checked::default();
    let mut with_gauges = 0;
    let mut sparse = DecodeScratch::new();
    let mut dense = DecodeScratch::new();
    for l in [5u32, 7] {
        let layout = PatchLayout::memory(l);
        let mut patches = 0;
        while patches < 3 {
            let defects = DefectModel::LinkAndQubit.sample(&layout, 0.02, &mut rng);
            let patch = AdaptedPatch::new(layout.clone(), &defects);
            if defects.is_empty() || !patch.is_valid() {
                continue;
            }
            let Ok(exp) = memory_z(&patch, default_rounds(&patch)) else {
                continue;
            };
            patches += 1;
            with_gauges += usize::from(patch.clusters().iter().any(|c| c.has_gauges()));
            let noisy = NoiseModel::new(5e-3).apply(&exp.circuit);
            let decoder = MwpmDecoder::new(&noisy);
            let ndet = noisy.detectors().len() as u32;

            let mut syndromes: Vec<Vec<u32>> = FrameSampler::new(&noisy)
                .sample(200, &mut rng)
                .detection_events_by_shot();
            for density in [0.02, 0.08, 0.25] {
                for _ in 0..40 {
                    syndromes.push((0..ndet).filter(|_| rng.gen_bool(density)).collect());
                }
            }
            for events in &syndromes {
                for graph in [decoder.z_graph(), decoder.x_graph()] {
                    check(graph, events, &mut sparse, &mut dense, &mut checked);
                }
            }
        }
    }
    // The oracle must have had teeth: super-stabilizers present, and
    // plenty of syndromes on both sides of the brute-force bound whose
    // optimum needs more than boundary matches.
    assert!(with_gauges >= 1, "no sampled patch had a super-stabilizer");
    assert!(checked.dense >= 2000, "{} dense checks", checked.dense);
    assert!(checked.brute >= 500, "{} brute-force checks", checked.brute);
    assert!(checked.split >= 500, "{} split checks", checked.split);
}
