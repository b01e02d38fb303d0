//! The decoding-graph build `dqec_matching::graph` replaced, kept as the
//! oracle its flat records must reproduce bit for bit: a `BTreeMap` of
//! edges, each with a `BTreeMap` of observable votes and a `Vec` of
//! sources, a fresh node `Vec` per mechanism, and decomposition against
//! a `BTreeSet` of the simple mechanisms' edges.
//!
//! Written against `crate::graph` and `dqec_sim`, so it compiles as a
//! unit-test module of `dqec_matching` and inside an integration test
//! that imports `dqec_matching::graph` at its root.

use crate::graph::{DecodingGraph, GraphDiagnostics, GraphEdge};
use dqec_sim::circuit::{CheckBasis, Circuit};
use dqec_sim::dem::ParametricDem;
use std::collections::{BTreeMap, BTreeSet};

/// Asserts that `[z, x]`, a decoder's two graphs of `circuit`, equal
/// the oracle's pair built from `dem`'s mechanisms firing with
/// `probabilities` (in mechanism order) with the oracle's observable
/// split, field by field: node maps, edges with their probability bits,
/// sources in fold order, weight bits, adjacency and diagnostics.
/// Returns the oracle's diagnostics, Z first.
pub fn assert_pair_matches_oracle(
    circuit: &Circuit,
    dem: &ParametricDem,
    probabilities: &[f64],
    [z, x]: [&DecodingGraph; 2],
) -> [GraphDiagnostics; 2] {
    let mechanisms: Vec<Mechanism> = dem
        .mechanisms()
        .zip(probabilities)
        .map(|((detectors, observables, _), &probability)| Mechanism {
            detectors,
            observables,
            probability,
        })
        .collect();
    let (z_mask, x_mask) = split(circuit, &mechanisms);
    [(z, CheckBasis::Z, z_mask), (x, CheckBasis::X, x_mask)].map(|(got, basis, mask)| {
        let want = build(circuit, &mechanisms, basis, mask);
        assert_same_graph(got, &want, basis);
        want.diagnostics
    })
}

/// One mechanism of the DEM a graph is built from.
struct Mechanism<'a> {
    detectors: &'a [u32],
    observables: u64,
    probability: f64,
}

/// Every field of a decoding graph, as the oracle builds it.
struct OracleGraph {
    basis: CheckBasis,
    node_of_det: Vec<Option<u32>>,
    det_of_node: Vec<u32>,
    edges: Vec<GraphEdge>,
    edge_sources: Vec<Vec<u32>>,
    weights: Vec<f64>,
    adjacency: Adjacency,
    diagnostics: GraphDiagnostics,
}

fn assert_same_graph(got: &DecodingGraph, want: &OracleGraph, basis: CheckBasis) {
    assert_eq!(got.basis(), want.basis, "{basis:?}: basis");
    assert_eq!(
        got.num_nodes(),
        want.det_of_node.len(),
        "{basis:?}: node count"
    );
    for (d, &node) in want.node_of_det.iter().enumerate() {
        assert_eq!(
            got.node_of_detector(d as u32),
            node,
            "{basis:?}: detector {d}"
        );
    }
    for (v, &d) in want.det_of_node.iter().enumerate() {
        assert_eq!(
            got.node_of_detector(d),
            Some(v as u32),
            "{basis:?}: node {v}"
        );
    }
    assert_eq!(got.edges().len(), want.edges.len(), "{basis:?}: edge count");
    for (e, (a, b)) in got.edges().iter().zip(&want.edges).enumerate() {
        assert_eq!(
            (a.a, a.b, a.probability.to_bits(), a.observables),
            (b.a, b.b, b.probability.to_bits(), b.observables),
            "{basis:?}: edge {e}"
        );
        assert_eq!(
            got.sources_of(e),
            &want.edge_sources[e][..],
            "{basis:?}: sources of edge {e} ({}, {:?})",
            b.a,
            b.b
        );
    }
    let bits = |w: &[f64]| w.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(got.weights()),
        bits(&want.weights),
        "{basis:?}: weights"
    );
    let Adjacency {
        starts,
        entries,
        ends,
    } = &want.adjacency;
    assert_eq!(
        got.adjacency_parts(),
        (&starts[..], &entries[..], &ends[..]),
        "{basis:?}: adjacency"
    );
    assert_eq!(
        got.diagnostics(),
        &want.diagnostics,
        "{basis:?}: diagnostics"
    );
}

const P_FLOOR: f64 = 1e-14;
const P_CEIL: f64 = 0.4999;

fn split(circuit: &Circuit, mechanisms: &[Mechanism]) -> (u64, u64) {
    let det_basis: Vec<CheckBasis> = circuit.detectors().iter().map(|d| d.basis).collect();
    let mut always_z = u64::MAX;
    let mut always_x = u64::MAX;
    for mech in mechanisms {
        if mech.observables == 0 {
            continue;
        }
        let mut has = [false, false]; // [z, x]
        for &d in mech.detectors {
            match det_basis[d as usize] {
                CheckBasis::Z => has[0] = true,
                CheckBasis::X => has[1] = true,
            }
        }
        if !has[0] {
            always_z &= !mech.observables;
        }
        if !has[1] {
            always_x &= !mech.observables;
        }
    }
    // Own what you always see; ties go to Z; orphans (seen by
    // neither) also go to Z so they are at least counted once.
    let z_mask = always_z;
    let x_mask = always_x & !always_z;
    (z_mask | !(always_z | always_x), x_mask)
}

fn build(
    circuit: &Circuit,
    mechanisms: &[Mechanism],
    basis: CheckBasis,
    obs_mask: u64,
) -> OracleGraph {
    let det_basis: Vec<CheckBasis> = circuit.detectors().iter().map(|d| d.basis).collect();
    let mut node_of_det: Vec<Option<u32>> = vec![None; det_basis.len()];
    let mut det_of_node: Vec<u32> = Vec::new();
    for (d, &b) in det_basis.iter().enumerate() {
        if b == basis {
            node_of_det[d] = Some(det_of_node.len() as u32);
            det_of_node.push(d as u32);
        }
    }
    let n = det_of_node.len();
    let mut diagnostics = GraphDiagnostics::default();

    // Key: (a, b) with a < b, or (a, u32::MAX) for boundary.
    type Key = (u32, u32);
    #[derive(Default)]
    struct Accum {
        p: f64,
        obs_votes: BTreeMap<u64, f64>,
        sources: Vec<u32>,
    }
    let mut accum: BTreeMap<Key, Accum> = BTreeMap::new();
    let key_of = |dets: &[u32]| -> Key {
        match dets {
            [a] => (*a, u32::MAX),
            [a, b] => (*a.min(b), *a.max(b)),
            _ => unreachable!(),
        }
    };
    let add_edge =
        |nodes: &[u32], p: f64, obs: u64, mech: u32, accum: &mut BTreeMap<Key, Accum>| {
            let e = accum.entry(key_of(nodes)).or_default();
            e.p = e.p * (1.0 - p) + p * (1.0 - e.p);
            *e.obs_votes.entry(obs).or_insert(0.0) += p;
            e.sources.push(mech);
        };

    // Pass 1: simple mechanisms (<= 2 same-basis detectors).
    let mut deferred: Vec<(u32, &[u32], u64, f64)> = Vec::new();
    for (m, mech) in mechanisms.iter().enumerate() {
        let nodes: Vec<u32> = mech
            .detectors
            .iter()
            .filter_map(|&d| node_of_det[d as usize])
            .collect();
        // An observable flip is charged to the graph that detects it;
        // if neither basis sees the mechanism at all it is a genuine
        // undetectable logical error.
        if nodes.is_empty() {
            if mech.observables != 0 && mech.detectors.is_empty() {
                diagnostics.undetectable_logical_mechanisms += 1;
            }
            continue;
        }
        let obs = mech.observables & obs_mask;
        match nodes.len() {
            1 | 2 => add_edge(&nodes, mech.probability, obs, m as u32, &mut accum),
            _ => deferred.push((m as u32, mech.detectors, obs, mech.probability)),
        }
    }

    // Pass 2: decompose multi-detector mechanisms into known edges.
    let known: BTreeSet<Key> = accum.keys().copied().collect();
    for (m, dets, obs, p) in deferred {
        let nodes: Vec<u32> = dets
            .iter()
            .filter_map(|&d| node_of_det[d as usize])
            .collect();
        if let Some(parts) = decompose(&nodes, &known) {
            diagnostics.decomposed_mechanisms += 1;
            // Assign the observable to the first component (the vote
            // mechanism resolves disagreements below).
            for (i, part) in parts.iter().enumerate() {
                let part_obs = if i == 0 { obs } else { 0 };
                add_edge(part, p, part_obs, m, &mut accum);
            }
        } else {
            diagnostics.undecomposable_mechanisms += 1;
            let mut i = 0;
            while i < nodes.len() {
                let part: Vec<u32> = nodes[i..(i + 2).min(nodes.len())].to_vec();
                let part_obs = if i == 0 { obs } else { 0 };
                add_edge(&part, p, part_obs, m, &mut accum);
                i += 2;
            }
        }
    }

    // Finalize edges: pick the dominant observable mask per edge.
    // Votes are summed in mechanism order and compared in mask
    // order, and of tied masks the numerically smallest wins
    // (`max_by` keeps the last maximum, so scan downwards) — every
    // build of one circuit yields the same edges.
    let mut paired = Vec::with_capacity(accum.len());
    for ((a, b), acc) in accum {
        // Every accumulated edge carries at least one vote (it was
        // created by `add_edge`); an empty map degrades to mask 0.
        let obs = acc
            .obs_votes
            .iter()
            .rev()
            .max_by(|x, y| x.1.total_cmp(y.1))
            .map(|(&obs, _)| obs)
            .unwrap_or(0);
        if acc.obs_votes.len() > 1 {
            diagnostics.conflicting_observable_edges += 1;
        }
        paired.push((
            GraphEdge {
                a,
                b: (b != u32::MAX).then_some(b),
                probability: acc.p,
                observables: obs,
            },
            acc.sources,
        ));
    }
    paired.sort_by_key(|(e, _)| (e.a, e.b));
    let (edges, edge_sources): (Vec<GraphEdge>, Vec<Vec<u32>>) = paired.into_iter().unzip();

    OracleGraph {
        basis,
        node_of_det,
        det_of_node,
        weights: edges.iter().map(|e| weight_of(e.probability)).collect(),
        adjacency: Adjacency::build(
            n,
            edges
                .iter()
                .map(|e| (e.a as usize, e.b.map_or(n, |b| b as usize))),
        ),
        edges,
        edge_sources,
        diagnostics,
    }
}

fn weight_of(p: f64) -> f64 {
    let p = p.clamp(P_FLOOR, P_CEIL);
    ((1.0 - p) / p).ln()
}

/// Tries to split `nodes` (sorted, len >= 3) into parts that all exist
/// as known edges; parts are pairs or boundary singletons.
fn decompose(nodes: &[u32], known: &BTreeSet<(u32, u32)>) -> Option<Vec<Vec<u32>>> {
    if nodes.is_empty() {
        return Some(Vec::new());
    }
    let first = nodes[0];
    // Option A: first matches the boundary.
    if known.contains(&(first, u32::MAX)) {
        let rest: Vec<u32> = nodes[1..].to_vec();
        if let Some(mut parts) = decompose(&rest, known) {
            parts.insert(0, vec![first]);
            return Some(parts);
        }
    }
    // Option B: pair first with a later node.
    for i in 1..nodes.len() {
        let other = nodes[i];
        let key = (first.min(other), first.max(other));
        if known.contains(&key) {
            let rest: Vec<u32> = nodes[1..].iter().copied().filter(|&x| x != other).collect();
            if let Some(mut parts) = decompose(&rest, known) {
                parts.insert(0, vec![first, other]);
                return Some(parts);
            }
        }
    }
    None
}

struct Adjacency {
    starts: Vec<u32>,
    entries: Vec<(u32, u32)>,
    ends: Vec<(u32, u32)>,
}

impl Adjacency {
    fn build(n: usize, ends: impl Iterator<Item = (usize, usize)> + Clone) -> Adjacency {
        let total = n + 1;
        let mut starts = vec![0u32; total + 1];
        for (a, b) in ends.clone() {
            starts[a + 1] += 1;
            starts[b + 1] += 1;
        }
        for v in 0..total {
            starts[v + 1] += starts[v];
        }
        let mut cursor = starts.clone();
        let mut entries = vec![(0u32, 0u32); starts[total] as usize];
        for (i, (a, b)) in ends.clone().enumerate() {
            entries[cursor[a] as usize] = (b as u32, i as u32);
            cursor[a] += 1;
            entries[cursor[b] as usize] = (a as u32, i as u32);
            cursor[b] += 1;
        }
        Adjacency {
            starts,
            entries,
            ends: ends.map(|(a, b)| (a as u32, b as u32)).collect(),
        }
    }
}
