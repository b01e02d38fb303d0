//! Per-basis decoding graphs derived from a detector error model.
//!
//! CSS decoding splits detectors into an X graph and a Z graph. Error
//! mechanisms become edges: a mechanism flipping two same-basis
//! detectors is an internal edge, one flipping a single detector is a
//! boundary edge, and rarer multi-detector mechanisms (hook errors) are
//! decomposed into known edges, mirroring Stim's `decompose_errors`.
//!
//! A [`DecodingGraph`] is its edge list plus one CSR adjacency, built
//! once, with the per-edge matching weights `ln((1-p)/p)` beside it;
//! [`DecodingGraph::reweight_from_probabilities`] refreshes probabilities
//! and weights in place from a reweighted DEM's mechanism probabilities,
//! in O(E). The exact matcher ([`crate::sparse`]) decodes on
//! that adjacency directly. All-pairs shortest paths are *not* part of
//! a graph: whoever needs them builds a [`crate::PathTables`] from one
//! (the union-find kernel keeps the only production instance).

use dqec_sim::circuit::{CheckBasis, Circuit};
use dqec_sim::dem::DetectorErrorModel;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

/// Smallest probability an edge is allowed to carry (avoids infinite
/// weights).
const P_FLOOR: f64 = 1e-14;
/// Largest probability (keeps weights positive).
const P_CEIL: f64 = 0.4999;
/// Stand-in weight for unreachable node pairs.
pub(crate) const UNREACHABLE: f64 = 1e12;

/// One edge of a decoding graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphEdge {
    /// First endpoint (node id).
    pub a: u32,
    /// Second endpoint, or `None` for the virtual boundary.
    pub b: Option<u32>,
    /// Combined firing probability.
    pub probability: f64,
    /// Observables flipped when this edge fires.
    pub observables: u64,
}

/// Diagnostics accumulated while building a graph.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GraphDiagnostics {
    /// Mechanisms whose same-basis symptom had more than two detectors
    /// and were decomposed into existing edges.
    pub decomposed_mechanisms: usize,
    /// Mechanisms that could not be decomposed and fell back to
    /// consecutive pairing.
    pub undecomposable_mechanisms: usize,
    /// Parallel edges that disagreed on their observable mask.
    pub conflicting_observable_edges: usize,
    /// Mechanisms flipping a tracked observable with an empty symptom in
    /// both bases (true undetectable logical errors).
    pub undetectable_logical_mechanisms: usize,
}

/// A single-basis matching graph: nodes, weighted edges and their
/// adjacency.
#[derive(Debug, Clone)]
pub struct DecodingGraph {
    basis: CheckBasis,
    node_of_det: Vec<Option<u32>>,
    det_of_node: Vec<u32>,
    edges: Vec<GraphEdge>,
    /// Per edge, the indices (into the source DEM's mechanism list, in
    /// accumulation order) whose XOR-combination gives its probability;
    /// kept so [`DecodingGraph::reweight_from`] can recompute weights.
    edge_sources: Vec<Vec<u32>>,
    /// Per edge, the matching weight of its current probability.
    weights: Vec<f64>,
    adjacency: Adjacency,
    diagnostics: GraphDiagnostics,
}

impl DecodingGraph {
    /// Builds the decoding graph for `basis` from a circuit's DEM,
    /// responsible for every observable.
    ///
    /// Prefer [`DecodingGraph::build_with_observables`]: in CSS decoding
    /// each observable must be owned by exactly one basis graph.
    pub fn build(circuit: &Circuit, dem: &DetectorErrorModel, basis: CheckBasis) -> Self {
        Self::build_with_observables(circuit, dem, basis, u64::MAX)
    }

    /// Determines which basis should own each observable: the basis
    /// whose detectors see *every* mechanism that flips it. (A logical-Z
    /// readout is flipped by X-type errors, which always trip Z checks;
    /// Y errors additionally trip X checks, so the X basis fails the
    /// "every mechanism" test.) Returns `(z_mask, x_mask)`.
    pub fn split_observables(circuit: &Circuit, dem: &DetectorErrorModel) -> (u64, u64) {
        let det_basis: Vec<CheckBasis> = circuit.detectors().iter().map(|d| d.basis).collect();
        let mut always_z = u64::MAX;
        let mut always_x = u64::MAX;
        for mech in &dem.mechanisms {
            if mech.observables == 0 {
                continue;
            }
            let mut has = [false, false]; // [z, x]
            for &d in &mech.detectors {
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

    /// Builds the decoding graph for `basis`, owning only the
    /// observables in `obs_mask`.
    pub fn build_with_observables(
        circuit: &Circuit,
        dem: &DetectorErrorModel,
        basis: CheckBasis,
        obs_mask: u64,
    ) -> Self {
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
        let mut deferred: Vec<(u32, &Vec<u32>, u64, f64)> = Vec::new();
        for (m, mech) in dem.mechanisms.iter().enumerate() {
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
                _ => deferred.push((m as u32, &mech.detectors, obs, mech.probability)),
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

        DecodingGraph {
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

    /// Recomputes every edge's probability and matching weight from
    /// `dem` — which must be a reweighting of the DEM this graph was
    /// built from, i.e. have the same mechanisms in the same order (as
    /// produced by `dqec_sim::dem::ParametricDem::concretize`). See
    /// [`DecodingGraph::reweight_from_probabilities`], which this calls.
    ///
    /// # Panics
    ///
    /// Panics if `dem` has fewer mechanisms than the graph was built
    /// with.
    pub fn reweight_from(&mut self, dem: &DetectorErrorModel) {
        let probabilities: Vec<f64> = dem.mechanisms.iter().map(|m| m.probability).collect();
        self.reweight_from_probabilities(&probabilities);
    }

    /// Recomputes every edge's probability and matching weight from the
    /// mechanism probabilities of a reweighting of the DEM this graph was
    /// built from, in that DEM's mechanism order (as written by
    /// `dqec_sim::dem::ParametricDem::probabilities_into`). The graph
    /// *structure* (nodes, edges, observable masks, adjacency) is
    /// reused, which is what makes sweeping a logical-error-rate curve
    /// much cheaper than rebuilding the decoder at every physical error
    /// rate.
    ///
    /// # Panics
    ///
    /// Panics if `probabilities` is shorter than the graph's mechanism
    /// list.
    pub fn reweight_from_probabilities(&mut self, probabilities: &[f64]) {
        for ((edge, weight), sources) in self
            .edges
            .iter_mut()
            .zip(&mut self.weights)
            .zip(&self.edge_sources)
        {
            let mut p_acc = 0.0;
            for &m in sources {
                let p = probabilities[m as usize];
                p_acc = p_acc * (1.0 - p) + p * (1.0 - p_acc);
            }
            edge.probability = p_acc;
            *weight = weight_of(p_acc);
        }
    }

    /// The basis this graph decodes.
    pub fn basis(&self) -> CheckBasis {
        self.basis
    }

    /// The number of real (non-boundary) nodes.
    pub fn num_nodes(&self) -> usize {
        self.det_of_node.len()
    }

    /// The edges of the graph.
    pub fn edges(&self) -> &[GraphEdge] {
        &self.edges
    }

    /// Build-time diagnostics.
    pub fn diagnostics(&self) -> &GraphDiagnostics {
        &self.diagnostics
    }

    /// Maps a detector id to this graph's node id (if it has this basis).
    pub fn node_of_detector(&self, det: u32) -> Option<u32> {
        self.node_of_det.get(det as usize).copied().flatten()
    }

    /// Per edge (same order as [`DecodingGraph::edges`]), the matching
    /// weight `ln((1-p)/p)` of its current probability.
    pub(crate) fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The adjacency over the real nodes plus the boundary (vertex
    /// [`DecodingGraph::num_nodes`]).
    pub(crate) fn adjacency(&self) -> &Adjacency {
        &self.adjacency
    }

    /// The graphlike circuit-level distance for observable `obs`: the
    /// minimum number of error mechanisms (edges) whose combined
    /// symptom is trivial but which flip the observable — i.e. the
    /// shortest undetectable logical error under this noise model.
    ///
    /// Computed by Dijkstra on the parity-doubled graph with unit edge
    /// weights: an undetectable logical is a closed walk (through the
    /// boundary or around a cycle) with odd observable parity. Returns
    /// `None` when no such error exists in the graph.
    pub fn graphlike_distance(&self, obs: u32) -> Option<u32> {
        let Adjacency {
            starts, entries, ..
        } = &self.adjacency;
        let total = self.adjacency.total();
        // State (node, parity); start at every node with parity 0 and
        // look for returning to the same node with parity 1. Starting
        // from the boundary covers boundary-to-boundary strings; cycle
        // cases are covered by starting from each edge's endpoint.
        let mut best: Option<u32> = None;
        let mut dist = vec![[u32::MAX; 2]; total];
        let mut heap: BinaryHeap<Reverse<(u32, u32, u8)>> = BinaryHeap::new();
        for start in 0..total {
            dist.fill([u32::MAX; 2]);
            dist[start][0] = 0;
            heap.push(Reverse((0, start as u32, 0)));
            while let Some(Reverse((d, v, p))) = heap.pop() {
                let v = v as usize;
                if d > dist[v][p as usize] {
                    continue;
                }
                for &(w, e) in &entries[starts[v] as usize..starts[v + 1] as usize] {
                    let np = p ^ ((self.edges[e as usize].observables >> obs) & 1) as u8;
                    let nd = d + 1;
                    if nd < dist[w as usize][np as usize] {
                        dist[w as usize][np as usize] = nd;
                        heap.push(Reverse((nd, w, np)));
                    }
                }
            }
            if dist[start][1] != u32::MAX {
                best = Some(best.map_or(dist[start][1], |b| b.min(dist[start][1])));
            }
        }
        best
    }
}

/// Edge probability -> matching weight (shared with the union-find
/// decoder's integer quantization).
pub(crate) fn weight_of(p: f64) -> f64 {
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

/// Flat CSR adjacency over the real nodes plus the boundary (vertex
/// `n`), built once per graph: [`crate::PathTables`], the matching
/// kernels' packed views and [`DecodingGraph::graphlike_distance`] all
/// walk it. Entries carry the edge index, which keys the per-edge
/// weights and observables.
#[derive(Debug, Clone)]
pub(crate) struct Adjacency {
    /// Row starts over `n + 1` vertices (`n + 2` entries).
    pub(crate) starts: Vec<u32>,
    /// `(neighbor, edge index)`, grouped by vertex, in edge order.
    pub(crate) entries: Vec<(u32, u32)>,
    /// Per edge, both endpoints as vertex indices.
    pub(crate) ends: Vec<(u32, u32)>,
}

impl Adjacency {
    /// The adjacency of `n` real nodes plus the boundary (vertex `n`)
    /// under the edges whose endpoint pairs `ends` yields, in order.
    pub(crate) fn build(n: usize, ends: impl Iterator<Item = (usize, usize)> + Clone) -> Adjacency {
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

    /// The number of vertices, boundary included.
    pub(crate) fn total(&self) -> usize {
        self.starts.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::repetition;
    use crate::PathTables;

    #[test]
    fn repetition_graph_structure() {
        let c = repetition(2, 0.01);
        let dem = DetectorErrorModel::from_circuit(&c);
        let g = DecodingGraph::build(&c, &dem, CheckBasis::Z);
        assert_eq!(g.num_nodes(), 6); // 2 checks x 3 detector layers
        assert!(g.diagnostics().undecomposable_mechanisms == 0);
        // Boundary edges must exist (X on data 0 or data 2 flips one check).
        assert!(g.edges().iter().any(|e| e.b.is_none()));
        // Observable-carrying edges exist (data 0 errors flip obs 0).
        assert!(g.edges().iter().any(|e| e.observables == 1));
    }

    #[test]
    fn distances_are_symmetric_and_triangle() {
        let c = repetition(3, 0.01);
        let dem = DetectorErrorModel::from_circuit(&c);
        let g = DecodingGraph::build(&c, &dem, CheckBasis::Z);
        let t = PathTables::build(&g);
        let n = g.num_nodes() as u32;
        for a in 0..n {
            assert_eq!(t.distance(Some(a), Some(a)), 0.0);
            let to_boundary = (t.distance(Some(a), None), t.path_observables(Some(a), None));
            assert_eq!(t.boundary(a), to_boundary);
            for b in 0..n {
                let dab = t.distance(Some(a), Some(b));
                let dba = t.distance(Some(b), Some(a));
                assert_eq!(t.pair(a, b), (dab, t.path_observables(Some(a), Some(b))));
                assert!((dab - dba).abs() < 1e-9);
                let via_boundary = t.distance(Some(a), None) + t.distance(None, Some(b));
                assert!(dab <= via_boundary + 1e-9, "triangle through boundary");
            }
        }
    }

    #[test]
    fn reweighted_graph_matches_fresh_build() {
        use dqec_sim::dem::ParametricDem;
        use dqec_sim::noise::NoiseModel;

        // Strip the hand-placed noise and let the model decorate the
        // clean circuit, so rates follow the parametric form.
        let clean = repetition(3, 0.0);
        let template = NoiseModel::new(1e-3);
        let (noisy, params) = template.apply_with_params(&clean);
        let pdem = ParametricDem::from_noisy(&noisy, &params);
        let mut graph = DecodingGraph::build(&noisy, &pdem.concretize(template.p()), CheckBasis::Z);

        for p in [5e-4, 2e-3, 1e-2] {
            graph.reweight_from(&pdem.concretize(p));
            let fresh_noisy = NoiseModel::new(p).apply(&clean);
            let fresh = DecodingGraph::build(
                &fresh_noisy,
                &DetectorErrorModel::from_circuit(&fresh_noisy),
                CheckBasis::Z,
            );
            assert_eq!(graph.edges().len(), fresh.edges().len());
            for (a, b) in graph.edges().iter().zip(fresh.edges()) {
                assert_eq!((a.a, a.b), (b.a, b.b));
                assert!(
                    (a.probability - b.probability).abs() < 1e-12,
                    "p={p}: edge ({},{:?}) prob {} vs {}",
                    a.a,
                    a.b,
                    a.probability,
                    b.probability
                );
            }
            let (reweighted, rebuilt) = (PathTables::build(&graph), PathTables::build(&fresh));
            let n = graph.num_nodes() as u32;
            for x in 0..n {
                for y in 0..n {
                    let d_re = reweighted.distance(Some(x), Some(y));
                    let d_fr = rebuilt.distance(Some(x), Some(y));
                    assert!(
                        (d_re - d_fr).abs() < 1e-9,
                        "p={p}: dist({x},{y}) {d_re} vs {d_fr}"
                    );
                }
            }
        }
    }

    #[test]
    fn lower_probability_means_larger_weight() {
        assert!(weight_of(1e-4) > weight_of(1e-2));
        assert!(weight_of(0.499) < 0.01);
        assert!(weight_of(0.0).is_finite());
    }

    #[test]
    fn decompose_finds_boundary_plus_pair() {
        let mut known = BTreeSet::new();
        known.insert((0u32, u32::MAX));
        known.insert((1u32, 2u32));
        let parts = decompose(&[0, 1, 2], &known).unwrap();
        assert_eq!(parts, vec![vec![0], vec![1, 2]]);
    }

    #[test]
    fn decompose_fails_when_no_edges_known() {
        let known = BTreeSet::new();
        assert!(decompose(&[0, 1, 2], &known).is_none());
    }

    #[test]
    fn decompose_two_pairs() {
        let mut known = BTreeSet::new();
        known.insert((0u32, 3u32));
        known.insert((1u32, 2u32));
        let parts = decompose(&[0, 1, 2, 3], &known).unwrap();
        assert_eq!(parts.len(), 2);
    }
}
