//! Per-basis decoding graphs derived from a detector error model.
//!
//! CSS decoding splits detectors into an X graph and a Z graph. Error
//! mechanisms become edges: a mechanism flipping two same-basis
//! detectors is an internal edge, one flipping a single detector is a
//! boundary edge, and rarer multi-detector mechanisms (hook errors) are
//! decomposed into known edges, mirroring Stim's `decompose_errors`.
//! Each observable is owned by exactly one of the two graphs: the basis
//! whose detectors see every mechanism that flips it.
//!
//! A [`DecodingGraph`] is its edge list plus one CSR adjacency, built
//! once, with the per-edge matching weights `ln((1-p)/p)` beside it; a
//! reweight refreshes probabilities and weights in place from the
//! DEM's mechanism probabilities at a new rate, in O(E). The exact
//! matcher ([`crate::sparse`]) decodes on that adjacency directly.
//! All-pairs shortest paths are *not* part of a graph: whoever needs
//! them builds a [`crate::PathTables`] from one (the union-find kernel
//! keeps the only production instance).
//!
//! Both graphs of a decoder come from one build,
//! [`crate::GraphDecoder::from_clean`]'s: one flat pass per basis over
//! a `ParametricDem`'s `(dets, obs)` symptoms and one probability
//! buffer:
//!
//! * **Records.** Each mechanism with one or two same-basis nodes
//!   leaves one `(first node, second node + 1 or 0 for the boundary,
//!   mechanism, masked observables)` record, in mechanism order. Each
//!   with more is decomposed afterwards into edges that pass already
//!   produced (a binary search over their sorted keys), and its parts
//!   are appended behind.
//! * **Edges.** A counting sort by first node, then a stable sort of
//!   each node's (almost always already sorted) bucket by second node,
//!   puts the records in edge order and keeps record order within an
//!   edge. Each run of one key is an edge: its probability folds the
//!   run in record order, the observable masks vote with summed
//!   probability, and the heaviest mask wins, ties going to the
//!   smallest.
//! * **Sources.** The run's mechanisms, concatenated over all edges,
//!   are the CSR array a reweight folds again.
//!
//! Every field — edges, probability bits, votes, diagnostics, sources,
//! adjacency — is bit-identical to the map-based build this replaced,
//! which is kept as the test oracle
//! (`crates/matching/tests/support/graph_oracle.rs`).

use dqec_sim::circuit::{CheckBasis, Circuit};
use dqec_sim::dem::ParametricDem;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Smallest probability an edge is allowed to carry (avoids infinite
/// weights).
const P_FLOOR: f64 = 1e-14;
/// Largest probability (keeps weights positive).
const P_CEIL: f64 = 0.4999;
/// Stand-in weight for unreachable node pairs.
pub(crate) const UNREACHABLE: f64 = 1e12;

/// The second half of a boundary edge's key; an internal edge `(a, b)`
/// stores `b + 1`, so keys order like `(a, Option<b>)`.
const BOUNDARY: u32 = 0;
/// The second half of a pass-1 record whose mechanism is decomposed in
/// pass 2.
const DEFERRED: u32 = u32::MAX;

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
///
/// Edges are ordered by `(a, b)`, the boundary before every real second
/// endpoint. Each edge's probability is the XOR-combination of its
/// source mechanisms' probabilities, folded in mechanism order (those
/// decomposed from a larger symptom last); the sources are kept as one
/// CSR array so a reweight refolds them without rebuilding anything.
/// Two builds from the same mechanisms are bit-identical.
#[derive(Debug, Clone)]
pub struct DecodingGraph {
    basis: CheckBasis,
    node_of_det: Vec<Option<u32>>,
    det_of_node: Vec<u32>,
    edges: Vec<GraphEdge>,
    /// Edge `e`'s sources are `sources[source_starts[e]..source_starts[e + 1]]`.
    source_starts: Vec<u32>,
    /// Edge by edge, the mechanisms (indices into the source DEM's
    /// mechanism list, in fold order) whose XOR-combination gives the
    /// edge's probability; kept so a reweight can recompute weights.
    sources: Vec<u32>,
    /// Per edge, the matching weight of its current probability.
    weights: Vec<f64>,
    adjacency: Adjacency,
    diagnostics: GraphDiagnostics,
}

/// One mechanism's contribution to one edge: key `(a, b)` (see
/// [`BOUNDARY`]), the mechanism, and the observables it votes for.
#[derive(Debug, Clone, Copy, Default)]
struct Record {
    a: u32,
    b: u32,
    mech: u32,
    obs: u64,
}

/// The key of the edge between nodes `x` and `y`.
fn pair_key(x: u32, y: u32) -> (u32, u32) {
    (x.min(y), x.max(y) + 1)
}

impl DecodingGraph {
    /// Both CSS graphs `(z, x)` of `circuit`, each owning the
    /// observables its basis always sees, from `dem`'s mechanisms
    /// firing with `probabilities` (in mechanism order, as
    /// [`ParametricDem::probabilities_into`] writes them).
    #[doc(hidden)]
    pub fn css_pair(circuit: &Circuit, dem: &ParametricDem, probabilities: &[f64]) -> (Self, Self) {
        let (z_mask, x_mask) = split(circuit, dem);
        (
            Self::from_mechanisms(circuit, dem, probabilities, CheckBasis::Z, z_mask),
            Self::from_mechanisms(circuit, dem, probabilities, CheckBasis::X, x_mask),
        )
    }

    /// The build core: the graph for `basis`, owning the observables in
    /// `obs_mask`, of `dem`'s mechanisms firing with `probabilities`.
    /// See the module doc for the passes. Every buffer is sized before
    /// it is filled, so the number of allocations does not grow with the
    /// mechanism count.
    fn from_mechanisms(
        circuit: &Circuit,
        dem: &ParametricDem,
        probabilities: &[f64],
        basis: CheckBasis,
        obs_mask: u64,
    ) -> Self {
        let detectors = circuit.detectors();
        let n = detectors.iter().filter(|d| d.basis == basis).count();
        let mut node_of_det: Vec<Option<u32>> = vec![None; detectors.len()];
        let mut det_of_node: Vec<u32> = Vec::with_capacity(n);
        for (d, det) in detectors.iter().enumerate() {
            if det.basis == basis {
                node_of_det[d] = Some(det_of_node.len() as u32);
                det_of_node.push(d as u32);
            }
        }
        let mut diagnostics = GraphDiagnostics::default();

        // Pass 1: one record per mechanism with one or two same-basis
        // nodes, a `DEFERRED` marker per mechanism with more.
        let mut records: Vec<Record> = Vec::with_capacity(probabilities.len());
        let (mut deferred, mut deferred_nodes, mut widest) = (0, 0, 0);
        for (m, (dets, observables, _)) in dem.mechanisms().enumerate() {
            let mut nodes = dets.iter().filter_map(|&d| node_of_det[d as usize]);
            let (a, b) = match (nodes.next(), nodes.next()) {
                // An observable flip is charged to the graph that detects
                // it; if neither basis sees the mechanism at all it is a
                // genuine undetectable logical error.
                (None, _) => {
                    if observables != 0 && dets.is_empty() {
                        diagnostics.undetectable_logical_mechanisms += 1;
                    }
                    continue;
                }
                (Some(x), None) => (x, BOUNDARY),
                (Some(x), Some(y)) => match nodes.count() {
                    0 => pair_key(x, y),
                    more => {
                        deferred += 1;
                        deferred_nodes += 2 + more;
                        widest = widest.max(2 + more);
                        (0, DEFERRED)
                    }
                },
            };
            records.push(Record {
                a,
                b,
                mech: m as u32,
                obs: observables & obs_mask,
            });
        }

        // Pass 2: decompose the deferred mechanisms, in mechanism order,
        // into edges pass 1 produced. A mechanism splits into at most one
        // part per node.
        let mut parts: Vec<Record> = Vec::with_capacity(deferred_nodes);
        if deferred > 0 {
            let mut known: Vec<(u32, u32)> = Vec::with_capacity(records.len());
            known.extend(
                records
                    .iter()
                    .filter(|r| r.b != DEFERRED)
                    .map(|r| (r.a, r.b)),
            );
            known.sort_unstable();
            known.dedup();
            let mut nodes: Vec<u32> = Vec::with_capacity(widest);
            let mut keys: Vec<(u32, u32)> = Vec::with_capacity(widest);
            let mut pending = records.iter().filter(|r| r.b == DEFERRED).peekable();
            for (m, (dets, _, _)) in dem.mechanisms().enumerate() {
                let Some(marker) = pending.next_if(|r| r.mech == m as u32) else {
                    continue;
                };
                nodes.clear();
                nodes.extend(dets.iter().filter_map(|&d| node_of_det[d as usize]));
                keys.clear();
                if decompose(&mut nodes, &known, &mut keys) {
                    diagnostics.decomposed_mechanisms += 1;
                } else {
                    diagnostics.undecomposable_mechanisms += 1;
                    keys.extend(nodes.chunks(2).map(|c| match c.get(1) {
                        Some(&y) => pair_key(c[0], y),
                        None => (c[0], BOUNDARY),
                    }));
                }
                // The observable rides on the first part; the vote
                // resolves disagreements.
                parts.extend(keys.iter().enumerate().map(|(i, &(a, b))| Record {
                    a,
                    b,
                    mech: marker.mech,
                    obs: if i == 0 { marker.obs } else { 0 },
                }));
                if pending.peek().is_none() {
                    break;
                }
            }
        }

        // Counting sort by first node (stable), then each node's bucket
        // stably by second node: edge order, record order within an edge.
        let placed = || records.iter().filter(|r| r.b != DEFERRED).chain(&parts);
        let mut next = vec![0u32; n + 1];
        for r in placed() {
            next[r.a as usize + 1] += 1;
        }
        for v in 1..=n {
            next[v] += next[v - 1];
        }
        let mut sorted = vec![Record::default(); records.len() - deferred + parts.len()];
        for r in placed() {
            sorted[next[r.a as usize] as usize] = *r;
            next[r.a as usize] += 1;
        }
        // `next[a]` is now the end of bucket `a`.
        let (mut lo, mut num_edges) = (0, 0);
        for &hi in &next[..n] {
            let bucket = &mut sorted[lo..hi as usize];
            if !bucket.is_sorted_by_key(|r| r.b) {
                bucket.sort_by_key(|r| r.b);
            }
            num_edges += bucket.chunk_by(|x, y| x.b == y.b).count();
            lo = hi as usize;
        }

        let mut edges = Vec::with_capacity(num_edges);
        let mut source_starts = Vec::with_capacity(num_edges + 1);
        source_starts.push(0u32);
        let mut votes: Vec<(u64, f64)> = Vec::new();
        for run in sorted.chunk_by(|x, y| (x.a, x.b) == (y.a, y.b)) {
            let mut p_acc = 0.0;
            votes.clear();
            for r in run {
                let p = probabilities[r.mech as usize];
                p_acc = p_acc * (1.0 - p) + p * (1.0 - p_acc);
                let at = match votes.iter().position(|&(mask, _)| mask == r.obs) {
                    Some(at) => at,
                    None => {
                        votes.push((r.obs, 0.0));
                        votes.len() - 1
                    }
                };
                votes[at].1 += p;
            }
            // The heaviest mask wins and of tied masks the numerically
            // smallest: every build of one circuit yields the same edges.
            let (obs, _) = votes
                .iter()
                .copied()
                .reduce(|best, v| match v.1.total_cmp(&best.1) {
                    Ordering::Greater => v,
                    Ordering::Equal if v.0 < best.0 => v,
                    _ => best,
                })
                .unwrap_or_default();
            if votes.len() > 1 {
                diagnostics.conflicting_observable_edges += 1;
            }
            let (a, b) = (run[0].a, run[0].b);
            edges.push(GraphEdge {
                a,
                b: (b != BOUNDARY).then(|| b - 1),
                probability: p_acc,
                observables: obs,
            });
            source_starts.push(source_starts[edges.len() - 1] + run.len() as u32);
        }

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
            source_starts,
            sources: sorted.iter().map(|r| r.mech).collect(),
            diagnostics,
        }
    }

    /// Recomputes every edge's probability and matching weight from the
    /// mechanism probabilities of the DEM this graph was built from at a
    /// new rate, in that DEM's mechanism order (as written by
    /// [`ParametricDem::probabilities_into`]). The graph
    /// *structure* (nodes, edges, observable masks, adjacency) is
    /// reused, which is what makes sweeping a logical-error-rate curve
    /// much cheaper than rebuilding the decoder at every physical error
    /// rate. Each edge refolds its sources in build order, so the bits
    /// equal a fresh build's from the same probabilities.
    ///
    /// # Panics
    ///
    /// Panics if `probabilities` is shorter than the graph's mechanism
    /// list.
    pub(crate) fn reweight_from_probabilities(&mut self, probabilities: &[f64]) {
        for ((edge, weight), span) in self
            .edges
            .iter_mut()
            .zip(&mut self.weights)
            .zip(self.source_starts.windows(2))
        {
            let mut p_acc = 0.0;
            for &m in &self.sources[span[0] as usize..span[1] as usize] {
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

    /// Edge `e`'s source mechanisms, in the order their probabilities
    /// fold (test oracle hook).
    #[doc(hidden)]
    pub fn sources_of(&self, e: usize) -> &[u32] {
        &self.sources[self.source_starts[e] as usize..self.source_starts[e + 1] as usize]
    }

    /// The adjacency as `(row starts, (neighbor, edge) entries, edge
    /// ends)`, the boundary being vertex [`DecodingGraph::num_nodes`]
    /// (test oracle hook).
    #[doc(hidden)]
    #[allow(clippy::type_complexity)]
    pub fn adjacency_parts(&self) -> (&[u32], &[(u32, u32)], &[(u32, u32)]) {
        let Adjacency {
            starts,
            entries,
            ends,
        } = &self.adjacency;
        (starts, entries, ends)
    }

    /// Per edge (same order as [`DecodingGraph::edges`]), the matching
    /// weight `ln((1-p)/p)` of its current probability (test oracle
    /// hook outside this crate).
    #[doc(hidden)]
    pub fn weights(&self) -> &[f64] {
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

/// Which basis owns each observable of `dem`'s mechanisms, as
/// `(z_mask, x_mask)`: the basis whose detectors see *every* mechanism
/// that flips it. (A logical-Z readout is flipped by X-type errors,
/// which always trip Z checks; Y errors additionally trip X checks, so
/// the X basis fails the "every mechanism" test.)
fn split(circuit: &Circuit, dem: &ParametricDem) -> (u64, u64) {
    let detectors = circuit.detectors();
    let mut always_z = u64::MAX;
    let mut always_x = u64::MAX;
    for (dets, observables, _) in dem.mechanisms() {
        if observables == 0 {
            continue;
        }
        let mut has = [false, false]; // [z, x]
        for &d in dets {
            match detectors[d as usize].basis {
                CheckBasis::Z => has[0] = true,
                CheckBasis::X => has[1] = true,
            }
        }
        if !has[0] {
            always_z &= !observables;
        }
        if !has[1] {
            always_x &= !observables;
        }
    }
    // Own what you always see; ties go to Z; orphans (seen by
    // neither) also go to Z so they are at least counted once.
    let z_mask = always_z;
    let x_mask = always_x & !always_z;
    (z_mask | !(always_z | always_x), x_mask)
}

/// Edge probability -> matching weight (shared with the union-find
/// decoder's integer quantization).
pub(crate) fn weight_of(p: f64) -> f64 {
    let p = p.clamp(P_FLOOR, P_CEIL);
    ((1.0 - p) / p).ln()
}

/// Tries to split `nodes` (distinct, sorted, len >= 3) into parts that
/// all are `known` edge keys (sorted): the first node on the boundary,
/// else paired with each later node in turn, the rest recursively,
/// depth first. On success appends the parts' keys to `parts` in that
/// order and returns `true`; on failure leaves `nodes` and `parts` as
/// they were.
fn decompose(nodes: &mut [u32], known: &[(u32, u32)], parts: &mut Vec<(u32, u32)>) -> bool {
    let [first, ..] = *nodes else {
        return true;
    };
    let len = parts.len();
    // Option A: first matches the boundary.
    if known.binary_search(&(first, BOUNDARY)).is_ok() {
        parts.push((first, BOUNDARY));
        if decompose(&mut nodes[1..], known, parts) {
            return true;
        }
        parts.truncate(len);
    }
    // Option B: pair first with a later node, rotated to the front of
    // the rest so the others keep their order.
    for i in 1..nodes.len() {
        let key = pair_key(first, nodes[i]);
        if known.binary_search(&key).is_ok() {
            nodes[1..=i].rotate_right(1);
            parts.push(key);
            if decompose(&mut nodes[2..], known, parts) {
                return true;
            }
            parts.truncate(len);
            nodes[1..=i].rotate_left(1);
        }
    }
    false
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
    use crate::graph_oracle::assert_pair_matches_oracle;
    use crate::random_circuit::random_circuit;
    use crate::{MwpmDecoder, PathTables};
    use dqec_sim::noise::NoiseModel;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The DEM of `c` with its noise ops as they stand, and its
    /// mechanism probabilities.
    fn fixed_dem(c: &Circuit) -> (ParametricDem, Vec<f64>) {
        let (_, fixed) = NoiseModel::new(0.0).apply_with_params(c);
        let dem = ParametricDem::from_noisy(c, &fixed);
        let mut probabilities = Vec::new();
        dem.probabilities_into(0.0, &mut probabilities);
        (dem, probabilities)
    }

    #[test]
    fn repetition_graph_structure() {
        let c = repetition(2, 0.01);
        let decoder = MwpmDecoder::new(&c);
        let g = decoder.z_graph();
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
        let decoder = MwpmDecoder::new(&c);
        let g = decoder.z_graph();
        let t = PathTables::build(g);
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
        // Strip the hand-placed noise and let the model decorate the
        // clean circuit, so rates follow the parametric form.
        let clean = repetition(3, 0.0);
        let template = NoiseModel::new(1e-3);
        let (noisy, params) = template.apply_with_params(&clean);
        let pdem = ParametricDem::from_noisy(&noisy, &params);
        let mut probabilities = Vec::new();
        pdem.probabilities_into(template.p(), &mut probabilities);
        let (mut graph, _) = DecodingGraph::css_pair(&noisy, &pdem, &probabilities);

        for p in [5e-4, 2e-3, 1e-2] {
            pdem.probabilities_into(p, &mut probabilities);
            graph.reweight_from_probabilities(&probabilities);
            let fresh_decoder = MwpmDecoder::new(&NoiseModel::new(p).apply(&clean));
            let fresh = fresh_decoder.z_graph();
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
            let (reweighted, rebuilt) = (PathTables::build(&graph), PathTables::build(fresh));
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

    /// The flat build equals the map-based oracle bit for bit on random
    /// Clifford+noise circuits with detectors of both bases: on the
    /// circuit's DEM with its noise ops as they stand (what
    /// `GraphDecoder::new` builds), and on the parametric DEM of the
    /// circuit re-noised by the paper's model (what
    /// `GraphDecoder::from_clean` builds). The run must reach every
    /// branch of the build, and a reweight must give a fresh build's
    /// bits.
    #[test]
    fn build_matches_the_oracle_on_random_circuits() {
        let mut gen = StdRng::seed_from_u64(0x6a9e);
        let mut seen = GraphDiagnostics::default();
        for _ in 0..2000 {
            let c = random_circuit(&mut gen, true);
            let (dem, probabilities) = fixed_dem(&c);
            let (z, x) = DecodingGraph::css_pair(&c, &dem, &probabilities);
            let mut diagnostics =
                assert_pair_matches_oracle(&c, &dem, &probabilities, [&z, &x]).to_vec();

            let model = NoiseModel::new(gen.gen_range(1e-4..0.05));
            let (noisy, params) = model.apply_with_params(&c);
            let pdem = ParametricDem::from_noisy(&noisy, &params);
            let mut probabilities = Vec::new();
            pdem.probabilities_into(model.p(), &mut probabilities);
            let (mut z, mut x) = DecodingGraph::css_pair(&noisy, &pdem, &probabilities);
            diagnostics.extend(assert_pair_matches_oracle(
                &noisy,
                &pdem,
                &probabilities,
                [&z, &x],
            ));

            let p = gen.gen_range(1e-4..0.05);
            pdem.probabilities_into(p, &mut probabilities);
            let fresh = DecodingGraph::css_pair(&noisy, &pdem, &probabilities);
            for (graph, fresh) in [(&mut z, &fresh.0), (&mut x, &fresh.1)] {
                graph.reweight_from_probabilities(&probabilities);
                let bits = |g: &DecodingGraph| -> Vec<(u64, u64)> {
                    let probs = g.edges().iter().map(|e| e.probability.to_bits());
                    probs.zip(g.weights().iter().map(|w| w.to_bits())).collect()
                };
                assert_eq!(bits(graph), bits(fresh), "reweighted to p = {p}");
            }

            for d in diagnostics {
                seen.decomposed_mechanisms += d.decomposed_mechanisms;
                seen.undecomposable_mechanisms += d.undecomposable_mechanisms;
                seen.conflicting_observable_edges += d.conflicting_observable_edges;
                seen.undetectable_logical_mechanisms += d.undetectable_logical_mechanisms;
            }
        }
        eprintln!("random circuits: {seen:?}");
        assert!(
            seen.decomposed_mechanisms > 0
                && seen.undecomposable_mechanisms > 0
                && seen.conflicting_observable_edges > 0,
            "the circuits must reach every branch of the build: {seen:?}"
        );
    }

    #[test]
    fn lower_probability_means_larger_weight() {
        assert!(weight_of(1e-4) > weight_of(1e-2));
        assert!(weight_of(0.499) < 0.01);
        assert!(weight_of(0.0).is_finite());
    }

    #[test]
    fn decompose_finds_boundary_plus_pair() {
        let known = [(0, BOUNDARY), pair_key(1, 2)];
        let mut parts = Vec::new();
        assert!(decompose(&mut [0, 1, 2], &known, &mut parts));
        assert_eq!(parts, vec![(0, BOUNDARY), pair_key(1, 2)]);
    }

    #[test]
    fn decompose_fails_when_no_edges_known() {
        let (mut nodes, mut parts) = ([0, 1, 2], Vec::new());
        assert!(!decompose(&mut nodes, &[], &mut parts));
        assert_eq!((nodes, parts.len()), ([0, 1, 2], 0));
    }

    #[test]
    fn decompose_two_pairs() {
        let mut known = [pair_key(0, 3), pair_key(1, 2)];
        known.sort_unstable();
        let mut parts = Vec::new();
        assert!(decompose(&mut [0, 1, 2, 3], &known, &mut parts));
        assert_eq!(parts, vec![pair_key(0, 3), pair_key(1, 2)]);
    }
}
