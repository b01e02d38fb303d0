//! All-pairs shortest paths over one decoding graph, as a plain value.
//!
//! A [`PathTables`] is built from a [`DecodingGraph`] by whoever needs
//! pair distances and, after the graph was reweighted, repaired from it
//! along the cached shortest-path trees. Nothing builds one behind a
//! caller's back: the union-find kernel ([`crate::UfGraph`]) owns the
//! only production instance — its closed forms and the cluster race
//! read it on every decode — and tests build their own to read an exact
//! matching's pairs back. The exact matcher never needs one.

use crate::graph::{DecodingGraph, UNREACHABLE};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Sentinel for "no predecessor edge" in the shortest-path trees.
const NO_PRED: u32 = u32::MAX;

/// All-pairs shortest paths over a graph's real nodes plus the
/// boundary.
#[derive(Debug, Clone)]
pub struct PathTables {
    /// Row-major `(n+1) x (n+1)` cells `(distance, observable parity
    /// along that shortest path)`; row/column `n` is the boundary. One
    /// cell is one read for the decoders' `(d, mask)` lookups.
    cells: Vec<(f64, u64)>,
    /// Row-major shortest-path trees: `pred[s*(n+1)+t]` is the edge
    /// index reaching `t` on the cached `s → t` path (`NO_PRED` for
    /// the source itself and unreachable nodes). Repairing re-derives
    /// distances along these trees instead of re-running Dijkstra.
    pred: Vec<u32>,
    /// Vertices per row, boundary included (`n + 1`).
    total: usize,
}

#[derive(PartialEq)]
struct HeapItem(f64, u32);
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
    }
}

/// Single-row working memory of the all-pairs build and its repair,
/// reused across source rows.
struct RowScratch {
    d: Vec<f64>,
    par: Vec<u64>,
    heap: BinaryHeap<Reverse<HeapItem>>,
    /// The graph's adjacency entries with each edge's weight inline —
    /// `(neighbor, edge index, weight)`, same order — so the Dijkstra's
    /// inner loop reads one array.
    weighted: Vec<(u32, u32, f64)>,
}

impl RowScratch {
    fn new(graph: &DecodingGraph) -> Self {
        let total = graph.adjacency().total();
        let weights = graph.weights();
        RowScratch {
            d: vec![f64::INFINITY; total],
            par: vec![0; total],
            heap: BinaryHeap::new(),
            weighted: graph
                .adjacency()
                .entries
                .iter()
                .map(|&(v, e)| (v, e, weights[e as usize]))
                .collect(),
        }
    }

    /// Dijkstra's pop-min/relax loop from whatever the heap holds to
    /// the fixed point, updating distances, path parities and the
    /// predecessor-edge tree `pred`.
    fn settle(&mut self, graph: &DecodingGraph, pred: &mut [u32]) {
        let RowScratch {
            d,
            par,
            heap,
            weighted,
        } = self;
        let edges = graph.edges();
        let starts = &graph.adjacency().starts;
        while let Some(Reverse(HeapItem(du, u))) = heap.pop() {
            let u = u as usize;
            if du > d[u] {
                continue;
            }
            for &(v, e, w) in &weighted[starts[u] as usize..starts[u + 1] as usize] {
                let v = v as usize;
                let nd = du + w;
                if nd < d[v] {
                    d[v] = nd;
                    par[v] = par[u] ^ edges[e as usize].observables;
                    pred[v] = e;
                    heap.push(Reverse(HeapItem(nd, v as u32)));
                }
            }
        }
    }

    /// Copies the finished row into the table.
    fn store(&self, cells: &mut [(f64, u64)]) {
        for (out, (&d, &par)) in cells.iter_mut().zip(self.d.iter().zip(&self.par)) {
            *out = (if d.is_finite() { d } else { UNREACHABLE }, par);
        }
    }
}

impl PathTables {
    /// All-pairs Dijkstra over `graph` under its current weights, also
    /// recording each row's shortest-path tree (predecessor edges) so
    /// [`PathTables::repair`] can refresh distances without re-running
    /// every Dijkstra.
    pub fn build(graph: &DecodingGraph) -> PathTables {
        let total = graph.adjacency().total();
        let mut cells = vec![(UNREACHABLE, 0u64); total * total];
        let mut pred = vec![NO_PRED; total * total];
        let mut row = RowScratch::new(graph);
        for src in 0..total {
            let at = src * total..(src + 1) * total;
            row.d.fill(f64::INFINITY);
            row.par.fill(0);
            row.d[src] = 0.0;
            row.heap.push(Reverse(HeapItem(0.0, src as u32)));
            row.settle(graph, &mut pred[at.clone()]);
            row.store(&mut cells[at]);
        }
        PathTables { cells, pred, total }
    }

    /// Brings the tables up to date after `graph` — the graph they were
    /// built from — was reweighted in place (by its decoder's
    /// [`Decoder::reweight`](crate::Decoder::reweight)), reusing the cached
    /// shortest-path trees: each row's distances are first re-derived
    /// along its old tree in O(V + E), parents before children (a
    /// breadth-first walk of the tree from the source), and accepted
    /// when the shortest-path certificate (no edge can relax any
    /// distance further) holds; only rows whose tree went stale re-run
    /// Dijkstra, warm-started from those bounds. Trees often go stale:
    /// moving the union-find decoder of a defective l = 7 memory patch
    /// between p = 5e-4 and 1e-3 re-ran Dijkstra on 61 % of its rows
    /// (none on a defective l = 5 one).
    pub fn repair(&mut self, graph: &DecodingGraph) {
        let total = self.total;
        debug_assert_eq!(total, graph.adjacency().total());
        let (edges, weights, ends) = (graph.edges(), graph.weights(), &graph.adjacency().ends);
        // Each row's old tree as children lists (`first_child[v]`, then
        // `next_sibling` along them), and the breadth-first order.
        let mut first_child = vec![NO_PRED; total];
        let mut next_sibling = vec![NO_PRED; total];
        let mut order: Vec<u32> = Vec::with_capacity(total);
        let mut row = RowScratch::new(graph);
        for src in 0..total {
            let at = src * total..(src + 1) * total;
            let pred = &mut self.pred[at.clone()];
            let RowScratch { d, par, heap, .. } = &mut row;
            first_child.fill(NO_PRED);
            for (t, &e) in pred.iter().enumerate() {
                if e != NO_PRED && t != src {
                    let (a, b) = ends[e as usize];
                    let parent = if a as usize == t { b } else { a } as usize;
                    next_sibling[t] = first_child[parent];
                    first_child[parent] = t as u32;
                }
            }
            // Vertices the old tree did not reach stay unreachable:
            // weights cannot change that.
            d.fill(f64::INFINITY);
            par.fill(0);
            d[src] = 0.0;
            order.clear();
            order.push(src as u32);
            let mut next = 0;
            while let Some(&parent) = order.get(next) {
                next += 1;
                let parent = parent as usize;
                let mut child = first_child[parent];
                while child != NO_PRED {
                    let t = child as usize;
                    let e = pred[t] as usize;
                    d[t] = d[parent] + weights[e];
                    par[t] = par[parent] ^ edges[e].observables;
                    order.push(child);
                    child = next_sibling[t];
                }
            }
            // The tree distances are upper bounds achieved by real
            // paths. Repair them to the exact optimum with a
            // warm-started Dijkstra: seed the heap with every edge
            // relaxation that still improves a bound, then run the
            // usual pop-min/relax loop to the fixed point. Rows whose
            // tree survived the weight change skip the loop entirely.
            for (e, (&(a, b), &w)) in ends.iter().zip(weights).enumerate() {
                let (a, b) = (a as usize, b as usize);
                if d[a] + w < d[b] {
                    d[b] = d[a] + w;
                    par[b] = par[a] ^ edges[e].observables;
                    pred[b] = e as u32;
                    heap.push(Reverse(HeapItem(d[b], b as u32)));
                }
                if d[b] + w < d[a] {
                    d[a] = d[b] + w;
                    par[a] = par[b] ^ edges[e].observables;
                    pred[a] = e as u32;
                    heap.push(Reverse(HeapItem(d[a], a as u32)));
                }
            }
            row.settle(graph, pred);
            row.store(&mut self.cells[at]);
        }
    }

    /// `(distance, path observables)` from real node `a` to real node
    /// `b`.
    #[inline]
    pub fn pair(&self, a: u32, b: u32) -> (f64, u64) {
        self.cells[a as usize * self.total + b as usize]
    }

    /// `(distance, path observables)` from real node `v` to the
    /// boundary.
    #[inline]
    pub fn boundary(&self, v: u32) -> (f64, u64) {
        self.cells[(v as usize + 1) * self.total - 1]
    }

    /// The cell between two vertices (`None` = boundary).
    fn cell(&self, a: Option<u32>, b: Option<u32>) -> (f64, u64) {
        let index = |x: Option<u32>| x.map_or(self.total - 1, |x| x as usize);
        self.cells[index(a) * self.total + index(b)]
    }

    /// Shortest-path weight between two nodes (`None` = boundary).
    pub fn distance(&self, a: Option<u32>, b: Option<u32>) -> f64 {
        self.cell(a, b).0
    }

    /// Observable parity along the shortest path between two nodes
    /// (`None` = boundary).
    pub fn path_observables(&self, a: Option<u32>, b: Option<u32>) -> u64 {
        self.cell(a, b).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{chain_circuit, repetition};
    use crate::{Decoder, Kernel, MwpmDecoder, UfDecoder, UfGraph, UfScratch};
    use dqec_sim::dem::ParametricDem;
    use dqec_sim::noise::NoiseModel;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn repaired_tables_match_a_fresh_build_of_the_reweighted_graph() {
        let clean = repetition(3, 0.0);
        let template = NoiseModel::new(1e-3);
        let (noisy, params) = template.apply_with_params(&clean);
        let pdem = ParametricDem::from_noisy(&noisy, &params);
        let mut probabilities = Vec::new();
        pdem.probabilities_into(template.p(), &mut probabilities);
        let (mut graph, _) = DecodingGraph::css_pair(&noisy, &pdem, &probabilities);
        let mut repaired = PathTables::build(&graph);
        let n = graph.num_nodes() as u32;
        let all = || (0..n).map(Some).chain([None]);

        for p in [5e-4, 2e-3, 1e-2] {
            pdem.probabilities_into(p, &mut probabilities);
            graph.reweight_from_probabilities(&probabilities);
            repaired.repair(&graph);
            let fresh = PathTables::build(&graph);
            for x in all() {
                for y in all() {
                    let (d_re, d_fr) = (repaired.distance(x, y), fresh.distance(x, y));
                    assert!(
                        (d_re - d_fr).abs() < 1e-9,
                        "p={p}: dist({x:?},{y:?}) {d_re} vs {d_fr}"
                    );
                }
            }
        }
    }

    #[test]
    fn fast_paths_read_the_tables_at_any_graph_size() {
        // 1100 checks in a row with uneven weights: more nodes than any
        // size at which a decoder could be tempted to skip the table.
        let n = 1100u32;
        let c = chain_circuit(n, |q| 0.004 + 0.001 * f64::from(q % 7));
        let uf = UfDecoder::new(&c);
        let mwpm = MwpmDecoder::new(&c);
        assert!(uf.z_graph().num_nodes() > 1024);

        // Two events: both decoders take the cheaper of pairing up and
        // two boundary matches.
        let mut rng = StdRng::seed_from_u64(0x7ab1e5);
        let mut scratch = UfScratch::new();
        for _ in 0..400 {
            let a = rng.gen_range(0..n);
            let b = (a + rng.gen_range(1..60u32)) % n;
            let events = [a.min(b), a.max(b)];
            assert_eq!(
                uf.decode_events_with(&events, &mut scratch),
                mwpm.decode_events(&events),
                "events {events:?}"
            );
        }
        let k = UfGraph::take_counters(&mut scratch);
        assert_eq!(
            k.closed_form, 400,
            "Z pairs only: the X graph has no edges, so it holds no kernel and is never \
             decoded: {k:?}"
        );

        // Three and four mutually non-adjacent interior events: no
        // first-event shortcut applies, so the race settles them.
        for events in [vec![500u32, 503, 506], vec![40, 43, 700, 704]] {
            uf.decode_events_with(&events, &mut scratch);
            let k = UfGraph::take_counters(&mut scratch);
            assert_eq!((k.uf_race, k.uf_growth), (1, 0), "{events:?}: {k:?}");
        }
    }
}
