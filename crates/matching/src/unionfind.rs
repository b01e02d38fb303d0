//! Union-find decoding: almost-linear-time cluster-growth decoding in
//! the style of Delfosse–Nickerson, adapted to weighted circuit-level
//! decoding graphs (as used for defect-adapted surface codes by Siegel
//! et al.).
//!
//! [`UfDecoder`] is the [`GraphDecoder`] shell instantiated with this
//! module's [`Kernel`], the [`UfGraph`] view: a little accuracy traded
//! for a cheaper per-shot kernel than
//! [`MwpmDecoder`](crate::MwpmDecoder)'s sparse-blossom one. Per basis
//! it runs three phases over the same [`DecodingGraph`]s MWPM decodes:
//!
//! 1. **Growth** — every odd-parity cluster grows all of its boundary
//!    half-edges in lockstep, by the largest increment that just
//!    completes the nearest pending edge (so rounds are event-driven,
//!    not unit-step). Edge weights are the usual `ln((1-p)/p)` matching
//!    weights quantized onto an integer grid ([`UfGraph`]).
//! 2. **Merging** — a fully grown edge unions its endpoint clusters in
//!    a path-compressed, size-ranked DSU; cluster parity is the XOR of
//!    the merged parities, clusters that reach the virtual boundary
//!    become *absorbing* and stop growing.
//! 3. **Peeling** — the union events form a spanning forest of each
//!    cluster; leaves are peeled inward, emitting an edge into the
//!    correction whenever the peeled leaf still carries a defect, and
//!    the correction's observable masks are XORed into the prediction.
//!
//! Syndromes whose per-basis event count is ≤ 2 skip all three phases
//! and take closed forms over the view's shortest-path tables — one
//! event goes to the boundary, two take the cheaper of pairing up and
//! both going to the boundary — which is what exact matching decides
//! too, so the two decoders agree there (pinned by a property test in
//! `tests/uf_accuracy.rs`). Larger syndromes first run
//! *first-event shortcuts*: isolated boundary-adjacent defects and
//! isolated mutual-nearest pairs resolve in closed form (each is
//! exactly the outcome of the cluster's first growth event, with the
//! frozen ball's footprint credited to its edges), and when at most two
//! clusters remain the whole growth schedule collapses to a race
//! between three cached shortest-path times. Only genuinely entangled
//! multi-cluster syndromes pay for the full grow/merge/peel cycle,
//! while the logical error rate stays within a few percent of MWPM's.
//! These fast paths are why a [`UfGraph`] owns a [`PathTables`] — built
//! with the view, repaired on every reweight: measured on the
//! `ler-uf-lowp` benchmark traffic, 40 % of the per-basis decodes behind
//! a memo miss carry two events and 17 % of the larger ones end in the
//! race, and answering both from bounded searches instead costs more
//! per shot than the tables cost to keep (ROADMAP has the numbers).
//!
//! All per-shot state lives in a reusable [`UfScratch`]: arrays are
//! epoch-stamped instead of cleared, so a shot touching `t` nodes costs
//! `O(t α(t))` regardless of graph size and the steady state performs
//! no allocation — as does the MWPM kernel's
//! [`DecodeScratch`](crate::DecodeScratch). The scratch also counts how
//! each decode ended (closed form, shortcuts, single residual, race,
//! growth loop) for [`KernelCounters`].

use crate::decoder::{GraphDecoder, Kernel, KernelCounters};
use crate::graph::DecodingGraph;
use crate::paths::PathTables;

/// Quantization grid for edge weights: matching weights (≈ 0.004…32
/// after the probability clamp) are scaled by this factor and rounded,
/// so the integer growth arithmetic keeps ~1.5% relative precision on
/// the lightest edges while staying far from the growth counter's flag
/// bits.
const WEIGHT_SCALE: f64 = 64.0;

/// List/pointer sentinel ("no entry").
const NIL: u32 = u32::MAX;

/// Cluster/root flag: cluster holds an odd number of defects.
const F_ODD: u32 = 1;
/// Cluster/root flag: cluster contains the virtual boundary (absorbing).
const F_BOUNDARY: u32 = 1 << 1;
/// Cluster/root flag: cluster ran out of growable edges (degenerate
/// syndromes on boundary-less components); treated as inactive.
const F_STUCK: u32 = 1 << 2;
/// Per-node flag: node carries an unresolved detection event.
const F_DEFECT: u32 = 1 << 3;
/// Transient root flag used to deduplicate the live-cluster list when
/// it is compacted at the top of each growth round.
const F_IN_LIST: u32 = 1 << 4;
/// Per-node flag: this real node was absorbed by the boundary through
/// its own lightest boundary edge (a first-event shortcut); defects
/// that later reach it exit through that edge.
const F_EXIT: u32 = 1 << 5;
/// Per-node flag: the node's incident edges have been appended to some
/// cluster's boundary list (exposure happens at most once per node).
const F_EXPOSED: u32 = 1 << 6;
/// The node-local flags a union must preserve on the winning root.
const F_NODE: u32 = F_DEFECT | F_EXIT | F_EXPOSED;

/// Growth-counter flag: edge is queued in the grown-edge buffer.
const G_QUEUED: u32 = 1 << 31;
/// Growth-counter flag: edge was consumed by the peeling pass.
const G_PEELED: u32 = 1 << 30;
/// Mask extracting the actual growth value.
const G_MASK: u32 = G_PEELED - 1;

/// A root cluster is still growing: odd parity, not absorbed, not stuck.
fn is_active(flags: u32) -> bool {
    flags & (F_ODD | F_BOUNDARY | F_STUCK) == F_ODD
}

/// One edge of a [`UfGraph`]: both endpoints and the quantized weight,
/// packed so a growth-scan touches a single cache line per edge.
#[derive(Debug, Clone, Copy)]
struct UfEdge {
    a: u32,
    b: u32,
    w: u32,
}

/// A [`DecodingGraph`] re-indexed for union-find growth: flat CSR
/// adjacency over the real nodes plus the virtual boundary (node index
/// [`UfGraph::num_nodes`]), with per-edge integer weights on a fixed
/// quantization grid, the edge observable masks, and the graph's
/// all-pairs shortest paths for the fast paths.
#[derive(Debug, Clone)]
pub struct UfGraph {
    num_nodes: usize,
    /// CSR row starts over `num_nodes + 1` vertices.
    starts: Vec<u32>,
    /// Flattened incident `(other endpoint, edge id, weight)` triples,
    /// grouped by vertex, so frontier appends and first-event scans
    /// walk one sequential array without touching the edge table.
    incident: Vec<(u32, u32, u32)>,
    /// Per-edge endpoints + weight; the boundary is `num_nodes as u32`.
    edges: Vec<UfEdge>,
    /// Per-edge observable mask (cold: only read while peeling).
    observables: Vec<u64>,
    /// Minimum edge weight in the graph: the soundness bound for the
    /// first-event shortcuts (no growth contact can cross a hop in
    /// less).
    wmin: u32,
    /// All-pairs shortest paths of the source graph under its current
    /// (unquantized) weights: what the k ≤ 2 closed forms, the
    /// single-residual exit and the cluster race decide from.
    paths: PathTables,
}

impl UfGraph {
    /// Builds the union-find view of `graph` (same nodes, same edges,
    /// quantized weights).
    pub fn from_graph(graph: &DecodingGraph) -> Self {
        let adjacency = graph.adjacency();
        let edges: Vec<UfEdge> = adjacency
            .ends
            .iter()
            .zip(graph.weights())
            .map(|(&(a, b), &w)| UfEdge {
                a,
                b,
                w: quantize(w),
            })
            .collect();
        UfGraph {
            num_nodes: graph.num_nodes(),
            starts: adjacency.starts.clone(),
            incident: adjacency
                .entries
                .iter()
                .map(|&(other, e)| (other, e, edges[e as usize].w))
                .collect(),
            observables: graph.edges().iter().map(|e| e.observables).collect(),
            wmin: edges.iter().map(|e| e.w).min().unwrap_or(1),
            edges,
            paths: PathTables::build(graph),
        }
    }

    /// Re-derives the quantized weights from `graph`'s (reweighted)
    /// edge weights and repairs the shortest-path tables along their
    /// cached trees. The structure must be unchanged — this is the
    /// companion to a graph's in-place reweight.
    ///
    /// # Panics
    ///
    /// Panics if `graph` has a different edge count than this view was
    /// built from.
    pub fn requantize(&mut self, graph: &DecodingGraph) {
        assert_eq!(
            graph.edges().len(),
            self.edges.len(),
            "reweighted graph must keep its edge structure"
        );
        for (edge, &w) in self.edges.iter_mut().zip(graph.weights()) {
            edge.w = quantize(w);
        }
        self.wmin = self.edges.iter().map(|e| e.w).min().unwrap_or(1);
        for entry in &mut self.incident {
            entry.2 = self.edges[entry.1 as usize].w;
        }
        self.paths.repair(graph);
    }

    /// The number of real (non-boundary) nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The number of edges (boundary edges included).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }
}

/// Matching weight → integer growth units.
fn quantize(w: f64) -> u32 {
    ((w * WEIGHT_SCALE).round() as u32).clamp(1, G_MASK / 4)
}

/// A boundary half-edge list entry: the `edge`, its *outward* endpoint
/// at append time (the one not in the owning cluster — the cheap
/// internal/dual test), and the next entry of the owning cluster's
/// list (indices into [`UfScratch::entries`]).
#[derive(Clone, Copy)]
struct HalfEdge {
    edge: u32,
    other: u32,
    next: u32,
}

/// Per-node scratch state, packed so DSU walks and cluster-flag checks
/// touch one cache line per node: the epoch stamp, the DSU parent, and
/// the cluster/defect flag bits.
#[derive(Clone, Copy)]
struct NodeState {
    stamp: u32,
    parent: u32,
    flags: u32,
}

/// Per-edge scratch state: the epoch stamp and the growth counter
/// (with the [`G_QUEUED`]/[`G_PEELED`] bookkeeping bits folded into its
/// high bits).
#[derive(Clone, Copy)]
struct EdgeState {
    stamp: u32,
    growth: u32,
}

/// Reusable working memory for one union-find decode: the DSU, cluster
/// flags and boundary half-edge lists, per-edge growth counters, the
/// spanning forest, and the peeling queues. Per-node and per-edge
/// arrays are *epoch-stamped*: instead of clearing `O(graph)` state per
/// shot, every slot remembers the epoch that last initialized it and is
/// lazily reset on first touch, so a shot only ever pays for what it
/// visits. One scratch serves any number of decoders and graph sizes
/// (buffers grow to the largest seen) and carries no results between
/// shots.
#[derive(Default)]
pub struct UfScratch {
    epoch: u32,
    // Per-node state (boundary included), valid when stamp == epoch.
    nodes_st: Vec<NodeState>,
    csize: Vec<u32>,
    head: Vec<u32>,
    tail: Vec<u32>,
    // Per-edge state, valid when stamp == epoch.
    edges_st: Vec<EdgeState>,
    // Per-shot buffers (cleared, but capacity persists).
    entries: Vec<HalfEdge>,
    clusters: Vec<u32>,
    forest: Vec<u32>,
    frontier: Vec<u32>,
    grown: Vec<u32>,
    // Peeling state: forest adjacency over touched nodes.
    peel_stamp: Vec<u32>,
    peel_deg: Vec<u32>,
    peel_head: Vec<u32>,
    peel_entries: Vec<(u32, u32, u32)>, // (other node, edge, next)
    peel_stack: Vec<u32>,
    // `flush_to_absorber`'s DFS stack: (node, parent, observables
    // accumulated from the start node).
    flush_stack: Vec<(u32, u32, u64)>,
    // The shot's events mapped to graph nodes.
    nodes: Vec<u32>,
    // How decodes ended since the shell last asked.
    counters: KernelCounters,
}

impl UfScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new shot over `graph`: bumps the epoch (invalidating
    /// all stamped state in O(1)) and clears the per-shot buffers.
    fn begin(&mut self, graph: &UfGraph) {
        let total = graph.num_nodes + 1;
        if self.nodes_st.len() < total {
            self.nodes_st.resize(
                total,
                NodeState {
                    stamp: 0,
                    parent: 0,
                    flags: 0,
                },
            );
            self.csize.resize(total, 0);
            self.head.resize(total, NIL);
            self.tail.resize(total, NIL);
            self.peel_stamp.resize(total, 0);
            self.peel_deg.resize(total, 0);
            self.peel_head.resize(total, NIL);
        }
        if self.edges_st.len() < graph.num_edges() {
            self.edges_st.resize(
                graph.num_edges(),
                EdgeState {
                    stamp: 0,
                    growth: 0,
                },
            );
        }
        // Epoch 0 marks "never touched"; skipping it keeps fresh slots
        // invalid. On wrap, restart from a clean slate.
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            for n in &mut self.nodes_st {
                n.stamp = 0;
            }
            for e in &mut self.edges_st {
                e.stamp = 0;
            }
            self.peel_stamp.fill(0);
            self.epoch = 1;
        }
        self.entries.clear();
        self.clusters.clear();
        self.forest.clear();
        self.frontier.clear();
        self.grown.clear();
        self.peel_entries.clear();
        self.peel_stack.clear();
    }

    /// Lazily initializes node `v` for this epoch as a fresh singleton.
    fn touch(&mut self, v: u32) {
        let n = &mut self.nodes_st[v as usize];
        if n.stamp != self.epoch {
            n.stamp = self.epoch;
            n.parent = v;
            n.flags = 0;
            let i = v as usize;
            self.csize[i] = 1;
            self.head[i] = NIL;
            self.tail[i] = NIL;
        }
    }

    /// DSU find with path halving. Untouched nodes are their own
    /// (virtual) roots without being initialized.
    fn find(&mut self, v: u32) -> u32 {
        if self.nodes_st[v as usize].stamp != self.epoch {
            return v;
        }
        let mut cur = v;
        loop {
            let p = self.nodes_st[cur as usize].parent;
            if p == cur {
                return cur;
            }
            let gp = self.nodes_st[p as usize].parent;
            self.nodes_st[cur as usize].parent = gp;
            cur = gp;
        }
    }

    /// Growth counter of `edge` (with flag bits), lazily zeroed for
    /// this epoch.
    fn growth_of(&mut self, edge: u32) -> u32 {
        let e = &mut self.edges_st[edge as usize];
        if e.stamp != self.epoch {
            e.stamp = self.epoch;
            e.growth = 0;
        }
        e.growth
    }

    /// Appends `v`'s incident half-edges to root `r`'s boundary list,
    /// skipping edges that already lead back into the same cluster
    /// (they could never leave the frontier usefully; filtering here
    /// saves a scan-and-unlink later).
    fn append_incident(&mut self, graph: &UfGraph, r: u32, v: u32) {
        let lo = graph.starts[v as usize] as usize;
        let hi = graph.starts[v as usize + 1] as usize;
        for ii in lo..hi {
            let (other, e, _) = graph.incident[ii];
            if self.nodes_st[other as usize].stamp == self.epoch && self.find(other) == r {
                continue;
            }
            let idx = self.entries.len() as u32;
            self.entries.push(HalfEdge {
                edge: e,
                other,
                next: NIL,
            });
            if self.head[r as usize] == NIL {
                self.head[r as usize] = idx;
            } else {
                self.entries[self.tail[r as usize] as usize].next = idx;
            }
            self.tail[r as usize] = idx;
        }
    }

    /// Credits `radius` of accumulated growth to every incident edge
    /// of `v`: the materialized footprint of a ball a first-event
    /// shortcut grew and froze without running the growth loop.
    fn credit_region(&mut self, graph: &UfGraph, v: u32, radius: u32) {
        let lo = graph.starts[v as usize] as usize;
        let hi = graph.starts[v as usize + 1] as usize;
        for &(_, e, _) in &graph.incident[lo..hi] {
            self.growth_of(e);
            self.edges_st[e as usize].growth += radius;
        }
    }

    /// Unions the clusters rooted at `ra` and `rb` (touched, distinct)
    /// by size, XOR-merging parity, OR-merging boundary absorption, and
    /// concatenating boundary lists in O(1). A stuck mark does *not*
    /// survive the union — the merged cluster may have growable edges
    /// again, and the growth loop re-derives stuckness from an empty
    /// list anyway. Returns the new root.
    fn union(&mut self, ra: u32, rb: u32) -> u32 {
        let (win, lose) = if (self.csize[ra as usize], rb) < (self.csize[rb as usize], ra) {
            (rb, ra)
        } else {
            (ra, rb)
        };
        let (wi, li) = (win as usize, lose as usize);
        self.nodes_st[li].parent = win;
        self.csize[wi] += self.csize[li];
        let lf = self.nodes_st[li].flags;
        let wf = self.nodes_st[wi].flags;
        let parity = (wf ^ lf) & F_ODD;
        let absorbed = (wf | lf) & F_BOUNDARY;
        self.nodes_st[wi].flags = (wf & F_NODE) | parity | absorbed;
        if self.head[li] != NIL {
            if self.head[wi] == NIL {
                self.head[wi] = self.head[li];
            } else {
                self.entries[self.tail[wi] as usize].next = self.head[li];
            }
            self.tail[wi] = self.tail[li];
        }
        win
    }
}

/// Decodes one basis's `nodes` (sorted graph node ids, `len >= 1`)
/// through cluster growth and peeling, returning the predicted
/// observable mask.
fn uf_decode_nodes(graph: &UfGraph, nodes: &[u32], s: &mut UfScratch) -> u64 {
    s.begin(graph);
    let boundary = graph.num_nodes as u32;
    let mut correction = 0u64;
    for &v in nodes {
        s.touch(v);
        s.nodes_st[v as usize].flags |= F_ODD | F_DEFECT;
    }

    // First-growth-event shortcuts: for the two dominant cluster
    // archetypes the earliest completion is decided by one scan of the
    // incident lists, so the whole grow/merge/peel cycle collapses to a
    // closed form. Both are exactly what the event-driven growth would
    // do in the cluster's first round — computed without ever building
    // a frontier. To keep the closed forms sound they fire only in
    // *isolated* neighbourhoods: every 1-hop neighbour untouched
    // (except the unique pair partner), and the first event must beat
    // the earliest possible contact with growth from 2+ hops away
    // (`single_w/2 + wmin/2`: the cheapest outgoing edge shared with an
    // approaching cluster, plus at least half a minimum-weight hop).
    //
    // * A lone defect whose lightest boundary edge beats that bound is
    //   absorbed before anything can reach it: emit the boundary edge.
    //   The node stays marked as an inactive boundary-connected exit
    //   region with its ball's growth credited to its edges, so later
    //   growth reaches it at reduced distance and is absorbed exactly
    //   as it would be by the grown cluster in full union-find.
    // * Two defects that are each other's only event neighbour merge
    //   along their shared edge at *half* its weight (it grows from
    //   both sides); when that beats both boundary options and both
    //   far-contact bounds, the pair annihilates: emit the shared edge.
    for &v in nodes.iter() {
        if s.nodes_st[v as usize].flags & F_ODD == 0 {
            continue; // already resolved by a pair shortcut
        }
        let lo = graph.starts[v as usize] as usize;
        let hi = graph.starts[v as usize + 1] as usize;
        // One scan: the lightest boundary edge, the stamped (event)
        // neighbours, and the lightest edge into untouched territory.
        let (mut bnd_w, mut bnd_e) = (u32::MAX, NIL);
        let (mut dual_w, mut dual_e, mut dual_n) = (u32::MAX, NIL, NIL);
        let mut stamped = 0u32;
        let mut single_w = u32::MAX;
        for &(other, e, w) in &graph.incident[lo..hi] {
            if other == boundary {
                if w < bnd_w {
                    bnd_w = w;
                    bnd_e = e;
                }
            } else if s.nodes_st[other as usize].stamp == s.epoch {
                stamped += 1;
                if w < dual_w {
                    dual_w = w;
                    dual_e = e;
                    dual_n = other;
                }
            } else if w < single_w {
                single_w = w;
            }
        }
        let far_contact = (single_w / 2).saturating_add(graph.wmin / 2);
        if stamped == 0 && bnd_e != NIL && bnd_w <= far_contact {
            correction ^= graph.observables[bnd_e as usize];
            s.nodes_st[v as usize].flags = F_BOUNDARY | F_EXIT;
            s.credit_region(graph, v, bnd_w);
            continue;
        }
        let dual_need = dual_w.div_ceil(2); // dual edges close twice as fast
        if stamped == 1
            && dual_n > v
            && is_active(s.nodes_st[dual_n as usize].flags)
            && dual_need <= bnd_w
            && dual_need <= far_contact
        {
            // Is v also u's unique event neighbour, and does the pair
            // event beat u's own boundary and far-contact options?
            let u = dual_n;
            let ulo = graph.starts[u as usize] as usize;
            let uhi = graph.starts[u as usize + 1] as usize;
            let mut ok = true;
            let (mut u_bnd, mut u_single) = (u32::MAX, u32::MAX);
            for &(other, _, w) in &graph.incident[ulo..uhi] {
                if other == boundary {
                    u_bnd = u_bnd.min(w);
                } else if other == v {
                    // the shared edge (and any parallel ones)
                } else if s.nodes_st[other as usize].stamp == s.epoch {
                    ok = false; // u has another event neighbour
                    break;
                } else {
                    u_single = u_single.min(w);
                }
            }
            ok = ok
                && dual_need <= u_bnd
                && dual_need <= (u_single / 2).saturating_add(graph.wmin / 2);
            if ok {
                // The pair annihilates after each ball grew to half the
                // shared edge; credit both regions before freezing.
                correction ^= graph.observables[dual_e as usize];
                s.nodes_st[v as usize].flags = 0;
                s.nodes_st[u as usize].flags = 0;
                s.credit_region(graph, v, dual_need);
                s.credit_region(graph, u, dual_need);
                continue;
            }
        }
        s.clusters.push(v);
    }
    if s.clusters.is_empty() {
        s.counters.uf_shortcut += 1;
        return correction;
    }

    // Cluster-level race for up to RACE_MAX_CLUSTERS residual defects
    // (everything else shortcut away). With so few balls left, the
    // whole growth schedule is a discrete race between known event
    // times — pairs of balls meeting, or a ball reaching the boundary —
    // all derived from the cached shortest-path tables, so the
    // grow/merge/peel machinery never has to run. (Frozen shortcut
    // regions are ignored here: they are neutral waypoints whose credit
    // only shifts timings, and routing through them reduces to the same
    // shortest paths.) Falls through to the growth loop when the
    // geometry is degenerate.
    if s.clusters.len() == 1 {
        let (db, obs_b) = graph.paths.boundary(s.clusters[0]);
        if db < FAR {
            s.counters.uf_single_residual += 1;
            return correction ^ obs_b;
        }
    } else if s.clusters.len() <= RACE_MAX_CLUSTERS {
        if let Some(race) = race_residual(&graph.paths, &s.clusters) {
            s.counters.uf_race += 1;
            return correction ^ race;
        }
    }
    s.counters.uf_growth += 1;

    for ci in 0..s.clusters.len() {
        let v = s.clusters[ci];
        s.nodes_st[v as usize].flags |= F_EXPOSED;
        s.append_incident(graph, v, v);
    }

    // Growth rounds: expand all active clusters in lockstep until every
    // cluster is even, absorbed by the boundary, or stuck.
    loop {
        // Canonicalize the live-cluster list: merges may move a root to
        // a node that was never an event (a fresh singleton can win a
        // size tie), so map every tracked cluster to its current root
        // and deduplicate — otherwise a still-odd cluster would freeze
        // mid-growth and silently drop its defects.
        let mut keep = 0;
        for ci in 0..s.clusters.len() {
            let r = s.find(s.clusters[ci]);
            if s.nodes_st[r as usize].flags & F_IN_LIST == 0 {
                s.nodes_st[r as usize].flags |= F_IN_LIST;
                s.clusters[keep] = r;
                keep += 1;
            }
        }
        s.clusters.truncate(keep);
        for ci in 0..s.clusters.len() {
            let r = s.clusters[ci];
            s.nodes_st[r as usize].flags &= !F_IN_LIST;
        }

        // Pass 1 — prune each active cluster's boundary list, find the
        // smallest increment that completes some pending edge (an edge
        // growing from both sides this round closes twice as fast), and
        // flatten the surviving entries into a dense frontier so the
        // growth pass is a linear sweep. The stored `other` endpoint
        // makes the internal/dual tests cheap: growth into untouched
        // territory (the common case) needs no DSU lookup at all.
        let mut delta = u32::MAX;
        let mut any_active = false;
        s.frontier.clear();
        for ci in 0..s.clusters.len() {
            let r = s.clusters[ci];
            if !is_active(s.nodes_st[r as usize].flags) {
                continue;
            }
            let mut prev = NIL;
            let mut cur = s.head[r as usize];
            while cur != NIL {
                let HalfEdge { edge, other, next } = s.entries[cur as usize];
                let i = edge as usize;
                let g = s.growth_of(edge) & G_MASK;
                let w = graph.edges[i].w;
                // Untouched `other`: pending single-sided growth into
                // fresh territory, no DSU lookups needed. A shortcut
                // region's credited edges can be fully grown without
                // ever passing through the grown queue, so a completed
                // edge that still bridges two components is queued here
                // for the merge pass rather than silently dropped.
                let (pending, dual) = if g >= w {
                    let bridges = if s.nodes_st[other as usize].stamp != s.epoch {
                        true
                    } else {
                        s.find(other) != r
                    };
                    if bridges && s.edges_st[i].growth & G_QUEUED == 0 {
                        s.edges_st[i].growth |= G_QUEUED;
                        s.grown.push(edge);
                    }
                    (false, false)
                } else if s.nodes_st[other as usize].stamp != s.epoch {
                    (true, false)
                } else {
                    let ro = s.find(other);
                    (
                        ro != r,
                        ro != boundary && is_active(s.nodes_st[ro as usize].flags),
                    )
                };
                if pending {
                    let remaining = w - g;
                    let need = if dual {
                        remaining.div_ceil(2)
                    } else {
                        remaining
                    };
                    delta = delta.min(need);
                    s.frontier.push(edge);
                    prev = cur;
                } else {
                    // Grown or internal: unlink and forget.
                    if prev == NIL {
                        s.head[r as usize] = next;
                    } else {
                        s.entries[prev as usize].next = next;
                    }
                    if next == NIL {
                        s.tail[r as usize] = prev;
                    }
                }
                cur = next;
            }
            if s.head[r as usize] == NIL {
                // Nothing left to grow (degenerate component with no
                // boundary): give up on this cluster deterministically.
                s.nodes_st[r as usize].flags |= F_STUCK;
            } else {
                any_active = true;
            }
        }
        // Credit-completed bridges found during the prune must merge
        // even when nothing is left to grow (the merge itself can
        // change what is active), so only stop on a round that found
        // neither growth nor pending merges.
        if s.grown.is_empty() && (!any_active || delta == u32::MAX) {
            break;
        }
        s.counters.uf_growth_rounds += 1;

        // Pass 2 — grow the flattened frontier by delta (dual-active
        // edges appear once per side, so they advance twice) and queue
        // the edges that completed.
        if !s.frontier.is_empty() && delta != u32::MAX {
            for fi in 0..s.frontier.len() {
                let e = s.frontier[fi];
                let i = e as usize;
                let st = &mut s.edges_st[i];
                st.growth += delta;
                if st.growth & G_MASK >= graph.edges[i].w && st.growth & G_QUEUED == 0 {
                    st.growth |= G_QUEUED;
                    s.grown.push(e);
                }
            }
        }

        // Pass 3 — merge along completed edges; each union event is a
        // spanning-forest edge for the peeling pass. Endpoints seen for
        // the first time (untouched before this merge) join the cluster
        // and expose their own incident edges — except the boundary,
        // which absorbs the cluster instead of growing it.
        for gi in 0..s.grown.len() {
            let e = s.grown[gi];
            let UfEdge { a, b, .. } = graph.edges[e as usize];
            let ra = s.find(a);
            let rb = s.find(b);
            if ra == rb {
                continue;
            }
            s.touch(ra);
            s.touch(rb);
            let root = s.union(ra, rb);
            s.forest.push(e);
            if a == boundary || b == boundary {
                s.nodes_st[root as usize].flags |= F_BOUNDARY;
            }
            // Expose each endpoint's incident edges the first time it
            // joins any cluster (fresh territory, or a frozen shortcut
            // region resuming growth inside a bigger cluster).
            for v in [a, b] {
                if v != boundary && s.nodes_st[v as usize].flags & F_EXPOSED == 0 {
                    s.nodes_st[v as usize].flags |= F_EXPOSED;
                    let rv = s.find(v);
                    s.append_incident(graph, rv, v);
                }
            }
        }
        s.grown.clear();
    }
    correction ^ peel(graph, s)
}

/// Unreachable-node sentinel guard (distances above this are the
/// graph's "no path" stand-in).
const FAR: f64 = 1e11;

/// Most residual clusters the closed-form race handles; beyond this the
/// full growth loop runs (a handful of mutually entangled clusters is
/// already deep in the tail at the error rates of interest).
const RACE_MAX_CLUSTERS: usize = 4;

/// Simulates the growth race between at most [`RACE_MAX_CLUSTERS`]
/// residual single-defect clusters at cluster level: every ball grows
/// while its group's defect parity is odd, groups merge when their
/// balls meet (single-linkage over per-member radii; frozen members
/// keep their radius until their group reactivates), and the boundary
/// absorbs. Each resolution's correction comes straight from the
/// cached shortest-path parities: two defects annihilate along their
/// connecting path, and a defect reaching the boundary (directly or
/// through an absorbed group) exits along the absorbing member's
/// boundary path. Returns `None` when a needed distance is degenerate
/// (unreachable sentinel), leaving the syndrome to the full growth
/// loop.
fn race_residual(paths: &PathTables, clusters: &[u32]) -> Option<u64> {
    const M: usize = RACE_MAX_CLUSTERS;
    let m = clusters.len();
    debug_assert!((2..=M).contains(&m));

    // Geometry, loaded once from the cached tables.
    let mut db = [0.0f64; M];
    let mut bobs = [0u64; M];
    let mut d = [[0.0f64; M]; M];
    let mut pobs = [[0u64; M]; M];
    for (i, &c) in clusters.iter().enumerate() {
        (db[i], bobs[i]) = paths.boundary(c);
        if db[i] >= FAR {
            return None;
        }
        for (j, &c2) in clusters.iter().enumerate().take(i) {
            let (dij, oij) = paths.pair(c, c2);
            if dij >= FAR {
                return None;
            }
            d[i][j] = dij;
            d[j][i] = dij;
            pobs[i][j] = oij;
            pobs[j][i] = oij;
        }
    }

    // Per original cluster: its group (index of a representative),
    // its ball radius. Per group (indexed by representative): the
    // surviving defect (cluster index) and the boundary anchor (member
    // whose boundary path absorbed the group). A group grows iff it
    // carries a defect and has no anchor.
    let mut group = [0usize; M];
    let mut radius = [0.0f64; M];
    let mut defect: [Option<usize>; M] = [None; M];
    let mut anchor: [Option<usize>; M] = [None; M];
    for i in 0..m {
        group[i] = i;
        defect[i] = Some(i);
    }
    let active = |g: usize, defect: &[Option<usize>; M], anchor: &[Option<usize>; M]| {
        defect[g].is_some() && anchor[g].is_none()
    };

    let mut correction = 0u64;
    // Each event either absorbs a group or merges two, so the race ends
    // within 2m - 1 steps.
    for _ in 0..2 * M {
        // Next event: the soonest of any active ball reaching the
        // boundary or any two balls meeting (closing speed 2 when both
        // grow, 1 when one side is frozen). Ties break toward
        // absorption, then lowest indices, so the schedule is a pure
        // function of the inputs.
        let mut best: Option<(f64, usize, usize, usize)> = None; // (t, kind, i, j)
        for i in 0..m {
            if !active(group[i], &defect, &anchor) {
                continue;
            }
            let t = (db[i] - radius[i]).max(0.0);
            let cand = (t, 0usize, i, i);
            if best.is_none_or(|b| cand < b) {
                best = Some(cand);
            }
        }
        for i in 0..m {
            for j in (i + 1)..m {
                if group[i] == group[j] {
                    continue;
                }
                let speed = active(group[i], &defect, &anchor) as u32
                    + active(group[j], &defect, &anchor) as u32;
                if speed == 0 {
                    continue;
                }
                let gap = (d[i][j] - radius[i] - radius[j]).max(0.0);
                let cand = (gap / f64::from(speed), 1usize, i, j);
                if best.is_none_or(|b| cand < b) {
                    best = Some(cand);
                }
            }
        }
        let Some((t, kind, i, j)) = best else {
            break; // nothing active: the race is resolved
        };
        for k in 0..m {
            if active(group[k], &defect, &anchor) {
                radius[k] += t;
            }
        }
        if kind == 0 {
            // Group absorbed through member i: its defect exits via the
            // path to i and i's boundary path.
            let g = group[i];
            // (A group that was not growing after all goes to the
            // growth loop.)
            let dn = defect[g].take()?;
            correction ^= if dn == i { 0 } else { pobs[dn][i] };
            correction ^= bobs[i];
            anchor[g] = Some(i);
        } else {
            // Groups meet between members i and j. Resolution routes
            // follow the peel tree: from a defect through its own
            // group to the contact member, across the contact, and on
            // through the other group — never the direct defect-to-
            // endpoint shortest path, which can wind around the
            // logical differently near boundaries.
            let (gi, gj) = (group[i], group[j]);
            let merged_anchor = anchor[gi].or(anchor[gj]);
            let via = pobs[i][j];
            let merged_defect = match (defect[gi], defect[gj]) {
                (Some(a), Some(b)) => {
                    // Two defects annihilate through the contact.
                    correction ^= pobs[a][i] ^ via ^ pobs[j][b];
                    None
                }
                (Some(a), None) | (None, Some(a)) => {
                    // Orient the route: the defect sits on the active
                    // side, the anchor (if any) on the frozen side.
                    let (near, far) = if defect[gi].is_some() { (i, j) } else { (j, i) };
                    match merged_anchor {
                        // A lone defect reaching a boundary-connected
                        // region exits through that region's anchor.
                        Some(x) => {
                            correction ^= pobs[a][near] ^ via ^ pobs[far][x] ^ bobs[x];
                            None
                        }
                        None => Some(a),
                    }
                }
                (None, None) => None,
            };
            for g in group.iter_mut().take(m) {
                if *g == gj {
                    *g = gi;
                }
            }
            defect[gi] = merged_defect;
            anchor[gi] = merged_anchor;
        }
    }
    Some(correction)
}

/// The observable mask of `v`'s lightest boundary edge (first minimum
/// in incident order — the same deterministic tie-break the
/// boundary-absorption shortcut uses).
fn exit_observables(graph: &UfGraph, v: u32) -> u64 {
    let boundary = graph.num_nodes as u32;
    let lo = graph.starts[v as usize] as usize;
    let hi = graph.starts[v as usize + 1] as usize;
    let (mut w_min, mut obs) = (u32::MAX, 0u64);
    for &(other, e, w) in &graph.incident[lo..hi] {
        if other == boundary && w < w_min {
            w_min = w;
            obs = graph.observables[e as usize];
        }
    }
    obs
}

/// Peels every cluster's spanning forest from the leaves inward,
/// collecting the correction's observable mask. A leaf carrying a
/// defect contributes its unique edge and hands the defect to its
/// neighbour; the virtual boundary absorbs anything that reaches it.
fn peel(graph: &UfGraph, s: &mut UfScratch) -> u64 {
    let boundary = graph.num_nodes as u32;
    // Build the forest adjacency over touched nodes only.
    for fi in 0..s.forest.len() {
        let e = s.forest[fi];
        let UfEdge { a, b, .. } = graph.edges[e as usize];
        for (v, o) in [(a, b), (b, a)] {
            let i = v as usize;
            if s.peel_stamp[i] != s.epoch {
                s.peel_stamp[i] = s.epoch;
                s.peel_deg[i] = 0;
                s.peel_head[i] = NIL;
            }
            let idx = s.peel_entries.len() as u32;
            s.peel_entries.push((o, e, s.peel_head[i]));
            s.peel_head[i] = idx;
            s.peel_deg[i] += 1;
        }
    }
    // Seed the stack with every initial leaf, in forest order for
    // determinism. The virtual boundary and shortcut exit nodes are
    // never peeled: they absorb defects, so peeling must push defects
    // *toward* them, not remove them first.
    for fi in 0..s.forest.len() {
        let e = s.forest[fi];
        let UfEdge { a, b, .. } = graph.edges[e as usize];
        for v in [a, b] {
            if v != boundary
                && s.peel_deg[v as usize] == 1
                && s.nodes_st[v as usize].flags & F_EXIT == 0
            {
                s.peel_stack.push(v);
            }
        }
    }
    let mut correction = 0u64;
    while let Some(v) = s.peel_stack.pop() {
        let i = v as usize;
        if s.peel_deg[i] != 1 {
            continue; // stale entry (already peeled or degree changed)
        }
        // The unique remaining edge of v.
        let mut cur = s.peel_head[i];
        let (mut other, mut edge) = (NIL, NIL);
        while cur != NIL {
            let (o, e, next) = s.peel_entries[cur as usize];
            if s.edges_st[e as usize].growth & G_PEELED == 0 {
                other = o;
                edge = e;
                break;
            }
            cur = next;
        }
        debug_assert_ne!(edge, NIL, "leaf must have one un-peeled edge");
        s.edges_st[edge as usize].growth |= G_PEELED;
        s.peel_deg[i] = 0;
        s.peel_deg[other as usize] -= 1;
        if s.nodes_st[i].flags & F_DEFECT != 0 {
            correction ^= graph.observables[edge as usize];
            s.nodes_st[i].flags &= !F_DEFECT;
            if s.nodes_st[other as usize].flags & F_EXIT != 0 {
                // The defect reached a shortcut-absorbed node: it exits
                // through that node's own boundary edge, the same one
                // its first-event shortcut used.
                correction ^= exit_observables(graph, other);
            } else {
                s.nodes_st[other as usize].flags ^= F_DEFECT;
            }
        }
        if other != boundary
            && s.peel_deg[other as usize] == 1
            && s.nodes_st[other as usize].flags & F_EXIT == 0
        {
            s.peel_stack.push(other);
        }
    }
    // Leaf-peeling cannot reach a defect whose remaining tree hangs
    // entirely between absorbers (every leaf is the boundary or an exit
    // node, which are never peeled — e.g. two simultaneous completions
    // attach one interior node to both). Flush each such defect along
    // its tree path to the nearest absorber.
    for fi in 0..s.forest.len() {
        let e = s.forest[fi];
        if s.edges_st[e as usize].growth & G_PEELED != 0 {
            continue;
        }
        let UfEdge { a, b, .. } = graph.edges[e as usize];
        for v in [a, b] {
            if v != boundary && s.nodes_st[v as usize].flags & F_DEFECT != 0 {
                if let Some(obs) = flush_to_absorber(graph, s, v) {
                    correction ^= obs;
                    s.nodes_st[v as usize].flags &= !F_DEFECT;
                }
                // No absorber in this component: a stuck boundary-less
                // tree; the defect is dropped, like MWPM's
                // unreachable-sentinel matches.
            }
        }
    }
    correction
}

/// Walks the un-peeled spanning forest from defect node `start` to the
/// nearest absorber (the virtual boundary or an exit node) by
/// depth-first search, returning the XOR of edge observables along the
/// path plus the absorber's own exit parity; `None` when the component
/// has no absorber. The forest is a tree, so tracking the parent node
/// suffices to avoid revisits.
fn flush_to_absorber(graph: &UfGraph, s: &mut UfScratch, start: u32) -> Option<u64> {
    let boundary = graph.num_nodes as u32;
    s.flush_stack.clear();
    s.flush_stack.push((start, NIL, 0));
    while let Some((v, parent, obs)) = s.flush_stack.pop() {
        if v == boundary {
            return Some(obs);
        }
        if v != start && s.nodes_st[v as usize].flags & F_EXIT != 0 {
            return Some(obs ^ exit_observables(graph, v));
        }
        let mut cur = s.peel_head[v as usize];
        while cur != NIL {
            let (o, e, next) = s.peel_entries[cur as usize];
            if o != parent && s.edges_st[e as usize].growth & G_PEELED == 0 {
                s.flush_stack
                    .push((o, v, obs ^ graph.observables[e as usize]));
            }
            cur = next;
        }
    }
    None
}

/// Decodes one basis: closed-form shortest-path fast paths for at most
/// two events, cluster growth otherwise.
fn decode_basis_uf(
    graph: &DecodingGraph,
    ufg: &UfGraph,
    events: &[u32],
    scratch: &mut UfScratch,
) -> u64 {
    let mut nodes = std::mem::take(&mut scratch.nodes);
    nodes.clear();
    nodes.extend(events.iter().filter_map(|&d| graph.node_of_detector(d)));
    // Batch callers hand events ascending (and node ids follow detector
    // order), so the defensive sort for hand-built event lists almost
    // always short-circuits.
    if !nodes.is_sorted() {
        nodes.sort_unstable();
    }
    // The ≤ 2-event fast paths decide what exact matching decides, from
    // shortest-path data.
    let paths = &ufg.paths;
    let out = match nodes[..] {
        [] => 0,
        [v] => paths.boundary(v).1,
        [a, b] => {
            let (d01, obs01) = paths.pair(a, b);
            let ((da, obs_a), (db, obs_b)) = (paths.boundary(a), paths.boundary(b));
            if d01 < da + db {
                obs01
            } else {
                obs_a ^ obs_b
            }
        }
        _ => uf_decode_nodes(ufg, &nodes, scratch),
    };
    scratch.counters.closed_form += u64::from(nodes.len() <= 2);
    scratch.nodes = nodes;
    out
}

/// A weighted union-find decoder for a fixed noisy circuit.
///
/// The same [`GraphDecoder`] shell as [`MwpmDecoder`](crate::MwpmDecoder)
/// — per-basis [`DecodingGraph`]s, pooled scratch, memoized batch
/// decoding, in-place [`reweighting`](crate::Decoder::reweight) when
/// built with [`GraphDecoder::from_clean`] — instantiated with a
/// [`UfGraph`] view per basis: cluster growth, and the shortest-path
/// tables its fast paths read.
///
/// # Examples
///
/// ```
/// use dqec_matching::{Decoder, UfDecoder};
/// use dqec_sim::circuit::{CheckBasis, Circuit, Noise1};
/// use dqec_sim::frame::FrameSampler;
/// use rand::SeedableRng;
///
/// let mut c = Circuit::new(2);
/// c.reset(0)?;
/// c.reset(1)?;
/// c.noise1(Noise1::XError, 0, 0.05)?;
/// c.cx(0, 1)?;
/// let m = c.measure_reset(1)?;
/// c.add_detector(&[m], CheckBasis::Z, (0, 0, 0))?;
/// let d = c.measure(0)?;
/// c.add_detector(&[m, d], CheckBasis::Z, (0, 0, 1))?;
/// c.include_observable(0, &[d])?;
///
/// let decoder = UfDecoder::new(&c);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let batch = FrameSampler::new(&c).sample(2000, &mut rng);
/// let stats = decoder.decode_batch(&batch);
/// // A single qubit's flip is always detected and corrected here.
/// assert_eq!(stats.failures[0], 0);
/// # Ok::<(), dqec_sim::SimError>(())
/// ```
pub type UfDecoder = GraphDecoder<UfGraph>;

/// The union-find [`Kernel`]: a [`UfGraph`] view per basis graph,
/// requantized (and its tables repaired) when the shell reweights the
/// graph.
impl Kernel for UfGraph {
    type Scratch = UfScratch;

    fn from_graph(graph: &DecodingGraph) -> Self {
        UfGraph::from_graph(graph)
    }

    fn reweighted(&mut self, graph: &DecodingGraph) {
        self.requantize(graph);
    }

    fn decode_basis(&self, graph: &DecodingGraph, events: &[u32], scratch: &mut UfScratch) -> u64 {
        decode_basis_uf(graph, self, events, scratch)
    }

    fn take_counters(scratch: &mut UfScratch) -> KernelCounters {
        std::mem::take(&mut scratch.counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{chain_circuit, repetition};
    use crate::graph::weight_of;
    use crate::Decoder;
    use dqec_sim::frame::FrameSampler;
    use dqec_sim::noise::NoiseModel;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn chain_pairs_adjacent_and_boundary_matches_far_event() {
        // Events 0,1 pair up (one data error between them); event 4
        // goes to the nearby right boundary. Same as MWPM.
        let c = chain_circuit(6, |_| 0.01);
        let uf = UfDecoder::new(&c);
        let mwpm = crate::MwpmDecoder::new(&c);
        for events in [vec![0u32, 1, 4], vec![0, 3, 4], vec![1, 2, 5]] {
            assert_eq!(
                uf.decode_events(&events),
                mwpm.decode_events(&events),
                "events {events:?}"
            );
        }
    }

    #[test]
    fn uf_graph_mirrors_decoding_graph() {
        let c = repetition(3, 0.01);
        let decoder = crate::MwpmDecoder::new(&c);
        let g = decoder.z_graph();
        let ufg = UfGraph::from_graph(g);
        assert_eq!(ufg.num_nodes(), g.num_nodes());
        assert_eq!(ufg.num_edges(), g.edges().len());
        // CSR covers each edge exactly twice (once per endpoint).
        assert_eq!(ufg.incident.len(), 2 * ufg.num_edges());
        assert!(ufg
            .incident
            .iter()
            .all(|&(_, e, _)| (e as usize) < ufg.num_edges()));
        assert!(ufg.edges.iter().all(|e| e.w >= 1));
        // The incident lists are the graph's adjacency, entry for entry.
        assert_eq!(ufg.starts, g.adjacency().starts);
        for (inc, adj) in ufg.incident.iter().zip(&g.adjacency().entries) {
            assert_eq!((inc.0, inc.1), *adj);
            assert_eq!(inc.2, ufg.edges[inc.1 as usize].w);
        }
    }

    #[test]
    fn counters_classify_every_decode_on_a_defective_patch() {
        use dqec_core::{memory_z, AdaptedPatch, Coord, DefectSet, PatchLayout};

        // The defective l = 7 patch of `tests/alloc_regression.rs`.
        let mut defects = DefectSet::new();
        defects.add_data(Coord::new(5, 5));
        defects.add_synd(Coord::new(8, 10));
        let patch = AdaptedPatch::new(PatchLayout::memory(7), &defects);
        let exp = memory_z(&patch, 7).unwrap();
        let noisy = NoiseModel::new(1e-3).apply(&exp.circuit);
        let decoder = UfDecoder::new(&noisy);
        let batch = FrameSampler::new(&noisy).sample(6000, &mut StdRng::seed_from_u64(0xc1a55));

        let mut scratch = UfScratch::new();
        let (mut empty, mut nonempty) = (0u64, 0u64);
        for events in batch.detection_events_by_shot() {
            decoder.decode_events_with(&events, &mut scratch);
            // Only a basis that holds a kernel is decoded.
            for (graph, _) in decoder.kernels().into_iter().filter(|(_, k)| k.is_some()) {
                let hit = events.iter().any(|&d| graph.node_of_detector(d).is_some());
                *if hit { &mut nonempty } else { &mut empty } += 1;
            }
        }
        let k = UfGraph::take_counters(&mut scratch);
        assert_eq!(
            UfGraph::take_counters(&mut scratch),
            KernelCounters::default()
        );
        let classes = [
            k.closed_form - empty,
            k.uf_shortcut,
            k.uf_single_residual,
            k.uf_race,
            k.uf_growth,
        ];
        assert!(classes.iter().all(|&c| c > 0), "{k:?}");
        assert_eq!(classes.iter().sum::<u64>(), nonempty, "{k:?}");
        assert!(k.uf_growth_rounds >= k.uf_growth, "{k:?}");
        // The matcher's counters are not this kernel's.
        assert_eq!((k.nodes_explored, k.blossoms_formed), (0, 0));
    }

    #[test]
    fn quantize_orders_like_weights() {
        assert!(quantize(weight_of(1e-4)) > quantize(weight_of(1e-2)));
        assert_eq!(quantize(0.0), 1, "weights never quantize to zero");
    }

    #[test]
    fn noiseless_batch_has_no_failures() {
        let c = repetition(3, 0.0);
        let decoder = UfDecoder::new(&c);
        let batch = FrameSampler::new(&c).sample(500, &mut StdRng::seed_from_u64(1));
        let stats = decoder.decode_batch(&batch);
        assert_eq!(stats.failures[0], 0);
    }

    #[test]
    fn single_flips_are_always_corrected() {
        let p = 0.02;
        let c = repetition(3, p);
        let decoder = UfDecoder::new(&c);
        let batch = FrameSampler::new(&c).sample(20_000, &mut StdRng::seed_from_u64(2));
        let stats = decoder.decode_batch(&batch);
        let ler = stats.logical_error_rate(0);
        assert!(ler < p / 2.0, "LER {ler} should be well below p {p}");
    }

    #[test]
    fn ler_decreases_with_lower_p() {
        let mut lers = Vec::new();
        for &p in &[0.08, 0.04, 0.02] {
            let c = repetition(3, p);
            let decoder = UfDecoder::new(&c);
            let batch = FrameSampler::new(&c).sample(30_000, &mut StdRng::seed_from_u64(99));
            lers.push(decoder.decode_batch(&batch).logical_error_rate(0));
        }
        assert!(lers[0] > lers[1] && lers[1] > lers[2], "{lers:?}");
    }

    #[test]
    fn scratch_reuse_matches_fresh_scratch() {
        // One warm scratch across many syndromes must decode exactly
        // like a cold scratch per syndrome — the epoch stamping must
        // never leak state between shots.
        let c = repetition(4, 0.03);
        let decoder = UfDecoder::new(&c);
        let ndet = c.detectors().len() as u32;
        let mut rng = StdRng::seed_from_u64(0x0f5eed);
        let mut warm = UfScratch::new();
        for _ in 0..500 {
            let events: Vec<u32> = (0..ndet).filter(|_| rng.gen_bool(0.35)).collect();
            let mut cold = UfScratch::new();
            assert_eq!(
                decoder.decode_events_with(&events, &mut warm),
                decoder.decode_events_with(&events, &mut cold),
                "warm and cold scratch disagree on {events:?}"
            );
        }
    }

    #[test]
    fn predictions_are_event_order_independent() {
        let c = repetition(4, 0.03);
        let decoder = UfDecoder::new(&c);
        let ndet = c.detectors().len() as u32;
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let events: Vec<u32> = (0..ndet).filter(|_| rng.gen_bool(0.4)).collect();
            let mut rev: Vec<u32> = events.iter().rev().copied().collect();
            assert_eq!(
                decoder.decode_events(&events),
                decoder.decode_events(&rev),
                "{events:?}"
            );
            rev.rotate_left(events.len() / 2);
            assert_eq!(
                decoder.decode_events(&events),
                decoder.decode_events(&rev),
                "{events:?}"
            );
        }
    }

    #[test]
    fn dense_random_syndromes_decode_without_panicking() {
        // Saturating syndromes force large clusters, boundary
        // absorption, stuck components, and deep peeling.
        let c = repetition(5, 0.02);
        let decoder = UfDecoder::new(&c);
        let ndet = c.detectors().len() as u32;
        let all: Vec<u32> = (0..ndet).collect();
        decoder.decode_events(&all);
        let mut rng = StdRng::seed_from_u64(0xdead);
        for _ in 0..100 {
            let events: Vec<u32> = (0..ndet).filter(|_| rng.gen_bool(0.8)).collect();
            let a = decoder.decode_events(&events);
            let b = decoder.decode_events(&events);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn reweighted_decoder_matches_fresh_decoder() {
        let clean = repetition(3, 0.0);
        let mut reweightable = UfDecoder::from_clean(&clean, &NoiseModel::new(2e-2));
        for p in [2e-2, 8e-3, 4e-2] {
            let noise = NoiseModel::new(p);
            assert!(reweightable.reweight(&noise));
            let noisy = noise.apply(&clean);
            let fresh = UfDecoder::new(&noisy);
            let batch = FrameSampler::new(&noisy).sample(8000, &mut StdRng::seed_from_u64(17));
            let events = batch.detection_events_by_shot();
            let mismatches = events
                .iter()
                .filter(|ev| reweightable.decode_events(ev) != fresh.decode_events(ev))
                .count();
            assert!(
                mismatches <= events.len() / 100,
                "p={p}: {mismatches} of {} predictions differ from a fresh build",
                events.len()
            );
        }
    }

    #[test]
    fn plain_decoder_declines_reweighting() {
        let c = repetition(2, 0.01);
        let mut decoder = UfDecoder::new(&c);
        assert!(!decoder.reweight(&NoiseModel::new(1e-3)));
    }

    #[test]
    fn reweight_rejects_changed_overrides() {
        let clean = repetition(2, 0.0);
        let template = NoiseModel::new(1e-2).with_bad_qubit(0, 0.2);
        let mut decoder = UfDecoder::from_clean(&clean, &template);
        assert!(decoder.reweight(&NoiseModel::new(5e-3).with_bad_qubit(0, 0.2)));
        assert!(!decoder.reweight(&NoiseModel::new(5e-3)));
        assert!(!decoder.reweight(&NoiseModel::new(5e-3).with_bad_qubit(1, 0.2)));
    }
}
