//! Sparse blossom: exact minimum-weight perfect matching grown directly
//! on the decoding graph (Higgott & Gidney, arXiv:2303.15933).
//!
//! [`Blossom`] is the [`Kernel`] behind [`MwpmDecoder`](crate::MwpmDecoder).
//! It never asks for the distance between two detectors. Every
//! detection event seeds a *region* that grows over the graph's edges
//! at unit rate; a time-ordered queue reports when a region reaches an
//! empty node, meets another region, reaches the boundary or has shrunk
//! to nothing, and the classic blossom matcher reacts to exactly those
//! reports: two trees that meet are augmented, a tree that meets a
//! matched pair takes it in (the near region shrinks, its partner
//! grows), two growing regions of one tree become a blossom, and a
//! blossom that shrinks to radius zero is shattered back into its
//! cycle. Region radii are the dual variables of the matching LP, a
//! collision is a tight edge, and the run ends when the queue is empty
//! — every region matched, to another region or to the boundary. The
//! cost follows the nodes the regions touched, not the size of the
//! graph or the square of the event count.
//!
//! # Certificate
//!
//! The radii a run ends with prove its answer optimal: they are a
//! feasible dual of the matching LP, and they sum to the weight of the
//! matched paths. By weak duality no matching of the same events is
//! lighter, whatever their count. Debug builds check both after every
//! decode that matched two or more events (`DecodeScratch::certify`).
//!
//! Each touched node remembers the event it was reached from, its
//! distance from it and the observable mask crossed on the way, so the
//! tight path behind a collision between nodes `u` and `v` is known on
//! the spot: mask `mask(u) ^ edge ^ mask(v)`, length
//! `dist(u) + edge + dist(v)`. No shortest-path table is consulted or
//! built.
//!
//! # Weight grid
//!
//! Edge weights `ln((1-p)/p)` are quantised once per (re)weight to
//! `2·round(w·2²⁰)`, at least 2. Even integers keep every event time an
//! integer (two regions closing an even gap at rate 2 meet on the
//! grid), and the step, 2⁻²⁰ ≈ 10⁻⁶, moves a path of a thousand edges
//! by at most 5·10⁻⁴ — the matching found is exactly optimal for the
//! rounded weights and within that of optimal for the unrounded ones.
//! Probabilities at the clamp (`p` = 0.4999, `w` ≈ 4·10⁻⁴) still span
//! hundreds of steps, so no region meets everything at time zero.
//!
//! # Ties and ordering
//!
//! Among matchings of equal rounded weight, which one is found depends
//! on the order equal-time reports are served: by queue sequence
//! number, which follows from the order regions were created in —
//! ascending node id of the event — and adjacency order. Events are
//! sorted first (ids repeated an even number of times cancel, an odd
//! number count once), all working memory is epoch-stamped rather than
//! carried over, and nothing depends on addresses or hashes, so the
//! prediction is a pure function of the weights and the event *set*.
//!
//! Zero and one event are answered in closed form, the latter from a
//! per-node table of boundary paths filled by one Dijkstra per
//! (re)weight. An event with no path to another event or to the
//! boundary stays unmatched when the queue runs dry and decodes as
//! "boundary, mask 0".

use crate::decoder::{Kernel, KernelCounters};
use crate::graph::{Adjacency, DecodingGraph};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Grid steps per unit of matching weight, before the doubling that
/// keeps every weight even.
const WEIGHT_SCALE: f64 = (1u64 << 20) as f64;

/// "No node / region / tree node".
const NONE: u32 = u32::MAX;
/// [`Region::matched`] of a region matched to the boundary.
const TO_BOUNDARY: u32 = u32::MAX - 1;
/// [`Region::parent`] of a shattered blossom.
const SHATTERED: u32 = u32::MAX - 1;
/// "No such time".
const NEVER: i64 = i64::MAX;
/// Queue-target flag: the entry is a region's shrink report, not a
/// node's.
const REGION_TARGET: u32 = 1 << 31;

/// Matching weight → even grid units.
fn quantize(w: f64) -> u32 {
    // The probability clamp bounds w by ln(1e14) ≈ 32.2, far inside u32.
    (2.0 * (w * WEIGHT_SCALE).round()).clamp(2.0, f64::from(u32::MAX - 1)) as u32
}

/// Grid units → matching weight (test oracle hook).
#[doc(hidden)]
pub fn to_weight(units: i64) -> f64 {
    units as f64 / (2.0 * WEIGHT_SCALE)
}

/// One adjacency entry of the kernel's packed view.
#[derive(Debug, Clone, Copy)]
struct Adj {
    other: u32,
    weight: u32,
    obs: u64,
}

/// The exact minimum-weight perfect-matching [`Kernel`]: sparse blossom
/// on a packed integer copy of one basis graph's adjacency (see the
/// [module docs](self)).
#[derive(Debug, Clone)]
pub struct Blossom {
    /// Row starts over the real nodes plus the boundary.
    starts: Vec<u32>,
    /// `(neighbor, grid weight, observables)`, grouped by vertex in the
    /// graph's adjacency order.
    adj: Vec<Adj>,
    /// Per real node, the length and observable mask of its shortest
    /// path to the boundary (`NEVER` when there is none).
    to_boundary: Vec<(i64, u64)>,
}

impl Blossom {
    /// Maps `adjacency` to the packed view, taking each entry's grid
    /// weight and observable mask from its edge index.
    fn from_parts(adjacency: &Adjacency, weights: &[u32], observables: &[u64]) -> Self {
        let mut view = Blossom {
            starts: adjacency.starts.clone(),
            adj: adjacency
                .entries
                .iter()
                .map(|&(other, e)| Adj {
                    other,
                    weight: weights[e as usize],
                    obs: observables[e as usize],
                })
                .collect(),
            to_boundary: Vec::new(),
        };
        view.refresh_boundary_paths();
        view
    }

    /// The number of real nodes; also the boundary's vertex index.
    fn num_nodes(&self) -> usize {
        self.starts.len() - 2
    }

    /// The adjacency entries of vertex `v`.
    fn neighbors(&self, v: u32) -> &[Adj] {
        &self.adj[self.starts[v as usize] as usize..self.starts[v as usize + 1] as usize]
    }

    /// One Dijkstra from the boundary over the grid weights.
    fn refresh_boundary_paths(&mut self) {
        let n = self.num_nodes();
        let mut best = vec![(NEVER, 0u64); n + 1];
        // One push per improving relaxation, and each adjacency entry
        // relaxes at most once (from its settled source): the heap never
        // regrows, so a reweight allocates the same at any graph size.
        let mut heap = BinaryHeap::with_capacity(self.adj.len() + 1);
        best[n] = (0, 0);
        heap.push(Reverse((0i64, n as u32)));
        while let Some(Reverse((d, v))) = heap.pop() {
            let (dv, obs) = best[v as usize];
            if d > dv {
                continue;
            }
            for a in self.neighbors(v) {
                let nd = d + i64::from(a.weight);
                if nd < best[a.other as usize].0 {
                    best[a.other as usize] = (nd, obs ^ a.obs);
                    heap.push(Reverse((nd, a.other)));
                }
            }
        }
        best.truncate(n);
        self.to_boundary = best;
    }

    /// The grid weight of every edge of `graph`, in edge order, as a
    /// kernel built from it sees them (test oracle hook).
    #[doc(hidden)]
    pub fn edge_weights(graph: &DecodingGraph) -> Vec<i64> {
        graph
            .weights()
            .iter()
            .map(|&w| i64::from(quantize(w)))
            .collect()
    }

    /// Matches one basis's share of `events` and returns the predicted
    /// observable mask, the matching's total weight in grid units and
    /// how many events stayed unmatched (test oracle hook; the
    /// [`Kernel`] entry point returns the mask alone).
    #[doc(hidden)]
    pub fn decode_weighted(
        &self,
        graph: &DecodingGraph,
        events: &[u32],
        scratch: &mut DecodeScratch,
    ) -> (u64, i64, usize) {
        self.decode_events(
            events.iter().filter_map(|&d| graph.node_of_detector(d)),
            scratch,
        )
    }

    /// The kernel over an edge list of `(a, b, grid weight, observables)`
    /// on `num_nodes` real nodes, endpoint `num_nodes` being the boundary;
    /// grid weights are even and at least 2, as [`Blossom::edge_weights`]
    /// hands them out (test oracle hook).
    #[doc(hidden)]
    pub fn from_edges(num_nodes: usize, edges: &[(u32, u32, u32, u64)]) -> Self {
        let adjacency = Adjacency::build(
            num_nodes,
            edges.iter().map(|e| (e.0 as usize, e.1 as usize)),
        );
        let weights: Vec<u32> = edges.iter().map(|e| e.2).collect();
        let observables: Vec<u64> = edges.iter().map(|e| e.3).collect();
        Blossom::from_parts(&adjacency, &weights, &observables)
    }

    /// [`Blossom::decode_weighted`] on graph node ids, for a kernel
    /// built by [`Blossom::from_edges`] (test oracle hook).
    #[doc(hidden)]
    pub fn decode_node_ids(&self, nodes: &[u32], scratch: &mut DecodeScratch) -> (u64, i64, usize) {
        self.decode_events(nodes.iter().copied(), scratch)
    }

    /// Decodes `nodes`, keeping them as the events
    /// [`Blossom::certify`] checks.
    fn decode_events(
        &self,
        nodes: impl Iterator<Item = u32>,
        scratch: &mut DecodeScratch,
    ) -> (u64, i64, usize) {
        let mut events = std::mem::take(&mut scratch.events);
        events.clear();
        events.extend(nodes);
        let out = self.decode_nodes(&mut events, scratch);
        scratch.events = events;
        out
    }

    /// Checks the optimality certificate of the last
    /// [`Blossom::decode_weighted`] or [`Blossom::decode_node_ids`]
    /// through `scratch` and returns its
    /// dual objective, which a minimum-weight matching's weight equals
    /// (test oracle hook; see the [module docs](self)). Zero or one
    /// event is answered in closed form: `y` is the boundary distance.
    /// Meaningful only when that decode matched every event.
    #[doc(hidden)]
    pub fn certify(&self, scratch: &mut DecodeScratch) -> Result<i64, String> {
        let events = std::mem::take(&mut scratch.events);
        let verdict = match events[..] {
            [] => Ok(0),
            [v] => Ok(self.to_boundary[v as usize].0),
            _ => scratch.certify(self, &events),
        };
        scratch.events = events;
        verdict
    }

    /// [`Blossom::decode_weighted`] on graph node ids.
    fn decode_nodes(&self, nodes: &mut Vec<u32>, scratch: &mut DecodeScratch) -> (u64, i64, usize) {
        // Batch callers hand events ascending (and node ids follow
        // detector order), so this sort almost always short-circuits.
        if !nodes.is_sorted() {
            nodes.sort_unstable();
        }
        cancel_pairs(nodes);
        scratch.pairs.clear();
        match nodes[..] {
            [] => {
                scratch.counters.closed_form += 1;
                (0, 0, 0)
            }
            [v] => {
                scratch.counters.closed_form += 1;
                match self.to_boundary[v as usize] {
                    (NEVER, _) => (0, 0, 1),
                    (d, obs) => {
                        scratch.pairs.push((v, NONE));
                        (obs, d, 0)
                    }
                }
            }
            _ => {
                let out = scratch.run(self, nodes);
                if cfg!(debug_assertions) && out.2 == 0 {
                    let verdict = scratch.certify(self, nodes);
                    assert_eq!(verdict, Ok(out.1), "no certificate for {nodes:?}");
                }
                out
            }
        }
    }
}

/// Detection events are a set under XOR: of each run of equal ids in
/// sorted `nodes`, keeps one when the run is odd and none when even.
fn cancel_pairs(nodes: &mut Vec<u32>) {
    let mut kept = 0;
    let mut i = 0;
    while i < nodes.len() {
        let mut j = i + 1;
        while j < nodes.len() && nodes[j] == nodes[i] {
            j += 1;
        }
        if (j - i) % 2 == 1 {
            nodes[kept] = nodes[i];
            kept += 1;
        }
        i = j;
    }
    nodes.truncate(kept);
}

impl Kernel for Blossom {
    type Scratch = DecodeScratch;

    fn from_graph(graph: &DecodingGraph) -> Self {
        let weights: Vec<u32> = graph.weights().iter().map(|&w| quantize(w)).collect();
        let observables: Vec<u64> = graph.edges().iter().map(|e| e.observables).collect();
        Blossom::from_parts(graph.adjacency(), &weights, &observables)
    }

    fn reweighted(&mut self, graph: &DecodingGraph) {
        let weights = graph.weights();
        for (a, &(_, e)) in self.adj.iter_mut().zip(&graph.adjacency().entries) {
            a.weight = quantize(weights[e as usize]);
        }
        self.refresh_boundary_paths();
    }

    fn decode_basis(
        &self,
        graph: &DecodingGraph,
        events: &[u32],
        scratch: &mut DecodeScratch,
    ) -> u64 {
        self.decode_weighted(graph, events, scratch).0
    }

    fn take_counters(scratch: &mut DecodeScratch) -> KernelCounters {
        std::mem::take(&mut scratch.counters)
    }
}

/// A tight path between two detection events (or an event and the
/// boundary), compressed to what the matcher needs of it: where it
/// starts and ends, the observables it crosses and its length.
#[derive(Debug, Clone, Copy)]
struct Link {
    /// The event (graph node id) the path starts at.
    from: u32,
    /// The event it ends at; `NONE` for the boundary.
    to: u32,
    obs: u64,
    weight: i64,
}

impl Link {
    const NULL: Link = Link {
        from: NONE,
        to: NONE,
        obs: 0,
        weight: 0,
    };

    fn reversed(self) -> Link {
        Link {
            from: self.to,
            to: self.from,
            ..self
        }
    }
}

/// Per-node working state, valid when `stamp` is the current epoch.
#[derive(Clone, Copy)]
struct Node {
    stamp: u32,
    /// The region that reached this node (`NONE`: the node is empty).
    region: u32,
    /// That region's outermost enclosing blossom (itself if none).
    top: u32,
    /// The detection event the node was reached from.
    source: u32,
    /// The node that entered `region`'s shell just before this one.
    shell_prev: u32,
    /// How far the owning regions reach beyond this node — its *local
    /// radius* — less `top`'s own radius: the radii of the regions
    /// around `source` other than `top` (frozen while enclosed), minus
    /// `dist`. Constant while `top` stays the same.
    wrapped: i64,
    /// Distance from `source` along the path taken.
    dist: i64,
    /// Observables crossed from `source` along the path taken.
    obs: u64,
    /// Time of this node's live queue entry (`NEVER`: none).
    queued: i64,
}

const BLANK_NODE: Node = Node {
    stamp: 0,
    region: NONE,
    top: NONE,
    source: NONE,
    shell_prev: NONE,
    wrapped: 0,
    dist: 0,
    obs: 0,
    queued: NEVER,
};

/// A region of the graph: a detection event's ball, or a blossom — an
/// odd cycle of regions grown further as one.
#[derive(Clone, Copy)]
struct Region {
    /// The enclosing blossom (`NONE`: top-level; `SHATTERED`: gone).
    parent: u32,
    /// The alternating-tree node this top-level region belongs to.
    tree: u32,
    /// `radius(t) = y0 + slope·t`, slope +1 growing, 0 frozen, −1
    /// shrinking.
    y0: i64,
    slope: i64,
    /// The node that reached this region's shell last (a stack linked
    /// through [`Node::shell_prev`]; shrinking releases in reverse).
    shell: u32,
    /// Blossom children: `(start, len)` into [`DecodeScratch::cycles`];
    /// `len` 0 for an event's own region.
    cycle: (u32, u32),
    /// The region this one is matched to (`TO_BOUNDARY`, `NONE`).
    matched: u32,
    /// The tight path to the match, starting inside this region.
    match_link: Link,
    /// Time of this region's live shrink entry (`NEVER`: none).
    queued: i64,
}

/// A node of an alternating tree: a growing *outer* region and, except
/// at the root, the shrinking *inner* region that joins it to the
/// parent's outer region.
#[derive(Clone, Copy)]
struct TreeNode {
    inner: u32,
    outer: u32,
    /// From an event in `inner` to an event in `outer`.
    inner_to_outer: Link,
    parent: u32,
    /// From an event in `inner` to an event in the parent's `outer`.
    parent_link: Link,
    first_child: u32,
    next_sibling: u32,
    /// Scratch mark of ancestor searches and blossom formation.
    marked: bool,
}

/// Reusable working memory of the [`Blossom`] kernel: per-node state,
/// the region, tree-node and blossom-cycle arenas and the event queue.
/// Per-node state is *epoch-stamped* — every slot remembers the shot
/// that last initialised it and is reset on first touch — and the
/// arenas are cleared, not freed, so a warm shot touching `t` nodes
/// costs `O(t log t)` whatever the graph size and allocates nothing.
/// One scratch decodes any number of shots of any decoders; no shot's
/// result feeds the next (the last matching's pairs stay readable, the
/// telemetry counters accumulate until the shell drains them).
#[derive(Default)]
pub struct DecodeScratch {
    epoch: u32,
    now: i64,
    seq: u32,
    nodes: Vec<Node>,
    regions: Vec<Region>,
    trees: Vec<TreeNode>,
    /// Blossom cycles: `(child region, link to the next child)`.
    cycles: Vec<(u32, Link)>,
    queue: BinaryHeap<Reverse<(i64, u32, u32)>>,
    /// The shot's events mapped to graph nodes.
    events: Vec<u32>,
    /// The last matching: `(event, event)` per matched path, the second
    /// `NONE` for the boundary.
    pairs: Vec<(u32, u32)>,
    // Temporaries of single operations.
    area: Vec<u32>,
    walk: Vec<u32>,
    path: Vec<u32>,
    thawed: Vec<u32>,
    expand: Vec<(u32, u32)>,
    // The certificate's: summed radii up each region's chain, and a
    // cut-off Dijkstra's distances, touched nodes and heap.
    chain_y: Vec<i64>,
    reach: Vec<i64>,
    reached: Vec<u32>,
    frontier: BinaryHeap<Reverse<(i64, u32)>>,
    counters: KernelCounters,
}

impl DecodeScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The last decode's matching, one `(event, partner)` per matched
    /// path in graph node ids, `None` for the boundary (test oracle
    /// hook).
    #[doc(hidden)]
    pub fn matched_pairs(&self) -> impl Iterator<Item = (u32, Option<u32>)> + '_ {
        self.pairs
            .iter()
            .map(|&(a, b)| (a, (b != NONE).then_some(b)))
    }

    /// Starts a shot on `g`: a new epoch, empty arenas, time zero.
    fn begin(&mut self, g: &Blossom) {
        if self.nodes.len() < g.num_nodes() {
            self.nodes.resize(g.num_nodes(), BLANK_NODE);
        }
        // Epoch 0 marks "never touched"; on wrap restart from a clean
        // slate.
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            for n in &mut self.nodes {
                n.stamp = 0;
            }
            self.epoch = 1;
        }
        self.now = 0;
        self.seq = 0;
        self.regions.clear();
        self.trees.clear();
        self.cycles.clear();
        self.queue.clear();
    }

    /// Sparse blossom over `events` (sorted, distinct, at least two).
    fn run(&mut self, g: &Blossom, events: &[u32]) -> (u64, i64, usize) {
        self.begin(g);
        for (i, &v) in events.iter().enumerate() {
            let r = i as u32;
            self.regions.push(Region {
                parent: NONE,
                tree: r,
                y0: 0,
                slope: 1,
                shell: v,
                cycle: (0, 0),
                matched: NONE,
                match_link: Link::NULL,
                queued: NEVER,
            });
            self.trees.push(TreeNode {
                inner: NONE,
                outer: r,
                inner_to_outer: Link::NULL,
                parent: NONE,
                parent_link: Link::NULL,
                first_child: NONE,
                next_sibling: NONE,
                marked: false,
            });
            self.nodes[v as usize] = Node {
                stamp: self.epoch,
                region: r,
                top: r,
                source: v,
                ..BLANK_NODE
            };
        }
        self.counters.nodes_explored += events.len() as u64;
        for &v in events {
            self.reschedule(g, v);
        }
        while let Some(Reverse((t, _, target))) = self.queue.pop() {
            if target & REGION_TARGET != 0 {
                let r = target & !REGION_TARGET;
                if self.regions[r as usize].queued == t {
                    self.regions[r as usize].queued = NEVER;
                    self.now = t;
                    self.look_at_shrinking_region(g, r);
                }
            } else if self.nodes[target as usize].queued == t {
                self.nodes[target as usize].queued = NEVER;
                self.now = t;
                self.look_at_node(g, target);
            }
        }
        self.extract()
    }

    // ---- Flooding: regions over graph nodes ----

    /// Whether `x` is currently held by a region.
    fn occupied(&self, x: u32) -> bool {
        let n = &self.nodes[x as usize];
        n.stamp == self.epoch && n.region != NONE
    }

    fn radius(&self, r: u32) -> i64 {
        let reg = &self.regions[r as usize];
        reg.y0 + reg.slope * self.now
    }

    /// The earliest time something happens across one of `x`'s edges,
    /// judged from `x`'s side, and that edge's adjacency index: a
    /// growing node reaches an empty neighbor or the boundary, or two
    /// nodes of different regions whose radii are closing in on each
    /// other meet. A node that is not growing only reports growing
    /// neighbors running into it (so a region that stops shrinking, or
    /// a node a shrinking region gave up, is noticed by the neighbors
    /// that had written it off).
    fn next_event(&self, g: &Blossom, x: u32) -> (i64, usize) {
        let (a1, s1, top1) = if self.occupied(x) {
            let n = &self.nodes[x as usize];
            let top = &self.regions[n.top as usize];
            (top.y0 + n.wrapped, top.slope, n.top)
        } else {
            (0, 0, NONE)
        };
        let mut best = (NEVER, 0);
        if s1 < 0 {
            return best;
        }
        let boundary = g.num_nodes() as u32;
        let lo = g.starts[x as usize] as usize;
        for (i, a) in g.neighbors(x).iter().enumerate() {
            let gap = i64::from(a.weight) - a1;
            let t = if a.other == boundary || !self.occupied(a.other) {
                if s1 == 0 {
                    continue;
                }
                gap
            } else {
                let n2 = &self.nodes[a.other as usize];
                if n2.top == top1 {
                    continue;
                }
                let top2 = &self.regions[n2.top as usize];
                let gap = gap - (top2.y0 + n2.wrapped);
                match s1 + top2.slope {
                    2 => {
                        debug_assert_eq!(gap % 2, 0, "even weights keep event times integral");
                        gap / 2
                    }
                    1 => gap,
                    _ => continue,
                }
            };
            if t < best.0 {
                best = (t, lo + i);
            }
        }
        best
    }

    /// Puts `x` on the queue for time `t`, unless an entry at or before
    /// `t` is already there (it will look again and reschedule).
    fn schedule_node(&mut self, x: u32, t: i64) {
        let t = t.max(self.now);
        let n = &mut self.nodes[x as usize];
        if n.queued > t {
            n.queued = t;
            self.seq += 1;
            self.queue.push(Reverse((t, self.seq, x)));
        }
    }

    fn schedule_region(&mut self, r: u32, t: i64) {
        let t = t.max(self.now);
        let reg = &mut self.regions[r as usize];
        if reg.queued > t {
            reg.queued = t;
            self.seq += 1;
            self.queue.push(Reverse((t, self.seq, r | REGION_TARGET)));
        }
    }

    fn reschedule(&mut self, g: &Blossom, x: u32) {
        let (t, _) = self.next_event(g, x);
        if t != NEVER {
            self.schedule_node(x, t);
        }
    }

    /// Serves `x`'s queue entry: acts on its earliest event if that is
    /// due, and (re)queues the node for the next one.
    fn look_at_node(&mut self, g: &Blossom, x: u32) {
        let (t, i) = self.next_event(g, x);
        if t > self.now {
            if t != NEVER {
                self.schedule_node(x, t);
            }
            return;
        }
        // Due now. Look again right after: other edges may be due too.
        self.schedule_node(x, self.now);
        let a = g.adj[i];
        if a.other == g.num_nodes() as u32 {
            let n = self.nodes[x as usize];
            self.hit_boundary(
                g,
                n.top,
                Link {
                    from: n.source,
                    to: NONE,
                    obs: n.obs ^ a.obs,
                    weight: n.dist + i64::from(a.weight),
                },
            );
            return;
        }
        match (self.occupied(x), self.occupied(a.other)) {
            (true, true) => {
                let (n1, n2) = (self.nodes[x as usize], self.nodes[a.other as usize]);
                let link = Link {
                    from: n1.source,
                    to: n2.source,
                    obs: n1.obs ^ a.obs ^ n2.obs,
                    weight: n1.dist + i64::from(a.weight) + n2.dist,
                };
                self.hit_region(g, n1.top, n2.top, link);
            }
            (true, false) => self.arrive(g, x, a.other, a),
            (false, true) => self.arrive(g, a.other, x, a),
            (false, false) => {}
        }
    }

    /// The growing region holding `from` takes the empty node `to`
    /// across edge `a`.
    fn arrive(&mut self, g: &Blossom, from: u32, to: u32, a: Adj) {
        let f = self.nodes[from as usize];
        let w = i64::from(a.weight);
        let region = &mut self.regions[f.top as usize];
        let n = &mut self.nodes[to as usize];
        // A node given up earlier this shot may still have a live
        // queue entry; keep track of it.
        let queued = if n.stamp == self.epoch {
            n.queued
        } else {
            NEVER
        };
        *n = Node {
            stamp: self.epoch,
            region: f.top,
            top: f.top,
            source: f.source,
            shell_prev: region.shell,
            // The region's reach beyond `from` is exactly the edge now.
            wrapped: f.wrapped - w,
            dist: f.dist + w,
            obs: f.obs ^ a.obs,
            queued,
        };
        region.shell = to;
        self.counters.nodes_explored += 1;
        self.reschedule(g, to);
    }

    /// When shrinking region `r` next gives something up: its
    /// last-reached node, or — with none left — its last bit of radius.
    fn shrink_time(&self, r: u32) -> i64 {
        let reg = &self.regions[r as usize];
        match reg.shell {
            NONE => reg.y0,
            x => reg.y0 + self.nodes[x as usize].wrapped,
        }
    }

    /// Serves `r`'s shrink entry: releases its last-reached node, or
    /// with nothing left to release reports the region gone.
    fn look_at_shrinking_region(&mut self, g: &Blossom, r: u32) {
        let reg = self.regions[r as usize];
        if reg.slope >= 0 || reg.parent != NONE {
            return; // stopped shrinking since the entry was queued
        }
        let t = self.shrink_time(r);
        if t > self.now {
            self.schedule_region(r, t);
            return;
        }
        match reg.shell {
            NONE => self.shatter(g, r),
            x if reg.cycle.1 == 0 && self.nodes[x as usize].shell_prev == NONE => {
                // An event's own region is down to the event: its tree
                // parent and its tree child now touch through it.
                let t = self.trees[reg.tree as usize];
                let parent_outer = self.trees[t.parent as usize].outer;
                let link = Link {
                    from: t.parent_link.to,
                    to: t.inner_to_outer.to,
                    obs: t.parent_link.obs ^ t.inner_to_outer.obs,
                    weight: t.parent_link.weight + t.inner_to_outer.weight,
                };
                self.hit_region(g, parent_outer, t.outer, link);
            }
            x => {
                self.regions[r as usize].shell = self.nodes[x as usize].shell_prev;
                self.nodes[x as usize].region = NONE;
                let t = self.shrink_time(r);
                self.schedule_region(r, t);
                self.reschedule(g, x);
            }
        }
    }

    /// Appends every node held by `r` or a region nested in it to
    /// `self.area`.
    fn collect_area(&mut self, r: u32) {
        self.walk.clear();
        self.walk.push(r);
        while let Some(q) = self.walk.pop() {
            let reg = &self.regions[q as usize];
            let mut x = reg.shell;
            while x != NONE {
                self.area.push(x);
                x = self.nodes[x as usize].shell_prev;
            }
            let (start, len) = reg.cycle;
            for c in &self.cycles[start as usize..(start + len) as usize] {
                self.walk.push(c.0);
            }
        }
    }

    /// Reschedules every node held by `r` or a region nested in it.
    fn reschedule_area(&mut self, g: &Blossom, r: u32) {
        self.area.clear();
        self.collect_area(r);
        for i in 0..self.area.len() {
            self.reschedule(g, self.area[i]);
        }
    }

    /// Changes `r`'s growth rate from now on, keeping its radius.
    fn set_slope(&mut self, r: u32, slope: i64) {
        let radius = self.radius(r);
        let reg = &mut self.regions[r as usize];
        reg.y0 = radius - slope * self.now;
        reg.slope = slope;
    }

    fn set_growing(&mut self, g: &Blossom, r: u32) {
        self.set_slope(r, 1);
        self.reschedule_area(g, r);
    }

    fn set_shrinking(&mut self, r: u32) {
        self.set_slope(r, -1);
        let t = self.shrink_time(r);
        self.schedule_region(r, t);
    }

    // ---- Matching: alternating trees over top-level regions ----

    fn pair(&mut self, a: u32, b: u32, link: Link) {
        self.regions[a as usize].matched = b;
        self.regions[a as usize].match_link = link;
        self.regions[b as usize].matched = a;
        self.regions[b as usize].match_link = link.reversed();
    }

    /// Two regions of different top-level owners touched; `link` runs
    /// from an event in `r1` to an event in `r2`.
    fn hit_region(&mut self, g: &Blossom, r1: u32, r2: u32, link: Link) {
        self.counters.tree_collisions += 1;
        let (t1, t2) = (
            self.regions[r1 as usize].tree,
            self.regions[r2 as usize].tree,
        );
        match (t1 != NONE, t2 != NONE) {
            (true, true) => match self.common_ancestor(t1, t2) {
                Some(ancestor) => self.form_blossom(g, t1, t2, link, ancestor),
                None => {
                    // Two trees: the path root – r1 – r2 – root augments.
                    self.dissolve_tree(g, t1);
                    self.dissolve_tree(g, t2);
                    self.pair(r1, r2, link);
                }
            },
            (true, false) => self.tree_hits_match(g, r1, r2, link),
            (false, true) => self.tree_hits_match(g, r2, r1, link.reversed()),
            (false, false) => debug_assert!(false, "one side of a collision is growing, in a tree"),
        }
    }

    /// A growing region reached the boundary: its tree augments.
    fn hit_boundary(&mut self, g: &Blossom, r: u32, link: Link) {
        self.counters.tree_collisions += 1;
        let tree = self.regions[r as usize].tree;
        if tree == NONE {
            return;
        }
        self.dissolve_tree(g, tree);
        self.regions[r as usize].matched = TO_BOUNDARY;
        self.regions[r as usize].match_link = link;
    }

    /// Growing region `u` ran into `m`, which sits matched outside
    /// every tree; `link` runs from `u` to `m`.
    fn tree_hits_match(&mut self, g: &Blossom, u: u32, m: u32, link: Link) {
        let tree = self.regions[u as usize].tree;
        match self.regions[m as usize].matched {
            NONE => debug_assert!(false, "a top-level region outside every tree is matched"),
            TO_BOUNDARY => {
                // The boundary can spare `m`: augment through it.
                self.dissolve_tree(g, tree);
                self.pair(u, m, link);
            }
            partner => {
                // The tree takes the pair in: `m` inner, its partner
                // outer.
                let child = self.trees.len() as u32;
                self.trees.push(TreeNode {
                    inner: m,
                    outer: partner,
                    inner_to_outer: self.regions[m as usize].match_link,
                    parent: tree,
                    parent_link: link.reversed(),
                    first_child: NONE,
                    next_sibling: self.trees[tree as usize].first_child,
                    marked: false,
                });
                self.trees[tree as usize].first_child = child;
                for r in [m, partner] {
                    self.regions[r as usize].matched = NONE;
                    self.regions[r as usize].tree = child;
                }
                self.set_shrinking(m);
                self.set_growing(g, partner);
            }
        }
    }

    /// The deepest tree node that is an ancestor of (or is) both `t1`
    /// and `t2`; `None` when they are in different trees.
    fn common_ancestor(&mut self, t1: u32, t2: u32) -> Option<u32> {
        let mut c = t1;
        while c != NONE {
            self.trees[c as usize].marked = true;
            c = self.trees[c as usize].parent;
        }
        let mut found = None;
        let mut c = t2;
        while c != NONE {
            if self.trees[c as usize].marked {
                found = Some(c);
                break;
            }
            c = self.trees[c as usize].parent;
        }
        let mut c = t1;
        while c != NONE {
            self.trees[c as usize].marked = false;
            c = self.trees[c as usize].parent;
        }
        found
    }

    /// Ends the tree holding node `t` by augmenting along the path from
    /// `t` to its root: every region is frozen and leaves the tree;
    /// inner regions on the path pair with their parent's outer region,
    /// every other inner region with its own outer region. `t`'s outer
    /// region is left for the caller to match.
    fn dissolve_tree(&mut self, g: &Blossom, t: u32) {
        let mut root = t;
        while self.trees[root as usize].parent != NONE {
            root = self.trees[root as usize].parent;
        }
        self.thawed.clear();
        self.path.clear();
        self.path.push(root);
        while let Some(m) = self.path.pop() {
            let node = self.trees[m as usize];
            let mut c = node.first_child;
            while c != NONE {
                self.path.push(c);
                c = self.trees[c as usize].next_sibling;
            }
            if node.inner != NONE {
                self.pair(node.inner, node.outer, node.inner_to_outer);
                self.set_slope(node.inner, 0);
                self.regions[node.inner as usize].tree = NONE;
                self.thawed.push(node.inner);
            }
            self.set_slope(node.outer, 0);
            self.regions[node.outer as usize].tree = NONE;
        }
        let mut c = t;
        while self.trees[c as usize].parent != NONE {
            let node = self.trees[c as usize];
            let parent_outer = self.trees[node.parent as usize].outer;
            self.pair(node.inner, parent_outer, node.parent_link);
            c = node.parent;
        }
        // Regions that stopped shrinking can be run into again.
        for i in 0..self.thawed.len() {
            self.reschedule_area(g, self.thawed[i]);
        }
    }

    /// Growing regions of tree nodes `t1` and `t2`, with common
    /// ancestor `ancestor`, touched along `link`: the odd cycle of
    /// regions through the ancestor becomes one growing blossom, which
    /// takes the ancestor's place in the tree.
    fn form_blossom(&mut self, g: &Blossom, t1: u32, t2: u32, link: Link, ancestor: u32) {
        self.counters.blossoms_formed += 1;
        // path[..k]: t1 up to the ancestor's child; path[k..]: same
        // from t2.
        self.path.clear();
        let mut c = t1;
        while c != ancestor {
            self.path.push(c);
            c = self.trees[c as usize].parent;
        }
        let k = self.path.len();
        let mut c = t2;
        while c != ancestor {
            self.path.push(c);
            c = self.trees[c as usize].parent;
        }

        // The cycle: ancestor's outer region, down to t1's, across the
        // link to t2's, back up.
        let start = self.cycles.len();
        let first = match k {
            0 => link,
            _ => self.trees[self.path[k - 1] as usize].parent_link.reversed(),
        };
        self.cycles
            .push((self.trees[ancestor as usize].outer, first));
        for i in (0..k).rev() {
            let node = self.trees[self.path[i] as usize];
            self.cycles.push((node.inner, node.inner_to_outer));
            let next = match i {
                0 => link,
                _ => self.trees[self.path[i - 1] as usize].parent_link.reversed(),
            };
            self.cycles.push((node.outer, next));
        }
        for i in k..self.path.len() {
            let node = self.trees[self.path[i] as usize];
            self.cycles
                .push((node.outer, node.inner_to_outer.reversed()));
            self.cycles.push((node.inner, node.parent_link));
        }
        let len = self.cycles.len() - start;
        debug_assert_eq!(len % 2, 1, "a blossom is an odd cycle");

        // Tree children hanging off the cycle now hang off the blossom
        // (their links end at events, which are still where they were).
        for i in 0..self.path.len() {
            self.trees[self.path[i] as usize].marked = true;
        }
        let mut adopted = NONE;
        for i in 0..=self.path.len() {
            let from = if i == self.path.len() {
                ancestor
            } else {
                self.path[i]
            };
            let mut c = self.trees[from as usize].first_child;
            while c != NONE {
                let child = &mut self.trees[c as usize];
                let next = child.next_sibling;
                if !child.marked {
                    child.parent = ancestor;
                    child.next_sibling = adopted;
                    adopted = c;
                }
                c = next;
            }
        }
        let blossom = self.regions.len() as u32;
        self.trees[ancestor as usize].first_child = adopted;
        self.trees[ancestor as usize].outer = blossom;

        self.regions.push(Region {
            parent: NONE,
            tree: ancestor,
            y0: -self.now,
            slope: 1,
            shell: NONE,
            cycle: (start as u32, len as u32),
            matched: NONE,
            match_link: Link::NULL,
            queued: NEVER,
        });
        self.area.clear();
        for i in start..start + len {
            let c = self.cycles[i].0;
            self.set_slope(c, 0);
            let radius = self.regions[c as usize].y0;
            self.regions[c as usize].parent = blossom;
            self.regions[c as usize].tree = NONE;
            let seen = self.area.len();
            self.collect_area(c);
            for &x in &self.area[seen..] {
                let n = &mut self.nodes[x as usize];
                n.top = blossom;
                n.wrapped += radius;
            }
        }
        for i in 0..self.area.len() {
            self.reschedule(g, self.area[i]);
        }
    }

    /// The position in blossom `b`'s cycle of the child that contains
    /// detection event `event`.
    fn cycle_index_holding(&self, b: u32, event: u32) -> usize {
        let mut c = self.nodes[event as usize].region;
        while self.regions[c as usize].parent != b {
            c = self.regions[c as usize].parent;
        }
        let (start, len) = self.regions[b as usize].cycle;
        let cycle = &self.cycles[start as usize..(start + len) as usize];
        cycle.iter().position(|entry| entry.0 == c).unwrap_or(0)
    }

    /// Inner blossom `b` shrank to nothing: its cycle comes apart. The
    /// even-length side between the child the tree parent attaches to
    /// and the child the tree child attaches to stays in the tree,
    /// alternating inner/outer; the regions of the odd side pair up
    /// along the cycle and leave it.
    fn shatter(&mut self, g: &Blossom, b: u32) {
        self.counters.blossoms_shattered += 1;
        let t = self.regions[b as usize].tree;
        let node = self.trees[t as usize];
        let (start, len) = self.regions[b as usize].cycle;
        let (start, len) = (start as usize, len as usize);
        let ip = self.cycle_index_holding(b, node.parent_link.from);
        let ic = self.cycle_index_holding(b, node.inner_to_outer.from);

        self.regions[b as usize].parent = SHATTERED;
        self.regions[b as usize].tree = NONE;
        for i in start..start + len {
            let c = self.cycles[i].0;
            self.regions[c as usize].parent = NONE;
            let radius = self.regions[c as usize].y0;
            self.area.clear();
            self.collect_area(c);
            for &x in &self.area {
                let n = &mut self.nodes[x as usize];
                n.top = c;
                n.wrapped -= radius;
            }
        }

        // Walk the even side from the parent's child to the tree
        // child's: forward along the cycle when that takes an even
        // number of steps, backward otherwise.
        let ahead = (ic + len - ip) % len;
        let forward = ahead.is_multiple_of(2);
        let steps = if forward { ahead } else { len - ahead };
        let at = |j: usize| {
            if forward {
                (ip + j) % len
            } else {
                (ip + len - j) % len
            }
        };
        let region_at = |s: &Self, j: usize| s.cycles[start + at(j)].0;
        let link_from = |s: &Self, j: usize| {
            if forward {
                s.cycles[start + at(j)].1
            } else {
                s.cycles[start + at(j + 1)].1.reversed()
            }
        };
        let mut parent = node.parent;
        let mut parent_link = node.parent_link;
        for h in 0..steps / 2 {
            let fresh = self.trees.len() as u32;
            let (inner, outer) = (region_at(self, 2 * h), region_at(self, 2 * h + 1));
            self.trees.push(TreeNode {
                inner,
                outer,
                inner_to_outer: link_from(self, 2 * h),
                parent,
                parent_link,
                first_child: t,
                next_sibling: NONE,
                marked: false,
            });
            if h == 0 {
                // Takes `t`'s place among the parent's children.
                self.trees[fresh as usize].next_sibling = node.next_sibling;
                let siblings = &mut self.trees[parent as usize].first_child;
                if *siblings == t {
                    *siblings = fresh;
                } else {
                    let mut c = *siblings;
                    while self.trees[c as usize].next_sibling != t {
                        c = self.trees[c as usize].next_sibling;
                    }
                    self.trees[c as usize].next_sibling = fresh;
                }
            } else {
                self.trees[parent as usize].first_child = fresh;
            }
            self.regions[inner as usize].tree = fresh;
            self.regions[outer as usize].tree = fresh;
            parent = fresh;
            parent_link = link_from(self, 2 * h + 1).reversed();
        }
        let last = region_at(self, steps);
        {
            let kept = &mut self.trees[t as usize];
            kept.inner = last;
            kept.parent = parent;
            kept.parent_link = parent_link;
            if steps > 0 {
                kept.next_sibling = NONE;
            }
        }
        self.regions[last as usize].tree = t;

        // The odd side: pairs along the cycle, out of the tree.
        let first_free = if forward { ic + 1 } else { ip + 1 };
        let pairs = (len - steps - 1) / 2;
        for q in 0..pairs {
            let i = (first_free + 2 * q) % len;
            let (a, link) = self.cycles[start + i];
            let b2 = self.cycles[start + (i + 1) % len].0;
            self.pair(a, b2, link);
        }

        // New rates: inner regions first, so no growing region is
        // scheduled against a neighbor about to recede.
        for j in (0..=steps).step_by(2) {
            let r = region_at(self, j);
            self.set_shrinking(r);
        }
        for j in (1..steps).step_by(2) {
            let r = region_at(self, j);
            self.set_growing(g, r);
        }
        // The pairs stopped shrinking (as part of `b`): they can be
        // run into again.
        for q in 0..2 * pairs {
            let r = self.cycles[start + (first_free + q) % len].0;
            self.reschedule_area(g, r);
        }
    }

    // ---- Reading the matching off ----

    /// XORs up the observable masks and sums the lengths of every
    /// matched path — between top-level regions, and inside each
    /// blossom around the child its match enters through — records
    /// each path's two ends in `self.pairs`, and counts the events left
    /// unmatched.
    fn extract(&mut self) -> (u64, i64, usize) {
        let (mut obs, mut weight, mut unmatched) = (0u64, 0i64, 0usize);
        self.expand.clear();
        for r in 0..self.regions.len() as u32 {
            let reg = &self.regions[r as usize];
            if reg.parent != NONE {
                continue;
            }
            match reg.matched {
                NONE => {
                    unmatched += 1;
                    self.expand.push((r, NONE));
                    continue;
                }
                TO_BOUNDARY => {}
                partner if partner < r => {
                    self.expand.push((r, reg.match_link.from));
                    continue;
                }
                _ => {}
            }
            obs ^= reg.match_link.obs;
            weight += reg.match_link.weight;
            self.pairs.push((reg.match_link.from, reg.match_link.to));
            self.expand.push((r, reg.match_link.from));
        }
        // (blossom, the event in it that is matched outward — `NONE`
        // for an unmatched blossom, which leaves its first child out).
        while let Some((r, event)) = self.expand.pop() {
            let (start, len) = self.regions[r as usize].cycle;
            let (start, len) = (start as usize, len as usize);
            if len == 0 {
                continue;
            }
            let out = match event {
                NONE => 0,
                e => self.cycle_index_holding(r, e),
            };
            self.expand.push((self.cycles[start + out].0, event));
            for q in 0..(len - 1) / 2 {
                let i = (out + 1 + 2 * q) % len;
                let (a, link) = self.cycles[start + i];
                let b = self.cycles[start + (i + 1) % len].0;
                obs ^= link.obs;
                weight += link.weight;
                self.pairs.push((link.from, link.to));
                self.expand.push((a, link.from));
                self.expand.push((b, link.to));
            }
        }
        (obs, weight, unmatched)
    }

    // ---- Certifying the matching optimal ----

    /// Checks that the radii the last run over `events` ended with are
    /// a feasible dual of the matching LP over those events, and
    /// returns the dual objective, `Σ y` (no matching of the events
    /// weighs less; see the module docs). The LP's sets with a variable
    /// here are the live regions — an event's own, a blossom — with
    /// their radii as `y`:
    ///
    /// * every live region has `y ≥ 0`, and a blossom is an odd cycle
    ///   (of regions that are odd sets themselves);
    /// * the *chain* of each event — its own region and every blossom
    ///   around it — sums to at most its distance to the boundary;
    /// * the regions holding exactly one of two events sum to at most
    ///   the distance between them.
    ///
    /// Distances come from one Dijkstra per event over the grid weights,
    /// cut off at twice the event's chain sum: a violated pair is closer
    /// than its two chain sums added, so the event with the larger one
    /// reaches the other.
    fn certify(&mut self, g: &Blossom, events: &[u32]) -> Result<i64, String> {
        self.chain_y.clear();
        self.chain_y.resize(self.regions.len(), 0);
        let mut dual = 0;
        // A blossom is created after its children: parents come later.
        for r in (0..self.regions.len()).rev() {
            let reg = self.regions[r];
            if reg.parent == SHATTERED {
                continue;
            }
            let y = reg.y0 + reg.slope * self.now;
            if y < 0 || (reg.cycle.1 > 0 && reg.cycle.1.is_multiple_of(2)) {
                return Err(format!("region {r}: y = {y}, cycle of {}", reg.cycle.1));
            }
            dual += y;
            self.chain_y[r] = y + match reg.parent {
                NONE => 0,
                p => self.chain_y[p as usize],
            };
        }
        if self.reach.len() < g.num_nodes() {
            self.reach.resize(g.num_nodes(), NEVER);
        }
        for (r, &a) in events.iter().enumerate() {
            let (chain, boundary) = (self.chain_y[r], g.to_boundary[a as usize].0);
            if chain > boundary {
                return Err(format!(
                    "event {a}: chain y {chain} > boundary distance {boundary}"
                ));
            }
            let verdict = self.check_pairs_from(g, r as u32, a);
            for &x in &self.reached {
                self.reach[x as usize] = NEVER;
            }
            self.reached.clear();
            self.frontier.clear();
            verdict?;
        }
        Ok(dual)
    }

    /// The cut-off Dijkstra from event `a`, whose own region is `ra`:
    /// checks the pair constraint of every event it settles.
    fn check_pairs_from(&mut self, g: &Blossom, ra: u32, a: u32) -> Result<(), String> {
        let limit = 2 * self.chain_y[ra as usize];
        let boundary = g.num_nodes() as u32;
        self.reach[a as usize] = 0;
        self.reached.push(a);
        self.frontier.push(Reverse((0, a)));
        while let Some(Reverse((d, v))) = self.frontier.pop() {
            if d > self.reach[v as usize] {
                continue;
            }
            let n = self.nodes[v as usize];
            // Of this shot's nodes, only an event is its own source.
            if v != a && n.stamp == self.epoch && n.source == v {
                let apart = self.separation(ra, n.region);
                if apart > d {
                    return Err(format!(
                        "events {a} and {v}: separating y {apart} > distance {d}"
                    ));
                }
            }
            for x in g.neighbors(v) {
                let nd = d + i64::from(x.weight);
                if x.other != boundary && nd < limit && nd < self.reach[x.other as usize] {
                    if self.reach[x.other as usize] == NEVER {
                        self.reached.push(x.other);
                    }
                    self.reach[x.other as usize] = nd;
                    self.frontier.push(Reverse((nd, x.other)));
                }
            }
        }
        Ok(())
    }

    /// The summed radii of the regions holding exactly one of the
    /// events whose own regions are `ra` and `rb`: both chains, less
    /// twice the part they share.
    fn separation(&self, ra: u32, rb: u32) -> i64 {
        // Parents have larger ids: climbing from the smaller side meets
        // the lowest shared region, or `NONE` above both tops.
        let (mut x, mut y) = (ra, rb);
        while x != y {
            if x < y {
                x = self.regions[x as usize].parent;
            } else {
                y = self.regions[y as usize].parent;
            }
        }
        let shared = if x == NONE {
            0
        } else {
            self.chain_y[x as usize]
        };
        self.chain_y[ra as usize] + self.chain_y[rb as usize] - 2 * shared
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `(a, b, grid weight, observables)`; `b == n` is the boundary.
    type Edge = (usize, usize, u32, u64);

    /// The kernel's view of a graph given as an edge list.
    fn view(n: usize, edges: &[Edge]) -> Blossom {
        let edges: Vec<_> = edges
            .iter()
            .map(|&(a, b, w, obs)| (a as u32, b as u32, w, obs))
            .collect();
        Blossom::from_edges(n, &edges)
    }

    const INF: i64 = i64::MAX / 4;

    /// Floyd–Warshall over the `n` nodes plus the boundary: shortest
    /// distance and the observable parity along it.
    fn floyd_warshall(n: usize, edges: &[Edge]) -> Vec<Vec<(i64, u64)>> {
        let t = n + 1;
        let mut d = vec![vec![(INF, 0u64); t]; t];
        for (v, row) in d.iter_mut().enumerate() {
            row[v] = (0, 0);
        }
        for &(a, b, w, obs) in edges {
            if i64::from(w) < d[a][b].0 {
                d[a][b] = (i64::from(w), obs);
                d[b][a] = (i64::from(w), obs);
            }
        }
        for k in 0..t {
            for i in 0..t {
                for j in 0..t {
                    let via = d[i][k].0 + d[k][j].0;
                    if via < d[i][j].0 {
                        d[i][j] = (via, d[i][k].1 ^ d[k][j].1);
                    }
                }
            }
        }
        d
    }

    /// The exact optimum of every event subset of the `n` nodes (bit
    /// `v` of the index = node `v` is an event), by exhaustive
    /// recursion over what the lowest event does — go to the boundary
    /// or pair with any other event: `(weight, mask, tie)`, `tie` set
    /// when optima of equal weight carry different masks.
    fn optima(n: usize, d: &[Vec<(i64, u64)>]) -> Vec<(i64, u64, bool)> {
        let mut best = vec![(0i64, 0u64, false); 1 << n];
        for set in 1usize..1 << n {
            let i = set.trailing_zeros() as usize;
            let rest = set & (set - 1);
            let mut options = vec![(d[i][n], rest)];
            options.extend(
                (i + 1..n)
                    .filter(|&j| rest >> j & 1 == 1)
                    .map(|j| (d[i][j], rest & !(1 << j))),
            );
            let mut found = (INF, 0, false);
            for ((w, obs), sub) in options {
                let (sw, sobs, stie) = best[sub];
                let (w, obs) = ((w + sw).min(INF), obs ^ sobs);
                if w < found.0 {
                    found = (w, obs, stie);
                } else if w == found.0 && (obs != found.1 || stie) {
                    found.2 = true;
                }
            }
            best[set] = found;
        }
        best
    }

    /// A connected random graph on `n` nodes: a random spanning tree,
    /// triangles on purpose, a few extra chords, one to three boundary
    /// edges; generic weights so optima are unique.
    fn random_graph(rng: &mut StdRng, n: usize) -> Vec<Edge> {
        let mut edges: Vec<Edge> = Vec::new();
        let mut has = std::collections::BTreeSet::new();
        let mut add = |rng: &mut StdRng, a: usize, b: usize, edges: &mut Vec<Edge>| {
            let key = (a.min(b), a.max(b));
            if a != b && has.insert(key) {
                let w = 2 * rng.gen_range(1..1_000_000u32);
                edges.push((key.0, key.1, w, rng.gen_range(0..8u64)));
            }
        };
        for v in 1..n {
            let u = rng.gen_range(0..v);
            add(rng, u, v, &mut edges);
        }
        for _ in 0..rng.gen_range(1..=n / 2) {
            let (a, b, c) = (
                rng.gen_range(0..n),
                rng.gen_range(0..n),
                rng.gen_range(0..n),
            );
            add(rng, a, b, &mut edges);
            add(rng, b, c, &mut edges);
            add(rng, c, a, &mut edges);
        }
        for _ in 0..rng.gen_range(0..n) {
            let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
            add(rng, a, b, &mut edges);
        }
        for _ in 0..rng.gen_range(1..=3) {
            let a = rng.gen_range(0..n);
            add(rng, a, n, &mut edges);
        }
        edges
    }

    #[test]
    fn random_graphs_match_brute_force_through_blossoms() {
        let mut rng = StdRng::seed_from_u64(0xb1055);
        let mut scratch = DecodeScratch::new();
        let (mut decoded, mut ties) = (0u64, 0u64);
        for _ in 0..120 {
            let n = rng.gen_range(4..=12usize);
            let edges = random_graph(&mut rng, n);
            let g = view(n, &edges);
            let best = optima(n, &floyd_warshall(n, &edges));
            for (set, &(want_weight, want_obs, tie)) in best.iter().enumerate().skip(1) {
                if set.count_ones() > 10 {
                    continue;
                }
                let mut nodes: Vec<u32> = (0..n as u32).filter(|v| set >> v & 1 == 1).collect();
                let (obs, weight, unmatched) = g.decode_nodes(&mut nodes, &mut scratch);
                assert_eq!(unmatched, 0, "n={n} set={set:#b} edges={edges:?}");
                assert_eq!(weight, want_weight, "n={n} set={set:#b} edges={edges:?}");
                decoded += 1;
                if tie {
                    ties += 1;
                } else {
                    assert_eq!(obs, want_obs, "n={n} set={set:#b} edges={edges:?}");
                }
            }
        }
        // Generic weights: ties must be freak events, and the traffic
        // must have gone through the parts real decoding rarely visits.
        let counters = std::mem::take(&mut scratch.counters);
        eprintln!("{decoded} syndromes, {ties} ties, {counters:?}");
        assert!(ties * 1000 < decoded, "{ties} ties in {decoded}");
        assert!(counters.blossoms_formed >= 100, "{counters:?}");
        assert!(counters.blossoms_shattered >= 100, "{counters:?}");
    }

    #[test]
    fn unreachable_events_drain_the_queue_and_decode_as_boundary_mask_zero() {
        // Nodes 0-1-2: a triangle with no way to the boundary; node 3:
        // no edge at all; nodes 4-5: a chain to the boundary.
        let edges: Vec<Edge> = vec![
            (0, 1, 10, 1),
            (1, 2, 14, 2),
            (0, 2, 20, 4),
            (4, 5, 8, 8),
            (5, 6, 6, 16),
        ];
        let g = view(6, &edges);
        let mut s = DecodeScratch::new();
        let mut decode = |nodes: &[u32]| g.decode_nodes(&mut nodes.to_vec(), &mut s);
        // Closed form: one event, no boundary path.
        assert_eq!(decode(&[3]), (0, 0, 1));
        assert_eq!(decode(&[1]), (0, 0, 1));
        // An odd set in the boundary-less component: the cheapest pair
        // matches, the third event is left over once its region has
        // taken the whole component.
        assert_eq!(decode(&[0, 1, 2]), (1, 10, 1));
        // The leftover does not disturb what can be matched.
        assert_eq!(decode(&[3, 4]), (8 ^ 16, 14, 1));
        assert_eq!(decode(&[0, 2, 3, 4, 5]), (4 ^ 8, 28, 1));
        // An even set matches inside the component.
        assert_eq!(decode(&[0, 2]), (4, 20, 0));
    }

    #[test]
    fn boundary_less_graphs_leave_the_cheapest_event_out() {
        // No boundary edge at all: an even set matches perfectly, an
        // odd set leaves exactly one event unmatched — the one whose
        // absence makes the rest cheapest.
        let mut rng = StdRng::seed_from_u64(0x0dd);
        let mut scratch = DecodeScratch::new();
        for _ in 0..30 {
            let n = rng.gen_range(3..=9usize);
            let mut edges = random_graph(&mut rng, n);
            edges.retain(|e| e.1 != n);
            let g = view(n, &edges);
            let best = optima(n, &floyd_warshall(n, &edges));
            for set in 1usize..1 << n {
                let mut nodes: Vec<u32> = (0..n as u32).filter(|v| set >> v & 1 == 1).collect();
                let (obs, weight, unmatched) = g.decode_nodes(&mut nodes, &mut scratch);
                let want = if set.count_ones() % 2 == 0 {
                    best[set]
                } else {
                    let rest = (0..n)
                        .filter(|v| set >> v & 1 == 1)
                        .map(|v| best[set & !(1 << v)]);
                    let least = rest.clone().map(|b| b.0).min().unwrap_or(0);
                    let mut at_least = rest.filter(|b| b.0 == least);
                    let first = at_least.next().unwrap_or((0, 0, false));
                    (least, first.1, first.2 || at_least.any(|b| b.1 != first.1))
                };
                assert_eq!(
                    (weight, unmatched),
                    (want.0, set.count_ones() as usize % 2),
                    "n={n} set={set:#b} edges={edges:?}"
                );
                assert!(
                    want.2 || obs == want.1,
                    "n={n} set={set:#b} edges={edges:?}"
                );
            }
        }
    }

    #[test]
    fn repeated_events_cancel_in_pairs() {
        let edges: Vec<Edge> = vec![(0, 1, 10, 1), (1, 2, 14, 2), (2, 3, 6, 4), (0, 3, 30, 8)];
        let g = view(3, &edges);
        let mut s = DecodeScratch::new();
        let mut decode = |nodes: &[u32]| g.decode_nodes(&mut nodes.to_vec(), &mut s);
        assert_eq!(decode(&[1, 1]), decode(&[]));
        assert_eq!(decode(&[2, 0, 2]), decode(&[0]));
        assert_eq!(decode(&[1, 1, 1]), decode(&[1]));
        assert_eq!(decode(&[0, 1, 2, 1, 0, 0]), decode(&[0, 2]));
        let mut nodes = vec![0, 0, 1, 2, 2, 2, 5, 5, 5, 5];
        cancel_pairs(&mut nodes);
        assert_eq!(nodes, vec![1, 2]);
    }

    #[test]
    fn weights_at_the_probability_clamp_stay_on_the_grid() {
        use crate::graph::weight_of;
        // p at the ceiling clamp: w ≈ 4e-4, hundreds of grid steps.
        let light = quantize(weight_of(0.4999));
        assert!(light >= 400 && light.is_multiple_of(2), "{light}");
        assert!(
            quantize(weight_of(0.5)) == light,
            "clamped above the ceiling"
        );
        assert_eq!(quantize(0.0), 2, "weights never quantize below one step");
        assert!(quantize(weight_of(1e-14)) > quantize(weight_of(1e-3)));
        assert_eq!(to_weight(i64::from(quantize(1.0))), 1.0);

        // A graph made of such edges still decodes by distance: no
        // region meets everything at time zero.
        let edges: Vec<Edge> = (0..6)
            .map(|v| (v, v + 1, light, 1 << v))
            .chain([(0, 6, light, 1 << 6)])
            .collect();
        let g = view(6, &edges);
        let best = optima(6, &floyd_warshall(6, &edges));
        let mut s = DecodeScratch::new();
        for (set, &(want_weight, want_obs, tie)) in best.iter().enumerate().skip(1) {
            let mut nodes: Vec<u32> = (0..6).filter(|v| set >> v & 1 == 1).collect();
            let (obs, weight, unmatched) = g.decode_nodes(&mut nodes, &mut s);
            assert_eq!((weight, unmatched), (want_weight, 0), "set {set:#b}");
            assert!(tie || obs == want_obs, "set {set:#b}");
        }
    }

    #[test]
    fn warm_scratch_decodes_like_a_cold_one_across_graphs() {
        // One scratch carried across graphs of different sizes and
        // thousands of shots must behave like a fresh one per shot.
        let mut rng = StdRng::seed_from_u64(0x5c4a7c);
        let mut warm = DecodeScratch::new();
        for _ in 0..20 {
            let n = rng.gen_range(4..=12usize);
            let edges = random_graph(&mut rng, n);
            let g = view(n, &edges);
            for _ in 0..100 {
                let nodes: Vec<u32> = (0..n as u32).filter(|_| rng.gen_bool(0.5)).collect();
                assert_eq!(
                    g.decode_nodes(&mut nodes.clone(), &mut warm),
                    g.decode_nodes(&mut nodes.clone(), &mut DecodeScratch::new()),
                );
            }
        }
    }

    /// The complete graph on `n` nodes without a boundary edge, weights
    /// `2·(1..=spread)`.
    fn complete_graph(rng: &mut StdRng, n: usize, spread: u32) -> Vec<Edge> {
        let mut edges = Vec::new();
        for a in 0..n {
            for b in a + 1..n {
                edges.push((a, b, 2 * rng.gen_range(1..=spread), rng.gen_range(0..8u64)));
            }
        }
        edges
    }

    /// A decode's `(mask, weight, unmatched)` and its matched pairs.
    type Decoded = ((u64, i64, usize), Vec<(u32, Option<u32>)>);

    /// Decodes every node of `g` as an event and checks the certificate;
    /// returns the result and the sorted `(lower, higher)` node pairs.
    fn decode_every_node(g: &Blossom, scratch: &mut DecodeScratch) -> Decoded {
        let mut nodes: Vec<u32> = (0..g.num_nodes() as u32).collect();
        let out = g.decode_nodes(&mut nodes, scratch);
        if nodes.len() > 1 {
            assert_eq!(scratch.certify(g, &nodes), Ok(out.1));
        }
        let mut pairs: Vec<_> = scratch
            .matched_pairs()
            .map(|(a, b)| match b {
                Some(b) if b < a => (b, Some(a)),
                _ => (a, b),
            })
            .collect();
        pairs.sort_unstable();
        (out, pairs)
    }

    /// Nodes 0, 1, 2: a cheap triangle, each with a dearer spoke out to
    /// one of 3, 4, 5, which sit far apart. The triangle's regions meet
    /// first and form a blossom, yet the optimum takes all three spokes.
    fn triangle_with_spokes() -> Vec<Edge> {
        let mut edges: Vec<Edge> = Vec::new();
        for a in 0..6 {
            for b in a + 1..6 {
                let w = match (a, b) {
                    (0..=2, 0..=2) => 2,
                    (0, 3) | (1, 4) | (2, 5) => 4,
                    (3..=5, 3..=5) => 100,
                    _ => 200,
                };
                edges.push((a, b, w, 1 << edges.len()));
            }
        }
        edges
    }

    #[test]
    fn empty_graph() {
        let g = view(0, &[]);
        assert_eq!(
            decode_every_node(&g, &mut DecodeScratch::new()),
            ((0, 0, 0), vec![])
        );
    }

    #[test]
    fn two_vertices() {
        let g = view(2, &[(0, 1, 14, 5)]);
        assert_eq!(
            decode_every_node(&g, &mut DecodeScratch::new()),
            ((5, 14, 0), vec![(0, Some(1))])
        );
    }

    #[test]
    fn four_vertices_prefers_cheap_pairs() {
        let edges: Vec<Edge> = vec![
            (0, 1, 2, 1),
            (2, 3, 4, 2),
            (0, 2, 8, 4),
            (0, 3, 8, 8),
            (1, 2, 8, 16),
            (1, 3, 8, 32),
        ];
        assert_eq!(
            decode_every_node(&view(4, &edges), &mut DecodeScratch::new()),
            ((1 ^ 2, 6, 0), vec![(0, Some(1)), (2, Some(3))])
        );
    }

    #[test]
    fn forced_odd_cycle_structure() {
        let edges = triangle_with_spokes();
        let mut scratch = DecodeScratch::new();
        let ((obs, weight, unmatched), pairs) = decode_every_node(&view(6, &edges), &mut scratch);
        assert_eq!(
            optima(6, &floyd_warshall(6, &edges))[0b11_1111],
            (weight, obs, false)
        );
        assert_eq!((weight, unmatched), (12, 0));
        assert_eq!(pairs, [(0, Some(3)), (1, Some(4)), (2, Some(5))]);
        assert!(
            scratch.counters.blossoms_formed > 0,
            "{:?}",
            scratch.counters
        );
    }

    #[test]
    fn random_graphs_match_brute_force() {
        // The textbook problem: complete boundary-less graphs of even
        // order, every node an event. Every other instance draws its
        // weights from four values, so equal-weight optima abound.
        let mut rng = StdRng::seed_from_u64(42);
        let mut scratch = DecodeScratch::new();
        for trial in 0..200 {
            let n = 2 * rng.gen_range(1..=5usize);
            let spread = if trial % 2 == 0 { 4 } else { 1_000_000 };
            let edges = complete_graph(&mut rng, n, spread);
            let (want_weight, want_obs, tie) = optima(n, &floyd_warshall(n, &edges))[(1 << n) - 1];
            let ((obs, weight, unmatched), _) = decode_every_node(&view(n, &edges), &mut scratch);
            assert_eq!(
                (weight, unmatched),
                (want_weight, 0),
                "trial {trial}: {edges:?}"
            );
            assert!(tie || obs == want_obs, "trial {trial}: {edges:?}");
        }
    }

    #[test]
    fn larger_random_instance_is_consistent() {
        // Forty nodes, past brute force: certified, and no heavier than
        // greedy pairing.
        let n = 40;
        let edges = complete_graph(&mut StdRng::seed_from_u64(7), n, 1_000_000);
        let ((_, weight, unmatched), _) =
            decode_every_node(&view(n, &edges), &mut DecodeScratch::new());
        assert_eq!(unmatched, 0);
        let d = floyd_warshall(n, &edges);
        let mut used = vec![false; n];
        let mut greedy = 0;
        for a in 0..n {
            if used[a] {
                continue;
            }
            let b = (a + 1..n)
                .filter(|&b| !used[b])
                .min_by_key(|&b| d[a][b].0)
                .expect("even order");
            used[a] = true;
            used[b] = true;
            greedy += d[a][b].0;
        }
        assert!(
            weight <= greedy,
            "matched {weight}, greedy pairing {greedy}"
        );
    }

    #[test]
    fn the_certificate_rejects_an_infeasible_dual() {
        // The radii a decode ends with certify it; the same radii with
        // one region a grid step too wide, or one below zero, do not.
        let g = view(6, &triangle_with_spokes());
        let mut s = DecodeScratch::new();
        let mut nodes: Vec<u32> = (0..6).collect();
        let (_, weight, _) = g.decode_nodes(&mut nodes, &mut s);
        assert_eq!(s.certify(&g, &nodes), Ok(weight));
        s.regions[0].y0 += 2;
        let wide = s
            .certify(&g, &nodes)
            .expect_err("event 0's region overreaches");
        assert!(wide.contains("separating"), "{wide}");
        s.regions[0].y0 -= 2;
        s.regions[3].y0 = -2;
        s.regions[3].slope = 0;
        let negative = s.certify(&g, &nodes).expect_err("a negative radius");
        assert!(negative.contains("y = -2"), "{negative}");
    }
}
