//! Syndrome-lattice graphs: void components, code distance, and
//! counting of minimum-weight logical operators.
//!
//! For check basis `B` (say Z, which detects X errors), the B-colored
//! face sites form a 45°-rotated square lattice whose edges are data
//! qubits: the two B-faces of a data qubit are its diagonal pair. Sites
//! without a live face are *void*: undetected error chains terminate
//! there. Two void sites are equivalent (same boundary component) when
//! a live face of the opposite basis has both in its 4-neighbourhood —
//! multiplying a chain by that face moves its endpoint between them.
//!
//! A valid memory patch has exactly two reachable void components per
//! basis (the deformed rough boundary pair); the code distance is the
//! shortest chain connecting them, and the paper's secondary indicator
//! is the number of such shortest chains (counted by multigraph BFS).
//!
//! Both passes index the layout's doubled-coordinate grid (the layout
//! plus a two-site margin, x-major): the void union-find, the site →
//! void and face → check tables are flat arrays by grid position.
//! Adaptation builds each patch's two graphs once, in post-validation,
//! from the void components its last pass computed, and keeps their
//! distances on the patch; [`CheckGraph::build`] recomputes the
//! components for callers that need the graph itself.

use crate::adapt::{find, AdaptedPatch, Grid};
use crate::coords::Coord;
use crate::error::CoreError;
use crate::layout::PatchLayout;
use dqec_sim::circuit::CheckBasis;

/// One reachable void component of a syndrome lattice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VoidComponent {
    /// The void sites in the component.
    pub sites: Vec<Coord>,
    /// Live data qubits adjacent to the component (chains can terminate
    /// through these).
    pub adjacent_live_data: Vec<Coord>,
    /// Whether the component includes a site on or beyond the layout
    /// boundary rows — i.e. it is a genuine boundary rather than an
    /// interior puncture.
    pub touches_boundary: bool,
}

/// Computes the reachable void components of the `check_basis` lattice.
///
/// `is_live_data` / `is_live_face` describe the (possibly mid-
/// adaptation) patch state; mediators are live faces of the opposite
/// basis.
pub fn void_components(
    layout: &PatchLayout,
    check_basis: CheckBasis,
    is_live_data: &dyn Fn(Coord) -> bool,
    is_live_face: &dyn Fn(Coord) -> bool,
) -> Vec<VoidComponent> {
    let (w, h) = (2 * layout.width() as i32, 2 * layout.height() as i32);
    let grid = Grid::of(layout);
    let at = |c: Coord| grid.index(c).unwrap_or(usize::MAX);
    // Domain: all check-basis-colored sites in the extended range that
    // are not live *full* checks. Live gauge faces of the check basis
    // participate as connector nodes (mediator paths may end on them;
    // composing two such mediators hops across), but they are not void.
    // The grid spans exactly that range, so the union-find is indexed
    // by grid position; sites of the other color are never united.
    let mut is_void = vec![false; grid.len()];
    let mut x = -2;
    while x <= w + 2 {
        let mut y = -2;
        while y <= h + 2 {
            let c = Coord::new(x, y);
            if c.face_basis() == check_basis {
                is_void[at(c)] = !is_live_face(c);
            }
            y += 2;
        }
        x += 2;
    }
    let mut parent: Vec<u32> = (0..grid.len() as u32).collect();
    // Mediation: multiplying a chain by a live opposite-basis face
    // moves its endpoint between the *ends* of the face's qubit path:
    // the check-basis sites where the face's live qubits have odd
    // degree. Full faces form closed loops (no ends); reduced faces
    // contribute one end pair.
    //
    // Those sites are the face's four orthogonal neighbours, and each
    // live qubit of the face touches the two on its side, so a
    // neighbour's degree is the number of live qubits flanking it. The
    // ends are united in `Coord` order (west, north, south, east),
    // which fixes the roots and with them the component order below.
    let mut fx = 0;
    while fx <= w {
        let mut fy = 0;
        while fy <= h {
            let f = Coord::new(fx, fy);
            fy += 2;
            if f.face_basis() == check_basis || !is_live_face(f) {
                continue;
            }
            let live = |dx: i32, dy: i32| {
                let q = Coord::new(f.x + dx, f.y + dy);
                u8::from(layout.contains_data(q) && is_live_data(q))
            };
            let (nw, ne, sw, se) = (live(-1, -1), live(1, -1), live(-1, 1), live(1, 1));
            let neighbours = [
                (Coord::new(f.x - 2, f.y), nw + sw),
                (Coord::new(f.x, f.y - 2), nw + ne),
                (Coord::new(f.x, f.y + 2), sw + se),
                (Coord::new(f.x + 2, f.y), ne + se),
            ];
            let mut ends = [0usize; 4];
            let mut n = 0;
            for (s, degree) in neighbours {
                if degree % 2 == 1 {
                    ends[n] = at(s);
                    n += 1;
                }
            }
            debug_assert!(n <= 2, "face {f} has {n} path ends");
            for pair in ends[..n].windows(2) {
                let (a, b) = (find(&mut parent, pair[0]), find(&mut parent, pair[1]));
                if a != b {
                    parent[a] = b as u32;
                }
            }
            // A live check-basis face never appears as an end of a
            // commuting mediator; ends on gauge sites hop through the
            // connector nodes included in the domain above.
        }
        fx += 2;
    }
    // Reachability: live data adjacent to a *void* site of a component,
    // as (root, qubit) pairs; sorted, they group by root in ascending
    // order with each group's qubits ascending.
    let mut adjacency: Vec<(u32, Coord)> = Vec::new();
    for d in layout.data_sites() {
        if !is_live_data(d) {
            continue;
        }
        for s in d.face_sites_of_basis(check_basis) {
            let i = at(s);
            if is_void[i] {
                adjacency.push((find(&mut parent, i) as u32, d));
            }
        }
    }
    adjacency.sort_unstable();
    adjacency.dedup();
    // One component per reachable root, in root order.
    let mut comp_of_root = vec![NONE; grid.len()];
    let mut comps: Vec<VoidComponent> = Vec::new();
    for &(root, d) in &adjacency {
        let slot = &mut comp_of_root[root as usize];
        if *slot == NONE {
            *slot = comps.len() as u32;
            comps.push(VoidComponent {
                sites: Vec::new(),
                adjacent_live_data: Vec::new(),
                touches_boundary: false,
            });
        }
        comps[*slot as usize].adjacent_live_data.push(d);
    }
    for i in 0..grid.len() {
        if is_void[i] {
            let comp = comp_of_root[find(&mut parent, i)];
            if comp != NONE {
                let s = grid.coord(i);
                let comp = &mut comps[comp as usize];
                comp.sites.push(s);
                comp.touches_boundary |= s.x <= 0 || s.y <= 0 || s.x >= w || s.y >= h;
            }
        }
    }
    // Genuine boundary components first (then largest first) so callers
    // can keep the expected ones and excise the rest.
    comps.sort_by(|a, b| {
        b.touches_boundary
            .cmp(&a.touches_boundary)
            .then(b.sites.len().cmp(&a.sites.len()))
    });
    comps
}

/// Expected number of reachable void components of the `check_basis`
/// lattice for a defect-free patch: the number of circular runs of
/// boundary sides whose color differs from `check_basis`.
pub fn expected_void_components(layout: &PatchLayout, check_basis: CheckBasis) -> usize {
    use crate::coords::Side;
    // Sides in cyclic order around the patch.
    let cycle = [Side::Top, Side::Right, Side::Bottom, Side::Left];
    let void: Vec<bool> = cycle
        .iter()
        .map(|&s| layout.boundary().of(s) != check_basis)
        .collect();
    if void.iter().all(|&v| v) {
        return 1;
    }
    let mut runs = 0;
    for i in 0..4 {
        if void[i] && !void[(i + 3) % 4] {
            runs += 1;
        }
    }
    runs
}

/// An endpoint of a chain edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Endpoint {
    /// A check node (full face or cluster super-stabilizer).
    Check(u32),
    /// A reachable void component.
    Void(u32),
}

/// An empty slot of a grid- or id-indexed table (no component, void,
/// check or super node).
const NONE: u32 = u32::MAX;

/// The matching-style graph of one check basis of an adapted patch:
/// nodes are checks (full faces, super-stabilizers) and void
/// components; edges are live data qubits.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckGraph {
    check_basis: CheckBasis,
    num_checks: usize,
    /// Check ids below this are full faces; the rest are super nodes.
    num_full: usize,
    num_voids: usize,
    /// Edges as (qubit, endpoint a, endpoint b).
    edges: Vec<(Coord, Endpoint, Endpoint)>,
}

impl CheckGraph {
    /// Builds the check graph of `check_basis` for an adapted patch.
    ///
    /// # Errors
    ///
    /// Returns an error if the patch is degenerate, a qubit's errors
    /// flip no check (should be prevented by adaptation rule R5), or
    /// the void structure does not match the layout's expectation.
    pub fn build(patch: &AdaptedPatch, check_basis: CheckBasis) -> Result<Self, CoreError> {
        if let crate::adapt::AdaptStatus::Degenerate(reason) = patch.status() {
            return Err(CoreError::DegeneratePatch {
                reason: reason.clone(),
            });
        }
        let comps = void_components(
            patch.layout(),
            check_basis,
            &|c| patch.is_live_data(c),
            &|c| patch.is_live_face(c),
        );
        Self::from_components(patch, check_basis, &comps)
    }

    /// Builds the graph over void components already computed on the
    /// patch's final state (adaptation's last void-feedback pass).
    ///
    /// Sites, voids and checks are looked up by grid position.
    pub(crate) fn from_components(
        patch: &AdaptedPatch,
        check_basis: CheckBasis,
        comps: &[VoidComponent],
    ) -> Result<Self, CoreError> {
        let layout = patch.layout();
        let expected = expected_void_components(layout, check_basis);
        if comps.len() != expected {
            return Err(CoreError::MalformedSyndromeGraph {
                detail: format!(
                    "{} reachable void components, expected {expected}",
                    comps.len()
                ),
            });
        }
        let grid = Grid::of(layout);
        // Site -> void component id.
        let mut void_at = vec![NONE; grid.len()];
        for (i, comp) in comps.iter().enumerate() {
            for &s in &comp.sites {
                if let Some(k) = grid.index(s) {
                    void_at[k] = i as u32;
                }
            }
        }
        // Check nodes: full faces of this basis, then cluster supers.
        let mut check_at = vec![NONE; grid.len()];
        let mut num_checks = 0u32;
        for &f in patch.full_faces() {
            if f.face_basis() == check_basis {
                if let Some(k) = grid.index(f) {
                    check_at[k] = num_checks;
                }
                num_checks += 1;
            }
        }
        let num_full = num_checks as usize;
        let mut super_of_cluster = vec![NONE; patch.clusters().len()];
        for (id, cluster) in patch.clusters().iter().enumerate() {
            let gauges = match check_basis {
                CheckBasis::X => &cluster.x_gauges,
                CheckBasis::Z => &cluster.z_gauges,
            };
            if !gauges.is_empty() {
                super_of_cluster[id] = num_checks;
                num_checks += 1;
            }
        }
        let lookup = |table: &[u32], s: Coord| grid.index(s).map_or(NONE, |k| table[k]);

        let mut edges = Vec::new();
        for q in layout.data_sites() {
            if !patch.is_live_data(q) {
                continue;
            }
            let mut ends = [Endpoint::Void(0); 2];
            let mut n = 0;
            let mut gauges = [0u32; 2];
            let mut num_gauges = 0;
            for s in q.face_sites_of_basis(check_basis) {
                let end = if patch.is_live_face(s) {
                    if let Some(c) = patch.gauge_cluster_of(s) {
                        gauges[num_gauges] = c;
                        num_gauges += 1;
                        continue;
                    }
                    match lookup(&check_at, s) {
                        NONE => {
                            return Err(CoreError::MalformedSyndromeGraph {
                                detail: format!(
                                    "live face {s} is neither a full check nor a gauge"
                                ),
                            })
                        }
                        k => Endpoint::Check(k),
                    }
                } else {
                    match lookup(&void_at, s) {
                        NONE => {
                            return Err(CoreError::MalformedSyndromeGraph {
                                detail: format!(
                                    "site {s} adjacent to live {q} is neither live nor void"
                                ),
                            })
                        }
                        v => Endpoint::Void(v),
                    }
                };
                ends[n] = end;
                n += 1;
            }
            // Two gauges of one cluster cancel in its super-stabilizer;
            // otherwise each cluster is an end, in cluster order.
            let gauges = &mut gauges[..num_gauges];
            gauges.sort_unstable();
            if !(num_gauges == 2 && gauges[0] == gauges[1]) {
                for &c in gauges.iter() {
                    ends[n] = Endpoint::Check(super_of_cluster[c as usize]);
                    n += 1;
                }
            }
            match n {
                2 => edges.push((q, ends[0], ends[1])),
                0 => {
                    return Err(CoreError::MalformedSyndromeGraph {
                        detail: format!("qubit {q} flips no {check_basis:?} check"),
                    })
                }
                _ => {
                    return Err(CoreError::MalformedSyndromeGraph {
                        detail: format!("qubit {q} has {n} attachments"),
                    })
                }
            }
        }
        Ok(CheckGraph {
            check_basis,
            num_checks: num_checks as usize,
            num_full,
            num_voids: comps.len(),
            edges,
        })
    }

    /// A graph from its parts, for the adaptation oracle.
    #[cfg(test)]
    pub(crate) fn from_parts(
        check_basis: CheckBasis,
        num_checks: usize,
        num_full: usize,
        num_voids: usize,
        edges: Vec<(Coord, Endpoint, Endpoint)>,
    ) -> Self {
        CheckGraph {
            check_basis,
            num_checks,
            num_full,
            num_voids,
            edges,
        }
    }

    /// The basis of the checks in this graph.
    pub fn check_basis(&self) -> CheckBasis {
        self.check_basis
    }

    /// Number of reachable void components.
    pub fn num_void_components(&self) -> usize {
        self.num_voids
    }

    /// The code distance along this graph — the weight of the shortest
    /// chain connecting the two void components — together with the
    /// number of distinct shortest chains. `None` when the lattice has
    /// fewer than two void components (e.g. stability layouts).
    pub fn distance_and_count(&self) -> Option<(u32, f64)> {
        if self.num_voids < 2 {
            return None;
        }
        let (dist, ways, _) = self.bfs(false)?;
        Some((dist, ways))
    }

    /// The support of one shortest logical chain that avoids
    /// super-stabilizer nodes, usable as a commuting logical operator
    /// representative for circuit observables.
    pub fn gauge_free_logical_support(&self) -> Option<Vec<Coord>> {
        let (_, _, path) = self.bfs(true)?;
        Some(path)
    }

    /// BFS between void components 0 and 1. Returns (distance, number
    /// of shortest paths, one shortest path's qubits). When
    /// `avoid_supers`, edges incident to super-stabilizer nodes are
    /// skipped (super node ids are >= the full-face count, but we do not
    /// track that split here; instead super nodes are identified by the
    /// builder ordering — full faces first).
    fn bfs(&self, avoid_supers: bool) -> Option<(u32, f64, Vec<Coord>)> {
        if self.num_voids < 2 {
            return None;
        }
        // Node numbering: checks 0..num_checks, then voids.
        let nv = self.num_checks + self.num_voids;
        let node_of = |e: Endpoint| -> usize {
            match e {
                Endpoint::Check(c) => c as usize,
                Endpoint::Void(v) => self.num_checks + v as usize,
            }
        };
        let full_face_count = self.full_face_count();
        let usable = |e: Endpoint| -> bool {
            !avoid_supers
                || match e {
                    Endpoint::Check(c) => (c as usize) < full_face_count,
                    Endpoint::Void(_) => true,
                }
        };
        let mut adj: Vec<Vec<(usize, Coord)>> = vec![Vec::new(); nv];
        for &(q, a, b) in &self.edges {
            if !usable(a) || !usable(b) {
                continue;
            }
            let (na, nb) = (node_of(a), node_of(b));
            if na == nb {
                continue; // trivial chain within one component
            }
            adj[na].push((nb, q));
            adj[nb].push((na, q));
        }
        let src = self.num_checks;
        let dst = self.num_checks + 1;
        let mut dist = vec![u32::MAX; nv];
        let mut ways = vec![0.0f64; nv];
        let mut pred: Vec<Option<(usize, Coord)>> = vec![None; nv];
        dist[src] = 0;
        ways[src] = 1.0;
        let mut frontier = vec![src];
        let mut d = 0;
        while !frontier.is_empty() && dist[dst] == u32::MAX {
            let mut next = Vec::new();
            for &u in &frontier {
                for &(v, q) in &adj[u] {
                    if dist[v] == u32::MAX {
                        dist[v] = d + 1;
                        pred[v] = Some((u, q));
                        next.push(v);
                    }
                    if dist[v] == d + 1 {
                        ways[v] += ways[u];
                    }
                }
            }
            frontier = next;
            d += 1;
        }
        if dist[dst] == u32::MAX {
            return None;
        }
        let mut path = Vec::new();
        let mut cur = dst;
        while cur != src {
            let (p, q) = pred[cur]?;
            path.push(q);
            cur = p;
        }
        Some((dist[dst], ways[dst], path))
    }

    fn full_face_count(&self) -> usize {
        self.num_full
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defect::DefectSet;

    fn patch(l: u32, defects: &DefectSet) -> AdaptedPatch {
        AdaptedPatch::new(PatchLayout::memory(l), defects)
    }

    #[test]
    fn defect_free_distances() {
        for l in [3u32, 5, 7, 9] {
            let p = patch(l, &DefectSet::new());
            for basis in [CheckBasis::Z, CheckBasis::X] {
                let g = CheckGraph::build(&p, basis).unwrap();
                assert_eq!(g.num_void_components(), 2);
                let (d, n) = g.distance_and_count().unwrap();
                assert_eq!(d, l, "basis {basis:?} distance");
                assert!(n >= 1.0);
            }
        }
    }

    #[test]
    fn defect_free_shortest_count_grows_with_l() {
        let c3 = CheckGraph::build(&patch(3, &DefectSet::new()), CheckBasis::Z)
            .unwrap()
            .distance_and_count()
            .unwrap()
            .1;
        let c7 = CheckGraph::build(&patch(7, &DefectSet::new()), CheckBasis::Z)
            .unwrap()
            .distance_and_count()
            .unwrap()
            .1;
        assert!(
            c7 > c3,
            "more symmetry, more shortest logicals: {c3} vs {c7}"
        );
    }

    #[test]
    fn fig1a_distance_drops_to_four() {
        // l=5 with a central broken data qubit: d = 4 both directions
        // (paper Fig 1a).
        let mut d = DefectSet::new();
        d.add_data(Coord::new(5, 5));
        let p = patch(5, &d);
        let gz = CheckGraph::build(&p, CheckBasis::Z).unwrap();
        let gx = CheckGraph::build(&p, CheckBasis::X).unwrap();
        assert_eq!(gz.distance_and_count().unwrap().0, 4);
        assert_eq!(gx.distance_and_count().unwrap().0, 4);
    }

    #[test]
    fn fig1b_distance_is_five() {
        // l=7 with a broken interior syndrome qubit: d = 5 (paper).
        let mut d = DefectSet::new();
        d.add_synd(Coord::new(6, 6));
        let p = patch(7, &d);
        let gz = CheckGraph::build(&p, CheckBasis::Z).unwrap();
        let gx = CheckGraph::build(&p, CheckBasis::X).unwrap();
        let dz = gz.distance_and_count().unwrap().0;
        let dx = gx.distance_and_count().unwrap().0;
        assert_eq!(dz.min(dx), 5, "dz={dz} dx={dx}");
    }

    #[test]
    fn gauge_free_path_avoids_cluster() {
        let mut d = DefectSet::new();
        d.add_data(Coord::new(5, 5));
        let p = patch(5, &d);
        let g = CheckGraph::build(&p, CheckBasis::X).unwrap();
        let path = g.gauge_free_logical_support().unwrap();
        assert!(!path.is_empty());
        // The path must not touch the defect's gauge faces' qubits in a
        // way that anticommutes; at minimum it avoids the dead qubit.
        assert!(!path.contains(&Coord::new(5, 5)));
    }

    #[test]
    fn expected_void_counts() {
        let mem = PatchLayout::memory(5);
        assert_eq!(expected_void_components(&mem, CheckBasis::Z), 2);
        assert_eq!(expected_void_components(&mem, CheckBasis::X), 2);
        let stab = PatchLayout::stability(6, 6);
        assert_eq!(expected_void_components(&stab, CheckBasis::Z), 1);
        assert_eq!(expected_void_components(&stab, CheckBasis::X), 0);
    }

    #[test]
    fn stability_void_structure() {
        let p = AdaptedPatch::new(PatchLayout::stability(6, 6), &DefectSet::new());
        let comps_z = void_components(p.layout(), CheckBasis::Z, &|c| p.is_live_data(c), &|c| {
            p.is_live_face(c)
        });
        assert_eq!(comps_z.len(), 1, "all-X boundary: one surrounding Z void");
        let comps_x = void_components(p.layout(), CheckBasis::X, &|c| p.is_live_data(c), &|c| {
            p.is_live_face(c)
        });
        assert!(comps_x.is_empty(), "Z chains cannot terminate");
    }
}
