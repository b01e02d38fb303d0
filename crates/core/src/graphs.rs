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

use crate::adapt::AdaptedPatch;
use crate::coords::Coord;
use crate::error::CoreError;
use crate::layout::PatchLayout;
use dqec_sim::circuit::CheckBasis;
use std::collections::BTreeMap;

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
    // Domain: all check-basis-colored sites in the extended range that
    // are not live *full* checks. Live gauge faces of the check basis
    // participate as connector nodes (mediator paths may end on them;
    // composing two such mediators hops across), but they are not void.
    let mut site_index: BTreeMap<Coord, usize> = BTreeMap::new();
    let mut sites: Vec<Coord> = Vec::new();
    let mut is_void: Vec<bool> = Vec::new();
    let mut x = -2;
    while x <= w + 2 {
        let mut y = -2;
        while y <= h + 2 {
            let c = Coord::new(x, y);
            if c.face_basis() == check_basis {
                site_index.insert(c, sites.len());
                sites.push(c);
                is_void.push(!is_live_face(c));
            }
            y += 2;
        }
        x += 2;
    }
    let mut parent: Vec<usize> = (0..sites.len()).collect();
    fn find(parent: &mut Vec<usize>, i: usize) -> usize {
        if parent[i] != i {
            let r = find(parent, parent[i]);
            parent[i] = r;
        }
        parent[i]
    }
    // Mediation: multiplying a chain by a live opposite-basis face
    // moves its endpoint between the *ends* of the face's qubit path:
    // the check-basis sites where the face's live qubits have odd
    // degree. Full faces form closed loops (no ends); reduced faces
    // contribute one end pair.
    let mut fx = 0;
    while fx <= w {
        let mut fy = 0;
        while fy <= h {
            let f = Coord::new(fx, fy);
            fy += 2;
            if f.face_basis() == check_basis || !is_live_face(f) {
                continue;
            }
            let mut degree: BTreeMap<Coord, usize> = BTreeMap::new();
            for q in layout.face_support(f) {
                if is_live_data(q) {
                    for s in q.face_sites_of_basis(check_basis) {
                        *degree.entry(s).or_insert(0) += 1;
                    }
                }
            }
            let ends: Vec<usize> = degree
                .iter()
                .filter(|&(_, &deg)| deg % 2 == 1)
                .filter_map(|(s, _)| site_index.get(s).copied())
                .collect();
            debug_assert!(
                ends.len() <= 2,
                "face {f} has {} path ends; live support {:?}",
                ends.len(),
                layout
                    .face_support(f)
                    .into_iter()
                    .filter(|&q| is_live_data(q))
                    .collect::<Vec<_>>()
            );
            for pair in ends.windows(2) {
                let (a, b) = (find(&mut parent, pair[0]), find(&mut parent, pair[1]));
                if a != b {
                    parent[a] = b;
                }
            }
            // A live check-basis face never appears as an end of a
            // commuting mediator; ends on gauge sites hop through the
            // connector nodes included in the domain above.
        }
        fx += 2;
    }
    // Reachability: live data adjacent to a *void* site of a component.
    let mut adjacency: BTreeMap<usize, Vec<Coord>> = BTreeMap::new();
    for d in layout.data_sites() {
        if !is_live_data(d) {
            continue;
        }
        for s in d.face_sites_of_basis(check_basis) {
            if let Some(&i) = site_index.get(&s) {
                if is_void[i] {
                    let root = find(&mut parent, i);
                    adjacency.entry(root).or_default().push(d);
                }
            }
        }
    }
    let mut comp_sites: BTreeMap<usize, Vec<Coord>> = BTreeMap::new();
    for i in 0..sites.len() {
        if is_void[i] {
            let root = find(&mut parent, i);
            comp_sites.entry(root).or_default().push(sites[i]);
        }
    }
    let mut comps: Vec<VoidComponent> = Vec::new();
    for (root, mut data) in adjacency {
        data.sort_unstable();
        data.dedup();
        let sites = comp_sites.remove(&root).unwrap_or_default();
        let touches_boundary = sites
            .iter()
            .any(|s| s.x <= 0 || s.y <= 0 || s.x >= w || s.y >= h);
        comps.push(VoidComponent {
            sites,
            adjacent_live_data: data,
            touches_boundary,
        });
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
enum Endpoint {
    /// A check node (full face or cluster super-stabilizer).
    Check(u32),
    /// A reachable void component.
    Void(u32),
}

/// The matching-style graph of one check basis of an adapted patch:
/// nodes are checks (full faces, super-stabilizers) and void
/// components; edges are live data qubits.
#[derive(Debug, Clone)]
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
        let layout = patch.layout();
        let comps = void_components(layout, check_basis, &|c| patch.is_live_data(c), &|c| {
            patch.is_live_face(c)
        });
        let expected = expected_void_components(layout, check_basis);
        if comps.len() != expected {
            return Err(CoreError::MalformedSyndromeGraph {
                detail: format!(
                    "{} reachable void components, expected {expected}",
                    comps.len()
                ),
            });
        }
        // Site -> void component id.
        let mut void_of_site: BTreeMap<Coord, u32> = BTreeMap::new();
        for (i, comp) in comps.iter().enumerate() {
            for &s in &comp.sites {
                void_of_site.insert(s, i as u32);
            }
        }
        // Check nodes: full faces of this basis, then cluster supers.
        let mut check_of_face: BTreeMap<Coord, u32> = BTreeMap::new();
        let mut num_checks = 0u32;
        for &f in patch.full_faces() {
            if f.face_basis() == check_basis {
                check_of_face.insert(f, num_checks);
                num_checks += 1;
            }
        }
        let num_full = num_checks as usize;
        let mut super_of_cluster: BTreeMap<u32, u32> = BTreeMap::new();
        for (id, cluster) in patch.clusters().iter().enumerate() {
            let gauges = match check_basis {
                CheckBasis::X => &cluster.x_gauges,
                CheckBasis::Z => &cluster.z_gauges,
            };
            if !gauges.is_empty() {
                super_of_cluster.insert(id as u32, num_checks);
                num_checks += 1;
            }
        }

        let mut edges = Vec::new();
        for q in layout.data_sites() {
            if !patch.is_live_data(q) {
                continue;
            }
            let mut ends: Vec<Endpoint> = Vec::with_capacity(2);
            let mut cluster_parity: BTreeMap<u32, usize> = BTreeMap::new();
            for s in q.face_sites_of_basis(check_basis) {
                if patch.is_live_face(s) {
                    match patch.gauge_cluster_of(s) {
                        None => ends.push(Endpoint::Check(check_of_face[&s])),
                        Some(c) => *cluster_parity.entry(c).or_insert(0) += 1,
                    }
                } else if let Some(&v) = void_of_site.get(&s) {
                    ends.push(Endpoint::Void(v));
                } else {
                    return Err(CoreError::MalformedSyndromeGraph {
                        detail: format!("site {s} adjacent to live {q} is neither live nor void"),
                    });
                }
            }
            for (c, n) in cluster_parity {
                if n % 2 == 1 {
                    ends.push(Endpoint::Check(super_of_cluster[&c]));
                }
            }
            match ends.len() {
                2 => edges.push((q, ends[0], ends[1])),
                0 => {
                    return Err(CoreError::MalformedSyndromeGraph {
                        detail: format!("qubit {q} flips no {check_basis:?} check"),
                    })
                }
                _ => {
                    return Err(CoreError::MalformedSyndromeGraph {
                        detail: format!("qubit {q} has {} attachments", ends.len()),
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
