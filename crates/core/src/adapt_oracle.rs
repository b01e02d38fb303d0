//! Test oracle for the dense-site adapter: the adaptation, graph build
//! and indicators as they were written over `BTreeMap<Coord, _>` state,
//! kept verbatim in behaviour. Every rule looks sites up in the maps,
//! clusters dead cells over all pairs, and `PatchIndicators` rebuilds
//! both check graphs. The property below checks that the production
//! path gives identical dead sets, clusters, full faces, status, check
//! graphs and indicators on random defect sets.

use crate::adapt::{AdaptStatus, AdaptedPatch, Cluster, DeadReason};
use crate::coords::{Coord, Side};
use crate::defect::DefectSet;
use crate::error::CoreError;
use crate::graphs::{expected_void_components, CheckGraph, Endpoint, VoidComponent};
use crate::indicators::PatchIndicators;
use crate::layout::PatchLayout;
use dqec_sim::circuit::CheckBasis;
use std::collections::{BTreeMap, BTreeSet};

/// An adapted patch as the map-based adapter leaves it.
#[derive(Debug, Clone)]
pub(crate) struct OraclePatch {
    layout: PatchLayout,
    defects: DefectSet,
    dead_data: BTreeMap<Coord, DeadReason>,
    dead_faces: BTreeMap<Coord, DeadReason>,
    full_faces: Vec<Coord>,
    clusters: Vec<Cluster>,
    gauge_cluster: BTreeMap<Coord, u32>,
    status: AdaptStatus,
}

impl OraclePatch {
    pub(crate) fn new(layout: PatchLayout, defects: &DefectSet) -> Self {
        let defects = defects.clamp_to(&layout);
        Adapter::new(layout, defects).run()
    }

    fn is_valid(&self) -> bool {
        self.status == AdaptStatus::Valid
    }

    fn is_live_data(&self, c: Coord) -> bool {
        self.layout.contains_data(c) && !self.dead_data.contains_key(&c)
    }

    fn is_live_face(&self, c: Coord) -> bool {
        self.layout.contains_face(c) && !self.dead_faces.contains_key(&c)
    }
}

/// The pairwise Chebyshev diameter of a cluster.
fn diameter(cluster: &Cluster) -> u32 {
    let mut max = 0;
    for (i, a) in cluster.cells.iter().enumerate() {
        for b in &cluster.cells[i + 1..] {
            max = max.max(a.chebyshev(*b));
        }
    }
    (max / 2 + 1) as u32
}

fn shared_sites(f: Coord, g: Coord) -> [Coord; 2] {
    if f.y == g.y {
        let x = (f.x + g.x) / 2;
        [Coord::new(x, f.y - 1), Coord::new(x, f.y + 1)]
    } else {
        let y = (f.y + g.y) / 2;
        [Coord::new(f.x - 1, y), Coord::new(f.x + 1, y)]
    }
}

fn orthogonal_faces(f: Coord) -> [Coord; 4] {
    [
        Coord::new(f.x - 2, f.y),
        Coord::new(f.x + 2, f.y),
        Coord::new(f.x, f.y - 2),
        Coord::new(f.x, f.y + 2),
    ]
}

struct Adapter {
    layout: PatchLayout,
    defects: DefectSet,
    dead_data: BTreeMap<Coord, DeadReason>,
    dead_faces: BTreeMap<Coord, DeadReason>,
    r4_done: BTreeSet<Coord>,
}

struct Analysis {
    clusters: Vec<Cluster>,
    gauge_cluster: BTreeMap<Coord, u32>,
    pairs: Vec<Vec<(Coord, Coord)>>,
    invalid: Vec<u32>,
}

enum VoidOutcome {
    Consistent,
    Excised,
    Broken(String),
}

impl Adapter {
    fn new(layout: PatchLayout, defects: DefectSet) -> Self {
        Adapter {
            layout,
            defects,
            dead_data: BTreeMap::new(),
            dead_faces: BTreeMap::new(),
            r4_done: BTreeSet::new(),
        }
    }

    fn is_live_data(&self, c: Coord) -> bool {
        self.layout.contains_data(c) && !self.dead_data.contains_key(&c)
    }

    fn is_live_face(&self, c: Coord) -> bool {
        self.layout.contains_face(c) && !self.dead_faces.contains_key(&c)
    }

    fn live_support(&self, f: Coord) -> Vec<Coord> {
        self.layout
            .face_support(f)
            .into_iter()
            .filter(|&d| self.is_live_data(d))
            .collect()
    }

    fn kill_data(&mut self, c: Coord, reason: DeadReason) -> bool {
        if self.is_live_data(c) {
            self.dead_data.insert(c, reason);
            true
        } else {
            false
        }
    }

    fn kill_face(&mut self, c: Coord, reason: DeadReason) -> bool {
        if self.is_live_face(c) {
            self.dead_faces.insert(c, reason);
            true
        } else {
            false
        }
    }

    fn seed(&mut self) {
        for &s in self.defects.synd.clone().iter() {
            self.kill_face(s, DeadReason::Faulty);
        }
        for &d in self.defects.data.clone().iter() {
            self.kill_data(d, DeadReason::Faulty);
        }
        for &(d, s) in self.defects.links.clone().iter() {
            if self.is_live_face(s) {
                self.kill_data(d, DeadReason::Faulty);
            }
        }
    }

    fn cascade(&mut self) -> bool {
        let faces: Vec<Coord> = self.layout.face_sites().collect();
        let data: Vec<Coord> = self.layout.data_sites().collect();
        let mut changed_any = false;
        loop {
            let mut changed = false;
            for &f in &faces {
                if !self.is_live_face(f) {
                    continue;
                }
                let sup = self.live_support(f);
                if sup.len() <= 1 {
                    changed |= self.kill_face(f, DeadReason::WeightRule);
                } else if sup.len() == 2
                    && (sup[0].x - sup[1].x).abs() == 2
                    && (sup[0].y - sup[1].y).abs() == 2
                {
                    changed |= self.kill_face(f, DeadReason::DiagonalRule);
                    changed |= self.kill_data(sup[0], DeadReason::DiagonalRule);
                    changed |= self.kill_data(sup[1], DeadReason::DiagonalRule);
                }
            }
            for &d in &data {
                if !self.is_live_data(d) {
                    continue;
                }
                for basis in [CheckBasis::X, CheckBasis::Z] {
                    let covered = d
                        .face_sites_of_basis(basis)
                        .into_iter()
                        .any(|f| self.is_live_face(f));
                    if !covered {
                        changed |= self.kill_data(d, DeadReason::Coverage);
                        break;
                    }
                }
            }
            changed_any |= changed;
            if !changed {
                return changed_any;
            }
        }
    }

    fn handle_faulty_faces(&mut self) -> bool {
        let faulty: Vec<Coord> = self
            .dead_faces
            .iter()
            .filter(|(c, r)| **r == DeadReason::Faulty && !self.r4_done.contains(*c))
            .map(|(&c, _)| c)
            .collect();
        let mut changed = false;
        for f in faulty {
            self.r4_done.insert(f);
            let (side, dist) = self.layout.nearest_side(f);
            let neighbors: Vec<Coord> = self
                .layout
                .face_support(f)
                .into_iter()
                .filter(|&d| self.is_live_data(d))
                .collect();
            if dist == 0 {
                for d in neighbors {
                    changed |= self.kill_data(d, DeadReason::Deformation);
                }
            } else if dist <= 2 && f.face_basis() != self.layout.boundary().of(side) {
                let fd = self.layout.distance_to_side(f, side);
                for d in neighbors {
                    if self.layout.distance_to_side(d, side) < fd {
                        changed |= self.kill_data(d, DeadReason::Deformation);
                    }
                }
            } else if dist <= 2 {
                for d in neighbors {
                    changed |= self.kill_data(d, DeadReason::Deformation);
                }
            } else {
                for d in neighbors {
                    changed |= self.kill_data(d, DeadReason::Propagated);
                }
            }
        }
        changed
    }

    fn unprotected_rule(&mut self, analysis: &Analysis) -> bool {
        let mut to_kill = Vec::new();
        for d in self.layout.data_sites() {
            if !self.is_live_data(d) {
                continue;
            }
            for check_basis in [CheckBasis::Z, CheckBasis::X] {
                let mut attachments = 0usize;
                let mut cluster_parity: BTreeMap<u32, usize> = BTreeMap::new();
                for s in d.face_sites_of_basis(check_basis) {
                    if self.is_live_face(s) {
                        match analysis.gauge_cluster.get(&s) {
                            None => attachments += 1,
                            Some(&c) => *cluster_parity.entry(c).or_insert(0) += 1,
                        }
                    } else {
                        attachments += 1;
                    }
                }
                attachments += cluster_parity.values().filter(|&&n| n % 2 == 1).count();
                if attachments == 0 {
                    to_kill.push(d);
                    break;
                }
            }
        }
        let mut changed = false;
        for d in to_kill {
            changed |= self.kill_data(d, DeadReason::Coverage);
        }
        changed
    }

    fn analyze(&self) -> Analysis {
        let mut gauge_faces: BTreeSet<Coord> = BTreeSet::new();
        let mut raw_pairs: Vec<(Coord, Coord)> = Vec::new();
        for f in self.layout.face_sites() {
            if !self.is_live_face(f) {
                continue;
            }
            for g in orthogonal_faces(f) {
                if g <= f || !self.is_live_face(g) {
                    continue;
                }
                let live = shared_sites(f, g)
                    .into_iter()
                    .filter(|&d| self.is_live_data(d))
                    .count();
                if live == 1 {
                    let (xf, zf) = if f.face_basis() == CheckBasis::X {
                        (f, g)
                    } else {
                        (g, f)
                    };
                    gauge_faces.insert(f);
                    gauge_faces.insert(g);
                    raw_pairs.push((xf, zf));
                }
            }
        }

        let cells: Vec<Coord> = self
            .dead_data
            .keys()
            .chain(self.dead_faces.keys())
            .copied()
            .collect();
        let mut comp: Vec<usize> = (0..cells.len()).collect();
        fn find(comp: &mut Vec<usize>, i: usize) -> usize {
            if comp[i] != i {
                let r = find(comp, comp[i]);
                comp[i] = r;
            }
            comp[i]
        }
        for i in 0..cells.len() {
            for j in i + 1..cells.len() {
                if cells[i].chebyshev(cells[j]) <= 2 {
                    let (a, b) = (find(&mut comp, i), find(&mut comp, j));
                    if a != b {
                        comp[a] = b;
                    }
                }
            }
        }
        let mut cluster_of_root: BTreeMap<usize, u32> = BTreeMap::new();
        let mut clusters: Vec<Cluster> = Vec::new();
        for (i, &cell) in cells.iter().enumerate() {
            let root = find(&mut comp, i);
            let id = *cluster_of_root.entry(root).or_insert_with(|| {
                clusters.push(Cluster {
                    cells: Vec::new(),
                    x_gauges: Vec::new(),
                    z_gauges: Vec::new(),
                    repetitions: 1,
                });
                clusters.len() as u32 - 1
            });
            clusters[id as usize].cells.push(cell);
        }

        let cell_cluster: BTreeMap<Coord, u32> = clusters
            .iter()
            .enumerate()
            .flat_map(|(id, c)| c.cells.iter().map(move |&cell| (cell, id as u32)))
            .collect();
        let mut gauge_cluster: BTreeMap<Coord, u32> = BTreeMap::new();
        for &g in &gauge_faces {
            let id = g
                .diagonal_neighbors()
                .into_iter()
                .find_map(|d| cell_cluster.get(&d).copied());
            if let Some(id) = id {
                gauge_cluster.insert(g, id);
                match g.face_basis() {
                    CheckBasis::X => clusters[id as usize].x_gauges.push(g),
                    CheckBasis::Z => clusters[id as usize].z_gauges.push(g),
                }
            }
        }
        for c in clusters.iter_mut() {
            c.repetitions = diameter(c);
        }

        let mut pairs: Vec<Vec<(Coord, Coord)>> = vec![Vec::new(); clusters.len()];
        let mut orphan_pair = false;
        for (xf, zf) in raw_pairs {
            match (gauge_cluster.get(&xf), gauge_cluster.get(&zf)) {
                (Some(&a), Some(&b)) if a == b => pairs[a as usize].push((xf, zf)),
                _ => orphan_pair = true,
            }
        }

        let mut invalid = Vec::new();
        for (id, cluster) in clusters.iter().enumerate() {
            if !self.cluster_is_gaugeable(cluster) {
                invalid.push(id as u32);
            }
        }
        if orphan_pair {
            for (id, cluster) in clusters.iter().enumerate() {
                if cluster.has_gauges() && !invalid.contains(&(id as u32)) {
                    invalid.push(id as u32);
                }
            }
        }
        Analysis {
            clusters,
            gauge_cluster,
            pairs,
            invalid,
        }
    }

    fn cluster_is_gaugeable(&self, cluster: &Cluster) -> bool {
        let product_support = |faces: &[Coord]| -> BTreeSet<Coord> {
            let mut s: BTreeSet<Coord> = BTreeSet::new();
            for &f in faces {
                for d in self.live_support(f) {
                    if !s.remove(&d) {
                        s.insert(d);
                    }
                }
            }
            s
        };
        let xs = product_support(&cluster.x_gauges);
        for &z in &cluster.z_gauges {
            let overlap = self
                .live_support(z)
                .iter()
                .filter(|d| xs.contains(d))
                .count();
            if overlap % 2 == 1 {
                return false;
            }
        }
        let zs = product_support(&cluster.z_gauges);
        for &x in &cluster.x_gauges {
            let overlap = self
                .live_support(x)
                .iter()
                .filter(|d| zs.contains(d))
                .count();
            if overlap % 2 == 1 {
                return false;
            }
        }
        true
    }

    fn void_feedback(&mut self) -> VoidOutcome {
        for basis in [CheckBasis::Z, CheckBasis::X] {
            let comps = void_components(&self.layout, basis, &|c| self.is_live_data(c), &|c| {
                self.is_live_face(c)
            });
            let expected = expected_void_components(&self.layout, basis);
            if comps.len() < expected {
                return VoidOutcome::Broken(format!(
                    "{} reachable {basis:?} void components, expected {expected}",
                    comps.len()
                ));
            }
            let to_kill: Vec<Coord> = comps[expected..]
                .iter()
                .flat_map(|c| c.adjacent_live_data.iter().copied())
                .collect();
            let mut excised = false;
            for d in to_kill {
                excised |= self.kill_data(d, DeadReason::Deformation);
            }
            if excised {
                return VoidOutcome::Excised;
            }
        }
        VoidOutcome::Consistent
    }

    fn deform(&mut self, cluster: &Cluster, pairs: &[(Coord, Coord)]) -> bool {
        let (side, dist) = cluster
            .cells
            .iter()
            .map(|&c| self.layout.nearest_side(c))
            .min_by_key(|&(_, d)| d)
            .unwrap_or((Side::Top, 0));
        if dist > 2 {
            let cluster_data: Vec<Coord> = cluster
                .cells
                .iter()
                .copied()
                .filter(|c| c.is_data_site())
                .collect();
            let mut changed = false;
            for q in self.layout.data_sites().collect::<Vec<_>>() {
                if !self.is_live_data(q) {
                    continue;
                }
                let dead_neighbors = cluster_data.iter().filter(|c| c.chebyshev(q) <= 2).count();
                if dead_neighbors >= 3 {
                    changed |= self.kill_data(q, DeadReason::Deformation);
                }
            }
            if changed {
                return true;
            }
            for &cell in &cluster.cells {
                for d in cell.diagonal_neighbors() {
                    changed |= self.kill_data(d, DeadReason::Deformation);
                }
            }
            return changed;
        }
        let boundary_color = self.layout.boundary().of(side);
        let mut changed = false;
        for &(xf, zf) in pairs {
            let wrong = if boundary_color == CheckBasis::X {
                zf
            } else {
                xf
            };
            if self.layout.distance_to_side(wrong, side) <= 2 {
                changed |= self.kill_face(wrong, DeadReason::Deformation);
            }
        }
        if changed {
            return true;
        }
        for &(xf, zf) in pairs {
            let wrong = if boundary_color == CheckBasis::X {
                zf
            } else {
                xf
            };
            changed |= self.kill_face(wrong, DeadReason::Deformation);
        }
        if changed {
            return true;
        }
        for &cell in &cluster.cells {
            let toward: Vec<Coord> = self
                .layout
                .data_sites()
                .filter(|&d| {
                    self.is_live_data(d)
                        && match side {
                            Side::Top => (d.x - cell.x).abs() <= 1 && d.y < cell.y,
                            Side::Bottom => (d.x - cell.x).abs() <= 1 && d.y > cell.y,
                            Side::Left => (d.y - cell.y).abs() <= 1 && d.x < cell.x,
                            Side::Right => (d.y - cell.y).abs() <= 1 && d.x > cell.x,
                        }
                })
                .collect();
            for d in toward {
                changed |= self.kill_data(d, DeadReason::Deformation);
            }
        }
        if changed {
            return true;
        }
        for &cell in &cluster.cells.clone() {
            for d in cell.diagonal_neighbors() {
                changed |= self.kill_data(d, DeadReason::Deformation);
            }
        }
        changed
    }

    fn run(mut self) -> OraclePatch {
        self.seed();
        let max_iters = (4 * (self.layout.width() + self.layout.height()) + 32) as usize;
        let mut status = AdaptStatus::Valid;
        let mut analysis;
        let mut iters = 0;
        loop {
            iters += 1;
            if iters > max_iters {
                status = AdaptStatus::Degenerate("deformation did not converge".into());
                analysis = self.analyze();
                break;
            }
            self.cascade();
            if self.handle_faulty_faces() {
                continue;
            }
            analysis = self.analyze();
            if self.unprotected_rule(&analysis) {
                continue;
            }
            if analysis.invalid.is_empty() {
                match self.void_feedback() {
                    VoidOutcome::Consistent => break,
                    VoidOutcome::Excised => continue,
                    VoidOutcome::Broken(detail) => {
                        status = AdaptStatus::Degenerate(detail);
                        break;
                    }
                }
            }
            let mut killed = false;
            for &id in &analysis.invalid {
                let cluster = analysis.clusters[id as usize].clone();
                let pairs = analysis.pairs[id as usize].clone();
                killed |= self.deform(&cluster, &pairs);
            }
            if !killed {
                status = AdaptStatus::Degenerate("invalid cluster could not be deformed".into());
                break;
            }
        }

        let live_count = self.layout.data_sites().count() - self.dead_data.len();
        if live_count == 0 && status == AdaptStatus::Valid {
            status = AdaptStatus::Degenerate("no active data qubits remain".into());
        }

        let full_faces: Vec<Coord> = self
            .layout
            .face_sites()
            .filter(|&f| self.is_live_face(f) && !analysis.gauge_cluster.contains_key(&f))
            .collect();
        let mut patch = OraclePatch {
            layout: self.layout,
            defects: self.defects,
            dead_data: self.dead_data,
            dead_faces: self.dead_faces,
            full_faces,
            clusters: analysis.clusters,
            gauge_cluster: analysis.gauge_cluster,
            status,
        };
        if patch.is_valid() {
            for basis in [CheckBasis::Z, CheckBasis::X] {
                match build_check_graph(&patch, basis) {
                    Err(e) => {
                        patch.status = AdaptStatus::Degenerate(e.to_string());
                        break;
                    }
                    Ok(g) => {
                        let needs_logical = expected_void_components(&patch.layout, basis) == 2;
                        if needs_logical && g.distance_and_count().is_none() {
                            patch.status = AdaptStatus::Degenerate(format!(
                                "no {basis:?} logical path remains"
                            ));
                            break;
                        }
                    }
                }
            }
        }
        patch
    }
}

/// The reachable void components, with sites, mediators and
/// reachability looked up through `BTreeMap`s.
fn void_components(
    layout: &PatchLayout,
    check_basis: CheckBasis,
    is_live_data: &dyn Fn(Coord) -> bool,
    is_live_face: &dyn Fn(Coord) -> bool,
) -> Vec<VoidComponent> {
    let (w, h) = (2 * layout.width() as i32, 2 * layout.height() as i32);
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
            for pair in ends.windows(2) {
                let (a, b) = (find(&mut parent, pair[0]), find(&mut parent, pair[1]));
                if a != b {
                    parent[a] = b;
                }
            }
        }
        fx += 2;
    }
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
    comps.sort_by(|a, b| {
        b.touches_boundary
            .cmp(&a.touches_boundary)
            .then(b.sites.len().cmp(&a.sites.len()))
    });
    comps
}

/// The check graph of an oracle patch, built from freshly computed void
/// components with every lookup through a `BTreeMap`.
fn build_check_graph(
    patch: &OraclePatch,
    check_basis: CheckBasis,
) -> Result<CheckGraph, CoreError> {
    if let AdaptStatus::Degenerate(reason) = &patch.status {
        return Err(CoreError::DegeneratePatch {
            reason: reason.clone(),
        });
    }
    let layout = &patch.layout;
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
    let mut void_of_site: BTreeMap<Coord, u32> = BTreeMap::new();
    for (i, comp) in comps.iter().enumerate() {
        for &s in &comp.sites {
            void_of_site.insert(s, i as u32);
        }
    }
    let mut check_of_face: BTreeMap<Coord, u32> = BTreeMap::new();
    let mut num_checks = 0u32;
    for &f in &patch.full_faces {
        if f.face_basis() == check_basis {
            check_of_face.insert(f, num_checks);
            num_checks += 1;
        }
    }
    let num_full = num_checks as usize;
    let mut super_of_cluster: BTreeMap<u32, u32> = BTreeMap::new();
    for (id, cluster) in patch.clusters.iter().enumerate() {
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
                match patch.gauge_cluster.get(&s) {
                    None => ends.push(Endpoint::Check(check_of_face[&s])),
                    Some(&c) => *cluster_parity.entry(c).or_insert(0) += 1,
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
    Ok(CheckGraph::from_parts(
        check_basis,
        num_checks as usize,
        num_full,
        comps.len(),
        edges,
    ))
}

/// The indicators as computed by rebuilding both check graphs.
fn indicators(patch: &OraclePatch) -> PatchIndicators {
    let num_data = patch.layout.data_sites().count();
    let mut out = PatchIndicators {
        valid: patch.is_valid(),
        dist_x: 0,
        count_x: 0.0,
        dist_z: 0,
        count_z: 0.0,
        num_faulty: patch.defects.num_faulty(),
        num_disabled_data: patch.dead_data.len(),
        num_disabled_faces: patch.dead_faces.len(),
        proportion_disabled_data: patch.dead_data.len() as f64 / num_data as f64,
        largest_cluster_diameter: patch
            .clusters
            .iter()
            .map(|c| diameter(c) as f64)
            .fold(0.0, f64::max),
    };
    if !patch.is_valid() {
        return out;
    }
    if let Ok(g) = build_check_graph(patch, CheckBasis::Z) {
        if let Some((d, n)) = g.distance_and_count() {
            out.dist_x = d;
            out.count_x = n;
        }
    }
    if let Ok(g) = build_check_graph(patch, CheckBasis::X) {
        if let Some((d, n)) = g.distance_and_count() {
            out.dist_z = d;
            out.count_z = n;
        }
    }
    if out.dist_x == 0 || out.dist_z == 0 {
        out.valid = false;
    }
    out
}

/// Indicators with every float replaced by its bit pattern, so equality
/// is bit for bit.
fn indicator_bits(
    i: &PatchIndicators,
) -> (bool, u32, u64, u32, u64, usize, usize, usize, u64, u64) {
    (
        i.valid,
        i.dist_x,
        i.count_x.to_bits(),
        i.dist_z,
        i.count_z.to_bits(),
        i.num_faulty,
        i.num_disabled_data,
        i.num_disabled_faces,
        i.proportion_disabled_data.to_bits(),
        i.largest_cluster_diameter.to_bits(),
    )
}

/// Asserts that the production adapter and the oracle agree on
/// everything a caller can observe of the adapted patch. Returns whether
/// the patch is valid and whether it measures gauges.
fn assert_agrees(layout: &PatchLayout, defects: &DefectSet) -> (bool, bool) {
    let got = AdaptedPatch::new(layout.clone(), defects);
    let want = OraclePatch::new(layout.clone(), defects);
    let ctx = || format!("{layout:?} defects {defects:?}");
    assert_eq!(got.status(), &want.status, "status: {}", ctx());
    assert_eq!(got.dead_data(), &want.dead_data, "dead data: {}", ctx());
    assert_eq!(got.dead_faces(), &want.dead_faces, "dead faces: {}", ctx());
    assert_eq!(got.clusters(), &want.clusters[..], "clusters: {}", ctx());
    assert_eq!(
        got.full_faces(),
        &want.full_faces[..],
        "full faces: {}",
        ctx()
    );
    for f in layout.face_sites() {
        assert_eq!(
            got.gauge_cluster_of(f),
            want.gauge_cluster.get(&f).copied(),
            "gauge cluster of {f}: {}",
            ctx()
        );
        assert_eq!(
            got.is_live_face(f),
            want.is_live_face(f),
            "face {f}: {}",
            ctx()
        );
    }
    for d in layout.data_sites() {
        assert_eq!(
            got.is_live_data(d),
            want.is_live_data(d),
            "data {d}: {}",
            ctx()
        );
    }
    for basis in [CheckBasis::Z, CheckBasis::X] {
        assert_eq!(
            CheckGraph::build(&got, basis).map_err(|e| e.to_string()),
            build_check_graph(&want, basis).map_err(|e| e.to_string()),
            "{basis:?} check graph: {}",
            ctx()
        );
    }
    assert_eq!(
        indicator_bits(&PatchIndicators::of(&got)),
        indicator_bits(&indicators(&want)),
        "indicators: {}",
        ctx()
    );
    (
        got.is_valid(),
        got.clusters().iter().any(Cluster::has_gauges),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Samples a defect set the way the chiplet defect models do: every
    /// link fails at `rate`, and with `qubits` every data and syndrome
    /// qubit too.
    fn sample(layout: &PatchLayout, rate: f64, qubits: bool, rng: &mut StdRng) -> DefectSet {
        let mut d = DefectSet::new();
        for (q, f) in layout.links() {
            if rng.gen_bool(rate) {
                d.add_link(q, f);
            }
        }
        if qubits {
            for q in layout.data_sites() {
                if rng.gen_bool(rate) {
                    d.add_data(q);
                }
            }
            for f in layout.face_sites() {
                if rng.gen_bool(rate) {
                    d.add_synd(f);
                }
            }
        }
        d
    }

    /// How many compared patches were valid, degenerate, and valid
    /// with gauges.
    #[derive(Default)]
    struct Seen {
        valid: usize,
        degenerate: usize,
        gauged: usize,
    }

    impl Seen {
        /// Asserts the random sets reached every kind of outcome.
        fn assert_covers_all(&self) {
            assert!(
                self.valid > 0 && self.degenerate > 0 && self.gauged > 0,
                "valid {}, degenerate {}, with gauges {}",
                self.valid,
                self.degenerate,
                self.gauged
            );
        }
    }

    /// Runs `trials` random defect sets per defect model through both
    /// adapters.
    fn agree_on_random(layout: &PatchLayout, rate: f64, trials: usize, seed: u64, seen: &mut Seen) {
        let mut rng = StdRng::seed_from_u64(seed);
        for qubits in [true, false] {
            for _ in 0..trials {
                let defects = sample(layout, rate, qubits, &mut rng);
                match assert_agrees(layout, &defects) {
                    (false, _) => seen.degenerate += 1,
                    (true, gauged) => {
                        seen.valid += 1;
                        seen.gauged += usize::from(gauged);
                    }
                }
            }
        }
    }

    #[test]
    fn dense_adapter_matches_map_oracle_on_memory_patches() {
        let mut seen = Seen::default();
        let mut seed = 0;
        for l in [5u32, 7, 9, 11] {
            for rate in [0.002, 0.005, 0.01, 0.02, 0.03] {
                seed += 1;
                agree_on_random(&PatchLayout::memory(l), rate, 20, seed, &mut seen);
            }
        }
        seen.assert_covers_all();
    }

    #[test]
    fn dense_adapter_matches_map_oracle_on_stability_patches() {
        let mut seen = Seen::default();
        let mut seed = 100;
        for (w, h) in [(4u32, 4u32), (6, 6), (8, 4), (10, 10)] {
            for rate in [0.005, 0.01, 0.03] {
                seed += 1;
                agree_on_random(&PatchLayout::stability(w, h), rate, 20, seed, &mut seen);
            }
        }
        seen.assert_covers_all();
    }

    #[test]
    #[ignore = "large patches; run in release with --ignored"]
    fn dense_adapter_matches_map_oracle_on_large_patches() {
        let mut seen = Seen::default();
        let mut seed = 200;
        for l in [17u32, 25, 31] {
            for rate in [0.002, 0.01] {
                seed += 1;
                agree_on_random(&PatchLayout::memory(l), rate, 40, seed, &mut seen);
            }
        }
        seen.assert_covers_all();
    }
}
