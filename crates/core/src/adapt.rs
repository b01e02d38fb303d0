//! Adapting a rotated surface code to a defective qubit grid.
//!
//! This implements the paper's §3 algorithm: fabrication defects in the
//! interior are handled by disabling qubits and measuring the reduced
//! faces around the resulting hole as *gauge operators* whose products
//! form super-stabilizers; defects too close to a boundary are handled
//! by *deforming* the boundary to excise them. The two mechanisms
//! interact through an iterative kill-cascade:
//!
//! * **R1** — a face left with ≤ 1 active data qubit is disabled.
//! * **R2** — a face left with exactly 2 active data qubits on one of
//!   its diagonals is disabled along with those two qubits (paper §3).
//! * **R3** — a data qubit with no active X-face or no active Z-face is
//!   disabled (its errors of one type would be locally invisible).
//! * **R4** — a faulty syndrome qubit disables its data neighbours: all
//!   of them in the interior (forming the Fig. 1b super-stabilizer), or
//!   only its boundary-side neighbours when within one step of a
//!   boundary (the Fig. 1c/d deformations).
//! * **R5** — a data qubit whose X (Z) error flips no Z-type (X-type)
//!   check — counting super-stabilizer parity — is disabled.
//!
//! Reduced faces that anticommute (share exactly one active qubit) are
//! gauge operators; they are grouped into clusters around the connected
//! dead regions. A cluster is *gaugeable* if its X-gauge product
//! commutes with every Z gauge and vice versa; otherwise the boundary is
//! deformed: the anticommuting face whose color differs from the nearest
//! boundary is disabled (with shadow excision as an escalation), and the
//! cascade reruns.

use crate::coords::{Coord, Side};
use crate::defect::DefectSet;
use crate::layout::PatchLayout;
use dqec_sim::circuit::CheckBasis;
use dqec_sim::f2::SymplecticSpace;
use std::collections::{BTreeMap, BTreeSet};

/// Why a qubit or face was disabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeadReason {
    /// Fabrication-faulty (or disabled by a faulty link).
    Faulty,
    /// Disabled because a neighbouring faulty syndrome qubit required it.
    Propagated,
    /// R1: face left with ≤ 1 active data qubit.
    WeightRule,
    /// R2: face left with two active data qubits on a diagonal.
    DiagonalRule,
    /// R3/R5: data qubit with unprotected errors.
    Coverage,
    /// Removed by a boundary deformation.
    Deformation,
}

/// A connected cluster of disabled cells and its gauge operators.
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    /// The disabled data/face cells in this cluster.
    pub cells: Vec<Coord>,
    /// X-type gauge faces around the cluster.
    pub x_gauges: Vec<Coord>,
    /// Z-type gauge faces around the cluster.
    pub z_gauges: Vec<Coord>,
    /// Gauge-block length: measure one basis this many rounds before
    /// switching (the paper sets it to the cluster diameter).
    pub repetitions: u32,
}

impl Cluster {
    /// Cluster diameter in qubit units (1 = single cell).
    pub fn diameter(&self) -> u32 {
        let mut max = 0;
        for (i, a) in self.cells.iter().enumerate() {
            for b in &self.cells[i + 1..] {
                max = max.max(a.chebyshev(*b));
            }
        }
        (max / 2 + 1) as u32
    }

    /// Whether this cluster measures any gauge operators.
    pub fn has_gauges(&self) -> bool {
        !self.x_gauges.is_empty() || !self.z_gauges.is_empty()
    }
}

/// Whether the adaptation produced a usable code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdaptStatus {
    /// The patch passed all structural checks.
    Valid,
    /// The defects destroyed the patch (no valid code remains). Such
    /// patches count as failed chiplets with distance 0.
    Degenerate(String),
}

/// A rotated surface code adapted to a set of fabrication defects.
///
/// # Examples
///
/// ```
/// use dqec_core::adapt::AdaptedPatch;
/// use dqec_core::coords::Coord;
/// use dqec_core::defect::DefectSet;
/// use dqec_core::layout::PatchLayout;
///
/// // Fig. 1a: one broken data qubit in the interior of a 5x5 patch.
/// let mut defects = DefectSet::new();
/// defects.add_data(Coord::new(5, 5));
/// let patch = AdaptedPatch::new(PatchLayout::memory(5), &defects);
/// assert!(patch.is_valid());
/// assert_eq!(patch.clusters().len(), 1);
/// // One weight-6 X and one weight-6 Z super-stabilizer from 2+2 gauges.
/// assert_eq!(patch.clusters()[0].x_gauges.len(), 2);
/// assert_eq!(patch.clusters()[0].z_gauges.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct AdaptedPatch {
    layout: PatchLayout,
    defects: DefectSet,
    dead_data: BTreeMap<Coord, DeadReason>,
    dead_faces: BTreeMap<Coord, DeadReason>,
    full_faces: Vec<Coord>,
    clusters: Vec<Cluster>,
    gauge_cluster: BTreeMap<Coord, u32>,
    status: AdaptStatus,
}

impl AdaptedPatch {
    /// Adapts `layout` to `defects` (clamped to the layout first).
    pub fn new(layout: PatchLayout, defects: &DefectSet) -> Self {
        let defects = defects.clamp_to(&layout);
        Adapter::new(layout, defects).run()
    }

    /// The underlying layout.
    pub fn layout(&self) -> &PatchLayout {
        &self.layout
    }

    /// The (clamped) defects the patch was adapted to.
    pub fn defects(&self) -> &DefectSet {
        &self.defects
    }

    /// Whether the adaptation succeeded structurally.
    pub fn is_valid(&self) -> bool {
        self.status == AdaptStatus::Valid
    }

    /// The adaptation status.
    pub fn status(&self) -> &AdaptStatus {
        &self.status
    }

    /// Disabled data qubits with their reasons.
    pub fn dead_data(&self) -> &BTreeMap<Coord, DeadReason> {
        &self.dead_data
    }

    /// Disabled faces with their reasons.
    pub fn dead_faces(&self) -> &BTreeMap<Coord, DeadReason> {
        &self.dead_faces
    }

    /// Whether a data qubit is active.
    pub fn is_live_data(&self, c: Coord) -> bool {
        self.layout.contains_data(c) && !self.dead_data.contains_key(&c)
    }

    /// Whether a face is active (full stabilizer or gauge).
    pub fn is_live_face(&self, c: Coord) -> bool {
        self.layout.contains_face(c) && !self.dead_faces.contains_key(&c)
    }

    /// Active data qubits, ascending.
    pub fn live_data(&self) -> Vec<Coord> {
        self.layout
            .data_sites()
            .filter(|&c| self.is_live_data(c))
            .collect()
    }

    /// Faces measured as full stabilizers, ascending.
    pub fn full_faces(&self) -> &[Coord] {
        &self.full_faces
    }

    /// The gauge clusters.
    pub fn clusters(&self) -> &[Cluster] {
        &self.clusters
    }

    /// The cluster id a gauge face belongs to, if it is a gauge.
    pub fn gauge_cluster_of(&self, face: Coord) -> Option<u32> {
        self.gauge_cluster.get(&face).copied()
    }

    /// The active data qubits a live face acts on.
    pub fn face_live_support(&self, face: Coord) -> Vec<Coord> {
        self.layout
            .face_support(face)
            .into_iter()
            .filter(|&d| self.is_live_data(d))
            .collect()
    }

    /// Number of active data qubits.
    pub fn num_live_data(&self) -> usize {
        self.layout.data_sites().count() - self.dead_data.len()
    }

    /// Verifies the adapted code with exact F2 symplectic arithmetic:
    /// the measured checks must encode exactly the layout's expected
    /// number of logical qubits. Quadratic in patch size — intended for
    /// tests and debugging, not for the sampling hot path.
    ///
    /// Returns `Err` with a description when inconsistent.
    pub fn verify_code_consistency(&self) -> Result<(), String> {
        if !self.is_valid() {
            return Err("patch is degenerate".into());
        }
        let live: Vec<Coord> = self.live_data();
        let index: BTreeMap<Coord, usize> = live.iter().enumerate().map(|(i, &c)| (c, i)).collect();
        let mut space = SymplecticSpace::new(live.len());
        let push_face = |f: Coord, space: &mut SymplecticSpace| {
            let support: Vec<usize> = self.face_live_support(f).iter().map(|c| index[c]).collect();
            match f.face_basis() {
                CheckBasis::X => space.push_support(&support, &[]),
                CheckBasis::Z => space.push_support(&[], &support),
            }
        };
        for &f in &self.full_faces {
            push_face(f, &mut space);
        }
        for cluster in &self.clusters {
            for &g in cluster.x_gauges.iter().chain(&cluster.z_gauges) {
                push_face(g, &mut space);
            }
        }
        let k = space.logical_qubit_count();
        let expected = self.layout.expected_logicals();
        if k != expected {
            return Err(format!(
                "code encodes {k} logical qubits, expected {expected}"
            ));
        }
        // Full faces must commute with everything measured: verified
        // implicitly by gauge classification; double-check pairwise.
        for (i, &f) in self.full_faces.iter().enumerate() {
            let _ = i;
            if self.gauge_cluster.contains_key(&f) {
                return Err(format!("face {f} is both full and gauge"));
            }
        }
        Ok(())
    }
}

/// Pair of data sites between two orthogonally adjacent faces.
fn shared_sites(f: Coord, g: Coord) -> [Coord; 2] {
    debug_assert_eq!(f.chebyshev(g), 2);
    debug_assert!((f.x == g.x) ^ (f.y == g.y));
    if f.y == g.y {
        let x = (f.x + g.x) / 2;
        [Coord::new(x, f.y - 1), Coord::new(x, f.y + 1)]
    } else {
        let y = (f.y + g.y) / 2;
        [Coord::new(f.x - 1, y), Coord::new(f.x + 1, y)]
    }
}

/// The four orthogonal face-lattice neighbours of a face.
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
    /// (x_face, z_face) anticommuting pairs per cluster.
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

    /// Seeds the dead sets from the defect list.
    fn seed(&mut self) {
        for &s in self.defects.synd.clone().iter() {
            self.kill_face(s, DeadReason::Faulty);
        }
        for &d in self.defects.data.clone().iter() {
            self.kill_data(d, DeadReason::Faulty);
        }
        // A faulty link disables the attached data qubit, unless the
        // syndrome qubit at the other end is already disabled (paper §4).
        for &(d, s) in self.defects.links.clone().iter() {
            if self.is_live_face(s) {
                self.kill_data(d, DeadReason::Faulty);
            }
        }
    }

    /// R1–R3 to fixed point. Returns whether anything changed.
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

    /// R4: each faulty face disables data neighbours — all of them in
    /// the interior, boundary-side ones near a boundary. Fires once per
    /// faulty face. Returns whether anything changed.
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
                // Fig 1d: a face of different color than the nearby
                // boundary only loses its boundary-side neighbours.
                let fd = self.layout.distance_to_side(f, side);
                for d in neighbors {
                    if self.layout.distance_to_side(d, side) < fd {
                        changed |= self.kill_data(d, DeadReason::Deformation);
                    }
                }
            } else if dist <= 2 {
                // Fig 1c: same color as the boundary — more qubits must
                // be excluded. Disable all neighbours; the deformation
                // escalation then trims the opposite-type faces so the
                // notch merges into the boundary.
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

    /// R5: data whose X (Z) errors flip no Z-type (X-type) check. Needs
    /// cluster info for super-stabilizer parity. Returns changes.
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
                        // void termination counts as an attachment
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

    /// Identifies gauge faces, clusters, and per-cluster validity.
    fn analyze(&self) -> Analysis {
        // Anticommuting (X, Z) face pairs: orthogonal neighbours sharing
        // exactly one live data qubit.
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

        // Clusters: connected components of dead cells (Chebyshev <= 2).
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

        // Assign gauge faces to the cluster of an adjacent dead cell.
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
            // A gauge face with no adjacent dead cell cannot happen (it
            // must have lost a neighbour); leave unassigned and let the
            // validity check fail defensively if it does.
        }
        for c in clusters.iter_mut() {
            c.repetitions = c.diameter();
        }

        // Pairs per cluster.
        let mut pairs: Vec<Vec<(Coord, Coord)>> = vec![Vec::new(); clusters.len()];
        let mut orphan_pair = false;
        for (xf, zf) in raw_pairs {
            match (gauge_cluster.get(&xf), gauge_cluster.get(&zf)) {
                (Some(&a), Some(&b)) if a == b => pairs[a as usize].push((xf, zf)),
                _ => orphan_pair = true,
            }
        }

        // Validity: super-stabilizer products must commute with every
        // opposite gauge.
        let mut invalid = Vec::new();
        for (id, cluster) in clusters.iter().enumerate() {
            if !self.cluster_is_gaugeable(cluster) {
                invalid.push(id as u32);
            }
        }
        if orphan_pair {
            // Force another deformation round via a pseudo-invalid flag
            // on every cluster with gauges (conservative, rare).
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

    /// Checks reachable void component counts per basis; excises data
    /// around spurious extra components. Returns after the first basis
    /// that needed excision so the cascade reruns before the other
    /// basis is inspected.
    fn void_feedback(&mut self) -> VoidOutcome {
        for basis in [CheckBasis::Z, CheckBasis::X] {
            let comps = crate::graphs::void_components(
                &self.layout,
                basis,
                &|c| self.is_live_data(c),
                &|c| self.is_live_face(c),
            );
            let expected = crate::graphs::expected_void_components(&self.layout, basis);
            if comps.len() < expected {
                return VoidOutcome::Broken(format!(
                    "{} reachable {basis:?} void components, expected {expected}",
                    comps.len()
                ));
            }
            // `void_components` sorts largest-first; treat the smallest
            // surplus components as spurious.
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

    /// One deformation step on an invalid cluster. Returns whether
    /// anything was killed.
    fn deform(&mut self, cluster: &Cluster, pairs: &[(Coord, Coord)]) -> bool {
        let (side, dist) = cluster
            .cells
            .iter()
            .map(|&c| self.layout.nearest_side(c))
            .min_by_key(|&(_, d)| d)
            .unwrap_or((Side::Top, 0));
        if dist > 2 {
            // Interior cluster whose gauge shell does not close: the
            // hole has concave corners (e.g. two holes pinched together
            // diagonally). Convexify: disable live data qubits with at
            // least three disabled neighbours in this cluster, and let
            // the shell re-form around the rounded hole.
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
            // Fallback: grow the hole by one ring.
            for &cell in &cluster.cells {
                for d in cell.diagonal_neighbors() {
                    changed |= self.kill_data(d, DeadReason::Deformation);
                }
            }
            return changed;
        }
        let boundary_color = self.layout.boundary().of(side);
        let mut changed = false;

        // Strategy 1: disable anticommuting faces of the wrong color
        // near the boundary.
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
        // Strategy 2: disable all wrong-color anticommuting faces of the
        // cluster regardless of position.
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
        // Strategy 3: excise the shadow between the cluster and the
        // boundary.
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
        // Strategy 4: grow the hole by one ring.
        for &cell in &cluster.cells.clone() {
            for d in cell.diagonal_neighbors() {
                changed |= self.kill_data(d, DeadReason::Deformation);
            }
        }
        changed
    }

    fn run(mut self) -> AdaptedPatch {
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
                // Void feedback: every syndrome lattice must have
                // exactly the expected number of reachable boundary
                // components. An isolated extra component is a spurious
                // logical degree of freedom introduced by a pileup of
                // deformations; excise the data around it so it merges
                // with a boundary or seals off.
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

        // A patch with no live data is unusable.
        let live_count = self.layout.data_sites().count() - self.dead_data.len();
        if live_count == 0 && status == AdaptStatus::Valid {
            status = AdaptStatus::Degenerate("no active data qubits remain".into());
        }

        let full_faces: Vec<Coord> = self
            .layout
            .face_sites()
            .filter(|&f| self.is_live_face(f) && !analysis.gauge_cluster.contains_key(&f))
            .collect();
        let mut patch = AdaptedPatch {
            layout: self.layout,
            defects: self.defects,
            dead_data: self.dead_data,
            dead_faces: self.dead_faces,
            full_faces,
            clusters: analysis.clusters,
            gauge_cluster: analysis.gauge_cluster,
            status,
        };
        // Post-validation: both check graphs must build, and for
        // layouts encoding a logical qubit the two boundary components
        // must be connected by live qubits (defects can split the patch
        // into islands that encode nothing).
        if patch.is_valid() {
            for basis in [CheckBasis::Z, CheckBasis::X] {
                match crate::graphs::CheckGraph::build(&patch, basis) {
                    Err(e) => {
                        patch.status = AdaptStatus::Degenerate(e.to_string());
                        break;
                    }
                    Ok(g) => {
                        let needs_logical =
                            crate::graphs::expected_void_components(&patch.layout, basis) == 2;
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

#[cfg(test)]
mod tests {
    use super::*;

    fn memory_patch(l: u32, defects: &DefectSet) -> AdaptedPatch {
        AdaptedPatch::new(PatchLayout::memory(l), defects)
    }

    #[test]
    fn defect_free_patch_is_unchanged() {
        let patch = memory_patch(5, &DefectSet::new());
        assert!(patch.is_valid());
        assert!(patch.dead_data().is_empty());
        assert!(patch.dead_faces().is_empty());
        assert_eq!(patch.full_faces().len(), 24);
        assert!(patch.clusters().is_empty());
        patch.verify_code_consistency().unwrap();
    }

    #[test]
    fn fig1a_interior_data_defect() {
        // Single broken data qubit in the interior: weight-6
        // super-stabilizers from two weight-3 gauges each.
        let mut d = DefectSet::new();
        d.add_data(Coord::new(5, 5));
        let patch = memory_patch(5, &d);
        assert!(patch.is_valid());
        assert_eq!(patch.dead_data().len(), 1);
        assert!(patch.dead_faces().is_empty());
        assert_eq!(patch.clusters().len(), 1);
        let c = &patch.clusters()[0];
        assert_eq!(c.x_gauges.len(), 2);
        assert_eq!(c.z_gauges.len(), 2);
        assert_eq!(c.repetitions, 1, "single-cell cluster alternates XZXZ");
        patch.verify_code_consistency().unwrap();
    }

    #[test]
    fn fig1b_interior_syndrome_defect() {
        // Broken syndrome qubit in the interior of a 7x7 patch: all four
        // data neighbours disabled, super-stabilizers of 3-4 gauges.
        let mut d = DefectSet::new();
        d.add_synd(Coord::new(6, 6));
        let patch = memory_patch(7, &d);
        assert!(patch.is_valid());
        assert_eq!(patch.dead_data().len(), 4);
        assert_eq!(patch.clusters().len(), 1);
        let c = &patch.clusters()[0];
        assert_eq!(c.x_gauges.len() + c.z_gauges.len(), 8);
        assert_eq!(c.repetitions, 2, "diameter-2 cluster measures XXZZ");
        patch.verify_code_consistency().unwrap();
    }

    #[test]
    fn corner_data_defect_excludes_one_face() {
        let mut d = DefectSet::new();
        d.add_data(Coord::new(1, 1));
        let patch = memory_patch(5, &d);
        assert!(patch.is_valid());
        assert_eq!(patch.dead_data().len(), 1);
        assert_eq!(patch.dead_faces().len(), 1, "only the corner face dies");
        assert!(patch.clusters().iter().all(|c| !c.has_gauges()));
        patch.verify_code_consistency().unwrap();
    }

    #[test]
    fn edge_data_defect_deforms_boundary() {
        // Data qubit on the top row: Fig 1d-style deformation removing
        // two data qubits, one Z face, one X face.
        let mut d = DefectSet::new();
        d.add_data(Coord::new(5, 1));
        let patch = memory_patch(5, &d);
        assert!(patch.is_valid(), "status: {:?}", patch.status());
        assert_eq!(patch.dead_data().len(), 2);
        assert_eq!(patch.dead_faces().len(), 2);
        assert!(patch.clusters().iter().all(|c| !c.has_gauges()));
        patch.verify_code_consistency().unwrap();
    }

    #[test]
    fn near_boundary_syndrome_defect_different_color() {
        // Z face one step from the top (X) boundary: kills the two
        // boundary-side data qubits and cascades (Fig 1d right).
        let mut d = DefectSet::new();
        d.add_synd(Coord::new(6, 2));
        let patch = memory_patch(5, &d);
        assert!(patch.is_valid());
        assert_eq!(patch.dead_data().len(), 2);
        // The faulty face plus the orphaned boundary X face.
        assert_eq!(patch.dead_faces().len(), 2);
        patch.verify_code_consistency().unwrap();
    }

    #[test]
    fn near_boundary_syndrome_defect_same_color() {
        // X face one step from the top (X) boundary (Fig 1c left).
        let mut d = DefectSet::new();
        d.add_synd(Coord::new(4, 2));
        let patch = memory_patch(5, &d);
        assert!(patch.is_valid(), "status: {:?}", patch.status());
        patch.verify_code_consistency().unwrap();
        // Deformation excises the shadow toward the boundary plus
        // coverage cascades.
        assert!(patch.dead_data().len() >= 2);
    }

    #[test]
    fn boundary_face_defect_on_own_boundary() {
        // Faulty weight-2 Z face on the left (Z) boundary.
        let mut d = DefectSet::new();
        d.add_synd(Coord::new(0, 4));
        let patch = memory_patch(5, &d);
        assert!(patch.is_valid());
        patch.verify_code_consistency().unwrap();
    }

    #[test]
    fn diagonal_pair_forms_single_cluster() {
        let mut d = DefectSet::new();
        d.add_data(Coord::new(5, 5));
        d.add_data(Coord::new(7, 7));
        let patch = memory_patch(7, &d);
        assert!(patch.is_valid(), "status: {:?}", patch.status());
        assert_eq!(patch.clusters().len(), 1);
        patch.verify_code_consistency().unwrap();
    }

    #[test]
    fn adjacent_pair_cluster() {
        let mut d = DefectSet::new();
        d.add_data(Coord::new(5, 5));
        d.add_data(Coord::new(7, 5));
        let patch = memory_patch(7, &d);
        assert!(patch.is_valid());
        assert_eq!(patch.clusters().len(), 1);
        patch.verify_code_consistency().unwrap();
    }

    #[test]
    fn link_defect_disables_data_qubit() {
        let mut d = DefectSet::new();
        d.add_link(Coord::new(5, 5), Coord::new(4, 4));
        let patch = memory_patch(7, &d);
        assert!(patch.is_valid());
        assert!(patch.dead_data().contains_key(&Coord::new(5, 5)));
        patch.verify_code_consistency().unwrap();
    }

    #[test]
    fn link_to_dead_face_is_ignored() {
        let mut d = DefectSet::new();
        d.add_synd(Coord::new(4, 4));
        d.add_link(Coord::new(5, 5), Coord::new(4, 4));
        let patch = memory_patch(7, &d);
        assert!(patch.is_valid());
        // (5,5) dies anyway via R4 (all four neighbours of the dead
        // ancilla die), but the reason is propagation, not the link.
        assert_eq!(patch.dead_data()[&Coord::new(5, 5)], DeadReason::Propagated);
        patch.verify_code_consistency().unwrap();
    }

    #[test]
    fn two_separate_clusters() {
        let mut d = DefectSet::new();
        d.add_data(Coord::new(3, 3));
        d.add_data(Coord::new(15, 15));
        let patch = memory_patch(9, &d);
        assert!(patch.is_valid());
        assert_eq!(patch.clusters().len(), 2);
        patch.verify_code_consistency().unwrap();
    }

    #[test]
    fn stability_patch_with_center_defect() {
        let mut d = DefectSet::new();
        d.add_data(Coord::new(5, 5));
        let patch = AdaptedPatch::new(PatchLayout::stability(6, 6), &d);
        assert!(patch.is_valid(), "status: {:?}", patch.status());
        patch.verify_code_consistency().unwrap();
    }

    #[test]
    fn totally_destroyed_patch_is_degenerate() {
        let mut d = DefectSet::new();
        for site in PatchLayout::memory(3).data_sites() {
            d.add_data(site);
        }
        let patch = memory_patch(3, &d);
        assert!(!patch.is_valid());
    }

    #[test]
    fn random_defects_always_produce_consistent_codes() {
        use crate::graphs::CheckGraph;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(2024);
        let mut degenerate = 0;
        let mut total = 0;
        for (l, rate, trials) in [(5u32, 0.03, 150), (9, 0.02, 250), (11, 0.015, 120)] {
            let layout = PatchLayout::memory(l);
            let data: Vec<Coord> = layout.data_sites().collect();
            let faces: Vec<Coord> = layout.face_sites().collect();
            let links = layout.links();
            for _ in 0..trials {
                total += 1;
                let mut d = DefectSet::new();
                for &c in &data {
                    if rng.gen_bool(rate) {
                        d.add_data(c);
                    }
                }
                for &c in &faces {
                    if rng.gen_bool(rate) {
                        d.add_synd(c);
                    }
                }
                for &(dq, f) in &links {
                    if rng.gen_bool(rate / 2.0) {
                        d.add_link(dq, f);
                    }
                }
                let patch = memory_patch(l, &d);
                if !patch.is_valid() {
                    degenerate += 1;
                    continue;
                }
                patch
                    .verify_code_consistency()
                    .unwrap_or_else(|e| panic!("inconsistent code for l={l} defects {d:?}: {e}"));
                // The check graphs must build and give sane distances.
                for basis in [CheckBasis::X, CheckBasis::Z] {
                    let g = CheckGraph::build(&patch, basis).unwrap_or_else(|e| {
                        panic!("graph build failed for l={l} defects {d:?}: {e}")
                    });
                    let (dist, count) = g.distance_and_count().unwrap();
                    assert!(dist >= 1 && dist <= l, "distance {dist} out of range");
                    assert!(count >= 1.0);
                }
            }
        }
        assert!(
            degenerate * 10 < total,
            "too many degenerate patches: {degenerate}/{total}"
        );
    }
}
