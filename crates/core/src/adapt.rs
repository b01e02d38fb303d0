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
//!
//! # State layout
//!
//! The adapter keeps one per-site array over the doubled-coordinate
//! grid of the layout plus a two-site margin on every side (the reach
//! of the void lattices), indexed x-major from `(x, y)` so that index
//! order is `Coord` order. Each entry says whether the site is outside
//! the layout, live, or dead and why; data and face sites share the
//! array and are told apart by parity. Every rule reads and writes that
//! array, clustering scans each dead cell's Chebyshev-2 neighbourhood
//! on the grid, and each analysis leaves a parallel array of gauge
//! cluster ids. [`AdaptedPatch`] keeps both arrays for its lookups; its
//! [`dead_data`](AdaptedPatch::dead_data) and
//! [`dead_faces`](AdaptedPatch::dead_faces) maps are read off the
//! array once, at the end.
//!
//! Post-validation builds both check graphs from the void components
//! that the final, consistent void-feedback pass computed on the same
//! state, and keeps each basis's distance and shortest-logical count on
//! the patch for [`PatchIndicators`](crate::indicators::PatchIndicators).

use crate::coords::{Coord, Side};
use crate::defect::DefectSet;
use crate::graphs::{expected_void_components, void_components, CheckGraph, VoidComponent};
use crate::layout::PatchLayout;
use dqec_sim::circuit::CheckBasis;
use dqec_sim::f2::SymplecticSpace;
use std::collections::BTreeMap;

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
    /// Cluster diameter in qubit units (1 = single cell): half the
    /// largest Chebyshev distance between two cells, plus one. That
    /// distance is the larger of the cells' x- and y-spans.
    pub fn diameter(&self) -> u32 {
        let span = |coord: fn(&Coord) -> i32| {
            let lo = self.cells.iter().map(coord).min().unwrap_or(0);
            let hi = self.cells.iter().map(coord).max().unwrap_or(0);
            hi - lo
        };
        (span(|c| c.x).max(span(|c| c.y)) / 2 + 1) as u32
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

/// The doubled-coordinate grid of a layout plus a margin of
/// [`Grid::MARGIN`] on every side, indexed x-major so that index order
/// is `Coord` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Grid {
    nx: i32,
    ny: i32,
}

impl Grid {
    /// How far the grid reaches beyond the layout's boundary rows: the
    /// void lattices extend two units past them.
    const MARGIN: i32 = 2;

    /// The grid of `layout`.
    pub(crate) fn of(layout: &PatchLayout) -> Grid {
        Grid {
            nx: 2 * layout.width() as i32 + 1 + 2 * Self::MARGIN,
            ny: 2 * layout.height() as i32 + 1 + 2 * Self::MARGIN,
        }
    }

    /// Number of grid positions.
    pub(crate) fn len(self) -> usize {
        (self.nx * self.ny) as usize
    }

    /// The position of `c`, if the grid covers it.
    #[inline]
    pub(crate) fn index(self, c: Coord) -> Option<usize> {
        let (x, y) = (c.x + Self::MARGIN, c.y + Self::MARGIN);
        ((x as u32) < self.nx as u32 && (y as u32) < self.ny as u32)
            .then_some((x * self.ny + y) as usize)
    }

    /// The coordinate at position `i`.
    pub(crate) fn coord(self, i: usize) -> Coord {
        let i = i as i32;
        Coord::new(i / self.ny - Self::MARGIN, i % self.ny - Self::MARGIN)
    }
}

/// The state of one grid site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Site {
    /// No qubit of the layout sits here.
    Absent,
    /// An active qubit.
    Live,
    /// A disabled qubit.
    Dead(DeadReason),
}

/// Marks a grid site that belongs to no cluster.
const NO_CLUSTER: u32 = u32::MAX;

/// Per-site liveness and reason over a layout's [`Grid`].
#[derive(Debug, Clone)]
struct Sites {
    grid: Grid,
    state: Vec<Site>,
}

impl Sites {
    /// Every data and face site of `layout` live.
    fn new(layout: &PatchLayout) -> Self {
        let grid = Grid::of(layout);
        let mut state = vec![Site::Absent; grid.len()];
        for c in layout.data_sites().chain(layout.face_sites()) {
            if let Some(i) = grid.index(c) {
                state[i] = Site::Live;
            }
        }
        Sites { grid, state }
    }

    #[inline]
    fn is_live(&self, c: Coord) -> bool {
        self.grid
            .index(c)
            .is_some_and(|i| self.state[i] == Site::Live)
    }

    #[inline]
    fn is_live_data(&self, c: Coord) -> bool {
        c.is_data_site() && self.is_live(c)
    }

    #[inline]
    fn is_live_face(&self, c: Coord) -> bool {
        c.is_face_site() && self.is_live(c)
    }

    fn kill(&mut self, c: Coord, reason: DeadReason) -> bool {
        match self.grid.index(c) {
            Some(i) if self.state[i] == Site::Live => {
                self.state[i] = Site::Dead(reason);
                true
            }
            _ => false,
        }
    }

    fn kill_data(&mut self, c: Coord, reason: DeadReason) -> bool {
        c.is_data_site() && self.kill(c, reason)
    }

    fn kill_face(&mut self, c: Coord, reason: DeadReason) -> bool {
        c.is_face_site() && self.kill(c, reason)
    }

    /// The live data qubits of a face, in `diagonal_neighbors` order.
    fn live_support(&self, f: Coord) -> impl Iterator<Item = Coord> + '_ {
        f.diagonal_neighbors()
            .into_iter()
            .filter(move |&d| self.is_live_data(d))
    }

    /// The dead sites among `sites`, with their reasons.
    fn dead_among(&self, sites: &[Coord]) -> BTreeMap<Coord, DeadReason> {
        sites
            .iter()
            .filter_map(|&c| match self.grid.index(c).map(|i| self.state[i]) {
                Some(Site::Dead(reason)) => Some((c, reason)),
                _ => None,
            })
            .collect()
    }
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
    sites: Sites,
    /// Gauge cluster id per grid site ([`NO_CLUSTER`] when not a gauge).
    gauge_cluster: Vec<u32>,
    dead_data: BTreeMap<Coord, DeadReason>,
    dead_faces: BTreeMap<Coord, DeadReason>,
    full_faces: Vec<Coord>,
    clusters: Vec<Cluster>,
    status: AdaptStatus,
    /// Post-validation's `distance_and_count` of the Z- and the X-check
    /// graph (`None` when degenerate or when the lattice has no pair of
    /// voids).
    logicals: [Option<(u32, f64)>; 2],
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
        self.sites.is_live_data(c)
    }

    /// Whether a face is active (full stabilizer or gauge).
    pub fn is_live_face(&self, c: Coord) -> bool {
        self.sites.is_live_face(c)
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
        let id = self.gauge_cluster[self.sites.grid.index(face)?];
        (id != NO_CLUSTER).then_some(id)
    }

    /// The active data qubits a live face acts on.
    pub fn face_live_support(&self, face: Coord) -> Vec<Coord> {
        self.sites.live_support(face).collect()
    }

    /// The shortest logical chain's weight and the number of such
    /// chains on the `check_basis` graph, as post-validation found them
    /// (`None` for a degenerate patch or a lattice without two voids).
    pub(crate) fn distance_and_count(&self, check_basis: CheckBasis) -> Option<(u32, f64)> {
        match check_basis {
            CheckBasis::Z => self.logicals[0],
            CheckBasis::X => self.logicals[1],
        }
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
        for &f in &self.full_faces {
            if self.gauge_cluster_of(f).is_some() {
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

struct Adapter {
    layout: PatchLayout,
    defects: DefectSet,
    sites: Sites,
    /// The layout's data sites, ascending.
    data: Vec<Coord>,
    /// The layout's face sites, ascending.
    faces: Vec<Coord>,
    /// Faulty faces whose R4 has not fired yet, ascending.
    faulty_faces: Vec<Coord>,
}

struct Analysis {
    clusters: Vec<Cluster>,
    /// Gauge cluster id per grid site ([`NO_CLUSTER`] when not a gauge).
    gauge_cluster: Vec<u32>,
    /// (x_face, z_face) anticommuting pairs per cluster.
    pairs: Vec<Vec<(Coord, Coord)>>,
    invalid: Vec<u32>,
}

enum VoidOutcome {
    /// Both lattices have their expected components: the Z lattice's,
    /// then the X lattice's.
    Consistent([Vec<VoidComponent>; 2]),
    Excised,
    Broken(String),
}

/// The root of `i` in a union-find forest stored as parent links, with
/// path compression.
pub(crate) fn find(parent: &mut [u32], i: usize) -> usize {
    let mut root = i;
    while parent[root] as usize != root {
        root = parent[root] as usize;
    }
    let mut cur = i;
    while parent[cur] as usize != root {
        let next = parent[cur] as usize;
        parent[cur] = root as u32;
        cur = next;
    }
    root
}

impl Adapter {
    fn new(layout: PatchLayout, defects: DefectSet) -> Self {
        Adapter {
            sites: Sites::new(&layout),
            data: layout.data_sites().collect(),
            faces: layout.face_sites().collect(),
            layout,
            defects,
            faulty_faces: Vec::new(),
        }
    }

    /// Seeds the dead sets from the defect list.
    fn seed(&mut self) {
        for &s in &self.defects.synd {
            if self.sites.kill_face(s, DeadReason::Faulty) {
                self.faulty_faces.push(s);
            }
        }
        for &d in &self.defects.data {
            self.sites.kill_data(d, DeadReason::Faulty);
        }
        // A faulty link disables the attached data qubit, unless the
        // syndrome qubit at the other end is already disabled (paper §4).
        for &(d, s) in &self.defects.links {
            if self.sites.is_live_face(s) {
                self.sites.kill_data(d, DeadReason::Faulty);
            }
        }
    }

    /// R1–R3 to fixed point.
    fn cascade(&mut self) {
        let sites = &mut self.sites;
        loop {
            let mut changed = false;
            for &f in &self.faces {
                if !sites.is_live_face(f) {
                    continue;
                }
                let mut sup = [f; 4];
                let mut n = 0;
                for d in sites.live_support(f) {
                    sup[n] = d;
                    n += 1;
                }
                if n <= 1 {
                    changed |= sites.kill_face(f, DeadReason::WeightRule);
                } else if n == 2
                    && (sup[0].x - sup[1].x).abs() == 2
                    && (sup[0].y - sup[1].y).abs() == 2
                {
                    changed |= sites.kill_face(f, DeadReason::DiagonalRule);
                    changed |= sites.kill_data(sup[0], DeadReason::DiagonalRule);
                    changed |= sites.kill_data(sup[1], DeadReason::DiagonalRule);
                }
            }
            for &d in &self.data {
                if !sites.is_live_data(d) {
                    continue;
                }
                let uncovered = [CheckBasis::X, CheckBasis::Z].into_iter().any(|basis| {
                    !d.face_sites_of_basis(basis)
                        .into_iter()
                        .any(|f| sites.is_live_face(f))
                });
                if uncovered {
                    changed |= sites.kill_data(d, DeadReason::Coverage);
                }
            }
            if !changed {
                return;
            }
        }
    }

    /// R4: each faulty face disables data neighbours — all of them in
    /// the interior, boundary-side ones near a boundary. Fires once per
    /// faulty face. Returns whether anything changed.
    fn handle_faulty_faces(&mut self) -> bool {
        let mut changed = false;
        for f in std::mem::take(&mut self.faulty_faces) {
            let (side, dist) = self.layout.nearest_side(f);
            let mut neighbors = [f; 4];
            let mut n = 0;
            for d in self.sites.live_support(f) {
                neighbors[n] = d;
                n += 1;
            }
            let neighbors = &neighbors[..n];
            if dist == 0 {
                for &d in neighbors {
                    changed |= self.sites.kill_data(d, DeadReason::Deformation);
                }
            } else if dist <= 2 && f.face_basis() != self.layout.boundary().of(side) {
                // Fig 1d: a face of different color than the nearby
                // boundary only loses its boundary-side neighbours.
                let fd = self.layout.distance_to_side(f, side);
                for &d in neighbors {
                    if self.layout.distance_to_side(d, side) < fd {
                        changed |= self.sites.kill_data(d, DeadReason::Deformation);
                    }
                }
            } else if dist <= 2 {
                // Fig 1c: same color as the boundary — more qubits must
                // be excluded. Disable all neighbours; the deformation
                // escalation then trims the opposite-type faces so the
                // notch merges into the boundary.
                for &d in neighbors {
                    changed |= self.sites.kill_data(d, DeadReason::Deformation);
                }
            } else {
                for &d in neighbors {
                    changed |= self.sites.kill_data(d, DeadReason::Propagated);
                }
            }
        }
        changed
    }

    /// R5: data whose X (Z) errors flip no Z-type (X-type) check. Needs
    /// cluster info for super-stabilizer parity. Returns changes.
    ///
    /// A face that is dead (a void termination) or a full check is an
    /// attachment; gauges count through their cluster's parity. With
    /// two faces per basis, a qubit is unattached exactly when both are
    /// gauges of one cluster.
    fn unprotected_rule(&mut self, analysis: &Analysis) -> bool {
        let grid = self.sites.grid;
        let cluster_of = |s: Coord| {
            grid.index(s)
                .map_or(NO_CLUSTER, |i| analysis.gauge_cluster[i])
        };
        let mut to_kill = Vec::new();
        for &d in &self.data {
            if !self.sites.is_live_data(d) {
                continue;
            }
            let unattached = [CheckBasis::Z, CheckBasis::X]
                .into_iter()
                .any(|check_basis| {
                    let [a, b] = d.face_sites_of_basis(check_basis);
                    let c = cluster_of(a);
                    c != NO_CLUSTER && c == cluster_of(b)
                });
            if unattached {
                to_kill.push(d);
            }
        }
        let mut changed = false;
        for d in to_kill {
            changed |= self.sites.kill_data(d, DeadReason::Coverage);
        }
        changed
    }

    /// Identifies gauge faces, clusters, and per-cluster validity.
    fn analyze(&self) -> Analysis {
        let sites = &self.sites;
        let grid = sites.grid;
        // Anticommuting (X, Z) face pairs: orthogonal neighbours sharing
        // exactly one live data qubit, each pair found from its lower
        // face.
        let mut gauge_faces: Vec<Coord> = Vec::new();
        let mut raw_pairs: Vec<(Coord, Coord)> = Vec::new();
        for &f in &self.faces {
            if !sites.is_live_face(f) {
                continue;
            }
            for g in [Coord::new(f.x + 2, f.y), Coord::new(f.x, f.y + 2)] {
                if !sites.is_live_face(g) {
                    continue;
                }
                let live = shared_sites(f, g)
                    .into_iter()
                    .filter(|&d| sites.is_live_data(d))
                    .count();
                if live == 1 {
                    let (xf, zf) = if f.face_basis() == CheckBasis::X {
                        (f, g)
                    } else {
                        (g, f)
                    };
                    gauge_faces.push(f);
                    gauge_faces.push(g);
                    raw_pairs.push((xf, zf));
                }
            }
        }
        gauge_faces.sort_unstable();
        gauge_faces.dedup();

        // Clusters: connected components of dead cells (Chebyshev <= 2),
        // numbered by their first cell in (dead data, then dead faces)
        // order, found by scanning each cell's 5x5 grid neighbourhood.
        let cells: Vec<Coord> = self
            .data
            .iter()
            .chain(&self.faces)
            .copied()
            .filter(|&c| !sites.is_live(c))
            .collect();
        let mut cell_at = vec![NO_CLUSTER; grid.len()];
        for (i, &c) in cells.iter().enumerate() {
            if let Some(k) = grid.index(c) {
                cell_at[k] = i as u32;
            }
        }
        let mut comp: Vec<u32> = (0..cells.len() as u32).collect();
        for (i, &c) in cells.iter().enumerate() {
            for dx in -2..=2 {
                for dy in -2..=2 {
                    let Some(k) = grid.index(Coord::new(c.x + dx, c.y + dy)) else {
                        continue;
                    };
                    let j = cell_at[k] as usize;
                    if cell_at[k] != NO_CLUSTER && j > i {
                        let (a, b) = (find(&mut comp, i), find(&mut comp, j));
                        if a != b {
                            comp[a] = b as u32;
                        }
                    }
                }
            }
        }
        // From here on `cell_at` holds each dead cell's cluster id.
        let mut cluster_of_root = vec![NO_CLUSTER; cells.len()];
        let mut clusters: Vec<Cluster> = Vec::new();
        for (i, &cell) in cells.iter().enumerate() {
            let root = find(&mut comp, i);
            if cluster_of_root[root] == NO_CLUSTER {
                cluster_of_root[root] = clusters.len() as u32;
                clusters.push(Cluster {
                    cells: Vec::new(),
                    x_gauges: Vec::new(),
                    z_gauges: Vec::new(),
                    repetitions: 1,
                });
            }
            let id = cluster_of_root[root];
            clusters[id as usize].cells.push(cell);
            if let Some(k) = grid.index(cell) {
                cell_at[k] = id;
            }
        }
        let cluster_at = cell_at;

        // Assign gauge faces to the cluster of an adjacent dead cell.
        let mut gauge_cluster = vec![NO_CLUSTER; grid.len()];
        for &g in &gauge_faces {
            let id = g.diagonal_neighbors().into_iter().find_map(|d| {
                let id = cluster_at[grid.index(d)?];
                (id != NO_CLUSTER).then_some(id)
            });
            if let (Some(id), Some(k)) = (id, grid.index(g)) {
                gauge_cluster[k] = id;
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
        let cluster_of = |f: Coord| grid.index(f).map_or(NO_CLUSTER, |k| gauge_cluster[k]);
        let mut pairs: Vec<Vec<(Coord, Coord)>> = vec![Vec::new(); clusters.len()];
        let mut orphan_pair = false;
        for (xf, zf) in raw_pairs {
            match (cluster_of(xf), cluster_of(zf)) {
                (a, b) if a == b && a != NO_CLUSTER => pairs[a as usize].push((xf, zf)),
                _ => orphan_pair = true,
            }
        }

        // Validity: super-stabilizer products must commute with every
        // opposite gauge.
        let mut in_product = vec![false; grid.len()];
        let mut invalid = Vec::new();
        for (id, cluster) in clusters.iter().enumerate() {
            if !self.cluster_is_gaugeable(cluster, &mut in_product) {
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

    /// Whether each gauge of one basis overlaps the product of the other
    /// basis's gauges evenly. `in_product` is all-false scratch over the
    /// grid and is left all-false.
    fn cluster_is_gaugeable(&self, cluster: &Cluster, in_product: &mut [bool]) -> bool {
        let sites = &self.sites;
        let toggle = |faces: &[Coord], in_product: &mut [bool]| {
            for &f in faces {
                for d in sites.live_support(f) {
                    if let Some(k) = sites.grid.index(d) {
                        in_product[k] ^= true;
                    }
                }
            }
        };
        let commutes = |product: &[Coord], others: &[Coord], in_product: &mut [bool]| {
            toggle(product, in_product);
            let even = others.iter().all(|&f| {
                sites
                    .live_support(f)
                    .filter(|&d| sites.grid.index(d).is_some_and(|k| in_product[k]))
                    .count()
                    % 2
                    == 0
            });
            toggle(product, in_product);
            even
        };
        commutes(&cluster.x_gauges, &cluster.z_gauges, in_product)
            && commutes(&cluster.z_gauges, &cluster.x_gauges, in_product)
    }

    /// Checks reachable void component counts per basis; excises data
    /// around spurious extra components. Returns after the first basis
    /// that needed excision so the cascade reruns before the other
    /// basis is inspected.
    fn void_feedback(&mut self) -> VoidOutcome {
        let mut consistent: [Vec<VoidComponent>; 2] = Default::default();
        for (slot, basis) in [CheckBasis::Z, CheckBasis::X].into_iter().enumerate() {
            let sites = &self.sites;
            let comps = void_components(&self.layout, basis, &|c| sites.is_live_data(c), &|c| {
                sites.is_live_face(c)
            });
            let expected = expected_void_components(&self.layout, basis);
            if comps.len() < expected {
                return VoidOutcome::Broken(format!(
                    "{} reachable {basis:?} void components, expected {expected}",
                    comps.len()
                ));
            }
            // `void_components` sorts largest-first; treat the smallest
            // surplus components as spurious.
            let mut excised = false;
            for c in &comps[expected..] {
                for &d in &c.adjacent_live_data {
                    excised |= self.sites.kill_data(d, DeadReason::Deformation);
                }
            }
            if excised {
                return VoidOutcome::Excised;
            }
            consistent[slot] = comps;
        }
        VoidOutcome::Consistent(consistent)
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
            for &q in &self.data {
                if !self.sites.is_live_data(q) {
                    continue;
                }
                let dead_neighbors = cluster_data.iter().filter(|c| c.chebyshev(q) <= 2).count();
                if dead_neighbors >= 3 {
                    changed |= self.sites.kill_data(q, DeadReason::Deformation);
                }
            }
            if changed {
                return true;
            }
            // Fallback: grow the hole by one ring.
            for &cell in &cluster.cells {
                for d in cell.diagonal_neighbors() {
                    changed |= self.sites.kill_data(d, DeadReason::Deformation);
                }
            }
            return changed;
        }
        let boundary_color = self.layout.boundary().of(side);
        let wrong = |&(xf, zf): &(Coord, Coord)| {
            if boundary_color == CheckBasis::X {
                zf
            } else {
                xf
            }
        };
        let mut changed = false;

        // Strategy 1: disable anticommuting faces of the wrong color
        // near the boundary.
        for pair in pairs {
            let f = wrong(pair);
            if self.layout.distance_to_side(f, side) <= 2 {
                changed |= self.sites.kill_face(f, DeadReason::Deformation);
            }
        }
        if changed {
            return true;
        }
        // Strategy 2: disable all wrong-color anticommuting faces of the
        // cluster regardless of position.
        for pair in pairs {
            changed |= self.sites.kill_face(wrong(pair), DeadReason::Deformation);
        }
        if changed {
            return true;
        }
        // Strategy 3: excise the shadow between the cluster and the
        // boundary.
        for &cell in &cluster.cells {
            for &d in &self.data {
                let in_shadow = match side {
                    Side::Top => (d.x - cell.x).abs() <= 1 && d.y < cell.y,
                    Side::Bottom => (d.x - cell.x).abs() <= 1 && d.y > cell.y,
                    Side::Left => (d.y - cell.y).abs() <= 1 && d.x < cell.x,
                    Side::Right => (d.y - cell.y).abs() <= 1 && d.x > cell.x,
                };
                if in_shadow {
                    changed |= self.sites.kill_data(d, DeadReason::Deformation);
                }
            }
        }
        if changed {
            return true;
        }
        // Strategy 4: grow the hole by one ring.
        for &cell in &cluster.cells {
            for d in cell.diagonal_neighbors() {
                changed |= self.sites.kill_data(d, DeadReason::Deformation);
            }
        }
        changed
    }

    /// The adaptation loop. Returns the last analysis and, when the
    /// patch converged to a consistent code, both lattices' void
    /// components; otherwise why the patch is degenerate.
    fn converge(&mut self) -> (Analysis, Result<[Vec<VoidComponent>; 2], String>) {
        self.seed();
        let max_iters = (4 * (self.layout.width() + self.layout.height()) + 32) as usize;
        let mut iters = 0;
        loop {
            iters += 1;
            if iters > max_iters {
                return (self.analyze(), Err("deformation did not converge".into()));
            }
            self.cascade();
            if self.handle_faulty_faces() {
                continue;
            }
            let analysis = self.analyze();
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
                    VoidOutcome::Consistent(voids) => return (analysis, Ok(voids)),
                    VoidOutcome::Excised => continue,
                    VoidOutcome::Broken(detail) => return (analysis, Err(detail)),
                }
            }
            let mut killed = false;
            for &id in &analysis.invalid {
                let id = id as usize;
                killed |= self.deform(&analysis.clusters[id], &analysis.pairs[id]);
            }
            if !killed {
                return (
                    analysis,
                    Err("invalid cluster could not be deformed".into()),
                );
            }
        }
    }

    fn run(mut self) -> AdaptedPatch {
        let (analysis, mut voids) = self.converge();
        let dead_data = self.sites.dead_among(&self.data);
        let dead_faces = self.sites.dead_among(&self.faces);

        // A patch with no live data is unusable.
        if voids.is_ok() && dead_data.len() == self.data.len() {
            voids = Err("no active data qubits remain".into());
        }

        let grid = self.sites.grid;
        let full_faces: Vec<Coord> = self
            .faces
            .iter()
            .copied()
            .filter(|&f| {
                self.sites.is_live_face(f)
                    && grid
                        .index(f)
                        .is_some_and(|k| analysis.gauge_cluster[k] == NO_CLUSTER)
            })
            .collect();
        let mut patch = AdaptedPatch {
            layout: self.layout,
            defects: self.defects,
            sites: self.sites,
            gauge_cluster: analysis.gauge_cluster,
            dead_data,
            dead_faces,
            full_faces,
            clusters: analysis.clusters,
            status: AdaptStatus::Valid,
            logicals: [None; 2],
        };
        // Post-validation: both check graphs must build, and for
        // layouts encoding a logical qubit the two boundary components
        // must be connected by live qubits (defects can split the patch
        // into islands that encode nothing). The graphs are built from
        // the final void-feedback pass's components, and their
        // distances kept for the indicators.
        let voids = match voids {
            Ok(voids) => voids,
            Err(detail) => {
                patch.status = AdaptStatus::Degenerate(detail);
                return patch;
            }
        };
        for (slot, (basis, comps)) in [CheckBasis::Z, CheckBasis::X]
            .into_iter()
            .zip(voids)
            .enumerate()
        {
            match CheckGraph::from_components(&patch, basis, &comps) {
                Err(e) => {
                    patch.status = AdaptStatus::Degenerate(e.to_string());
                    break;
                }
                Ok(g) => {
                    let found = g.distance_and_count();
                    patch.logicals[slot] = found;
                    let needs_logical = expected_void_components(&patch.layout, basis) == 2;
                    if needs_logical && found.is_none() {
                        patch.status =
                            AdaptStatus::Degenerate(format!("no {basis:?} logical path remains"));
                        break;
                    }
                }
            }
        }
        if !patch.is_valid() {
            patch.logicals = [None; 2];
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
