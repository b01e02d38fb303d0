//! Decoder-level oracle on real decoding graphs.
//!
//! Whatever the exact MWPM kernel does inside (`Blossom`: sparse blossom
//! on the graph's adjacency), it is judged from outside on adapted patches with random qubit +
//! link defects — so deformed boundaries and super-stabilizer gauge
//! schedules are in the graphs — and in both bases, three ways per
//! syndrome:
//!
//! * its total matching weight must equal that of the one dense
//!   reference (`decode_basis_dense`: every pair through a `PathTables`
//!   built here, no split, no fast path);
//! * on syndromes of at most ten events it must equal brute-force
//!   enumeration of every matching — within the weight-rounding bound
//!   against those `f64` distance tables, and *exactly*, in the
//!   kernel's integer units, against distances this test derives itself
//!   (Floyd–Warshall) from the kernel's own per-edge integer weights;
//! * its *observable mask* must equal the dense reference's. A weight
//!   check alone cannot see a wrong mask accumulated along the way, and
//!   the mask is what the decoder is for. Equal-weight optima may carry
//!   different masks, so a differing mask is allowed only as such a tie
//!   — proven by brute force where that is affordable — and ties must
//!   stay rare.
//!
//! Traffic: defective l = 5 and l = 7 patches at p = 5·10⁻³ with
//! sampled and random dense syndromes, plus one defective l = 9 patch
//! at the benchmark's rates (p = 1.1·10⁻³ and 2·10⁻³, 10–27 events per
//! shot, reached by reweighting one decoder), sampled syndromes only.

use dqec::chiplet::runner::default_rounds;
use dqec::chiplet::DefectModel;
use dqec::core::{memory_z, AdaptedPatch, PatchLayout};
use dqec::matching::decoder::decode_basis_dense;
use dqec::matching::sparse::weight_of_result;
use dqec::matching::{
    Blossom, BlossomArena, DecodeScratch, Decoder, DecodingGraph, Kernel, MwpmDecoder, PathTables,
};
use dqec::sim::circuit::Circuit;
use dqec::sim::frame::FrameSampler;
use dqec::sim::noise::NoiseModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;

/// Distances above this are the graph's "no path" sentinel (1e12).
const FAR: f64 = 1e11;

/// Largest syndrome the brute-force enumeration is asked to cover.
const BRUTE_MAX: usize = 10;

/// Weight agreement bound. An exact kernel may match on edge weights
/// rounded to a fixed grid (steps below 10⁻⁶) while the dense reference
/// sums unrounded `f64` weights; a matching's paths hold at most a few
/// hundred edges here, so the two optima — and the two costs of any one
/// matching — differ by well under 10⁻³, while distinct optima on these
/// graphs differ by far more unless they tie.
const TOL: f64 = 1e-3;

/// Most syndromes (as a fraction) on which the kernel may return a
/// different mask than the dense reference at equal weight.
const MAX_TIE_FRACTION: f64 = 0.02;

/// One basis under test: the graph, its `f64` distance tables (built
/// here, under the graph's current weights), the kernel's view of it
/// and — on graphs small enough — exact all-pairs distances in the
/// kernel's integer units.
struct Basis<'a> {
    graph: &'a DecodingGraph,
    tables: PathTables,
    view: Cow<'a, Blossom>,
    exact: Option<Vec<Vec<i64>>>,
}

const NO_PATH: i64 = i64::MAX / 4;

impl<'a> Basis<'a> {
    /// Both bases, each with the decoder's view of it — or, for the
    /// graph the decoder never matches (it owns no observable), a view
    /// built here, so the matcher is still judged on it.
    fn both(decoder: &'a MwpmDecoder, exact: bool) -> [Basis<'a>; 2] {
        decoder.kernels().map(|(graph, view)| Basis {
            graph,
            tables: PathTables::build(graph),
            view: view.map_or_else(|| Cow::Owned(Blossom::from_graph(graph)), Cow::Borrowed),
            exact: exact.then(|| integer_distances(graph)),
        })
    }
}

/// Floyd–Warshall over the real nodes plus the boundary (index `n`) on
/// the integer weight the kernel gives every edge.
fn integer_distances(graph: &DecodingGraph) -> Vec<Vec<i64>> {
    let n = graph.num_nodes();
    let mut d = vec![vec![NO_PATH; n + 1]; n + 1];
    for (v, row) in d.iter_mut().enumerate() {
        row[v] = 0;
    }
    for (e, w) in graph.edges().iter().zip(Blossom::edge_weights(graph)) {
        let (a, b) = (e.a as usize, e.b.map_or(n, |b| b as usize));
        d[a][b] = d[a][b].min(w);
        d[b][a] = d[b][a].min(w);
    }
    for k in 0..=n {
        let via = d[k].clone();
        for row in d.iter_mut() {
            let to_k = row[k];
            if to_k == NO_PATH {
                continue;
            }
            for (cell, &from_k) in row.iter_mut().zip(&via) {
                *cell = (*cell).min(to_k + from_k);
            }
        }
    }
    d
}

/// Minimum total integer weight over every way of matching the nodes
/// not yet `used`: the first free node goes to the boundary or pairs
/// with any later free node.
fn brute_force_units(d: &[Vec<i64>], nodes: &[u32], used: &mut [bool]) -> i64 {
    let Some(i) = used.iter().position(|&u| !u) else {
        return 0;
    };
    let n = d.len() - 1;
    let a = nodes[i] as usize;
    used[i] = true;
    let mut best = d[a][n] + brute_force_units(d, nodes, used);
    for j in (i + 1)..nodes.len() {
        if !used[j] {
            used[j] = true;
            best = best.min(d[a][nodes[j] as usize] + brute_force_units(d, nodes, used));
            used[j] = false;
        }
    }
    used[i] = false;
    best
}

/// Every way of matching `nodes[i..]` not yet `used` — the first free
/// node goes to the boundary or pairs with any later free node — as
/// `(total weight, observable mask)` pushed onto `out`.
fn enumerate(
    tables: &PathTables,
    nodes: &[u32],
    used: &mut [bool],
    weight: f64,
    mask: u64,
    out: &mut Vec<(f64, u64)>,
) {
    let Some(i) = used.iter().position(|&u| !u) else {
        out.push((weight, mask));
        return;
    };
    let a = Some(nodes[i]);
    used[i] = true;
    enumerate(
        tables,
        nodes,
        used,
        weight + tables.distance(a, None),
        mask ^ tables.path_observables(a, None),
        out,
    );
    for j in (i + 1)..nodes.len() {
        if !used[j] {
            used[j] = true;
            let b = Some(nodes[j]);
            enumerate(
                tables,
                nodes,
                used,
                weight + tables.distance(a, b),
                mask ^ tables.path_observables(a, b),
                out,
            );
            used[j] = false;
        }
    }
    used[i] = false;
}

/// How many syndromes each oracle judged.
#[derive(Default)]
struct Checked {
    dense: usize,
    brute: usize,
    /// Brute-force checks that held `==` in integer units.
    exact: usize,
    split: usize,
    /// Masks differing from the dense reference at equal weight.
    ties: usize,
    /// Of those, proven to be equal-weight optima by brute force.
    ties_proven: usize,
    /// Syndromes with an event the boundary cannot reach.
    far: usize,
}

/// Checks one basis's share of `events` against the oracles.
fn check(
    basis: &Basis,
    events: &[u32],
    brute: bool,
    sparse: &mut DecodeScratch,
    dense: &mut BlossomArena,
    checked: &mut Checked,
) {
    let (graph, tables) = (basis.graph, &basis.tables);
    let mut nodes: Vec<u32> = events
        .iter()
        .filter_map(|&d| graph.node_of_detector(d))
        .collect();
    nodes.sort_unstable();
    let result = basis.view.decode_weighted(graph, events, sparse);
    let (sm, sc) = weight_of_result(result);
    let (dm, dc) = decode_basis_dense(graph, tables, events, dense);
    // With an unreachable-node sentinel in the dense matrix its integer
    // scaling quantizes real weights away: the reference is no longer
    // exact there, so it judges nothing (the kernel's own unit tests
    // pin what an unreachable event decodes to).
    if nodes.iter().any(|&n| tables.boundary(n).0 > FAR) {
        checked.far += 1;
        return;
    }
    assert!(
        (sc - dc).abs() < TOL,
        "kernel weight {sc} != dense weight {dc} on {nodes:?}"
    );
    checked.dense += 1;
    if nodes.len() >= 3 && sc + TOL < nodes.iter().map(|&n| tables.boundary(n).0).sum() {
        checked.split += 1; // some pair beat the boundary: a real component
    }
    let optima = (brute && nodes.len() <= BRUTE_MAX).then(|| {
        let mut all = Vec::new();
        enumerate(
            tables,
            &nodes,
            &mut vec![false; nodes.len()],
            0.0,
            0,
            &mut all,
        );
        let best = all.iter().map(|m| m.0).fold(f64::INFINITY, f64::min);
        assert!(
            (sc - best).abs() < TOL,
            "kernel weight {sc} != brute-force minimum {best} on {nodes:?}"
        );
        checked.brute += 1;
        if let Some(d) = &basis.exact {
            assert_eq!(
                (result.1, result.2),
                (
                    brute_force_units(d, &nodes, &mut vec![false; nodes.len()]),
                    0
                ),
                "kernel weight is not the integer optimum on {nodes:?}"
            );
            checked.exact += 1;
        }
        all.retain(|m| m.0 < best + TOL);
        all
    });
    if sm != dm {
        // Only an equal-weight optimum may carry another mask.
        checked.ties += 1;
        if let Some(optima) = optima {
            assert!(
                optima.iter().any(|m| m.1 == sm),
                "kernel mask {sm:#x} belongs to no minimum-weight matching \
                 (dense {dm:#x}) on {nodes:?}"
            );
            checked.ties_proven += 1;
        }
    }
}

/// Draws defective `LinkAndQubit` patches of size `l` until one is
/// valid, hosts a memory experiment and has a defect; returns it with
/// its clean circuit.
fn defective_patch(l: u32, rng: &mut StdRng) -> (AdaptedPatch, Circuit) {
    let layout = PatchLayout::memory(l);
    loop {
        let defects = DefectModel::LinkAndQubit.sample(&layout, 0.02, rng);
        let patch = AdaptedPatch::new(layout.clone(), &defects);
        if defects.is_empty() || !patch.is_valid() {
            continue;
        }
        if let Ok(exp) = memory_z(&patch, default_rounds(&patch)) {
            return (patch, exp.circuit);
        }
    }
}

#[test]
fn sparse_weight_equals_dense_and_brute_force_on_defective_patches() {
    let mut rng = StdRng::seed_from_u64(0x0dec_0de5);
    let mut checked = Checked::default();
    let mut with_gauges = 0;
    let mut sparse = DecodeScratch::new();
    let mut dense = BlossomArena::new();
    for l in [5u32, 7] {
        for _ in 0..3 {
            let (patch, clean) = defective_patch(l, &mut rng);
            with_gauges += usize::from(patch.clusters().iter().any(|c| c.has_gauges()));
            let noisy = NoiseModel::new(5e-3).apply(&clean);
            let decoder = MwpmDecoder::new(&noisy);
            let ndet = noisy.detectors().len() as u32;

            let mut syndromes: Vec<Vec<u32>> = FrameSampler::new(&noisy)
                .sample(200, &mut rng)
                .detection_events_by_shot();
            for density in [0.02, 0.08, 0.25] {
                for _ in 0..40 {
                    syndromes.push((0..ndet).filter(|_| rng.gen_bool(density)).collect());
                }
            }
            let bases = Basis::both(&decoder, true);
            for events in &syndromes {
                for basis in &bases {
                    check(basis, events, true, &mut sparse, &mut dense, &mut checked);
                }
            }
        }
    }
    // The oracle must have had teeth: super-stabilizers present, and
    // plenty of syndromes on both sides of the brute-force bound whose
    // optimum needs more than boundary matches.
    assert!(with_gauges >= 1, "no sampled patch had a super-stabilizer");
    assert!(checked.dense >= 2000, "{} dense checks", checked.dense);
    assert!(checked.brute >= 500, "{} brute-force checks", checked.brute);
    assert_eq!(checked.exact, checked.brute, "integer-exact checks");
    assert!(checked.split >= 500, "{} split checks", checked.split);
    let small = checked.dense;

    // The benchmark's traffic: one defective l = 9 patch at the two
    // ends of the paper's window, the second reached by reweighting.
    // Sampled syndromes only, dense reference only.
    let (_, clean) = defective_patch(9, &mut rng);
    let mut decoder = MwpmDecoder::from_clean(&clean, &NoiseModel::new(2e-3));
    assert!(decoder.reweight(&NoiseModel::new(1.5e-3)));
    decoder.decode_batch(
        &FrameSampler::new(&NoiseModel::new(1.5e-3).apply(&clean)).sample(64, &mut rng),
    );
    let mut events_seen = 0;
    for p in [2e-3, 1.1e-3] {
        let noise = NoiseModel::new(p);
        assert!(decoder.reweight(&noise));
        let syndromes = FrameSampler::new(&noise.apply(&clean))
            .sample(300, &mut rng)
            .detection_events_by_shot();
        let bases = Basis::both(&decoder, false);
        for events in &syndromes {
            events_seen += events.len();
            for basis in &bases {
                check(basis, events, false, &mut sparse, &mut dense, &mut checked);
            }
        }
    }
    let large = checked.dense - small;
    assert!(large >= 1000, "{large} dense checks at l = 9");
    assert!(
        events_seen >= 600 * 8,
        "{events_seen} events in 600 shots: not the benchmark's traffic"
    );

    let fraction = checked.ties as f64 / checked.dense as f64;
    eprintln!(
        "decoder oracle: {} dense checks ({large} at l = 9), {} brute-force (all == in integer \
         units), {} with a real component, {} skipped on an unreachable event; {} equal-weight mask ties \
         ({:.3} %, {} proven by brute force)",
        checked.dense,
        checked.brute,
        checked.split,
        checked.far,
        checked.ties,
        100.0 * fraction,
        checked.ties_proven
    );
    assert!(
        fraction <= MAX_TIE_FRACTION,
        "{} of {} masks differ from the dense reference",
        checked.ties,
        checked.dense
    );
}
