//! Decoder-level oracle on real decoding graphs.
//!
//! Whatever the exact MWPM kernel does inside (`Blossom`: sparse blossom
//! on the graph's adjacency), it is judged from outside on adapted
//! patches with random qubit + link defects — so deformed boundaries
//! and super-stabilizer gauge schedules are in the graphs — and in both
//! bases, three ways per syndrome:
//!
//! * its matching must carry an optimality certificate
//!   (`Blossom::certify`): region radii that are a feasible dual of the
//!   matching LP and sum to the matching's weight, which by weak duality
//!   makes it minimum-weight for the kernel's integer weights at any
//!   event count;
//! * its matched pairs (`DecodeScratch::matched_pairs`), read back
//!   through a `PathTables` built here, must cover every event once and
//!   their distances must sum to its weight; on syndromes of at most ten
//!   events that weight must equal brute-force enumeration of every
//!   matching — within the weight-rounding bound against those `f64`
//!   tables, and *exactly*, in the kernel's integer units, against
//!   distances this test derives itself (Floyd–Warshall) from the
//!   kernel's own per-edge integer weights;
//! * its *observable mask* must equal the XOR of those pairs'
//!   shortest-path parities. A weight check alone cannot see a wrong
//!   mask accumulated along the way, and the mask is what the decoder is
//!   for. Two paths of equal length may cross different observables, so
//!   a differing mask is allowed only as such a tie — proven by brute
//!   force to be some minimum-weight matching's mask where that is
//!   affordable — and ties must stay rare.
//!
//! Traffic: defective l = 5 and l = 7 patches at p = 5·10⁻³ with
//! sampled and random dense syndromes, plus one defective l = 9 patch
//! at the benchmark's rates (p = 1.1·10⁻³ and 2·10⁻³, 10–27 events per
//! shot, reached by reweighting one decoder), sampled syndromes only.

use dqec::chiplet::runner::default_rounds;
use dqec::chiplet::DefectModel;
use dqec::core::{memory_z, AdaptedPatch, PatchLayout};
use dqec::matching::sparse::to_weight;
use dqec::matching::{
    Blossom, DecodeScratch, Decoder, DecodingGraph, Kernel, MwpmDecoder, PathTables,
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

/// Weight agreement bound. The kernel matches on edge weights rounded
/// to a fixed grid (steps below 10⁻⁶) while the `f64` tables sum
/// unrounded weights; a matching's paths hold at most a few hundred
/// edges here, so the two costs of any one matching — and the two
/// optima — differ by well under 10⁻³, while distinct optima on these
/// graphs differ by far more unless they tie.
const TOL: f64 = 1e-3;

/// Most syndromes (as a fraction) whose mask may differ from the XOR of
/// the matched pairs' shortest-path parities.
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
    /// Syndromes whose matching was certified optimal.
    certified: usize,
    /// Of those, syndromes of two or more events (decoded by the
    /// matcher proper, not in closed form).
    matched: usize,
    brute: usize,
    /// Brute-force checks that held `==` in integer units.
    exact: usize,
    split: usize,
    /// Masks differing from the pairs' shortest-path parities.
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
    scratch: &mut DecodeScratch,
    checked: &mut Checked,
) {
    let (graph, tables) = (basis.graph, &basis.tables);
    let mut nodes: Vec<u32> = events
        .iter()
        .filter_map(|&d| graph.node_of_detector(d))
        .collect();
    nodes.sort_unstable();
    let (mask, units, unmatched) = basis.view.decode_weighted(graph, events, scratch);
    // An event the boundary cannot reach may stay unmatched, and then
    // there is no certificate (the kernel's own unit tests pin what it
    // decodes to).
    if nodes.iter().any(|&n| tables.boundary(n).0 > FAR) {
        checked.far += 1;
        return;
    }
    assert_eq!(unmatched, 0, "unmatched events on {nodes:?}");
    assert_eq!(
        basis.view.certify(scratch),
        Ok(units),
        "no optimality certificate on {nodes:?}"
    );
    checked.certified += 1;
    checked.matched += usize::from(nodes.len() >= 2);

    // The matched pairs through the f64 tables: every event once, their
    // distances summing to the kernel's weight, their parities to a
    // mask.
    let (mut ends, mut length, mut parity) = (Vec::new(), 0.0, 0u64);
    for (a, b) in scratch.matched_pairs() {
        ends.extend(std::iter::once(a).chain(b));
        length += tables.distance(Some(a), b);
        parity ^= tables.path_observables(Some(a), b);
    }
    ends.sort_unstable();
    assert_eq!(ends, nodes, "matched pairs must cover every event once");
    let weight = to_weight(units);
    assert!(
        (weight - length).abs() < TOL,
        "kernel weight {weight} != its pairs' distances {length} on {nodes:?}"
    );
    if nodes.len() >= 3 && weight + TOL < nodes.iter().map(|&n| tables.boundary(n).0).sum() {
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
            (weight - best).abs() < TOL,
            "kernel weight {weight} != brute-force minimum {best} on {nodes:?}"
        );
        checked.brute += 1;
        if let Some(d) = &basis.exact {
            assert_eq!(
                units,
                brute_force_units(d, &nodes, &mut vec![false; nodes.len()]),
                "kernel weight is not the integer optimum on {nodes:?}"
            );
            checked.exact += 1;
        }
        all.retain(|m| m.0 < best + TOL);
        all
    });
    if mask != parity {
        // Only an equal-weight optimum may carry another mask.
        checked.ties += 1;
        if let Some(optima) = optima {
            assert!(
                optima.iter().any(|m| m.1 == mask),
                "kernel mask {mask:#x} belongs to no minimum-weight matching \
                 (its pairs' shortest paths: {parity:#x}) on {nodes:?}"
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
    let mut scratch = DecodeScratch::new();
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
                    check(basis, events, true, &mut scratch, &mut checked);
                }
            }
        }
    }
    // The oracle must have had teeth: super-stabilizers present, and
    // plenty of syndromes on both sides of the brute-force bound whose
    // optimum needs more than boundary matches.
    assert!(with_gauges >= 1, "no sampled patch had a super-stabilizer");
    assert!(checked.certified >= 2000, "{} certified", checked.certified);
    assert!(checked.brute >= 500, "{} brute-force checks", checked.brute);
    assert_eq!(checked.exact, checked.brute, "integer-exact checks");
    assert!(checked.split >= 500, "{} split checks", checked.split);
    let small = checked.certified;

    // The benchmark's traffic: one defective l = 9 patch at the two
    // ends of the paper's window, the second reached by reweighting.
    // Sampled syndromes only, no brute force.
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
                check(basis, events, false, &mut scratch, &mut checked);
            }
        }
    }
    let large = checked.certified - small;
    assert!(large >= 1000, "{large} certified at l = 9");
    assert!(
        events_seen >= 600 * 8,
        "{events_seen} events in 600 shots: not the benchmark's traffic"
    );

    let fraction = checked.ties as f64 / checked.certified as f64;
    eprintln!(
        "decoder oracle: {} syndromes certified optimal ({large} at l = 9, {} of two or more \
         events), {} brute-force (all == in integer units), {} with a real component, {} skipped \
         on an unreachable event; {} masks off their pairs' shortest-path parities ({:.3} %, {} \
         proven equal-weight optima by brute force)",
        checked.certified,
        checked.matched,
        checked.brute,
        checked.split,
        checked.far,
        checked.ties,
        100.0 * fraction,
        checked.ties_proven
    );
    assert!(
        fraction <= MAX_TIE_FRACTION,
        "{} of {} masks differ from their pairs' shortest-path parities",
        checked.ties,
        checked.certified
    );
}
