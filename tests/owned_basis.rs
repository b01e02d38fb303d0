//! Only a basis that owns an observable is decoded.
//!
//! `GraphDecoder` builds a kernel only for a basis graph with an edge
//! that carries an observable, decodes only those, and keys its memo
//! by their detectors' events alone. Every kernel predicts the XOR of
//! the observables of the edges it matches through, so this changes no
//! prediction. Pinned here on defective l = 5 and l = 7 memory patches
//! (both defect models) and on l = 4 stability patches, under both the
//! exact matcher and union-find:
//!
//! * exactly one graph holds a kernel: Z for memory, X for stability;
//! * that graph has edges carrying an observable, and no edge of the
//!   other graph carries one;
//! * on 4096 shots at p = 2·10⁻³, `decode_all` equals, shot by shot,
//!   the XOR of fresh kernels decoding *both* graphs (the path that
//!   matched every basis, rebuilt here);
//! * a shot does one memo lookup exactly when it has 1 to 16 events in
//!   the owning graph, however many it has in the other one.

use dqec::chiplet::runner::default_rounds;
use dqec::chiplet::DefectModel;
use dqec::core::{memory_z, stability, AdaptedPatch, DefectSet, PatchLayout};
use dqec::matching::{Blossom, Decoder, GraphDecoder, Kernel, UfGraph};
use dqec::sim::circuit::{CheckBasis, Circuit};
use dqec::sim::frame::FrameSampler;
use dqec::sim::noise::NoiseModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SHOTS: usize = 4096;
const P: f64 = 2e-3;
/// The longest owned-event list the decoder memoizes.
const MEMO_MAX_EVENTS: usize = 16;

/// A clean experiment circuit and the basis that owns its observable.
struct Case {
    name: String,
    clean: Circuit,
    owner: CheckBasis,
}

/// Draws defective `model` patches of `layout` until one is valid and
/// `build` turns it into a circuit.
fn defective(
    layout: &PatchLayout,
    model: DefectModel,
    rng: &mut StdRng,
    build: impl Fn(&AdaptedPatch) -> Option<Circuit>,
) -> Circuit {
    for _ in 0..10_000 {
        let defects = model.sample(layout, 0.02, rng);
        let patch = AdaptedPatch::new(layout.clone(), &defects);
        if defects.is_empty() || !patch.is_valid() {
            continue;
        }
        if let Some(circuit) = build(&patch) {
            return circuit;
        }
    }
    panic!("no usable {model:?} patch drawn");
}

fn cases() -> Vec<Case> {
    let mut rng = StdRng::seed_from_u64(0x0b5e_55ed);
    let mut cases = Vec::new();
    for model in [DefectModel::LinkOnly, DefectModel::LinkAndQubit] {
        for l in [5u32, 7] {
            let clean = defective(&PatchLayout::memory(l), model, &mut rng, |patch| {
                memory_z(patch, default_rounds(patch))
                    .ok()
                    .map(|e| e.circuit)
            });
            cases.push(Case {
                name: format!("memory l = {l}, {model:?}"),
                clean,
                owner: CheckBasis::Z,
            });
        }
        let clean = defective(&PatchLayout::stability(4, 4), model, &mut rng, |patch| {
            stability(patch, 4).ok().map(|e| e.circuit)
        });
        cases.push(Case {
            name: format!("stability 4 × 4, {model:?}"),
            clean,
            owner: CheckBasis::X,
        });
    }
    let clean = AdaptedPatch::new(PatchLayout::stability(4, 4), &DefectSet::new());
    cases.push(Case {
        name: "stability 4 × 4, no defect".into(),
        clean: stability(&clean, 4)
            .expect("clean stability circuit")
            .circuit,
        owner: CheckBasis::X,
    });
    cases
}

/// Checks every claim of the module doc for one case under kernel `K`.
fn check<K: Kernel>(kernel: &str, case: &Case, seed: u64) {
    let name = format!("{} / {kernel}", case.name);
    let noisy = NoiseModel::new(P).apply(&case.clean);
    let decoder = GraphDecoder::<K>::new(&noisy);
    let bases = decoder.kernels();

    let holders: Vec<CheckBasis> = bases
        .iter()
        .filter(|(_, k)| k.is_some())
        .map(|(g, _)| g.basis())
        .collect();
    assert_eq!(holders, [case.owner], "{name}: bases holding a kernel");
    for (graph, _) in bases {
        let carrying = graph.edges().iter().filter(|e| e.observables != 0).count();
        if graph.basis() == case.owner {
            assert!(
                carrying > 0,
                "{name}: the owning graph has no observable edge"
            );
        } else {
            assert_eq!(carrying, 0, "{name}: observable edges in the other graph");
        }
    }

    let batch = FrameSampler::new(&noisy).sample(SHOTS, &mut StdRng::seed_from_u64(seed));
    let events = batch.detection_events_by_shot();
    let preds = decoder.decode_all(&batch);
    let fresh = bases.map(|(graph, _)| (graph, K::from_graph(graph)));
    let mut scratch = K::Scratch::default();
    let mut flips = 0;
    for (shot, ev) in events.iter().enumerate() {
        let both = fresh.iter().fold(0, |obs, (graph, k)| {
            obs ^ k.decode_basis(graph, ev, &mut scratch)
        });
        assert_eq!(preds[shot], both, "{name}: shot {shot}, events {ev:?}");
        flips += usize::from(both != 0);
    }
    assert!(flips > 0, "{name}: no shot predicted a flip");

    let (owning, _) = bases[usize::from(case.owner == CheckBasis::X)];
    let owned = |ev: &[u32]| {
        ev.iter()
            .filter(|&&d| owning.node_of_detector(d).is_some())
            .count()
    };
    assert!(
        events.iter().any(|ev| owned(ev) < ev.len()),
        "{name}: no shot has an event in the other basis"
    );
    let lookups = events
        .iter()
        .filter(|ev| (1..=MEMO_MAX_EVENTS).contains(&owned(ev)))
        .count();
    let stats = decoder.decode_batch(&batch);
    assert_eq!(
        stats.cache_hits + stats.cache_misses,
        lookups as u64,
        "{name}: memo lookups"
    );
    eprintln!(
        "{name}: {} of {} detectors in the owning graph, {flips} shots flip, \
         {lookups} memo lookups",
        owning.num_nodes(),
        noisy.detectors().len()
    );
}

#[test]
fn only_the_observable_owning_basis_is_decoded_and_nothing_changes() {
    for (i, case) in cases().iter().enumerate() {
        let seed = 0x5eed + i as u64;
        check::<Blossom>("mwpm", case, seed);
        check::<UfGraph>("uf", case, seed);
    }
}
