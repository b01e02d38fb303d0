//! Union-find versus MWPM decoder accuracy.
//!
//! Two complementary guarantees pin the new backend to the exact one:
//!
//! * a property test that the two decoders agree *bit-for-bit* on every
//!   syndrome of at most two detection events (union-find answers such
//!   syndromes in closed form from shortest-path tables, which is the
//!   decision exact matching reaches by growing regions on the graph);
//! * a statistical bound that union-find's logical error rate on a
//!   d = 5 memory circuit at p = 3·10⁻³ stays within a fixed factor of
//!   MWPM's over a seeded Monte-Carlo batch — the known accuracy cost
//!   of almost-linear-time decoding must stay small, not just finite.

use dqec::core::{memory_z, AdaptedPatch, DefectSet, PatchLayout};
use dqec::matching::{Decoder, MwpmDecoder, UfDecoder};
use dqec::sim::frame::FrameSampler;
use dqec::sim::noise::NoiseModel;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The defect-free distance-`d` memory circuit under uniform
/// circuit-level noise `p`.
fn memory_circuit(d: u32, p: f64) -> dqec::sim::circuit::Circuit {
    let patch = AdaptedPatch::new(PatchLayout::memory(d), &DefectSet::new());
    let exp = memory_z(&patch, d).expect("defect-free memory circuit");
    NoiseModel::new(p).apply(&exp.circuit)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Any syndrome with at most two detection events decodes
    /// identically under union-find and MWPM: a single event matches to
    /// the boundary along a shortest path, and a pair takes whichever
    /// of pair-vs-both-to-boundary is cheaper — union-find reads that
    /// off its shortest-path tables, MWPM finds it on the graph (an
    /// exact tie between the two options could legitimately resolve
    /// differently; none arises on this circuit).
    #[test]
    fn uf_and_mwpm_agree_exactly_on_tiny_syndromes(events in tiny_syndrome()) {
        let (mwpm, uf) = decoders();
        prop_assert_eq!(
            mwpm.decode_events(&events),
            uf.decode_events(&events),
            "k={} events {:?}",
            events.len(),
            events
        );
    }
}

/// Strategy: up to two distinct detector ids of the d = 3 circuit.
fn tiny_syndrome() -> impl Strategy<Value = Vec<u32>> {
    let dets: Vec<u32> = (0..memory_circuit(3, 2e-3).detectors().len() as u32).collect();
    proptest::sample::subsequence(dets, 0..=2)
}

/// One shared (MWPM, UF) decoder pair on the d = 3 circuit.
fn decoders() -> (&'static MwpmDecoder, &'static UfDecoder) {
    use std::sync::OnceLock;
    static PAIR: OnceLock<(MwpmDecoder, UfDecoder)> = OnceLock::new();
    let (m, u) = PAIR.get_or_init(|| {
        let c = memory_circuit(3, 2e-3);
        (MwpmDecoder::new(&c), UfDecoder::new(&c))
    });
    (m, u)
}

/// Union-find may lose some accuracy to MWPM, but on the d = 5 memory
/// circuit at p = 3e-3 the seeded logical error rate must stay within
/// 1.6x of MWPM's (and decode the very same shots, so the comparison is
/// paired, not two independent estimates).
#[test]
fn uf_ler_stays_within_bound_of_mwpm() {
    let noisy = memory_circuit(5, 3e-3);
    let mwpm = MwpmDecoder::new(&noisy);
    let uf = UfDecoder::new(&noisy);
    let batch = FrameSampler::new(&noisy).sample(60_000, &mut StdRng::seed_from_u64(0x0f_ace));
    let m = mwpm.decode_batch(&batch);
    let u = uf.decode_batch(&batch);
    assert_eq!(m.shots, u.shots);
    let (ml, ul) = (m.logical_error_rate(0), u.logical_error_rate(0));
    assert!(
        m.failures[0] > 0,
        "MWPM must see some failures for the ratio to mean anything"
    );
    assert!(
        ul <= 1.6 * ml,
        "UF LER {ul:.5} ({} failures) exceeds 1.6x MWPM LER {ml:.5} ({} failures)",
        u.failures[0],
        m.failures[0]
    );
}
