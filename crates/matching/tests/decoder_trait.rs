//! `Decoder`-trait conformance: the shared invariant suite
//! (`check_decoder_conformance`) applied to every implementor in this
//! crate, plus trait-object ergonomics. New decoders (union-find,
//! correlated matching, ...) should add themselves here.

use dqec_matching::{check_decoder_conformance, Decoder, MwpmDecoder, UfDecoder};
use dqec_sim::circuit::{CheckBasis, Circuit, Noise1};
use dqec_sim::noise::NoiseModel;

/// A 3-qubit repetition code over `rounds` rounds with per-round data
/// flip probability `p`; observable = data qubit 0.
fn repetition(rounds: usize, p: f64) -> Circuit {
    let mut c = Circuit::new(5);
    for q in 0..5 {
        c.reset(q).unwrap();
    }
    let mut prev: Option<[dqec_sim::MeasRecord; 2]> = None;
    for t in 0..rounds {
        for q in 0..3 {
            c.noise1(Noise1::XError, q, p).unwrap();
        }
        c.cx(0, 3).unwrap();
        c.cx(1, 3).unwrap();
        c.cx(1, 4).unwrap();
        c.cx(2, 4).unwrap();
        let m3 = c.measure_reset(3).unwrap();
        let m4 = c.measure_reset(4).unwrap();
        match prev {
            None => {
                c.add_detector(&[m3], CheckBasis::Z, (0, 0, t as i32))
                    .unwrap();
                c.add_detector(&[m4], CheckBasis::Z, (1, 0, t as i32))
                    .unwrap();
            }
            Some([p3, p4]) => {
                c.add_detector(&[m3, p3], CheckBasis::Z, (0, 0, t as i32))
                    .unwrap();
                c.add_detector(&[m4, p4], CheckBasis::Z, (1, 0, t as i32))
                    .unwrap();
            }
        }
        prev = Some([m3, m4]);
    }
    let d0 = c.measure(0).unwrap();
    let d1 = c.measure(1).unwrap();
    let d2 = c.measure(2).unwrap();
    let [p3, p4] = prev.unwrap();
    c.add_detector(&[d0, d1, p3], CheckBasis::Z, (0, 0, rounds as i32))
        .unwrap();
    c.add_detector(&[d1, d2, p4], CheckBasis::Z, (1, 0, rounds as i32))
        .unwrap();
    c.include_observable(0, &[d0]).unwrap();
    c
}

#[test]
fn mwpm_from_noisy_circuit_conforms() {
    let noisy = repetition(3, 0.02);
    let clean = repetition(3, 0.0);
    let decoder = MwpmDecoder::new(&noisy);
    check_decoder_conformance(&decoder, &clean);
}

#[test]
fn mwpm_from_clean_conforms_before_and_after_reweighting() {
    let clean = repetition(3, 0.0);
    let mut decoder = MwpmDecoder::from_clean(&clean, &NoiseModel::new(2e-2));
    check_decoder_conformance(&decoder, &clean);
    assert!(decoder.reweight(&NoiseModel::new(5e-3)));
    check_decoder_conformance(&decoder, &clean);
}

#[test]
fn conformance_covers_a_detector_no_mechanism_flips() {
    // The fixture's noise sits before each round only, so nothing ever
    // flips the two final-readout detectors: they are nodes without an
    // edge, which the conformance bank (every detector flipped with
    // probability 0.08) hands to the decoder all the same. No region
    // grown from such an event can reach anything; it must decode as
    // "no correction" and leave the rest of the syndrome alone.
    let noisy = repetition(3, 0.02);
    let clean = repetition(3, 0.0);
    let decoder = MwpmDecoder::new(&noisy);
    let last = noisy.detectors().len() as u32 - 1;
    let node = decoder.z_graph().node_of_detector(last).expect("a Z node");
    assert!(
        decoder
            .z_graph()
            .edges()
            .iter()
            .all(|e| e.a != node && e.b != Some(node)),
        "the fixture must have a detector without an edge"
    );
    check_decoder_conformance(&decoder, &clean);
    assert_eq!(decoder.decode_events(&[last]), 0);
    assert_eq!(decoder.decode_events(&[last - 1, last]), 0);
    for events in [vec![0u32], vec![0, 1, 3], vec![1, 2, 3, 4, 5]] {
        let mut with_dead = events.clone();
        with_dead.push(last);
        assert_eq!(
            decoder.decode_events(&with_dead),
            decoder.decode_events(&events),
            "{events:?}"
        );
    }
}

#[test]
fn uf_from_noisy_circuit_conforms() {
    // The same 1k-random-syndrome suite the MWPM decoder passes:
    // cold/warm memo cache agreement and worker caps of 1, 4, and 16.
    let noisy = repetition(3, 0.02);
    let clean = repetition(3, 0.0);
    let decoder = UfDecoder::new(&noisy);
    check_decoder_conformance(&decoder, &clean);
}

#[test]
fn uf_from_clean_conforms_before_and_after_reweighting() {
    let clean = repetition(3, 0.0);
    let mut decoder = UfDecoder::from_clean(&clean, &NoiseModel::new(2e-2));
    check_decoder_conformance(&decoder, &clean);
    assert!(decoder.reweight(&NoiseModel::new(5e-3)));
    check_decoder_conformance(&decoder, &clean);
}

#[test]
fn decoder_works_as_a_trait_object() {
    let noisy = repetition(2, 0.01);
    for boxed in [
        Box::new(MwpmDecoder::new(&noisy)) as Box<dyn Decoder>,
        Box::new(UfDecoder::new(&noisy)) as Box<dyn Decoder>,
    ] {
        assert_eq!(boxed.num_observables(), 1);
        assert_eq!(boxed.decode_events(&[]), 0);
    }
}
