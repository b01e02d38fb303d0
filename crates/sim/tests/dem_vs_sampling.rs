//! Cross-validation: the detector error model's predictions must match
//! empirical frame-sampling statistics. Both pipelines now propagate
//! noise backward through the circuit (the DEM symbolically, the frame
//! program to compile each channel's symptom), so agreement here does
//! not rule out an error they share. The independent paths are the
//! forward frame interpreter of `support/frame_oracle.rs`, which the
//! frame program matches bit for bit, and the noisy tableau sampler of
//! `frame_statistics.rs`.

use dqec_sim::circuit::{CheckBasis, Circuit, Noise1};
use dqec_sim::dem::ParametricDem;
use dqec_sim::frame::FrameSampler;
use dqec_sim::noise::NoiseModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Marginal flip probability of each of `num_detectors` detectors
/// according to `dem` at baseline rate `p`:
/// P(flip) = 1/2 (1 - prod_m (1 - 2 p_m)) over mechanisms touching it.
fn dem_marginals(dem: &ParametricDem, p: f64, num_detectors: usize) -> Vec<f64> {
    let mut probabilities = Vec::new();
    dem.probabilities_into(p, &mut probabilities);
    let mut keep = vec![1.0f64; num_detectors];
    for ((dets, _, _), q) in dem.mechanisms().zip(probabilities) {
        for &d in dets {
            keep[d as usize] *= 1.0 - 2.0 * q;
        }
    }
    keep.into_iter().map(|k| 0.5 * (1.0 - k)).collect()
}

/// The DEM of `circuit` with its noise ops as they stand.
fn fixed_dem(circuit: &Circuit) -> ParametricDem {
    let (_, fixed) = NoiseModel::new(0.0).apply_with_params(circuit);
    ParametricDem::from_noisy(circuit, &fixed)
}

/// Asserts that `predicted` matches every detector's sampled flip rate
/// in `circuit` within `tolerance` plus five standard errors.
fn assert_marginals_match(circuit: &Circuit, predicted: &[f64], shots: usize, tolerance: f64) {
    let batch = FrameSampler::new(circuit).sample(shots, &mut StdRng::seed_from_u64(7));
    assert_eq!(
        predicted.len(),
        circuit.detectors().len(),
        "DEM must predict every detector"
    );
    for (d, &expected) in predicted.iter().enumerate() {
        let observed = batch.detectors.count_row(d) as f64 / shots as f64;
        let sigma = (expected * (1.0 - expected) / shots as f64).sqrt();
        assert!(
            (observed - expected).abs() < tolerance + 5.0 * sigma,
            "detector {d}: predicted {expected} observed {observed}"
        );
    }
}

/// [`assert_marginals_match`] with the marginals of `circuit`'s own DEM.
fn assert_dem_matches_sampling(circuit: &Circuit, shots: usize, tolerance: f64) {
    let predicted = dem_marginals(&fixed_dem(circuit), 0.0, circuit.detectors().len());
    assert_marginals_match(circuit, &predicted, shots, tolerance);
}

fn repetition_round(p: f64) -> Circuit {
    let mut c = Circuit::new(5);
    for q in 0..5 {
        c.reset(q).unwrap();
    }
    let mut prev: Option<[dqec_sim::MeasRecord; 2]> = None;
    for t in 0..3 {
        for q in 0..3 {
            c.noise1(Noise1::Depolarize1, q, p).unwrap();
        }
        c.cx(0, 3).unwrap();
        c.cx(1, 3).unwrap();
        c.cx(1, 4).unwrap();
        c.cx(2, 4).unwrap();
        c.noise1(Noise1::XError, 3, p / 2.0).unwrap();
        c.noise1(Noise1::XError, 4, p / 2.0).unwrap();
        let m3 = c.measure_reset(3).unwrap();
        let m4 = c.measure_reset(4).unwrap();
        match prev {
            None => {
                c.add_detector(&[m3], CheckBasis::Z, (0, 0, t)).unwrap();
                c.add_detector(&[m4], CheckBasis::Z, (1, 0, t)).unwrap();
            }
            Some([p3, p4]) => {
                c.add_detector(&[m3, p3], CheckBasis::Z, (0, 0, t)).unwrap();
                c.add_detector(&[m4, p4], CheckBasis::Z, (1, 0, t)).unwrap();
            }
        }
        prev = Some([m3, m4]);
    }
    c
}

#[test]
fn dem_marginals_match_sampling_repetition_code() {
    assert_dem_matches_sampling(&repetition_round(0.02), 200_000, 0.004);
}

#[test]
fn dem_marginals_match_sampling_with_two_qubit_noise() {
    let mut c = Circuit::new(3);
    for q in 0..3 {
        c.reset(q).unwrap();
    }
    c.depolarize2(0, 1, 0.05).unwrap();
    c.cx(0, 2).unwrap();
    c.depolarize2(0, 2, 0.03).unwrap();
    c.h(1).unwrap();
    c.noise1(Noise1::Depolarize1, 1, 0.04).unwrap();
    c.h(1).unwrap();
    let m0 = c.measure(0).unwrap();
    let m1 = c.measure(1).unwrap();
    let m2 = c.measure(2).unwrap();
    c.add_detector(&[m0], CheckBasis::Z, (0, 0, 0)).unwrap();
    c.add_detector(&[m1], CheckBasis::Z, (1, 0, 0)).unwrap();
    c.add_detector(&[m0, m2], CheckBasis::Z, (2, 0, 0)).unwrap();
    assert_dem_matches_sampling(&c, 200_000, 0.004);
}

#[test]
fn dem_marginals_match_on_surface_code_circuit() {
    // The real deal: a d=3 memory circuit under the paper's noise model.
    use dqec_core_like::build_d3;
    let noisy = NoiseModel::new(5e-3).apply(&build_d3());
    assert_dem_matches_sampling(&noisy, 100_000, 0.006);
}

#[test]
fn reweighted_dem_marginals_match_sampling() {
    // The shipped reweight path: a DEM extracted once from a template at
    // p = 4e-3 and evaluated at 1e-3 must predict what a circuit noised
    // at 1e-3 samples. The template's own marginals are about four
    // times larger, far outside this bound.
    use dqec_core_like::build_d3;
    let clean = build_d3();
    let (template, params) = NoiseModel::new(4e-3).apply_with_params(&clean);
    let dem = ParametricDem::from_noisy(&template, &params);
    let predicted = dem_marginals(&dem, 1e-3, clean.detectors().len());
    assert_marginals_match(
        &NoiseModel::new(1e-3).apply(&clean),
        &predicted,
        100_000,
        0.0,
    );
}

/// Minimal hand-rolled d=3 rotated surface code memory circuit (one
/// round), independent of dqec-core, to keep this test self-contained.
mod dqec_core_like {
    use super::*;

    pub fn build_d3() -> Circuit {
        // Data 0..9 in a 3x3 grid; 4 Z ancillas (9..13), 4 X (13..17).
        let z_checks: [&[u32]; 4] = [&[0, 1, 3, 4], &[2, 5], &[3, 6], &[4, 5, 7, 8]];
        let x_checks: [&[u32]; 4] = [&[0, 1], &[1, 2, 4, 5], &[3, 4, 6, 7], &[7, 8]];
        let mut c = Circuit::new(17);
        for q in 0..17 {
            c.reset(q).unwrap();
        }
        let mut records = Vec::new();
        for round in 0..2 {
            for (i, qs) in z_checks.iter().enumerate() {
                let anc = 9 + i as u32;
                for &q in *qs {
                    c.cx(q, anc).unwrap();
                }
                let m = c.measure_reset(anc).unwrap();
                records.push((i, round, m));
            }
            for (i, qs) in x_checks.iter().enumerate() {
                let anc = 13 + i as u32;
                c.h(anc).unwrap();
                for &q in *qs {
                    c.cx(anc, q).unwrap();
                }
                c.h(anc).unwrap();
                let m = c.measure_reset(anc).unwrap();
                records.push((4 + i, round, m));
            }
        }
        for i in 0..4usize {
            let m0 = records.iter().find(|r| r.0 == i && r.1 == 0).unwrap().2;
            let m1 = records.iter().find(|r| r.0 == i && r.1 == 1).unwrap().2;
            c.add_detector(&[m0], CheckBasis::Z, (i as i32, 0, 0))
                .unwrap();
            c.add_detector(&[m0, m1], CheckBasis::Z, (i as i32, 0, 1))
                .unwrap();
        }
        for i in 4..8usize {
            let m0 = records.iter().find(|r| r.0 == i && r.1 == 0).unwrap().2;
            let m1 = records.iter().find(|r| r.0 == i && r.1 == 1).unwrap().2;
            c.add_detector(&[m0, m1], CheckBasis::X, (i as i32, 0, 1))
                .unwrap();
        }
        c
    }
}

#[test]
fn zero_noise_dem_is_empty_and_sampling_silent() {
    let clean = repetition_round(0.0);
    assert_eq!(fixed_dem(&clean).mechanisms().count(), 0);
    let batch = FrameSampler::new(&clean).sample(10_000, &mut StdRng::seed_from_u64(1));
    for d in 0..clean.detectors().len() {
        assert_eq!(batch.detectors.count_row(d), 0);
    }
}
