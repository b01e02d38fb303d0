//! Random small Clifford+noise circuits for property tests.
//!
//! Written against `crate::circuit`, so it compiles as a unit-test
//! module of `dqec_sim` and of any crate that imports
//! `dqec_sim::circuit` at its root under `#[cfg(test)]`.

use crate::circuit::{CheckBasis, Circuit, MeasRecord, Noise1};
use rand::rngs::StdRng;
use rand::Rng;

/// A random small Clifford+noise circuit: every operation kind, noise
/// probabilities from the edge set, detectors and observables over
/// random (possibly repeated) records. Detectors are Z-basis, or of a
/// random basis each when `mixed_bases` is set (which draws one more
/// value per detector from `rng`).
pub fn random_circuit(rng: &mut StdRng, mixed_bases: bool) -> Circuit {
    const PS: [f64; 5] = [0.0, 1e-12, 1e-3, 0.3, 1.0];
    let n = rng.gen_range(2..6u32);
    let mut c = Circuit::new(n);
    let mut records = Vec::new();
    for _ in 0..rng.gen_range(0..40usize) {
        let a = rng.gen_range(0..n);
        let b = (a + rng.gen_range(1..n)) % n;
        let p = PS[rng.gen_range(0..PS.len())];
        match rng.gen_range(0..13u32) {
            0 => c.h(a).unwrap(),
            1 => c.s(a).unwrap(),
            2 => c.x(a).unwrap(),
            3 => c.z(a).unwrap(),
            4 => c.cx(a, b).unwrap(),
            5 => c.cz(a, b).unwrap(),
            6 => c.reset(a).unwrap(),
            7 => records.push(c.measure(a).unwrap()),
            8 => c.noise1(Noise1::XError, a, p).unwrap(),
            9 => c.noise1(Noise1::ZError, a, p).unwrap(),
            10 => c.noise1(Noise1::Depolarize1, a, p).unwrap(),
            11 => c.depolarize2(a, b, p).unwrap(),
            _ => c.tick(),
        }
    }
    records.push(c.measure(0).unwrap());
    let pick = |rng: &mut StdRng| -> Vec<MeasRecord> {
        (0..rng.gen_range(0..4usize))
            .map(|_| records[rng.gen_range(0..records.len())])
            .collect()
    };
    for d in 0..rng.gen_range(0..5i32) {
        let basis = if mixed_bases && rng.gen_bool(0.5) {
            CheckBasis::X
        } else {
            CheckBasis::Z
        };
        c.add_detector(&pick(rng), basis, (d, 0, 0)).unwrap();
    }
    for o in 0..rng.gen_range(0..3u32) {
        c.include_observable(o, &pick(rng)).unwrap();
    }
    c
}
