//! Circuit-level noise models.
//!
//! The paper's noise model (§4): every two-qubit gate fails with
//! probability `p` (two-qubit depolarizing), every one-qubit gate with
//! `0.8 p` (one-qubit depolarizing), and readout flips with `(8/15) p`;
//! reset preparations flip with the same readout rate. Individual qubits
//! may carry an elevated *absolute* error rate (the §6 cutoff-fidelity
//! study gives one data qubit a two-qubit error rate of 5–15%).

use crate::circuit::{Circuit, Noise1, Op};
use std::collections::BTreeMap;

/// Ratio of one-qubit gate error to two-qubit gate error.
pub const ONE_QUBIT_RATIO: f64 = 0.8;
/// Ratio of readout/reset flip error to two-qubit gate error.
pub const READOUT_RATIO: f64 = 8.0 / 15.0;

/// How one inserted noise channel's probability depends on the model's
/// baseline two-qubit error rate `p`.
///
/// [`NoiseModel::apply_with_params`] returns one of these per inserted
/// noise op, in circuit order, so a decoding graph built once can be
/// *reweighted* for a different `p` without re-extracting the detector
/// error model (see `dqec_sim::dem::ParametricDem`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NoiseParam {
    /// `probability = ratio · max(p, floor)`: a model-inserted channel
    /// whose rate scales with the baseline, with `floor` the largest
    /// per-qubit absolute override touching the op (0 when none).
    Scaled {
        /// Multiplier relative to the two-qubit rate (1, 0.8, or 8/15).
        ratio: f64,
        /// Largest absolute per-qubit override involved, or 0.
        floor: f64,
    },
    /// A noise op already present in the clean circuit; its probability
    /// does not depend on the model's baseline.
    Fixed(f64),
}

impl NoiseParam {
    /// The channel's probability under baseline two-qubit rate `p`.
    pub fn rate(&self, p: f64) -> f64 {
        match *self {
            NoiseParam::Scaled { ratio, floor } => ratio * p.max(floor),
            NoiseParam::Fixed(q) => q,
        }
    }
}

/// Circuit-level depolarizing noise with optional per-qubit overrides.
///
/// # Examples
///
/// ```
/// use dqec_sim::circuit::Circuit;
/// use dqec_sim::noise::NoiseModel;
///
/// let mut clean = Circuit::new(2);
/// clean.reset(0)?;
/// clean.reset(1)?;
/// clean.cx(0, 1)?;
/// clean.measure(1)?;
///
/// let noisy = NoiseModel::new(1e-3).apply(&clean);
/// assert!(noisy.num_noise_ops() > 0);
/// # Ok::<(), dqec_sim::SimError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseModel {
    /// Baseline two-qubit gate error rate `p`.
    p: f64,
    /// Per-qubit absolute two-qubit error rates overriding the baseline.
    overrides: BTreeMap<u32, f64>,
}

impl NoiseModel {
    /// Creates the paper's noise model with two-qubit gate error `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn new(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p={p} out of range");
        NoiseModel {
            p,
            overrides: BTreeMap::new(),
        }
    }

    /// The baseline two-qubit gate error rate.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Gives `qubit` an elevated absolute two-qubit error rate
    /// (its one-qubit and readout errors scale accordingly).
    ///
    /// # Panics
    ///
    /// Panics if `p_bad` is not in `[0, 1]`.
    pub fn with_bad_qubit(mut self, qubit: u32, p_bad: f64) -> Self {
        assert!((0.0..=1.0).contains(&p_bad), "p_bad={p_bad} out of range");
        self.overrides.insert(qubit, p_bad);
        self
    }

    /// The per-qubit absolute rate overrides (empty for the plain model).
    pub fn overrides(&self) -> &BTreeMap<u32, f64> {
        &self.overrides
    }

    /// The effective two-qubit rate for a gate touching `qubits`.
    fn rate(&self, qubits: &[u32]) -> f64 {
        qubits
            .iter()
            .map(|q| *self.overrides.get(q).unwrap_or(&self.p))
            .fold(self.p, f64::max)
    }

    /// The largest absolute override among `qubits` (0 when none), i.e.
    /// the `floor` of the [`NoiseParam`] for an op touching them.
    fn floor(&self, qubits: &[u32]) -> f64 {
        qubits
            .iter()
            .filter_map(|q| self.overrides.get(q).copied())
            .fold(0.0, f64::max)
    }

    /// Inserts noise channels around every operation of `clean`,
    /// returning the noisy circuit. Detector and observable definitions
    /// are preserved (measurement order is unchanged).
    pub fn apply(&self, clean: &Circuit) -> Circuit {
        self.apply_with_params(clean).0
    }

    /// Like [`NoiseModel::apply`], but also returns one [`NoiseParam`]
    /// per inserted noise op, in circuit order, describing how that
    /// op's probability depends on the baseline `p`. Channels whose
    /// rate is zero under this model are skipped in both outputs, so
    /// build the template at `p > 0` when the parametrization matters.
    pub fn apply_with_params(&self, clean: &Circuit) -> (Circuit, Vec<NoiseParam>) {
        // Every op replayed below was validated when `clean` was built,
        // the noisy circuit has the same qubits, and every inserted rate
        // is a ratio ≤ 1 times a rate in [0, 1]: the unchecked pushes
        // keep the circuit valid.
        let mut noisy = Circuit::new(clean.num_qubits());
        let mut params = Vec::new();
        let scaled = |ratio: f64, qubits: &[u32], params: &mut Vec<NoiseParam>| -> f64 {
            let r = ratio * self.rate(qubits);
            if r > 0.0 {
                params.push(NoiseParam::Scaled {
                    ratio,
                    floor: self.floor(qubits),
                });
            }
            r
        };
        for &op in clean.ops() {
            match op {
                Op::Gate1 { q, .. } => {
                    noisy.push_unchecked(op);
                    let p = scaled(ONE_QUBIT_RATIO, &[q], &mut params);
                    noisy.push_unchecked(Op::Noise1 {
                        kind: Noise1::Depolarize1,
                        q,
                        p,
                    });
                }
                Op::Gate2 { a, b, .. } => {
                    noisy.push_unchecked(op);
                    let p = scaled(1.0, &[a, b], &mut params);
                    noisy.push_unchecked(Op::Depolarize2 { a, b, p });
                }
                Op::Reset { q } => {
                    noisy.push_unchecked(op);
                    let p = scaled(READOUT_RATIO, &[q], &mut params);
                    noisy.push_unchecked(Op::Noise1 {
                        kind: Noise1::XError,
                        q,
                        p,
                    });
                }
                Op::Measure { q } => {
                    let p = scaled(READOUT_RATIO, &[q], &mut params);
                    noisy.push_unchecked(Op::Noise1 {
                        kind: Noise1::XError,
                        q,
                        p,
                    });
                    noisy.push_unchecked(op);
                }
                Op::Noise1 { p, .. } | Op::Depolarize2 { p, .. } => {
                    params.push(NoiseParam::Fixed(p));
                    noisy.push_unchecked(op);
                }
                Op::Tick => noisy.push_unchecked(op),
            }
        }
        noisy.copy_annotations_from(clean);
        (noisy, params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::CheckBasis;

    fn clean_round() -> Circuit {
        let mut c = Circuit::new(3);
        for q in 0..3 {
            c.reset(q).unwrap();
        }
        c.h(2).unwrap();
        c.cx(0, 2).unwrap();
        c.cx(1, 2).unwrap();
        c.h(2).unwrap();
        let m = c.measure(2).unwrap();
        c.add_detector(&[m], CheckBasis::X, (0, 0, 0)).unwrap();
        c
    }

    #[test]
    fn noise_insertion_counts() {
        let noisy = NoiseModel::new(1e-3).apply(&clean_round());
        // 3 resets + 2 one-qubit gates + 2 two-qubit gates + 1 readout.
        assert_eq!(noisy.num_noise_ops(), 3 + 2 + 2 + 1);
        assert_eq!(noisy.num_measurements(), 1);
        assert_eq!(noisy.detectors().len(), 1);
    }

    #[test]
    fn zero_noise_inserts_nothing() {
        let noisy = NoiseModel::new(0.0).apply(&clean_round());
        assert_eq!(noisy.num_noise_ops(), 0);
    }

    #[test]
    fn bad_qubit_raises_rates() {
        let clean = clean_round();
        let noisy = NoiseModel::new(1e-3).with_bad_qubit(0, 0.1).apply(&clean);
        // Find the depolarize2 on (0,2): its rate must be 0.1.
        let mut seen = false;
        for op in noisy.ops() {
            if let Op::Depolarize2 { a: 0, b: 2, p } = op {
                assert!((p - 0.1).abs() < 1e-12);
                seen = true;
            }
        }
        assert!(seen);
    }

    #[test]
    fn detectors_survive_noise_pass() {
        let clean = clean_round();
        let noisy = NoiseModel::new(5e-3).apply(&clean);
        assert_eq!(noisy.detectors()[0].records, clean.detectors()[0].records);
        assert_eq!(noisy.detectors()[0].basis, clean.detectors()[0].basis);
    }

    #[test]
    fn ratios_match_paper() {
        assert!((ONE_QUBIT_RATIO - 0.8).abs() < 1e-15);
        assert!((READOUT_RATIO - 8.0 / 15.0).abs() < 1e-15);
    }

    #[test]
    fn params_align_with_noise_ops() {
        let model = NoiseModel::new(2e-3).with_bad_qubit(0, 0.1);
        let (noisy, params) = model.apply_with_params(&clean_round());
        assert_eq!(noisy.num_noise_ops(), params.len());
        // Every param reproduces the concrete rate in the circuit.
        let mut i = 0;
        for op in noisy.ops() {
            let concrete = match *op {
                Op::Noise1 { p, .. } | Op::Depolarize2 { p, .. } => p,
                _ => continue,
            };
            assert!(
                (params[i].rate(model.p()) - concrete).abs() < 1e-15,
                "param {i} disagrees with circuit rate"
            );
            i += 1;
        }
    }

    #[test]
    fn scaled_param_tracks_p_and_respects_floor() {
        let p = NoiseParam::Scaled {
            ratio: 0.8,
            floor: 0.05,
        };
        assert!((p.rate(1e-3) - 0.8 * 0.05).abs() < 1e-15);
        assert!((p.rate(0.2) - 0.8 * 0.2).abs() < 1e-15);
        assert!((NoiseParam::Fixed(0.3).rate(1e-3) - 0.3).abs() < 1e-15);
    }

    #[test]
    fn preexisting_noise_becomes_fixed_param() {
        let mut c = Circuit::new(1);
        c.reset(0).unwrap();
        c.noise1(Noise1::XError, 0, 0.07).unwrap();
        c.measure(0).unwrap();
        let (_, params) = NoiseModel::new(1e-3).apply_with_params(&c);
        assert!(params.contains(&NoiseParam::Fixed(0.07)));
    }
}
