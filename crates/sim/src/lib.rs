//! # dqec-sim
//!
//! Stabilizer circuit simulation substrate for the `dqec` workspace, a
//! from-scratch re-implementation of the pieces of Stim (Gidney 2021)
//! needed to reproduce "Codesign of quantum error-correcting codes and
//! modular chiplets in the presence of defects" (Lin et al., ASPLOS'24):
//!
//! * [`circuit`] — a circuit IR with Clifford gates, Z-basis
//!   resets/measurements, Pauli noise channels, detectors and logical
//!   observables;
//! * [`tableau`] — an Aaronson–Gottesman simulator computing the
//!   noiseless *reference sample* a frame simulation deviates from;
//! * [`frame`] — a vectorized (64 shots/word) Pauli-frame sampler that
//!   produces detector/observable flip tables;
//! * [`dem`] — detector-error-model extraction: every noise mechanism's
//!   probability, flipped detectors, and flipped observables;
//! * [`noise`] — the paper's circuit-level noise model (2-qubit gate
//!   error `p`, 1-qubit `0.8p`, readout `8/15·p`), with per-qubit
//!   overrides for the cutoff-fidelity study;
//! * [`pauli`], [`f2`] — Pauli strings and F2/symplectic linear algebra
//!   used for code validation.
//!
//! # Examples
//!
//! Estimating the logical flip rate of a noisy single-qubit "memory":
//!
//! ```
//! use dqec_sim::circuit::{CheckBasis, Circuit};
//! use dqec_sim::frame::FrameSampler;
//! use dqec_sim::noise::NoiseModel;
//! use rand::SeedableRng;
//!
//! let mut clean = Circuit::new(1);
//! clean.reset(0)?;
//! let m = clean.measure(0)?;
//! clean.add_detector(&[m], CheckBasis::Z, (0, 0, 0))?;
//! clean.include_observable(0, &[m])?;
//!
//! let noisy = NoiseModel::new(1e-2).apply(&clean);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let batch = FrameSampler::new(&noisy).sample(4096, &mut rng);
//! let failures = batch.observables.count_row(0);
//! assert!(failures > 0 && failures < 4096);
//! # Ok::<(), dqec_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod circuit;
pub mod dem;
mod error;
pub mod f2;
pub mod frame;
pub mod noise;
pub mod pauli;
pub mod tableau;

pub use circuit::{CheckBasis, Circuit, MeasRecord};
pub use dem::{DetectorErrorModel, ParametricDem};
pub use error::SimError;
pub use frame::{BitTable, FrameProgram, FrameSampler, FrameScratch, FrameScratchPool, ShotBatch};
pub use noise::{NoiseModel, NoiseParam};
pub use tableau::ReferenceSample;

/// Circuits shared by the unit tests of several modules.
#[cfg(test)]
pub(crate) mod testing {
    use crate::circuit::{CheckBasis, Circuit, MeasRecord, Noise1};
    use rand::rngs::StdRng;
    use rand::Rng;

    /// A random small Clifford+noise circuit: every operation kind,
    /// noise probabilities from the edge set, detectors and observables
    /// over random (possibly repeated) records.
    pub(crate) fn random_circuit(rng: &mut StdRng) -> Circuit {
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
            c.add_detector(&pick(rng), CheckBasis::Z, (d, 0, 0))
                .unwrap();
        }
        for o in 0..rng.gen_range(0..3u32) {
            c.include_observable(o, &pick(rng)).unwrap();
        }
        c
    }
}

/// The extraction [`dem`] replaced: the oracle of its unit tests.
#[cfg(test)]
#[path = "../tests/support/dem_oracle.rs"]
mod dem_oracle;
