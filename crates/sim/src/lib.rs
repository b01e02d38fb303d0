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
//!   produces detector/observable flip tables, and [`ScratchPool`], the
//!   one pool of reusable working memory that sampling and decoding
//!   workers borrow from;
//! * [`dem`] — detector-error-model extraction: every noise mechanism's
//!   flipped detectors and observables, with its probability at any
//!   baseline rate `p`;
//! * [`noise`] — the paper's circuit-level noise model (2-qubit gate
//!   error `p`, 1-qubit `0.8p`, readout `8/15·p`), with per-qubit
//!   overrides for the cutoff-fidelity study;
//! * [`pauli`] — single-qubit Paulis: the depolarizing supports the
//!   frame sampler draws from;
//! * [`f2`] — F2/symplectic linear algebra, with which `dqec_core`
//!   counts an adapted patch's logical qubits.
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
mod symptoms;
pub mod tableau;

pub use circuit::{CheckBasis, Circuit, MeasRecord};
pub use dem::ParametricDem;
pub use error::SimError;
pub use frame::{BitTable, FrameProgram, FrameSampler, FrameScratch, ScratchPool, ShotBatch};
pub use noise::{NoiseModel, NoiseParam};
pub use tableau::ReferenceSample;

/// Circuits shared by the unit tests of several modules.
#[cfg(test)]
#[path = "../tests/support/random_circuit.rs"]
mod random_circuit;

/// An independent reference walk for [`dem`]: the oracle of its unit
/// tests.
#[cfg(test)]
#[path = "../tests/support/dem_oracle.rs"]
mod dem_oracle;

/// The frame interpreter [`FrameProgram`] replaced: the oracle of its
/// unit tests.
#[cfg(test)]
#[path = "../tests/support/frame_oracle.rs"]
mod frame_oracle;
