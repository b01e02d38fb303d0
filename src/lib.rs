//! # dqec — defect-aware QEC / chiplet codesign
//!
//! A Rust reproduction of *"Codesign of quantum error-correcting codes
//! and modular chiplets in the presence of defects"* (Lin et al.,
//! ASPLOS 2024): adapting the rotated surface code to fabrication
//! defects with super-stabilizers and boundary deformations, and
//! evaluating the yield and resource overhead of a modular chiplet
//! architecture.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`sim`] — stabilizer circuit simulation (tableau reference runs,
//!   batch Pauli-frame sampling, detector error models);
//! * [`matching`] — the MWPM decoder (blossom matching, decoding
//!   graphs);
//! * [`core`] — the paper's contribution: defect-adapted surface codes;
//! * [`chiplet`] — defect models, post-selection, yield/overhead;
//! * [`sweep`] — the Monte-Carlo orchestration subsystem: sweep plans,
//!   adaptive CI-targeted shot allocation, checkpoint/resume;
//! * [`estimator`] — application-level resource and fidelity estimates;
//! * [`serve`] — decode-as-a-service: the resident TCP decode server
//!   with a compiled-experiment cache and batched request pipeline;
//! * [`obs`] — observability: the lock-free metrics registry, span
//!   tracing with Chrome trace export, and the sanctioned clock
//!   facade.
//!
//! # Quick start
//!
//! Adapt a defective chiplet and measure its logical error rate
//! through the unified experiment API:
//!
//! ```
//! use dqec::prelude::*;
//!
//! // A 7x7 chiplet with a broken syndrome qubit in the interior.
//! let mut defects = DefectSet::new();
//! defects.add_synd(Coord::new(6, 6));
//!
//! let patch = AdaptedPatch::new(PatchLayout::memory(7), &defects);
//! assert!(patch.is_valid());
//! assert_eq!(PatchIndicators::of(&patch).distance(), 5); // paper Fig. 1b
//!
//! // Sweep a LER curve: the circuit and decoding graph are compiled
//! // once and reweighted per point.
//! let spec = ExperimentSpec::memory(patch)
//!     .ps(&[6e-3, 9e-3])
//!     .shots(2_000)
//!     .seed(1)
//!     .label("d=5");
//! let outcome = Runner::new().run(&spec, &mut NullSink)?;
//! assert_eq!(outcome.points.len(), 2);
//! # Ok::<(), dqec::core::CoreError>(())
//! ```
//!
//! See `examples/` for end-to-end memory experiments, chiplet yield
//! farming, and device planning, and `crates/bench/src/bin/` for the
//! per-figure reproduction harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dqec_chiplet as chiplet;
pub use dqec_core as core;
pub use dqec_dist as dist;
pub use dqec_estimator as estimator;
pub use dqec_matching as matching;
pub use dqec_obs as obs;
pub use dqec_serve as serve;
pub use dqec_sim as sim;
pub use dqec_sweep as sweep;

/// One-stop imports for the common workflow: adapt a patch, declare an
/// [`ExperimentSpec`](chiplet::runner::ExperimentSpec), run it, and
/// route typed records into a sink.
pub mod prelude {
    pub use crate::chiplet::record::{
        JsonSink, LerRecord, MemorySink, NullSink, Record, Sink, SlopeFitRecord, TsvSink, Value,
        YieldRecord,
    };
    pub use crate::chiplet::runner::{
        default_rounds, DecoderBuilder, DecoderChoice, ExperimentSpec, Protocol, RunOutcome, Runner,
    };
    pub use crate::chiplet::{
        fit_loglog, sample_indicators_range, yield_from_indicators, DefectModel, LerPoint,
        QualityTarget, SampleConfig, SlopeFit,
    };
    pub use crate::core::{AdaptedPatch, Coord, DefectSet, PatchIndicators, PatchLayout, Side};
    pub use crate::matching::{Decoder, MwpmDecoder};
    pub use crate::sim::{Circuit, NoiseModel};
    pub use crate::sweep::{EngineConfig, Precision, SweepEngine, SweepPlan};
}
