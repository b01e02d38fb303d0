//! # dqec-chiplet
//!
//! Modular chiplet architecture evaluation for defect-adapted surface
//! codes (paper §4–5): fabrication defect models, post-selection
//! criteria, yield and resource-overhead estimation, and Monte-Carlo
//! logical-error-rate experiments with slope fits.
//!
//! Experiments are described declaratively with [`ExperimentSpec`] and
//! executed by a [`Runner`] that compiles the circuit and decoding
//! graph once per patch, reweighting per swept error rate; results flow
//! as typed [`Record`]s into a [`Sink`] (TSV, JSON, memory, or null).
//! [`json`] is the workspace's one JSON codec — this is the lowest crate
//! that writes JSON, so the sweep state files and the serve/dist wire
//! frames above it share the module the `--json` sink uses. [`cli`] is
//! the workspace's one command-line flag reader, here for the same
//! reason: every binary's package reaches this crate.
//!
//! # Examples
//!
//! Estimating the yield of l = 7 chiplets against a d = 5 target from
//! the first 200 chiplets of one population (a [`SampleConfig`] names
//! the population; the index range picks which of its chiplets to
//! draw):
//!
//! ```
//! use dqec_chiplet::criteria::QualityTarget;
//! use dqec_chiplet::defect_model::DefectModel;
//! use dqec_chiplet::yields::{sample_indicators_range, yield_from_indicators, SampleConfig};
//!
//! let config = SampleConfig::new(7, DefectModel::LinkAndQubit, 0.005);
//! let indicators = sample_indicators_range(&config, 0..200);
//! let y = yield_from_indicators(&indicators, &QualityTarget::defect_free(5));
//! assert!(y.fraction() > 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod criteria;
pub mod defect_model;
pub mod experiment;
pub mod json;
pub mod record;
pub mod runner;
pub mod yields;

pub use criteria::{QualityTarget, Ranking};
pub use defect_model::DefectModel;
pub use experiment::{fit_loglog, LerPoint, SlopeFit};
pub use record::{
    fmt_compact, JsonSink, LerRecord, MemorySink, NullSink, Record, Sink, SlopeFitRecord, TsvSink,
    Value, YieldRecord,
};
pub use runner::{default_rounds, DecoderChoice, ExperimentSpec, Protocol, RunOutcome, Runner};
pub use yields::{
    cost_per_logical, overhead_factor, sample_indicators_range, yield_from_indicators,
    SampleConfig, YieldEstimate,
};
