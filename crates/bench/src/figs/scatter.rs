//! Figs. 7–10 — the slope of every defective patch in the slope
//! dataset against one indicator. The four figures are one scatter;
//! each is a [`Scatter`] entry naming its columns, its row and the
//! paper's reading of it.

use crate::{slope_dataset, FigResult, RunConfig};
use dqec_chiplet::record::{Record, Sink, Value};
use dqec_core::indicators::PatchIndicators;

/// One slope-scatter figure.
pub struct Scatter {
    /// Column names, in row order.
    pub columns: [&'static str; 3],
    /// The row of one patch with a measured slope.
    pub row: fn(&PatchIndicators, f64) -> [Value; 3],
    /// The `# paper:` notes under the rows, one line each.
    pub notes: &'static [&'static str],
}

/// Fig. 7 — slope versus the number of minimum-weight logical
/// operators (log scale), grouped by adapted distance: the paper's
/// secondary post-selection indicator, which explains the variation
/// among equal-distance patches.
pub const SHORTEST_LOGICALS: Scatter = Scatter {
    columns: ["d", "ln_num_shortest", "slope"],
    row: |ind, slope| {
        [
            ind.distance().into(),
            ind.shortest_logical_count().max(1.0).ln().into(),
            slope.into(),
        ]
    },
    notes: &[
        "paper: within a distance group, fewer shortest logicals means a",
        "higher slope (better low-p behaviour); defect-free patches sit at",
        "large counts because of their symmetry.",
    ],
};

/// Fig. 8 — slope versus the proportion of disabled data qubits: an
/// alternative indicator the paper evaluates (correlated with d but
/// adds no extra information).
pub const DISABLED_FRACTION: Scatter = Scatter {
    columns: ["d", "proportion_disabled", "slope"],
    row: |ind, slope| {
        [
            ind.distance().into(),
            ind.proportion_disabled_data.into(),
            slope.into(),
        ]
    },
    notes: &["paper: inversely correlated with the slope, but explained by d."],
};

/// Fig. 9 — slope versus the diameter of the largest disabled cluster:
/// an indicator the paper evaluates and rejects (no predictive power
/// beyond d).
pub const CLUSTER_DIAMETER: Scatter = Scatter {
    columns: ["d", "largest_cluster_diameter", "slope"],
    row: |ind, slope| {
        [
            ind.distance().into(),
            ind.largest_cluster_diameter.into(),
            slope.into(),
        ]
    },
    notes: &["paper: the cluster diameter does not help predict the slope."],
};

/// Fig. 10 — slope versus the raw number of faulty qubits: the natural
/// baseline indicator (visible negative correlation, but much weaker
/// than the adapted code distance).
pub const FAULTY_COUNT: Scatter = Scatter {
    columns: ["num_faulty", "slope", "d"],
    row: |ind, slope| [ind.num_faulty.into(), slope.into(), ind.distance().into()],
    notes: &[
        "paper: correlated, but equal-faulty-count patches span a wide",
        "range of slopes — the adapted distance separates them.",
    ],
};

impl Scatter {
    /// Emits the figure's records: one row per patch whose slope was
    /// measured, then the notes.
    pub fn run(&self, cfg: &RunConfig, sink: &mut dyn Sink) -> FigResult {
        let records = slope_dataset(cfg)?;
        sink.emit(&Record::Columns(self.columns.map(String::from).to_vec()));
        for r in &records {
            if let Some(slope) = r.slope {
                sink.emit(&Record::row((self.row)(&r.indicators, slope)));
            }
        }
        for note in self.notes {
            sink.emit(&Record::Note((*note).into()));
        }
        Ok(())
    }
}
