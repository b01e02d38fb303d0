//! Fig. 5 — slope of the log-log LER-vs-p fit for defective l = 11
//! patches, grouped by adapted code distance, against the defect-free
//! slopes. The paper's finding: the slope tracks d, and defective
//! patches have *higher* slopes than defect-free patches of equal d.

use crate::{defect_free_slopes, slope_dataset, FigResult, RunConfig};
use dqec_chiplet::record::{Record, Sink, Value};

/// Emits the figure's records.
pub fn run(cfg: &RunConfig, sink: &mut dyn Sink) -> FigResult {
    let (l, d_range) = cfg.slope_patch();
    let records = slope_dataset(cfg)?;

    sink.emit(&Record::Section(format!("defective patches (l={l})")));
    sink.emit(&Record::Columns(
        ["d", "mean_slope", "min_slope", "max_slope", "n"]
            .map(String::from)
            .to_vec(),
    ));
    for d in d_range {
        let slopes: Vec<f64> = records
            .iter()
            .filter(|r| r.indicators.distance() == d)
            .filter_map(|r| r.slope)
            .collect();
        if slopes.is_empty() {
            sink.emit(&Record::row([
                Value::from(d),
                "-".into(),
                "-".into(),
                "-".into(),
                Value::from(0usize),
            ]));
            continue;
        }
        let mean = slopes.iter().sum::<f64>() / slopes.len() as f64;
        let min = slopes.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = slopes.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        sink.emit(&Record::row([
            Value::from(d),
            mean.into(),
            min.into(),
            max.into(),
            slopes.len().into(),
        ]));
    }

    sink.emit(&Record::Section("defect-free references".into()));
    sink.emit(&Record::Columns(["d", "slope"].map(String::from).to_vec()));
    let refs: Vec<u32> = if cfg.full {
        vec![5, 7, 9, 11]
    } else {
        vec![5, 7]
    };
    for (d, slope) in refs.iter().zip(defect_free_slopes(&refs, cfg)?) {
        match slope {
            Some(s) => sink.emit(&Record::row([Value::from(*d), s.into()])),
            None => sink.emit(&Record::row([
                Value::from(*d),
                "- (no failures observed at these shots)".into(),
            ])),
        }
    }
    sink.emit(&Record::Note(
        "paper: slopes grow with d (roughly alpha*d with alpha <= 1/2), and".into(),
    ));
    sink.emit(&Record::Note(
        "defective patches sit above the defect-free patch of the same d.".into(),
    ));
    Ok(())
}
