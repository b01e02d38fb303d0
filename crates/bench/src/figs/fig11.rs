//! Fig. 11 — post-selection effectiveness: mean and worst slope of the
//! kept chiplets as the kept proportion varies, comparing the paper's
//! chosen indicators (distance + number of shortest logicals) against
//! the faulty-qubit-count baseline.

use crate::{slope_dataset, FigResult, RunConfig, SlopeRecord};
use dqec_chiplet::criteria::Ranking;
use dqec_chiplet::record::{Record, Sink, Value};

fn stats(kept: &[&SlopeRecord]) -> (f64, f64) {
    let slopes: Vec<f64> = kept.iter().filter_map(|r| r.slope).collect();
    if slopes.is_empty() {
        return (f64::NAN, f64::NAN);
    }
    let mean = slopes.iter().sum::<f64>() / slopes.len() as f64;
    let worst = slopes.iter().cloned().fold(f64::INFINITY, f64::min);
    (mean, worst)
}

/// Emits the figure's records.
pub fn run(cfg: &RunConfig, sink: &mut dyn Sink) -> FigResult {
    let records = slope_dataset(cfg)?;
    let indicators: Vec<_> = records.iter().map(|r| r.indicators.clone()).collect();
    let baseline_order = Ranking::FaultyCount.order(&indicators);
    let chosen_order = Ranking::ChosenIndicators.order(&indicators);

    sink.emit(&Record::Columns(
        [
            "fraction",
            "baseline_mean",
            "baseline_worst",
            "chosen_mean",
            "chosen_worst",
        ]
        .map(String::from)
        .to_vec(),
    ));
    for i in 1..=9 {
        let fraction = i as f64 / 10.0;
        let keep = ((records.len() as f64) * fraction).round().max(1.0) as usize;
        let baseline_kept: Vec<&SlopeRecord> = baseline_order[..keep]
            .iter()
            .map(|&i| &records[i])
            .collect();
        let chosen_kept: Vec<&SlopeRecord> =
            chosen_order[..keep].iter().map(|&i| &records[i]).collect();
        let (bm, bw) = stats(&baseline_kept);
        let (cm, cw) = stats(&chosen_kept);
        sink.emit(&Record::row([
            Value::from(fraction),
            bm.into(),
            bw.into(),
            cm.into(),
            cw.into(),
        ]));
    }
    sink.emit(&Record::Note(
        "paper: the chosen indicators keep both the mean and the worst-case".into(),
    ));
    sink.emit(&Record::Note(
        "slope higher than the faulty-count baseline at every kept fraction.".into(),
    ));
    Ok(())
}
