//! Fig. 11 — post-selection effectiveness: mean and worst slope of the
//! kept chiplets as the kept proportion varies, comparing the paper's
//! chosen indicators (distance + number of shortest logicals) against
//! the faulty-qubit-count baseline. Kept chiplets without a slope (too
//! few failures to fit, mostly the best ones, or no circuit) are left
//! out of the mean and worst and counted in the `*_unfit` columns.

use crate::{slope_dataset, FigResult, RunConfig, SlopeRecord};
use dqec_chiplet::criteria::Ranking;
use dqec_chiplet::record::{Record, Sink, Value};

fn stats(kept: &[&SlopeRecord]) -> [Value; 3] {
    let slopes: Vec<f64> = kept.iter().filter_map(|r| r.slope).collect();
    let unfit = Value::from(kept.len() - slopes.len());
    if slopes.is_empty() {
        return [f64::NAN.into(), f64::NAN.into(), unfit];
    }
    let mean = slopes.iter().sum::<f64>() / slopes.len() as f64;
    let worst = slopes.iter().cloned().fold(f64::INFINITY, f64::min);
    [mean.into(), worst.into(), unfit]
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
            "baseline_unfit",
            "chosen_unfit",
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
        let [bm, bw, bu] = stats(&baseline_kept);
        let [cm, cw, cu] = stats(&chosen_kept);
        sink.emit(&Record::row([fraction.into(), bm, bw, cm, cw, bu, cu]));
    }
    sink.emit(&Record::Note(
        "paper: the chosen indicators keep both the mean and the worst-case".into(),
    ));
    sink.emit(&Record::Note(
        "slope higher than the faulty-count baseline at every kept fraction.".into(),
    ));
    Ok(())
}
