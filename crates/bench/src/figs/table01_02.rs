//! Tables 1 and 2 — resource estimation for a device supporting
//! Shor-2048 (a 226 x 63 grid of distance-27 patches): the ideal
//! no-defect device, the defect-intolerant modular baseline, and the
//! super-stabilizer approach with the optimal chiplet size, at defect
//! rates 0.1% and 0.3% on both qubits and links.

use super::{table_sweep, TABLE_RATES};
use crate::{fmt, FigResult, RunConfig};
use dqec_chiplet::defect_model::DefectModel;
use dqec_chiplet::record::{Record, Sink, Value};
use dqec_estimator::{defect_intolerant_row, no_defect_row, ApplicationSpec, ResourceRow};

/// Emits the tables' records.
pub fn run(cfg: &RunConfig, sink: &mut dyn Sink) -> FigResult {
    let spec = ApplicationSpec::shor_2048();
    let sweep = table_sweep(cfg)?;

    for (((table, paper), rate), (ss, _)) in [
        (
            "Table 1",
            "(paper: l=33, yield 94.5%, overhead 1.58, 3.3e7 qubits)",
        ),
        (
            "Table 2",
            "(paper: l=39, yield 94.6%, overhead 2.21, 4.6e7 qubits)",
        ),
    ]
    .into_iter()
    .zip(TABLE_RATES)
    .zip(sweep.iter())
    {
        sink.emit(&Record::Section(format!(
            "{table}: defect rate {rate} on qubits and links {paper}"
        )));
        sink.emit(&Record::Columns(
            ["approach", "l", "yield", "overhead", "qubits"]
                .map(String::from)
                .to_vec(),
        ));
        let mut emit_row = |row: &ResourceRow| {
            sink.emit(&Record::row([
                Value::from(row.label.as_str()),
                row.l.into(),
                row.yield_fraction.into(),
                row.overhead.into(),
                row.total_qubits.into(),
            ]));
        };
        emit_row(&no_defect_row(&spec));
        let intol = defect_intolerant_row(&spec, DefectModel::LinkAndQubit, rate);
        emit_row(&intol);
        emit_row(ss);
        sink.emit(&Record::Note(format!(
            "super-stabilizer vs defect-intolerant advantage: {}X",
            fmt(intol.overhead / ss.overhead)
        )));
    }
    sink.emit(&Record::Note(
        "paper: the advantage is 45X at 0.1% and more than 1e5X at 0.3%.".into(),
    ));
    Ok(())
}
