//! Tables 1 and 2 — resource estimation for a device supporting
//! Shor-2048 (a 226 x 63 grid of distance-27 patches): the ideal
//! no-defect device, the defect-intolerant modular baseline, and the
//! super-stabilizer approach with the optimal chiplet size, at defect
//! rates 0.1% and 0.3% on both qubits and links.

use crate::{fmt, FigResult, RunConfig};
use dqec_chiplet::defect_model::DefectModel;
use dqec_chiplet::record::{Record, Sink, Value};
use dqec_core::CoreError;
use dqec_estimator::{defect_intolerant_row, no_defect_row, super_stabilizer_row, ApplicationSpec};

/// Emits the tables' records.
pub fn run(cfg: &RunConfig, sink: &mut dyn Sink) -> FigResult {
    let spec = ApplicationSpec::shor_2048();
    let candidates: Vec<u32> = (29..=43).step_by(2).collect();

    for (table, rate, paper) in [
        (
            "Table 1",
            0.001,
            "(paper: l=33, yield 94.5%, overhead 1.58, 3.3e7 qubits)",
        ),
        (
            "Table 2",
            0.003,
            "(paper: l=39, yield 94.6%, overhead 2.21, 4.6e7 qubits)",
        ),
    ] {
        sink.emit(&Record::Section(format!(
            "{table}: defect rate {rate} on qubits and links {paper}"
        )));
        sink.emit(&Record::Columns(
            ["approach", "l", "yield", "overhead", "qubits"]
                .map(String::from)
                .to_vec(),
        ));
        let mut emit_row = |label: &str, l: u32, y: f64, overhead: f64, qubits: f64| {
            sink.emit(&Record::row([
                Value::from(label),
                l.into(),
                y.into(),
                overhead.into(),
                qubits.into(),
            ]));
        };
        let ideal = no_defect_row(&spec);
        emit_row(
            &ideal.label,
            ideal.l,
            ideal.yield_fraction,
            ideal.overhead,
            ideal.total_qubits,
        );
        let intol = defect_intolerant_row(&spec, DefectModel::LinkAndQubit, rate);
        emit_row(
            &intol.label,
            intol.l,
            intol.yield_fraction,
            intol.overhead,
            intol.total_qubits,
        );
        let (ss, _) = super_stabilizer_row(
            &spec,
            DefectModel::LinkAndQubit,
            rate,
            &candidates,
            cfg.samples,
            cfg.seed,
        )
        .ok_or_else(|| CoreError::Sweep {
            detail: "no candidate chiplet sizes".into(),
        })?;
        emit_row(
            &ss.label,
            ss.l,
            ss.yield_fraction,
            ss.overhead,
            ss.total_qubits,
        );
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
