//! Figure/table reproduction logic.
//!
//! Each submodule reproduces one figure or table of the paper
//! ([`scatter`] covers Figs. 7–10) by declaring experiment specs and
//! emitting typed records; the thin `src/bin/` wrappers, the in-process
//! `reproduce_all` harness, and the golden-output tests all call the
//! same functions through [`ALL`].

pub mod fig05;
pub mod fig06;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig19;
pub mod fig20;
pub mod scatter;
pub mod table01_02;
pub mod table03_04;

use crate::{memoised, FigResult, Memo, RunConfig};
use dqec_chiplet::criteria::QualityTarget;
use dqec_chiplet::defect_model::DefectModel;
use dqec_chiplet::record::{Record, Sink, YieldRecord};
use dqec_chiplet::yields::{
    better, overhead_factor, sample_indicators, sample_indicators_range, sample_orientations_range,
    yield_from_indicators, SampleConfig, YieldEstimate,
};
use dqec_core::indicators::PatchIndicators;
use dqec_core::layout::PatchLayout;
use dqec_core::CoreError;
use dqec_estimator::{super_stabilizer_row, ApplicationSpec, ResourceRow};
use dqec_sweep::checkpoint::PointTally;
use dqec_sweep::Precision;
use std::sync::{Arc, Mutex};

/// One figure/table reproduction: its binary name, a one-line
/// description, and the record-emitting run function.
pub struct Reproduction {
    /// Binary name (`fig06_ler_curves`, `table01_02_resources`, ...).
    pub name: &'static str,
    /// One-line description shown in the output header.
    pub what: &'static str,
    /// Emits the figure's records under the given configuration.
    pub run: fn(&RunConfig, &mut dyn Sink) -> FigResult,
}

/// Every reproduction, in the order `reproduce_all` runs them.
pub const ALL: &[Reproduction] = &[
    Reproduction {
        name: "fig05_slopes",
        what: "LER slope vs adapted code distance (link+qubit defects)",
        run: fig05::run,
    },
    Reproduction {
        name: "fig06_ler_curves",
        what: "LER vs p for defect-free and defective patches",
        run: fig06::run,
    },
    Reproduction {
        name: "fig07_shortest_logicals",
        what: "slope vs log(#shortest logicals), grouped by d",
        run: |cfg, sink| scatter::SHORTEST_LOGICALS.run(cfg, sink),
    },
    Reproduction {
        name: "fig08_disabled_fraction",
        what: "slope vs proportion of disabled data qubits",
        run: |cfg, sink| scatter::DISABLED_FRACTION.run(cfg, sink),
    },
    Reproduction {
        name: "fig09_cluster_diameter",
        what: "slope vs largest disabled-cluster diameter",
        run: |cfg, sink| scatter::CLUSTER_DIAMETER.run(cfg, sink),
    },
    Reproduction {
        name: "fig10_faulty_count",
        what: "slope vs number of faulty qubits (baseline indicator)",
        run: |cfg, sink| scatter::FAULTY_COUNT.run(cfg, sink),
    },
    Reproduction {
        name: "fig11_selection",
        what: "selection quality: chosen indicators vs faulty-count baseline",
        run: fig11::run,
    },
    Reproduction {
        name: "fig12_linkonly",
        what: "yield and overhead vs defect rate, link defects only, target d=9",
        run: fig12::run,
    },
    Reproduction {
        name: "fig13_linkqubit",
        what: "yield and overhead vs defect rate, link+qubit defects, target d=9",
        run: fig13::run,
    },
    Reproduction {
        name: "fig14_merge_example",
        what: "code distance before and after a lattice-surgery merge",
        run: fig14::run,
    },
    Reproduction {
        name: "fig15_boundary_standards",
        what: "yield under boundary standards 1-4, link+qubit defects, l=13, d=9",
        run: fig15::run,
    },
    Reproduction {
        name: "fig16_rotation",
        what: "yield with/without chiplet-rotation freedom, link+qubit defects, d=9",
        run: fig16::run,
    },
    Reproduction {
        name: "fig17_target17",
        what: "yield and overhead vs defect rate, link-only, target d=17",
        run: fig17::run,
    },
    Reproduction {
        name: "fig18_min_overhead",
        what: "minimum overhead factor vs defect rate for target d=9..17",
        run: fig18::run,
    },
    Reproduction {
        name: "fig19_distance_hist",
        what: "code-distance distributions for l=33 @0.1% and l=39 @0.3%",
        run: fig19::run,
    },
    Reproduction {
        name: "fig20_stability_cutoff",
        what: "stability experiment: keep vs disable a bad data qubit",
        run: fig20::run,
    },
    Reproduction {
        name: "table01_02_resources",
        what: "Shor-2048 resource estimation (Tables 1-2)",
        run: table01_02::run,
    },
    Reproduction {
        name: "table03_04_fidelity",
        what: "application fidelity at matched overhead (Tables 3-4)",
        run: table03_04::run,
    },
];

/// Shared shape of Figs. 12, 13 and 17: yield and overhead versus
/// fabrication defect rate for a defect-intolerant baseline of size
/// `baseline_l` and super-stabilizer chiplets of `sizes`, against a
/// `target_d` quality target. Each sweep point becomes one
/// [`Record::Yield`] carrying both the yield and the overhead factor.
///
/// Under `--precision` the chiplet population per point grows
/// adaptively instead of always fabricating `--samples` chiplets; see
/// [`adaptive_yield`].
pub(crate) fn yield_overhead_figure(
    cfg: &RunConfig,
    sink: &mut dyn Sink,
    model: DefectModel,
    target_d: u32,
    baseline_l: u32,
    sizes: &[u32],
    rates: &[f64],
) -> FigResult {
    let target = QualityTarget::defect_free(target_d);
    for &rate in rates {
        // Defect-intolerant baseline: the whole chiplet must be clean
        // (closed form, no sampling).
        let y = model.defect_free_probability(&PatchLayout::memory(baseline_l), rate);
        sink.emit(&Record::Yield(
            YieldRecord::analytic(format!("baseline(l={baseline_l})"), rate, y)
                .with_overhead(overhead_factor(baseline_l, y, target_d)),
        ));
        for &l in sizes {
            let config = cfg.population(l, model, rate);
            let estimate = match cfg.precision {
                Some(w) => adaptive_yield(&config, &target, &Precision::new(w), cfg.samples),
                None => yield_from_indicators(&sample_indicators(&config), &target),
            };
            sink.emit(&Record::Yield(
                YieldRecord::sampled(format!("l={l}"), rate, estimate.kept, estimate.total)
                    .with_overhead(overhead_factor(l, estimate.fraction(), target_d)),
            ));
        }
    }
    Ok(())
}

/// The two views of one population that chiplet rotation gives (Figs.
/// 16 and 18): `[0]` each chiplet as fabricated, `[1]` in its
/// [`better`] orientation.
pub(crate) fn orientation_views(config: &SampleConfig) -> [Vec<PatchIndicators>; 2] {
    let pairs = sample_orientations_range(config, 0..config.samples);
    let rotated = pairs.iter().map(|[a, b]| better(a, b).clone()).collect();
    [pairs.into_iter().map(|[a, _]| a).collect(), rotated]
}

/// The defect rates on qubits and links of Tables 1 and 2 (and 3 and 4).
pub const TABLE_RATES: [f64; 2] = [0.001, 0.003];

/// Per [`TABLE_RATES`] entry, the super-stabilizer row and the chosen
/// size's sampled population.
pub type TableSweep = Arc<[(ResourceRow, Vec<PatchIndicators>); 2]>;

/// The last table sweep of this process, keyed by `(samples, seed)`.
static TABLE_SWEEP: Memo<(usize, u64), TableSweep> = Mutex::new(None);

/// The size sweep Tables 1–4 share: Shor-2048's [`super_stabilizer_row`]
/// over l = 29…43 at each of [`TABLE_RATES`]. It runs at most once per
/// process for given `--samples` and `--seed`, the only flags it reads;
/// a failed sweep is not remembered.
///
/// # Errors
///
/// Fails if the candidate size list is empty.
pub fn table_sweep(cfg: &RunConfig) -> Result<TableSweep, CoreError> {
    memoised(&TABLE_SWEEP, &(cfg.samples, cfg.seed), || {
        let spec = ApplicationSpec::shor_2048();
        let candidates: Vec<u32> = (29..=43).step_by(2).collect();
        let row = |rate| {
            super_stabilizer_row(
                &spec,
                DefectModel::LinkAndQubit,
                rate,
                &candidates,
                cfg.samples,
                cfg.seed,
            )
            .ok_or_else(|| CoreError::Sweep {
                detail: "no candidate chiplet sizes".into(),
            })
        };
        Ok(Arc::new([row(TABLE_RATES[0])?, row(TABLE_RATES[1])?]))
    })
}

/// Adaptive chiplet sampling for one `(l, rate)` yield point: fabricate
/// in rounds, stopping once the yield estimate's 95% Wilson interval is
/// narrower than the controller's relative-width target or the `cap`
/// (`--samples`) budget is spent.
///
/// Reuses the sweep engine's [`Precision`] controller with "kept
/// chiplets" standing in for the tally's event count. Because every
/// chiplet index owns an independent RNG stream, each round's draw via
/// [`sample_indicators_range`] extends the previous rounds bit-exactly:
/// the adaptive population is always a prefix of the uniform
/// `--samples` population, so `--precision` changes the cost of a
/// point, never which chiplets it would have fabricated.
fn adaptive_yield(
    config: &SampleConfig,
    target: &QualityTarget,
    ctl: &Precision,
    cap: usize,
) -> YieldEstimate {
    let batch = 200.min(cap).max(1);
    let mut drawn = 0usize;
    let mut kept = 0usize;
    loop {
        let tally = PointTally {
            shots: drawn,
            failures: kept,
            next_batch: 0,
        };
        let add = ctl.allocate(&tally, cap, batch);
        if add == 0 {
            return YieldEstimate { kept, total: drawn };
        }
        let inds = sample_indicators_range(config, drawn..drawn + add);
        kept += yield_from_indicators(&inds, target).kept;
        drawn += add;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqec_chiplet::record::MemorySink;

    /// The adaptive population is a bit-exact prefix of the uniform
    /// one: at a zero-defect rate every chiplet is kept, the estimate
    /// matches the same-length uniform draw, and far fewer than `cap`
    /// chiplets are fabricated.
    #[test]
    fn adaptive_yield_is_a_prefix_of_the_uniform_draw() {
        let config = SampleConfig {
            samples: 2_000,
            seed: 7,
            ..SampleConfig::new(7, DefectModel::LinkAndQubit, 0.005)
        };
        let target = QualityTarget::defect_free(5);
        let est = adaptive_yield(&config, &target, &Precision::new(0.2), config.samples);
        assert!(est.total <= config.samples);
        assert!(est.total > 0);
        let prefix = sample_indicators_range(&config, 0..est.total);
        let uniform = yield_from_indicators(&prefix, &target);
        assert_eq!((est.kept, est.total), (uniform.kept, uniform.total));
        // A loose target at a benign rate converges well under budget.
        assert!(
            est.total < config.samples,
            "adaptive run spent the whole budget: {}",
            est.total
        );
    }

    /// Tables 1–4 share one size sweep: a second call with the same
    /// `--samples` and `--seed` returns the first call's result.
    #[test]
    fn table_sweep_is_run_once_per_config() {
        let cfg = RunConfig {
            samples: 2,
            seed: 5,
            ..RunConfig::default()
        };
        let first = table_sweep(&cfg).expect("sweep runs");
        let second = table_sweep(&RunConfig {
            shots: 1,
            ..cfg.clone()
        })
        .expect("sweep memoised");
        assert!(Arc::ptr_eq(&first, &second), "the second call swept again");
        for (row, inds) in first.iter() {
            assert_eq!(inds.len(), cfg.samples);
            assert!((29..=43).contains(&row.l));
        }
    }

    /// `--precision` flows through the shared figure shape: the run is
    /// deterministic and never fabricates more than `--samples`
    /// chiplets per point.
    #[test]
    fn precision_flag_drives_yield_figures() {
        let cfg = RunConfig {
            samples: 800,
            precision: Some(0.3),
            ..RunConfig::default()
        };
        let run = |cfg: &RunConfig| {
            let mut sink = MemorySink::default();
            yield_overhead_figure(
                cfg,
                &mut sink,
                DefectModel::LinkOnly,
                9,
                9,
                &[11, 13],
                &[0.001, 0.01],
            )
            .expect("figure runs");
            sink
        };
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(
            a.records, b.records,
            "adaptive yield run is nondeterministic"
        );
        for record in &a.records {
            if let Record::Yield(y) = record {
                if let Some((_, total)) = y.counts {
                    assert!(total <= cfg.samples, "budget exceeded: {total}");
                    assert!(total > 0);
                }
            }
        }
    }
}
