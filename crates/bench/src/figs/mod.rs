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

use crate::{FigResult, RunConfig};
use dqec_chiplet::criteria::QualityTarget;
use dqec_chiplet::defect_model::DefectModel;
use dqec_chiplet::record::{Record, Sink, YieldRecord};
use dqec_chiplet::yields::{
    better, overhead_factor, sample_indicators_range, sample_rotated_range, yield_from_indicators,
    SampleConfig,
};
use dqec_core::adapt::AdaptedPatch;
use dqec_core::indicators::PatchIndicators;
use dqec_core::layout::PatchLayout;
use dqec_core::{CoreError, DefectSet};
use dqec_estimator::{candidate_populations, super_stabilizer_row, ApplicationSpec, ResourceRow};
use dqec_sweep::checkpoint::PointTally;
use dqec_sweep::Precision;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

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
/// Each point reads the first `--samples` chiplets of its population,
/// or under `--precision` as many as [`adaptive_samples`] grows it to.
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
            let n = cfg.precision.map_or(cfg.samples, |w| {
                adaptive_samples(&config, &target, &Precision::new(w), cfg.samples)
            });
            let estimate = yield_from_indicators(&fabricated(&config, n), &target);
            sink.emit(&Record::Yield(
                YieldRecord::sampled(format!("l={l}"), rate, estimate.kept, estimate.total)
                    .with_overhead(overhead_factor(l, estimate.fraction(), target_d)),
            ));
        }
    }
    Ok(())
}

/// The defect rates on qubits and links of Tables 1 and 2 (and 3 and 4).
pub const TABLE_RATES: [f64; 2] = [0.001, 0.003];

/// The size sweep Tables 1–4 share: per [`TABLE_RATES`] entry,
/// Shor-2048's [`super_stabilizer_row`] over l = 29…43 and the chosen
/// size's first `--samples` chiplets. It reads its
/// [`candidate_populations`] through the population store, so in one
/// process each candidate chiplet is adapted once, however many tables
/// read the sweep.
///
/// # Errors
///
/// Fails if the candidate size list is empty.
pub fn table_sweep(cfg: &RunConfig) -> Result<[(ResourceRow, Vec<PatchIndicators>); 2], CoreError> {
    let spec = ApplicationSpec::shor_2048();
    let sizes: Vec<u32> = (29..=43).step_by(2).collect();
    let row = |rate| {
        let populations = candidate_populations(DefectModel::LinkAndQubit, rate, &sizes, cfg.seed);
        let drawn = populations
            .iter()
            .map(|config| (config.l, fabricated(config, cfg.samples)));
        super_stabilizer_row(&spec, drawn).ok_or_else(|| CoreError::Sweep {
            detail: "no candidate chiplet sizes".into(),
        })
    };
    Ok([row(TABLE_RATES[0])?, row(TABLE_RATES[1])?])
}

/// Per population `(l, model, rate bits, seed)`, the longest prefix
/// adapted so far as fabricated (`[0]`) and rotated (`[1]`).
type Prefixes = BTreeMap<(u32, DefectModel, u64, u64), [Vec<PatchIndicators>; 2]>;

/// The process's yield populations: every sampled yield read of the
/// figure modules goes through [`fabricated`] or [`rotatable`]. The
/// only other chiplets the crate draws come from [`sequential_draw`].
static STORE: Mutex<Prefixes> = Mutex::new(BTreeMap::new());

/// Chiplets adapted, in either orientation, per population seed.
#[cfg(test)]
static ADAPTED: Mutex<BTreeMap<u64, usize>> = Mutex::new(BTreeMap::new());

type Draw = fn(&SampleConfig, std::ops::Range<usize>) -> Vec<PatchIndicators>;

/// The first `n` chiplets of `config`'s population in orientation
/// `side` (`draw` adapts them), adapting only those past the stored
/// prefix. The lock is not held while they are adapted (the draw fans
/// out on the pool), so a prefix another reader extended meanwhile is
/// extended only past its new length; the chiplets are the same.
fn prefix(config: &SampleConfig, n: usize, side: usize, draw: Draw) -> Vec<PatchIndicators> {
    let key = (config.l, config.model, config.rate.to_bits(), config.seed);
    // A prefix only grows by one `extend`, so a panic elsewhere leaves
    // every entry valid behind a poisoned lock.
    let store = || STORE.lock().unwrap_or_else(PoisonError::into_inner);
    let from = match &store().entry(key).or_default()[side] {
        stored if stored.len() >= n => return stored[..n].to_vec(),
        stored => stored.len(),
    };
    let fresh = draw(config, from..n);
    #[cfg(test)]
    {
        let mut adapted = ADAPTED.lock().unwrap_or_else(PoisonError::into_inner);
        *adapted.entry(config.seed).or_default() += fresh.len();
    }
    let mut store = store();
    let stored = &mut store.entry(key).or_default()[side];
    if stored.len() < n {
        stored.extend_from_slice(&fresh[stored.len() - from..]);
    }
    stored[..n].to_vec()
}

/// The first `n` chiplets of `config`'s population as fabricated:
/// exactly `sample_indicators_range(config, 0..n)`.
pub(crate) fn fabricated(config: &SampleConfig, n: usize) -> Vec<PatchIndicators> {
    prefix(config, n, 0, sample_indicators_range)
}

/// The same `n` chiplets, each in its [`better`] orientation: the
/// population of rotatable chiplets (Figs. 16 and 18 (c)).
pub(crate) fn rotatable(config: &SampleConfig, n: usize) -> Vec<PatchIndicators> {
    let rotated = prefix(config, n, 1, sample_rotated_range);
    let pairs = fabricated(config, n).into_iter().zip(rotated);
    pairs.map(|(a, b)| better(&a, &b).clone()).collect()
}

/// The one sequential draw: `l × l` chiplets with links and qubits
/// faulty at the same rate, drawn one after another from a single
/// `StdRng` stream seeded with `seed`, each with its defects and its
/// adapted patch. The `i`-th draw, counting from 1, is at rate
/// `rates[i % rates.len()]`. Fig. 15 reads it directly, and Fig. 6 and
/// the slope dataset through [`by_distance`]; a draw depends on every
/// draw before it, so unlike a [`fabricated`] population it cannot be
/// read from the middle.
pub(crate) fn sequential_draw(
    l: u32,
    seed: u64,
    rates: &[f64],
) -> impl Iterator<Item = (DefectSet, AdaptedPatch)> {
    let layout = PatchLayout::memory(l);
    let rates = rates.to_vec();
    let mut rng = StdRng::seed_from_u64(seed);
    (1..).map(move |i| {
        let defects = DefectModel::LinkAndQubit.sample(&layout, rates[i % rates.len()], &mut rng);
        let patch = AdaptedPatch::new(layout.clone(), &defects);
        (defects, patch)
    })
}

/// The first `per_group` patches of `draws` at each adapted distance
/// in `wanted`, in draw order, read until every group is full or `cap`
/// chiplets are drawn.
pub(crate) fn by_distance(
    draws: impl Iterator<Item = (DefectSet, AdaptedPatch)>,
    wanted: impl IntoIterator<Item = u32>,
    per_group: usize,
    cap: usize,
) -> BTreeMap<u32, Vec<AdaptedPatch>> {
    let mut groups: BTreeMap<u32, Vec<AdaptedPatch>> =
        wanted.into_iter().map(|d| (d, Vec::new())).collect();
    let mut draws = draws.take(cap);
    while groups.values().any(|group| group.len() < per_group) {
        let Some((_, patch)) = draws.next() else {
            break;
        };
        let d = PatchIndicators::of(&patch).distance();
        if let Some(group) = groups.get_mut(&d).filter(|group| group.len() < per_group) {
            group.push(patch);
        }
    }
    groups
}

/// Adaptive chiplet sampling for one `(l, rate)` yield point: how many
/// chiplets to read, grown in rounds until the yield estimate's 95%
/// Wilson interval is narrower than the [`Precision`] target ("kept
/// chiplets" stand in for the tally's events) or the `cap`
/// (`--samples`) is spent. The first round reads `min(200, ⌈cap/5⌉)`
/// chiplets, so a small cap still leaves room to stop early. Each round
/// reads a longer prefix of the one population, so `--precision`
/// changes the cost of a point, never which chiplets it would have
/// fabricated.
fn adaptive_samples(
    config: &SampleConfig,
    target: &QualityTarget,
    ctl: &Precision,
    cap: usize,
) -> usize {
    let batch = 200.min(cap.div_ceil(5)).max(1);
    let (mut drawn, mut kept) = (0, 0);
    loop {
        let tally = PointTally {
            shots: drawn,
            failures: kept,
            next_batch: 0,
        };
        let add = ctl.allocate(&tally, cap, batch);
        if add == 0 {
            return drawn;
        }
        drawn += add;
        kept = yield_from_indicators(&fabricated(config, drawn), target).kept;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqec_chiplet::record::{MemorySink, NullSink};

    /// The adaptive population is a bit-exact prefix of the uniform
    /// one, read through the store: the chiplets it stops at are the
    /// first `n` of a fresh draw, and at a benign rate far fewer than
    /// `cap` chiplets are fabricated.
    #[test]
    fn adaptive_yield_is_a_prefix_of_the_uniform_draw() {
        let config = SampleConfig {
            seed: 7,
            ..SampleConfig::new(7, DefectModel::LinkAndQubit, 0.005)
        };
        let target = QualityTarget::defect_free(5);
        let cap = 2_000;
        let n = adaptive_samples(&config, &target, &Precision::new(0.2), cap);
        assert!(n > 0);
        assert_eq!(
            fabricated(&config, n),
            sample_indicators_range(&config, 0..n)
        );
        // A loose target at a benign rate converges well under budget.
        assert!(n < cap, "adaptive run spent the whole budget: {n}");
    }

    /// Chiplets adapted so far for the table sweep's candidate
    /// populations under `seed`. The derived seeds do not depend on the
    /// rate, so each counts the populations of both [`TABLE_RATES`].
    fn adapted_candidates(seed: u64) -> usize {
        let sizes: Vec<u32> = (29..=43).step_by(2).collect();
        candidate_populations(DefectModel::LinkAndQubit, TABLE_RATES[0], &sizes, seed)
            .iter()
            .map(|config| adapted(config.seed))
            .sum()
    }

    /// Tables 1–4 share one size sweep: a second call with the same
    /// `--samples` and `--seed` returns the first call's result and
    /// adapts no chiplet.
    #[test]
    fn table_sweep_is_run_once_per_config() {
        let cfg = RunConfig {
            samples: 2,
            seed: 5,
            ..RunConfig::default()
        };
        let first = table_sweep(&cfg).expect("sweep runs");
        let spent = adapted_candidates(cfg.seed);
        assert_eq!(spent, 16 * cfg.samples, "8 sizes at 2 rates");
        let second = table_sweep(&RunConfig {
            shots: 1,
            ..cfg.clone()
        })
        .expect("sweep reruns");
        assert_eq!(first, second);
        assert_eq!(
            adapted_candidates(cfg.seed),
            spent,
            "the second call adapted"
        );
        for (row, inds) in &first {
            assert_eq!(inds.len(), cfg.samples);
            assert!((29..=43).contains(&row.l));
        }
    }

    /// In one process, Tables 1–2 adapt each candidate chiplet once and
    /// Tables 3–4 after them adapt none of them again.
    #[test]
    fn tables_adapt_each_candidate_once() {
        const N: usize = 3;
        let cfg = RunConfig {
            samples: N,
            seed: 0xa6,
            ..RunConfig::default()
        };
        for name in ["table01_02_resources", "table03_04_fidelity"] {
            let rep = crate::figs::ALL
                .iter()
                .find(|r| r.name == name)
                .expect("table registered");
            (rep.run)(&cfg, &mut NullSink).expect("table runs");
            assert_eq!(adapted_candidates(cfg.seed), 16 * N, "after {name}");
        }
    }

    /// The adaptive read starts small enough to stop early at a small
    /// cap: at a benign rate it stops below 200 chiplets of 200.
    #[test]
    fn adaptive_yield_stops_below_a_small_cap() {
        let config = SampleConfig {
            rate: 0.001,
            ..population(0xa7)
        };
        let target = QualityTarget::defect_free(5);
        let n = adaptive_samples(&config, &target, &Precision::new(0.3), 200);
        assert!(n > 0 && n < 200, "adaptive read spent {n} of 200");
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

    /// Chiplets adapted so far for populations drawn from `seed`. Each
    /// test uses seeds no other test in this process draws from.
    fn adapted(seed: u64) -> usize {
        let adapted = ADAPTED.lock().unwrap_or_else(PoisonError::into_inner);
        adapted.get(&seed).copied().unwrap_or(0)
    }

    fn population(seed: u64) -> SampleConfig {
        SampleConfig {
            seed,
            ..SampleConfig::new(7, DefectModel::LinkAndQubit, 0.02)
        }
    }

    #[test]
    fn prefix_reads_are_the_fresh_draw_in_any_order() {
        for (seed, order) in [(0xa1, [5, 12]), (0xa2, [12, 5])] {
            let config = population(seed);
            for n in order {
                assert_eq!(
                    fabricated(&config, n),
                    sample_indicators_range(&config, 0..n),
                    "read of {n} in {order:?}"
                );
            }
            assert_eq!(adapted(seed), 12, "{order:?} adapted a chiplet twice");
        }
    }

    #[test]
    fn rotatable_view_is_the_better_orientation_of_fresh_draws() {
        let config = population(0xa3);
        let fresh: Vec<PatchIndicators> = sample_indicators_range(&config, 0..24)
            .iter()
            .zip(&sample_rotated_range(&config, 0..24))
            .map(|(a, b)| better(a, b).clone())
            .collect();
        assert_eq!(rotatable(&config, 9), fresh[..9]);
        assert_eq!(rotatable(&config, 24), fresh);
        assert_eq!(
            fabricated(&config, 24),
            sample_indicators_range(&config, 0..24)
        );
    }

    #[test]
    fn a_repeated_read_adapts_nothing() {
        let config = population(0xa4);
        let first = rotatable(&config, 10);
        assert_eq!(adapted(0xa4), 20, "each chiplet once per orientation");
        assert_eq!(rotatable(&config, 10), first);
        assert_eq!(
            fabricated(&config, 7),
            sample_indicators_range(&config, 0..7)
        );
        assert_eq!(adapted(0xa4), 20, "a stored prefix was adapted again");
    }

    /// In one process, Fig. 16 after Figs. 12 and 13 adapts only its
    /// rotated chiplets (18 populations), and Fig. 18 after Figs. 12,
    /// 13, 16 and 17 adapts 80 populations of its 165: 10 link-only ones
    /// (l = 29, 31), 30 link+qubit primaries (l = 21…31) and 40 rotated
    /// ones (l = 17…31); the rest are the other figures' draws.
    #[test]
    fn figures_share_their_populations() {
        const N: usize = 3;
        let cfg = RunConfig {
            samples: N,
            seed: 0xa5,
            ..RunConfig::default()
        };
        let mut spent = 0;
        let mut run = |name: &str| {
            let rep = crate::figs::ALL
                .iter()
                .find(|r| r.name == name)
                .expect("figure registered");
            (rep.run)(&cfg, &mut NullSink).expect("figure runs");
            let before = spent;
            spent = adapted(cfg.seed);
            spent - before
        };
        assert_eq!(run("fig12_linkonly"), 44 * N);
        assert_eq!(run("fig13_linkqubit"), 55 * N);
        assert_eq!(run("fig16_rotation"), 18 * N);
        assert_eq!(run("fig17_target17"), 55 * N);
        assert_eq!(run("fig18_min_overhead"), 80 * N);
        assert_eq!(run("fig18_min_overhead"), 0);
    }
}
