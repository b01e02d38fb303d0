//! Monte-Carlo logical-error-rate experiments and log-log slope fits.
//!
//! Runs the paper's memory and stability experiments on adapted
//! patches: generate the syndrome circuit, apply the circuit-level
//! noise model, sample shots with the Pauli-frame simulator, decode
//! with MWPM, and estimate the logical error rate. The "slope" of
//! log(LER) versus log(p) over a low-p window is the paper's measure of
//! effective distance (Figs. 5–11).

use dqec_core::adapt::AdaptedPatch;
use dqec_core::circuit_gen::{memory_z, stability};
use dqec_core::CoreError;
use dqec_matching::{DecodeStats, Decoder, MwpmDecoder};
use dqec_sim::circuit::Circuit;
use dqec_sim::frame::{FrameProgram, FrameScratchPool};
use dqec_sim::noise::NoiseModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// Samples `shots` executions of the noisy circuit and decodes them
/// with `decoder`, spreading `batch`-sized chunks over CPU cores. Each
/// chunk's RNG comes from `make_rng(chunk_index)`, so results are
/// independent of thread count for any deterministic seeding policy.
pub fn sample_and_decode_with<D, R, F>(
    noisy: &Circuit,
    decoder: &D,
    shots: usize,
    batch: usize,
    make_rng: F,
) -> DecodeStats
where
    D: Decoder + ?Sized,
    R: Rng,
    F: Fn(u64) -> R + Sync,
{
    let batch = batch.max(1);
    let num_batches = shots.div_ceil(batch);
    let program = FrameProgram::new(noisy);
    let frames = FrameScratchPool::default();
    let results: Vec<DecodeStats> = (0..num_batches)
        .into_par_iter()
        .map(|b| {
            let n = batch.min(shots - b * batch);
            let mut rng = make_rng(b as u64);
            frames.with(|scratch| decoder.decode_batch(program.sample(n, &mut rng, scratch)))
        })
        .collect();
    let mut stats = DecodeStats::new(decoder.num_observables());
    for s in &results {
        stats.merge(s);
    }
    stats
}

/// Samples `shots` noisy executions of `clean` under `noise` and
/// decodes them, spreading work over CPU cores. Each 4096-shot batch
/// is seeded by its index, so results are independent of thread count.
///
/// Builds a fresh [`MwpmDecoder`] per call; sweeps over many `p` values
/// on one circuit should use `crate::runner::Runner`, which reuses the
/// decoding graph across the sweep.
pub fn sample_and_decode(
    clean: &Circuit,
    noise: &NoiseModel,
    shots: usize,
    seed: u64,
) -> DecodeStats {
    let noisy = noise.apply(clean);
    let decoder = MwpmDecoder::new(&noisy);
    sample_and_decode_with(&noisy, &decoder, shots, 4096, |b| {
        StdRng::seed_from_u64(seed ^ (b + 1).wrapping_mul(0xd134_2543_de82_ef95))
    })
}

/// One logical-error-rate measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct LerPoint {
    /// Physical (two-qubit gate) error rate.
    pub p: f64,
    /// Shots sampled.
    pub shots: usize,
    /// Logical failures observed.
    pub failures: usize,
}

impl LerPoint {
    /// The logical error rate estimate (0 when no shots were sampled,
    /// so degenerate sweep points render as a rate instead of NaN).
    pub fn ler(&self) -> f64 {
        if self.shots == 0 {
            0.0
        } else {
            self.failures as f64 / self.shots as f64
        }
    }

    /// The 95% Wilson confidence interval of the logical error rate, so
    /// curves carry error bars like the paper's plots. With no shots
    /// the interval is vacuous: `(0, 1)`.
    pub fn ci95(&self) -> (f64, f64) {
        if self.shots == 0 {
            return (0.0, 1.0);
        }
        let n = self.shots as f64;
        let p = self.failures as f64 / n;
        let z = 1.96f64;
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        let center = (p + z2 / (2.0 * n)) / denom;
        let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
        ((center - half).max(0.0), (center + half).min(1.0))
    }
}

/// Runs a Z-memory experiment at one physical error rate.
///
/// # Errors
///
/// Propagates circuit-generation failures (degenerate patch, no
/// observable path, too few rounds).
pub fn memory_ler(
    patch: &AdaptedPatch,
    p: f64,
    rounds: u32,
    shots: usize,
    seed: u64,
) -> Result<LerPoint, CoreError> {
    let exp = memory_z(patch, rounds)?;
    let stats = sample_and_decode(&exp.circuit, &NoiseModel::new(p), shots, seed);
    Ok(LerPoint {
        p,
        shots: stats.shots,
        failures: stats.failures[0],
    })
}

/// Runs a stability experiment; `bad_qubit` optionally assigns one data
/// qubit an elevated absolute two-qubit error rate (paper §6).
///
/// # Errors
///
/// Propagates circuit-generation failures.
pub fn stability_ler(
    patch: &AdaptedPatch,
    p: f64,
    bad_qubit: Option<(dqec_core::Coord, f64)>,
    rounds: u32,
    shots: usize,
    seed: u64,
) -> Result<LerPoint, CoreError> {
    let exp = stability(patch, rounds)?;
    let mut noise = NoiseModel::new(p);
    if let Some((coord, p_bad)) = bad_qubit {
        let q = *exp
            .qubit_of
            .get(&coord)
            .ok_or(CoreError::MalformedSyndromeGraph {
                detail: format!("bad qubit {coord} is not an active circuit qubit"),
            })?;
        noise = noise.with_bad_qubit(q, p_bad);
    }
    let stats = sample_and_decode(&exp.circuit, &noise, shots, seed);
    Ok(LerPoint {
        p,
        shots: stats.shots,
        failures: stats.failures[0],
    })
}

/// Sweeps a memory experiment over physical error rates.
///
/// # Errors
///
/// Propagates circuit-generation failures.
pub fn memory_ler_curve(
    patch: &AdaptedPatch,
    ps: &[f64],
    rounds: u32,
    shots: usize,
    seed: u64,
) -> Result<Vec<LerPoint>, CoreError> {
    ps.iter()
        .enumerate()
        .map(|(i, &p)| memory_ler(patch, p, rounds, shots, seed.wrapping_add(i as u64)))
        .collect()
}

/// A least-squares line through log-log LER data.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SlopeFit {
    /// Gradient of ln(LER) vs ln(p) — the paper's "slope", ≈ αd.
    pub slope: f64,
    /// Intercept of the fit.
    pub intercept: f64,
    /// Points used (zero-failure points are skipped).
    pub points_used: usize,
}

/// Fits `ln(LER) = slope · ln(p) + intercept`, skipping points with no
/// observed failures. Returns `None` with fewer than two usable points.
pub fn fit_loglog(points: &[LerPoint]) -> Option<SlopeFit> {
    let usable: Vec<(f64, f64)> = points
        .iter()
        .filter(|pt| pt.failures > 0 && pt.p > 0.0)
        .map(|pt| (pt.p.ln(), pt.ler().ln()))
        .collect();
    if usable.len() < 2 {
        return None;
    }
    let n = usable.len() as f64;
    let sx: f64 = usable.iter().map(|(x, _)| x).sum();
    let sy: f64 = usable.iter().map(|(_, y)| y).sum();
    let sxx: f64 = usable.iter().map(|(x, _)| x * x).sum();
    let sxy: f64 = usable.iter().map(|(x, y)| x * y).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    let slope = (n * sxy - sx * sy) / denom;
    let intercept = (sy - slope * sx) / n;
    Some(SlopeFit {
        slope,
        intercept,
        points_used: usable.len(),
    })
}

/// Estimates a patch's slope over a p-window (the paper samples
/// 5·10⁻⁴ ≤ p ≤ 2·10⁻³; scaled-down runs use a higher window so
/// failures are observable with fewer shots).
///
/// # Errors
///
/// Propagates circuit-generation failures.
pub fn patch_slope(
    patch: &AdaptedPatch,
    ps: &[f64],
    rounds: u32,
    shots: usize,
    seed: u64,
) -> Result<Option<SlopeFit>, CoreError> {
    let curve = memory_ler_curve(patch, ps, rounds, shots, seed)?;
    Ok(fit_loglog(&curve))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqec_core::defect::DefectSet;
    use dqec_core::layout::PatchLayout;
    use dqec_core::Coord;

    fn patch(l: u32) -> AdaptedPatch {
        AdaptedPatch::new(PatchLayout::memory(l), &DefectSet::new())
    }

    #[test]
    fn noiseless_memory_never_fails() {
        let pt = memory_ler(&patch(3), 0.0, 3, 2000, 1).unwrap();
        assert_eq!(pt.failures, 0);
    }

    #[test]
    fn memory_ler_is_reasonable_at_high_p() {
        let pt = memory_ler(&patch(3), 0.02, 3, 4000, 2).unwrap();
        let ler = pt.ler();
        assert!(ler > 0.0 && ler < 0.5, "ler={ler}");
    }

    #[test]
    fn d5_beats_d3_below_threshold() {
        let p = 0.004;
        let l3 = memory_ler(&patch(3), p, 3, 30_000, 3).unwrap().ler();
        let l5 = memory_ler(&patch(5), p, 5, 30_000, 4).unwrap().ler();
        assert!(l5 < l3, "d=5 ({l5}) should beat d=3 ({l3}) at p={p}");
    }

    #[test]
    fn defective_patch_decodes() {
        let mut d = DefectSet::new();
        d.add_data(Coord::new(5, 5));
        let p = AdaptedPatch::new(PatchLayout::memory(5), &d);
        let pt = memory_ler(&p, 0.01, 4, 8000, 5).unwrap();
        assert!(pt.ler() < 0.5);
    }

    #[test]
    fn stability_runs_and_fails_rarely_at_low_p() {
        let p = AdaptedPatch::new(PatchLayout::stability(4, 4), &DefectSet::new());
        let pt = stability_ler(&p, 0.002, None, 8, 8000, 6).unwrap();
        assert!(pt.ler() < 0.2, "ler={}", pt.ler());
    }

    #[test]
    fn stability_with_bad_qubit_fails_more() {
        let p = AdaptedPatch::new(PatchLayout::stability(4, 4), &DefectSet::new());
        let clean = stability_ler(&p, 0.004, None, 8, 20_000, 7).unwrap().ler();
        let bad = stability_ler(&p, 0.004, Some((Coord::new(3, 3), 0.25)), 8, 20_000, 7)
            .unwrap()
            .ler();
        assert!(bad > clean, "bad qubit should hurt: {clean} vs {bad}");
    }

    #[test]
    fn fit_loglog_recovers_synthetic_slope() {
        let points: Vec<LerPoint> = [1e-3, 2e-3, 4e-3]
            .iter()
            .map(|&p: &f64| LerPoint {
                p,
                shots: 1_000_000,
                failures: (1e6 * 30.0 * p.powi(2)) as usize,
            })
            .collect();
        let fit = fit_loglog(&points).unwrap();
        assert!((fit.slope - 2.0).abs() < 0.05, "slope={}", fit.slope);
    }

    #[test]
    fn zero_shot_point_has_zero_ler_and_vacuous_interval() {
        let pt = LerPoint {
            p: 1e-3,
            shots: 0,
            failures: 0,
        };
        assert_eq!(pt.ler(), 0.0);
        assert_eq!(pt.ci95(), (0.0, 1.0));
    }

    #[test]
    fn ci95_brackets_the_estimate() {
        let pt = LerPoint {
            p: 1e-3,
            shots: 1000,
            failures: 37,
        };
        let (lo, hi) = pt.ci95();
        assert!(lo < pt.ler() && pt.ler() < hi);
        assert!(lo > 0.02 && hi < 0.06);
    }

    #[test]
    fn fit_skips_zero_failure_points() {
        let points = vec![
            LerPoint {
                p: 1e-3,
                shots: 100,
                failures: 0,
            },
            LerPoint {
                p: 2e-3,
                shots: 100,
                failures: 1,
            },
        ];
        assert!(fit_loglog(&points).is_none());
    }
}
