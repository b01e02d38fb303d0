//! Inputs generated from `--seed`: defect sets sampled with the paper's
//! link-and-qubit model, adapted, and selected per workload.
//!
//! Everything the measured programs receive comes from here; the same
//! seed gives the same inputs. Every draw owns a ChaCha8 stream keyed by
//! `(seed, workload salt, patch size)`, so workloads never share a
//! population.

use crate::trace::Tracer;
use dqec_chiplet::defect_model::DefectModel;
use dqec_chiplet::runner::default_rounds;
use dqec_core::adapt::AdaptedPatch;
use dqec_core::circuit_gen::memory_z;
use dqec_core::indicators::PatchIndicators;
use dqec_core::layout::PatchLayout;
use dqec_core::DefectSet;
use dqec_matching::MwpmDecoder;
use dqec_sim::noise::NoiseModel;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::ops::RangeInclusive;

/// Fabrication defect rate of every workload: links and qubits at 1 %.
pub const DEFECT_RATE: f64 = 0.01;

/// One sampled chiplet: its defects, the adapted patch, its indicators.
#[derive(Debug, Clone)]
pub struct Drawn {
    /// The sampled fabrication defects.
    pub defects: DefectSet,
    /// The code adapted around them.
    pub patch: AdaptedPatch,
    /// The adapted code's indicators.
    pub ind: PatchIndicators,
}

impl Drawn {
    /// Patch width.
    pub fn l(&self) -> u32 {
        self.patch.layout().width()
    }
}

/// A stream of sampled chiplets of one size.
pub struct Sampler {
    layout: PatchLayout,
    rng: ChaCha8Rng,
}

/// Runs `f` under a span when tracing, bare otherwise.
fn timed<R>(tr: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tr {
        Some(tr) => tr.time(name, 1, f),
        None => f(),
    }
}

impl Sampler {
    /// The stream of `l × l` memory patches for `(seed, salt)`.
    pub fn new(l: u32, seed: u64, salt: u64) -> Self {
        let key = seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(salt.wrapping_mul(0xd134_2543_de82_ef95))
            .wrapping_add(u64::from(l));
        Sampler {
            layout: PatchLayout::memory(l),
            rng: ChaCha8Rng::seed_from_u64(key),
        }
    }

    /// The next chiplet: sample defects, adapt, compute indicators —
    /// the paper's yield path, one span per call when traced.
    pub fn draw(&mut self, tr: &mut Option<&mut Tracer>) -> Drawn {
        let layout = &self.layout;
        let rng = &mut self.rng;
        let defects = timed(tr, "chiplet.defect_sample", || {
            DefectModel::LinkAndQubit.sample(layout, DEFECT_RATE, rng)
        });
        let patch = timed(tr, "core.adapt", || {
            AdaptedPatch::new(layout.clone(), &defects)
        });
        let ind = timed(tr, "core.indicators", || PatchIndicators::of(&patch));
        if let Some(tr) = tr {
            tr.count("core.draws", 1);
            tr.count("core.valid", u64::from(ind.valid));
        }
        Drawn {
            defects,
            patch,
            ind,
        }
    }
}

/// The size of a drawn chiplet's memory experiment — the number of
/// detectors of its `memory_z` circuit at `l` rounds — or `None` when
/// it cannot serve as an LER input: defect-free, not a valid code, a
/// default round count other than its width (every patch of a size
/// must run the same number of rounds), or no circuit.
///
/// Sampling, decoding and graph-build cost all follow this size (an
/// l = 11 distance-6 patch has between 836 and 1110 detectors and
/// decodes at 9 to 21 µs per shot accordingly), so the workloads pick
/// patches of a pinned size: which defects a seed draws then hardly
/// changes how much work the inputs are.
pub fn size(d: &Drawn) -> Option<usize> {
    if d.defects.is_empty() || !d.ind.valid || default_rounds(&d.patch) != d.l() {
        return None;
    }
    memory_z(&d.patch, d.l())
        .ok()
        .map(|exp| exp.circuit.detectors().len())
}

/// Whether the decoding graphs of a sized chiplet build the same way
/// every time.
///
/// This works around a defect this benchmark found in
/// `DecodingGraph::build`: when parallel edges disagree on their
/// observable mask the winner of a tied vote is picked in `HashMap`
/// iteration order, so two builds of one patch can decode the same
/// syndrome differently and "served == one-shot" or "replay ==
/// top-level" would fail by chance. Patches with such edges (about one
/// in sixty at l = 5, rarer above) are left out of the inputs.
pub fn builds_deterministically(d: &Drawn) -> bool {
    let Ok(exp) = memory_z(&d.patch, d.l()) else {
        return false;
    };
    let decoder = MwpmDecoder::from_clean(&exp.circuit, &NoiseModel::new(2e-3));
    [decoder.z_graph(), decoder.x_graph()]
        .iter()
        .all(|g| g.diagnostics().conflicting_observable_edges == 0)
}

/// Whether a drawn chiplet can serve as an LER input at all: it has a
/// [`size`] and [`builds_deterministically`].
pub fn usable(d: &Drawn) -> bool {
    size(d).is_some() && builds_deterministically(d)
}

/// `count` distinct usable patches of width `l` whose [`size`] lies in
/// `sizes`, in draw order.
///
/// # Panics
///
/// Panics if 64 draws per wanted patch do not yield enough (the bands
/// the workloads use hold about half of all draws).
pub fn distinct_patches(
    l: u32,
    count: usize,
    sizes: RangeInclusive<usize>,
    seed: u64,
    salt: u64,
    tr: &mut Option<&mut Tracer>,
) -> Vec<Drawn> {
    let mut sampler = Sampler::new(l, seed, salt);
    let mut out: Vec<Drawn> = Vec::with_capacity(count);
    for _ in 0..64 * count.max(1) {
        if out.len() == count {
            break;
        }
        let d = sampler.draw(tr);
        if size(&d).is_some_and(|s| sizes.contains(&s))
            && out.iter().all(|o| o.defects != d.defects)
            && builds_deterministically(&d)
        {
            out.push(d);
        }
    }
    assert_eq!(out.len(), count, "not enough usable l={l} patches");
    out
}

/// One usable patch per `(distance, size)` wanted, for the slope
/// workload: among the patches of that distance drawn in `draws` draws
/// (more, up to `max_draws`, while a distance has not turned up), the
/// one whose [`size`] is nearest the wanted size. A distance that never
/// turns up is replaced by the nearest one that did (ties to the
/// larger), so every seed yields a full set.
///
/// # Panics
///
/// Panics if no usable patch was drawn at all.
pub fn patches_by_distance(
    l: u32,
    wanted: &[(u32, usize)],
    draws: usize,
    max_draws: usize,
    seed: u64,
    salt: u64,
    tr: &mut Option<&mut Tracer>,
) -> Vec<Drawn> {
    let mut sampler = Sampler::new(l, seed, salt);
    let mut pool: Vec<(usize, Drawn)> = Vec::new();
    for n in 0..max_draws {
        let found = |dist: u32| pool.iter().any(|(_, d)| d.ind.distance() == dist);
        if n >= draws && wanted.iter().all(|&(dist, _)| found(dist)) {
            break;
        }
        let d = sampler.draw(tr);
        if let Some(s) = size(&d) {
            pool.push((s, d));
        }
    }
    wanted
        .iter()
        .map(|&(dist, want)| {
            let nearest = pool
                .iter()
                .map(|(_, d)| d.ind.distance())
                .min_by_key(|&have| (have.abs_diff(dist), u32::MAX - have))
                .expect("no usable patch drawn");
            let mut of_distance: Vec<&(usize, Drawn)> = pool
                .iter()
                .filter(|(_, d)| d.ind.distance() == nearest)
                .collect();
            of_distance.sort_by_key(|(s, _)| s.abs_diff(want));
            of_distance
                .into_iter()
                .map(|(_, d)| d)
                .find(|d| builds_deterministically(d))
                .expect("no patch of the distance builds deterministically")
                .clone()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_salts_differ() {
        let a = distinct_patches(5, 4, 90..=115, 7, 1, &mut None);
        let b = distinct_patches(5, 4, 90..=115, 7, 1, &mut None);
        let c = distinct_patches(5, 4, 90..=115, 7, 2, &mut None);
        let defects = |v: &[Drawn]| v.iter().map(|d| d.defects.clone()).collect::<Vec<_>>();
        assert_eq!(defects(&a), defects(&b));
        assert_ne!(defects(&a), defects(&c));
        for (i, d) in a.iter().enumerate() {
            assert!(usable(d));
            assert!((90..=115).contains(&size(d).unwrap()));
            assert!(a[..i].iter().all(|o| o.defects != d.defects));
        }
    }

    #[test]
    fn patches_come_by_distance_and_nearest_size() {
        // Distance 9 cannot occur on an l = 5 patch: the request must
        // still return one patch per wanted distance, the nearest.
        let got = patches_by_distance(5, &[(3, 95), (9, 110)], 60, 200, 11, 3, &mut None);
        assert_eq!(got.len(), 2);
        assert!(got.iter().all(usable));
        assert_eq!(got[0].ind.distance(), 3);
        assert!(got[1].ind.distance() >= 4);
        // No other drawn distance-3 patch is nearer the wanted size.
        let mut sampler = Sampler::new(5, 11, 3);
        let best = (0..60)
            .map(|_| sampler.draw(&mut None))
            .filter(|d| d.ind.distance() == 3 && usable(d))
            .map(|d| size(&d).unwrap().abs_diff(95))
            .min()
            .unwrap();
        assert_eq!(size(&got[0]).unwrap().abs_diff(95), best);
    }

    #[test]
    fn traced_draws_record_spans_and_counts() {
        let mut tr = Tracer::new(1 << 12);
        let got = distinct_patches(5, 3, 0..=usize::MAX, 5, 9, &mut Some(&mut tr));
        assert_eq!(got.len(), 3);
        let draws = tr.counter("core.draws");
        assert!(draws >= 3);
        assert_eq!(tr.named("core.adapt").len() as u64, draws);
        assert_eq!(tr.named("core.indicators").len() as u64, draws);
        assert!(tr.counter("core.valid") <= draws);
    }
}
