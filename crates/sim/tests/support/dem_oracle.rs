//! The independent reference for the detector error model: a walk of
//! its own over the circuit, which shares no code with the crate's one
//! backward pass (the symptom compile that `ParametricDem::from_noisy`
//! and `FrameProgram` both read) nor with its arena and dedupe. It
//! keeps one heap `Vec` per sensitivity set, merges into a fresh `Vec`
//! per XOR, and clones every branch's symptom into a `HashMap` key; the
//! extraction must reproduce it bit for bit.
//!
//! Written against `crate::{circuit, dem, noise}`, so it compiles as a
//! unit-test module of `dqec_sim` and inside an integration test that
//! imports those three modules at its root.

use crate::circuit::{Circuit, Gate1, Gate2, Noise1, Op};
use crate::dem::ParametricDem;
use crate::noise::NoiseParam;
use std::collections::HashMap;

/// Asserts that [`ParametricDem::from_noisy`] of `noisy` equals the
/// oracle's extraction: the same mechanisms in the same order, the same
/// branches in the same order, and probabilities with the same bits at
/// a few baseline rates. `params` holds one [`NoiseParam`] per noise op
/// of `noisy`.
pub fn assert_matches_oracle(noisy: &Circuit, params: &[NoiseParam]) {
    let pdem = ParametricDem::from_noisy(noisy, params);
    let want = from_noisy(noisy, params);
    let got: Vec<_> = pdem.mechanisms().collect();
    assert_eq!(got.len(), want.len(), "from_noisy: mechanism count");
    for (m, ((dets, obs, branches), (w_dets, w_obs, w_branches))) in
        got.iter().zip(&want).enumerate()
    {
        assert_eq!(
            (*dets, *obs),
            (&w_dets[..], *w_obs),
            "from_noisy: symptom {m}"
        );
        assert_eq!(*branches, &w_branches[..], "from_noisy: branches of {m}");
    }
    let mut probs = Vec::new();
    for p in [1e-4, 1e-3, 7e-3, 0.05] {
        pdem.probabilities_into(p, &mut probs);
        let bits: Vec<u64> = probs.iter().map(|q| q.to_bits()).collect();
        let w_bits: Vec<u64> = want
            .iter()
            .map(|(_, _, b)| probability(b, p).to_bits())
            .collect();
        assert_eq!(bits, w_bits, "probabilities_into at p = {p}");
    }
}

/// A sensitivity set: detectors plus an observable bitmask.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
struct Sens {
    dets: Vec<u32>,
    obs: u64,
}

impl Sens {
    fn is_empty(&self) -> bool {
        self.dets.is_empty() && self.obs == 0
    }

    /// Symmetric difference with another set.
    fn xor(&self, other: &Sens) -> Sens {
        let mut dets = Vec::with_capacity(self.dets.len() + other.dets.len());
        let (mut i, mut j) = (0, 0);
        while i < self.dets.len() && j < other.dets.len() {
            match self.dets[i].cmp(&other.dets[j]) {
                std::cmp::Ordering::Less => {
                    dets.push(self.dets[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    dets.push(other.dets[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        dets.extend_from_slice(&self.dets[i..]);
        dets.extend_from_slice(&other.dets[j..]);
        Sens {
            dets,
            obs: self.obs ^ other.obs,
        }
    }

    fn xor_in_place(&mut self, other: &Sens) {
        *self = self.xor(other);
    }
}

type Branches = Vec<(NoiseParam, f64)>;

/// `(detectors, observables, branches)` per mechanism, sorted by
/// `(detectors, observables)`.
fn from_noisy(circuit: &Circuit, params: &[NoiseParam]) -> Vec<(Vec<u32>, u64, Branches)> {
    let mut raw: HashMap<(Vec<u32>, u64), Branches> = HashMap::new();
    assert_eq!(params.len(), circuit.num_noise_ops());
    walk_mechanisms(circuit, |sens, idx, fraction| {
        if sens.is_empty() || fraction <= 0.0 {
            return;
        }
        raw.entry((sens.dets.clone(), sens.obs))
            .or_default()
            .push((params[idx], fraction));
    });
    let mut mechanisms: Vec<_> = raw
        .into_iter()
        .map(|((detectors, observables), branches)| (detectors, observables, branches))
        .collect();
    mechanisms.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
    mechanisms
}

/// A parametric mechanism's firing probability at baseline rate `p`.
fn probability(branches: &[(NoiseParam, f64)], p: f64) -> f64 {
    // XOR-combining is multiplicative in q = 1 - 2·prob.
    let q: f64 = branches
        .iter()
        .map(|(param, k)| 1.0 - 2.0 * k * param.rate(p))
        .product();
    (1.0 - q) / 2.0
}

/// Walks `circuit` backward, calling `visit(sens, noise_index, fraction)`
/// for every branch of every noise op.
fn walk_mechanisms<F: FnMut(&Sens, usize, f64)>(circuit: &Circuit, mut visit: F) {
    assert!(
        circuit.observables().len() <= 64,
        "at most 64 observables supported"
    );
    let nq = circuit.num_qubits() as usize;

    // Record -> (detectors containing it, observable mask).
    let mut det_of_record: Vec<Vec<u32>> = vec![Vec::new(); circuit.num_measurements() as usize];
    for (d, det) in circuit.detectors().iter().enumerate() {
        for &r in &det.records {
            det_of_record[r as usize].push(d as u32);
        }
    }
    let mut obs_of_record: Vec<u64> = vec![0; circuit.num_measurements() as usize];
    for (o, obs) in circuit.observables().iter().enumerate() {
        for &r in obs {
            obs_of_record[r as usize] ^= 1 << o;
        }
    }

    let mut xmap: Vec<Sens> = vec![Sens::default(); nq];
    let mut zmap: Vec<Sens> = vec![Sens::default(); nq];
    let mut next_record = circuit.num_measurements() as usize;
    let mut next_noise = circuit.num_noise_ops();
    for op in circuit.ops().iter().rev() {
        match *op {
            Op::Gate1 { kind: Gate1::H, q } => {
                let q = q as usize;
                std::mem::swap(&mut xmap[q], &mut zmap[q]);
            }
            Op::Gate1 { kind: Gate1::S, q } => {
                // X before S acts as Y after S.
                let q = q as usize;
                let z = zmap[q].clone();
                xmap[q].xor_in_place(&z);
            }
            Op::Gate1 { .. } => {}
            Op::Gate2 {
                kind: Gate2::Cx,
                a,
                b,
            } => {
                let (c, t) = (a as usize, b as usize);
                let xt = xmap[t].clone();
                xmap[c].xor_in_place(&xt);
                let zc = zmap[c].clone();
                zmap[t].xor_in_place(&zc);
            }
            Op::Gate2 {
                kind: Gate2::Cz,
                a,
                b,
            } => {
                let (a, b) = (a as usize, b as usize);
                let zb = zmap[b].clone();
                let za = zmap[a].clone();
                xmap[a].xor_in_place(&zb);
                xmap[b].xor_in_place(&za);
            }
            Op::Reset { q } => {
                let q = q as usize;
                xmap[q] = Sens::default();
                zmap[q] = Sens::default();
            }
            Op::Measure { q } => {
                next_record -= 1;
                let q = q as usize;
                let m = Sens {
                    dets: det_of_record[next_record].clone(),
                    obs: obs_of_record[next_record],
                };
                xmap[q].xor_in_place(&m);
            }
            Op::Noise1 { kind, q, .. } => {
                next_noise -= 1;
                let q = q as usize;
                match kind {
                    Noise1::XError => visit(&xmap[q], next_noise, 1.0),
                    Noise1::ZError => visit(&zmap[q], next_noise, 1.0),
                    Noise1::Depolarize1 => {
                        let y = xmap[q].xor(&zmap[q]);
                        visit(&xmap[q], next_noise, 1.0 / 3.0);
                        visit(&zmap[q], next_noise, 1.0 / 3.0);
                        visit(&y, next_noise, 1.0 / 3.0);
                    }
                }
            }
            Op::Depolarize2 { a, b, .. } => {
                next_noise -= 1;
                let (a, b) = (a as usize, b as usize);
                let comp = |x: &Sens, z: &Sens| -> [Sens; 4] {
                    [Sens::default(), x.clone(), x.xor(z), z.clone()]
                };
                let ca = comp(&xmap[a], &zmap[a]);
                let cb = comp(&xmap[b], &zmap[b]);
                for (i, sa) in ca.iter().enumerate() {
                    for (j, sb) in cb.iter().enumerate() {
                        if i == 0 && j == 0 {
                            continue;
                        }
                        visit(&sa.xor(sb), next_noise, 1.0 / 15.0);
                    }
                }
            }
            Op::Tick => {}
        }
    }
    assert_eq!(next_record, 0, "record bookkeeping must balance");
    assert_eq!(next_noise, 0, "noise-op bookkeeping must balance");
}
