//! Detector error model (DEM) extraction.
//!
//! Every error *mechanism* of a noisy circuit is read off the crate's
//! one backward pass (the symptom compile the frame sampler reads too):
//! for each noise channel, the detectors and observables an X or a Z on
//! each of its qubits would flip. XOR-combining those per Pauli
//! component gives each branch's symptom (flipped detectors), its
//! logical effect (flipped observables), and the noise op it fires
//! from. This is the construction Stim uses. [`ParametricDem`] is the
//! library's one detector error model, and every decoding graph is
//! built from it.
//!
//! [`ParametricDem::from_noisy`] allocates nothing per gate, per qubit
//! or per branch, and as often for a large circuit as for a small one:
//!
//! * **Branches.** Walking the noise channels backward, each non-empty
//!   branch is appended to one arena: its detector ids to a single
//!   `Vec<u32>`, and a record `(start, len, obs, noise op, component
//!   count)` beside them. A channel's X, Z and Y = X ⊕ Z components
//!   (and the fifteen pairs of a two-qubit channel) are merges of its
//!   sorted symptom lists, so both arrays are sized from those lists'
//!   lengths before the walk.
//! * **Dedupe.** Each distinct symptom `(dets, obs)` gets a key id in
//!   first-seen order from an open-addressed table over arena slices. A
//!   counting sort by key groups the branches and keeps walk order
//!   within each key; only the unique keys are sorted by `(dets, obs)`,
//!   on their first four detector ids packed into one integer.
//!
//! Mechanisms therefore come out sorted by `(dets, obs)`, and each one
//! keeps its branches in walk order: backward through the circuit, and
//! within a channel in Pauli-component order. That order fixes every
//! probability to the bit, so an extraction is a pure function of the
//! circuit.

use crate::circuit::Circuit;
use crate::noise::NoiseParam;
use crate::symptoms::{ChannelKind, Symptoms};

/// A detector error model whose mechanism probabilities can be
/// evaluated for any baseline rate `p` without re-walking the circuit.
///
/// Built from the noisy circuit and the per-op [`NoiseParam`]s returned
/// by `NoiseModel::apply_with_params`. Evaluated at `p`, it has the
/// same mechanisms (same symptoms, same order) as an extraction of the
/// circuit re-noised at `p`, and the same probabilities up to floating
/// point roundoff. A circuit that already carries its noise is
/// extracted as it stands through `NoiseModel::new(0.0)`, which inserts
/// no channel and makes every noise op a [`NoiseParam::Fixed`].
///
/// The mechanisms are stored flat, as the extraction's arena left them:
/// one detector-id array, one `(start, len, obs, branch_end)` record per
/// mechanism in `(dets, obs)` order, and one `(NoiseParam, fraction)`
/// array holding each mechanism's branches in walk order. A mechanism's
/// probability is the product of `1 − 2·fraction·rate(p)` over its
/// branches, in that order, so [`ParametricDem::probabilities_into`]
/// returns the same `f64` bits for the same circuit and `p` every time.
///
/// # Examples
///
/// ```
/// use dqec_sim::circuit::{CheckBasis, Circuit};
/// use dqec_sim::dem::ParametricDem;
/// use dqec_sim::noise::NoiseModel;
///
/// let mut clean = Circuit::new(1);
/// clean.reset(0)?;
/// let m = clean.measure(0)?;
/// clean.add_detector(&[m], CheckBasis::Z, (0, 0, 0))?;
///
/// let template = NoiseModel::new(1e-3);
/// let (noisy, params) = template.apply_with_params(&clean);
/// let pdem = ParametricDem::from_noisy(&noisy, &params);
///
/// // Reweight to p = 5e-3 without touching the circuit again. The one
/// // mechanism is a readout flip after the reset or before the
/// // measurement, each at 8/15 · p.
/// let mut probabilities = Vec::new();
/// pdem.probabilities_into(5e-3, &mut probabilities);
/// assert_eq!(pdem.mechanisms().count(), 1);
/// let q = 8.0 / 15.0 * 5e-3;
/// assert!((probabilities[0] - 2.0 * q * (1.0 - q)).abs() < 1e-15);
/// # Ok::<(), dqec_sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ParametricDem {
    /// Every mechanism's detector ids, concatenated in mechanism order.
    dets: Vec<u32>,
    /// One record per mechanism, sorted by `(dets, obs)`.
    mechs: Vec<Mechanism>,
    /// Every branch as `(param, fraction)`: it fires with probability
    /// `fraction · param.rate(p)`. Grouped by mechanism, walk order
    /// within a mechanism.
    branches: Vec<(NoiseParam, f64)>,
}

/// A [`ParametricDem`] mechanism: detectors `dets[start..start + len]`,
/// observable mask `obs`, and its branches ending at `branch_end`.
#[derive(Debug, Clone, Copy)]
struct Mechanism {
    start: u32,
    len: u32,
    obs: u64,
    branch_end: u32,
}

impl ParametricDem {
    /// Extracts the parametric DEM of a noisy circuit, given one
    /// [`NoiseParam`] per noise op in circuit order (as returned by
    /// `NoiseModel::apply_with_params`).
    ///
    /// # Panics
    ///
    /// Panics if `params` does not have exactly one entry per noise op,
    /// if the circuit uses more than 64 observables, or on a two-qubit
    /// operation whose qubits coincide, which [`Circuit`]'s builder
    /// methods reject.
    pub fn from_noisy(circuit: &Circuit, params: &[NoiseParam]) -> Self {
        assert!(
            circuit.observables().len() <= 64,
            "at most 64 observables supported"
        );
        let symptoms = Symptoms::of(circuit);
        assert_eq!(
            params.len(),
            symptoms.channels.len(),
            "one NoiseParam per noise op required"
        );
        let arena = Arena::of(&symptoms);
        // Free the symptom lists before the dedupe allocates its own.
        drop(symptoms);
        let groups = Groups::of(&arena);
        let mut dets = Vec::with_capacity(arena.dets.len());
        let mut mechs = Vec::with_capacity(groups.first.len());
        let mut branches = Vec::with_capacity(arena.branches.len());
        for (first, members) in groups.iter() {
            let (symptom, obs) = arena.symptom(first);
            mechs.push(Mechanism {
                start: dets.len() as u32,
                len: symptom.len() as u32,
                obs,
                branch_end: (branches.len() + members.len()) as u32,
            });
            dets.extend_from_slice(symptom);
            branches.extend(
                members
                    .iter()
                    .map(|s| (params[s.noise as usize], s.fraction())),
            );
        }
        ParametricDem {
            dets,
            mechs,
            branches,
        }
    }

    /// Writes every mechanism's probability at baseline rate `p` into
    /// `out` (cleared first), in the order of
    /// [`ParametricDem::mechanisms`]. Allocates nothing once `out` has
    /// the capacity.
    pub fn probabilities_into(&self, p: f64, out: &mut Vec<f64>) {
        out.clear();
        let mut lo = 0;
        for m in &self.mechs {
            let hi = m.branch_end as usize;
            // XOR-combining is multiplicative in q = 1 - 2·prob.
            let q: f64 = self.branches[lo..hi]
                .iter()
                .map(|(param, k)| 1.0 - 2.0 * k * param.rate(p))
                .product();
            out.push((1.0 - q) / 2.0);
            lo = hi;
        }
    }

    /// Every mechanism's symptom and source, as `(detectors,
    /// observables, branches)` in mechanism order — the order of
    /// [`ParametricDem::probabilities_into`]'s output, so the `m`-th
    /// item fires with the `m`-th probability. Detector ids are sorted;
    /// branches are `(param, fraction)` in walk order. Nothing is
    /// allocated: a decoding graph is built straight from this and a
    /// probability buffer.
    pub fn mechanisms(
        &self,
    ) -> impl Iterator<Item = (&[u32], u64, &[(NoiseParam, f64)])> + Clone + '_ {
        let mut lo = 0;
        self.mechs.iter().map(move |m| {
            let (start, hi) = (m.start as usize, m.branch_end as usize);
            let branches = &self.branches[lo..hi];
            lo = hi;
            (&self.dets[start..start + m.len as usize], m.obs, branches)
        })
    }
}

/// Where a branch comes from: its noise op's index among the circuit's
/// noise ops in forward order, and how many equally likely Pauli
/// components the op splits into (1, 3 or 15).
#[derive(Debug, Clone, Copy)]
struct Source {
    noise: u32,
    parts: u8,
}

impl Source {
    /// The share of the op's rate the branch fires with.
    fn fraction(self) -> f64 {
        1.0 / f64::from(self.parts)
    }
}

/// One non-empty noise branch in the [`Arena`]: symptom
/// `dets[start..start + len]` plus `obs`, and its source.
#[derive(Debug, Clone, Copy)]
struct Branch {
    obs: u64,
    start: u32,
    len: u32,
    source: Source,
}

/// Every non-empty noise branch of a circuit in walk order, with
/// all symptoms in one detector-id array.
struct Arena {
    dets: Vec<u32>,
    branches: Vec<Branch>,
}

impl Arena {
    /// Branch `b`'s symptom.
    fn symptom(&self, b: u32) -> (&[u32], u64) {
        let b = &self.branches[b as usize];
        let start = b.start as usize;
        (&self.dets[start..start + b.len as usize], b.obs)
    }

    /// Appends the branch with symptom `x ⊕ y` from `source` unless the
    /// symptom is empty.
    fn push(&mut self, x: (&[u32], u64), y: (&[u32], u64), source: Source) {
        let start = self.dets.len();
        xor_into(x.0, y.0, &mut self.dets);
        let (len, obs) = (self.dets.len() - start, x.1 ^ y.1);
        if len > 0 || obs != 0 {
            self.branches.push(Branch {
                obs,
                start: start as u32,
                len: len as u32,
                source,
            });
        }
    }

    /// Records every non-empty branch of every noise op of `symptoms`,
    /// backward through the circuit. A branch fires with probability
    /// `source.fraction() · op_p`.
    fn of(symptoms: &Symptoms) -> Arena {
        // Each branch's symptom is no longer than its components'
        // outputs together, which bounds the arena, and a Y factor no
        // longer than its X and Z, which bounds the scratch.
        let (mut branches, mut dets, mut widest) = (0, 0, 0);
        for channel in &symptoms.channels {
            let [xa, za, xb, zb] = channel.segments.map(|[start, end]| (end - start) as usize);
            let (parts, len) = match channel.kind {
                ChannelKind::X | ChannelKind::Z => (1, xa + za),
                ChannelKind::Depolarize1 => (3, 2 * (xa + za)),
                ChannelKind::Depolarize2 => (15, 8 * (xa + za + xb + zb)),
            };
            branches += parts;
            dets += len;
            widest = widest.max(xa + za + xb + zb);
        }
        let mut arena = Arena {
            dets: Vec::with_capacity(dets),
            branches: Vec::with_capacity(branches),
        };
        let mut y = Vec::with_capacity(widest);
        // A segment's observables sort after its detectors.
        let nd = symptoms.num_detectors as u32;
        let split = |segment| {
            let outputs = symptoms.outputs_of(segment);
            let at = outputs.partition_point(|&o| o < nd);
            let obs = outputs[at..]
                .iter()
                .fold(0u64, |mask, &o| mask | 1 << (o - nd));
            (&outputs[..at], obs)
        };
        for (noise, channel) in symptoms.channels.iter().enumerate().rev() {
            let [x_a, z_a, x_b, z_b] = channel.segments.map(split);
            let none = (&[][..], 0);
            let mut source = Source {
                noise: noise as u32,
                parts: 1,
            };
            match channel.kind {
                ChannelKind::X => arena.push(x_a, none, source),
                ChannelKind::Z => arena.push(z_a, none, source),
                ChannelKind::Depolarize1 => {
                    source.parts = 3;
                    for (s, t) in [(x_a, none), (z_a, none), (x_a, z_a)] {
                        arena.push(s, t, source);
                    }
                }
                ChannelKind::Depolarize2 => {
                    source.parts = 15;
                    y.clear();
                    xor_into(x_a.0, z_a.0, &mut y);
                    let at = y.len();
                    xor_into(x_b.0, z_b.0, &mut y);
                    let (y_a, y_b) = y.split_at(at);
                    // I, X, Y, Z on each qubit; every pair but I ⊗ I.
                    let on_a = [none, x_a, (y_a, x_a.1 ^ z_a.1), z_a];
                    let on_b = [none, x_b, (y_b, x_b.1 ^ z_b.1), z_b];
                    for (i, &s) in on_a.iter().enumerate() {
                        for &t in &on_b[usize::from(i == 0)..] {
                            arena.push(s, t, source);
                        }
                    }
                }
            }
        }
        arena
    }
}

/// The arena's branches grouped by symptom: mechanism `m` (in
/// `(dets, obs)` order) has the symptom of branch `first[m]` and the
/// branches from `members[ends[m - 1]..ends[m]]`, in walk order.
struct Groups {
    first: Vec<u32>,
    ends: Vec<u32>,
    members: Vec<Source>,
}

impl Groups {
    fn of(arena: &Arena) -> Groups {
        let n = arena.branches.len();
        // Key ids in first-seen order, from an open-addressed table of
        // key ids probed linearly; a slot's key is compared through its
        // first branch's arena slice.
        let bits = (2 * n).max(16).next_power_of_two().trailing_zeros();
        let mask = (1usize << bits) - 1;
        let mut table = vec![u32::MAX; 1 << bits];
        let mut key_of = Vec::with_capacity(n);
        let mut first: Vec<u32> = Vec::with_capacity(n);
        let mut count: Vec<u32> = Vec::with_capacity(n);
        for b in 0..n as u32 {
            let symptom = arena.symptom(b);
            let mut slot = (hash(symptom) >> (64 - bits)) as usize;
            let key = loop {
                match table[slot] {
                    u32::MAX => {
                        let k = first.len() as u32;
                        table[slot] = k;
                        first.push(b);
                        count.push(0);
                        break k;
                    }
                    k if arena.symptom(first[k as usize]) == symptom => break k,
                    _ => slot = (slot + 1) & mask,
                }
            };
            count[key as usize] += 1;
            key_of.push(key);
        }

        // Sort only the unique keys, on their first four detectors packed
        // into one integer (ids shifted up by one, so a shorter symptom
        // sorts first) and on the full symptom when those tie; then a
        // counting sort by rank places every branch's source, in walk
        // order within its key.
        let mut sorted: Vec<(u128, u32)> = first
            .iter()
            .enumerate()
            .map(|(k, &b)| {
                let (dets, _) = arena.symptom(b);
                let prefix = (0..4).fold(0u128, |acc, i| {
                    (acc << 32) | dets.get(i).map_or(0, |&d| u128::from(d) + 1)
                });
                (prefix, k as u32)
            })
            .collect();
        sorted.sort_unstable_by(|&(px, x), &(py, y)| {
            px.cmp(&py).then_with(|| {
                let (x, y) = (first[x as usize], first[y as usize]);
                arena.symptom(x).cmp(&arena.symptom(y))
            })
        });
        let mut cursor = vec![0u32; first.len()];
        let mut ends = Vec::with_capacity(first.len());
        let mut end = 0;
        for &(_, k) in &sorted {
            cursor[k as usize] = end;
            end += count[k as usize];
            ends.push(end);
        }
        let mut members = vec![Source { noise: 0, parts: 0 }; n];
        for (branch, &k) in arena.branches.iter().zip(&key_of) {
            let at = &mut cursor[k as usize];
            members[*at as usize] = branch.source;
            *at += 1;
        }
        Groups {
            first: sorted.iter().map(|&(_, k)| first[k as usize]).collect(),
            ends,
            members,
        }
    }

    /// `(first branch, sources of all branches)` per mechanism, in
    /// mechanism order.
    fn iter(&self) -> impl Iterator<Item = (u32, &[Source])> {
        let mut lo = 0;
        self.first.iter().zip(&self.ends).map(move |(&first, &hi)| {
            let members = &self.members[lo as usize..hi as usize];
            lo = hi;
            (first, members)
        })
    }
}

/// Multiplicative hash of a symptom; the table indexes by its top bits.
fn hash((dets, obs): (&[u32], u64)) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    dets.iter().fold(obs.wrapping_mul(K), |h, &d| {
        (h.rotate_left(5) ^ u64::from(d)).wrapping_mul(K)
    })
}

/// Appends the symmetric difference of the sorted lists `a` and `b` to
/// `out`.
fn xor_into(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{CheckBasis, Circuit, Noise1};
    use crate::dem_oracle::assert_matches_oracle;
    use crate::noise::NoiseModel;
    use crate::random_circuit::random_circuit;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The mechanisms of `c` with its noise ops as they stand, as
    /// `(detectors, observables, probability)`.
    fn mechanisms(c: &Circuit) -> Vec<(Vec<u32>, u64, f64)> {
        let (_, fixed) = NoiseModel::new(0.0).apply_with_params(c);
        let pdem = ParametricDem::from_noisy(c, &fixed);
        let mut probabilities = Vec::new();
        pdem.probabilities_into(0.0, &mut probabilities);
        pdem.mechanisms()
            .zip(probabilities)
            .map(|((dets, obs, _), p)| (dets.to_vec(), obs, p))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// The extraction equals the oracle's bit for bit on random
        /// Clifford+noise circuits: as drawn, with every noise op a
        /// `Fixed` parameter, and with the paper's noise model inserted
        /// around every op (a bad qubit in half of the cases).
        #[test]
        fn extraction_matches_the_oracle_on_random_circuits(seed in 0u64..u64::MAX) {
            let mut gen = StdRng::seed_from_u64(seed);
            let c = random_circuit(&mut gen, false);
            let (same, fixed) = NoiseModel::new(0.0).apply_with_params(&c);
            prop_assert_eq!(same.ops(), c.ops());
            assert_matches_oracle(&c, &fixed);
            let mut model = NoiseModel::new(gen.gen_range(1e-4..0.05));
            if gen.gen_bool(0.5) {
                model = model.with_bad_qubit(gen.gen_range(0..c.num_qubits()), 0.2);
            }
            let (noisy, params) = model.apply_with_params(&c);
            assert_matches_oracle(&noisy, &params);
        }
    }

    #[test]
    fn x_error_before_measure_flips_detector_and_observable() {
        let mut c = Circuit::new(1);
        c.reset(0).unwrap();
        c.noise1(Noise1::XError, 0, 0.2).unwrap();
        let m = c.measure(0).unwrap();
        c.add_detector(&[m], CheckBasis::Z, (0, 0, 0)).unwrap();
        c.include_observable(0, &[m]).unwrap();
        let dem = mechanisms(&c);
        assert_eq!(dem.len(), 1);
        let (dets, obs, p) = &dem[0];
        assert_eq!(dets, &vec![0]);
        assert_eq!(*obs, 1);
        assert!((p - 0.2).abs() < 1e-12);
    }

    #[test]
    fn z_error_before_z_measure_is_invisible() {
        let mut c = Circuit::new(1);
        c.reset(0).unwrap();
        c.noise1(Noise1::ZError, 0, 0.2).unwrap();
        let m = c.measure(0).unwrap();
        c.add_detector(&[m], CheckBasis::Z, (0, 0, 0)).unwrap();
        assert!(mechanisms(&c).is_empty());
    }

    #[test]
    fn error_between_two_rounds_flips_both_detectors() {
        // Measure the same qubit twice with a possible flip in between:
        // detector0 = m0, detector1 = m0 ^ m1; an X between them flips
        // only m1, i.e. detector 1.
        let mut c = Circuit::new(2);
        c.reset(0).unwrap();
        c.reset(1).unwrap();
        c.cx(0, 1).unwrap();
        let m0 = c.measure(1).unwrap();
        c.reset(1).unwrap();
        c.noise1(Noise1::XError, 0, 0.1).unwrap();
        c.cx(0, 1).unwrap();
        let m1 = c.measure(1).unwrap();
        c.add_detector(&[m0], CheckBasis::Z, (0, 0, 0)).unwrap();
        c.add_detector(&[m0, m1], CheckBasis::Z, (0, 0, 1)).unwrap();
        let dem = mechanisms(&c);
        assert_eq!(dem.len(), 1);
        assert_eq!(dem[0].0, vec![1]);
    }

    #[test]
    fn duplicate_mechanisms_combine_with_xor_probability() {
        let mut c = Circuit::new(1);
        c.reset(0).unwrap();
        c.noise1(Noise1::XError, 0, 0.1).unwrap();
        c.noise1(Noise1::XError, 0, 0.1).unwrap();
        let m = c.measure(0).unwrap();
        c.add_detector(&[m], CheckBasis::Z, (0, 0, 0)).unwrap();
        let dem = mechanisms(&c);
        assert_eq!(dem.len(), 1);
        // 0.1*(1-0.1) + 0.9*0.1 = 0.18
        assert!((dem[0].2 - 0.18).abs() < 1e-12);
    }

    #[test]
    fn depolarize2_splits_into_components() {
        // Depolarize2 then measure both qubits: components with an X or
        // Y factor flip the corresponding measurement; Z factors flip
        // nothing.
        let mut c = Circuit::new(2);
        c.reset(0).unwrap();
        c.reset(1).unwrap();
        c.depolarize2(0, 1, 0.15).unwrap();
        let m0 = c.measure(0).unwrap();
        let m1 = c.measure(1).unwrap();
        c.add_detector(&[m0], CheckBasis::Z, (0, 0, 0)).unwrap();
        c.add_detector(&[m1], CheckBasis::Z, (1, 0, 0)).unwrap();
        let dem = mechanisms(&c);
        // Symptoms: {0}, {1}, {0,1} from the X/Y components.
        let symptoms: Vec<&[u32]> = dem.iter().map(|m| &m.0[..]).collect();
        assert_eq!(symptoms, [&[0][..], &[0, 1], &[1]]);
        // {0} comes from XI, YI, XZ, YZ: four disjoint p/15 = 0.01
        // components, combined with the XOR-probability rule
        // (1 - (1-2p)^4) / 2.
        let expected = (1.0 - (1.0f64 - 0.02).powi(4)) / 2.0;
        let p_each = dem[0].2;
        assert!((p_each - expected).abs() < 1e-12, "got {p_each}");
    }

    #[test]
    fn undetectable_logical_mechanisms_counted() {
        let mut c = Circuit::new(1);
        c.reset(0).unwrap();
        c.noise1(Noise1::XError, 0, 0.1).unwrap();
        let m = c.measure(0).unwrap();
        // Observable but no detector.
        c.include_observable(0, &[m]).unwrap();
        let undetectable = mechanisms(&c)
            .iter()
            .filter(|(dets, obs, _)| dets.is_empty() && *obs != 0)
            .count();
        assert_eq!(undetectable, 1);
    }

    #[test]
    fn parametric_reweight_matches_fresh_extraction() {
        // A small two-qubit syndrome round with gates of every kind the
        // noise model decorates, plus a per-qubit override.
        let mut clean = Circuit::new(2);
        clean.reset(0).unwrap();
        clean.reset(1).unwrap();
        clean.h(1).unwrap();
        clean.cx(0, 1).unwrap();
        clean.h(1).unwrap();
        let m = clean.measure(1).unwrap();
        clean.add_detector(&[m], CheckBasis::X, (0, 0, 0)).unwrap();
        let d = clean.measure(0).unwrap();
        clean.include_observable(0, &[d]).unwrap();

        let template = NoiseModel::new(1e-3).with_bad_qubit(0, 0.08);
        let (noisy, params) = template.apply_with_params(&clean);
        let pdem = ParametricDem::from_noisy(&noisy, &params);

        let mut reweighted = Vec::new();
        for p in [1e-3, 3e-3, 8e-3, 2e-2] {
            pdem.probabilities_into(p, &mut reweighted);
            let model = NoiseModel::new(p).with_bad_qubit(0, 0.08);
            let fresh = mechanisms(&model.apply(&clean));
            assert_eq!(reweighted.len(), fresh.len());
            for ((dets, obs, _), (a, b)) in pdem.mechanisms().zip(reweighted.iter().zip(&fresh)) {
                assert_eq!(dets, &b.0[..], "symptom order differs");
                assert_eq!(obs, b.1);
                assert!((a - b.2).abs() < 1e-12, "p={p}: {a} vs {}", b.2);
            }
        }
    }

    #[test]
    fn hadamard_converts_sensitivity() {
        // Z error before H acts as X after H and flips a Z measurement.
        let mut c = Circuit::new(1);
        c.reset(0).unwrap();
        c.noise1(Noise1::ZError, 0, 0.3).unwrap();
        c.h(0).unwrap();
        let m = c.measure(0).unwrap();
        c.add_detector(&[m], CheckBasis::Z, (0, 0, 0)).unwrap();
        let dem = mechanisms(&c);
        assert_eq!(dem.len(), 1);
        assert_eq!(dem[0].0, vec![0]);
    }
}
