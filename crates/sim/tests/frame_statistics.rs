//! The frame sampler against a noisy tableau sampler, statistically.
//!
//! The bit-exact frame oracle (`support/frame_oracle.rs`) pins
//! `FrameProgram` to one draw rule; it cannot tell whether that rule
//! samples the right *distribution*. This test can: a shot-by-shot
//! tableau simulation applies each noise channel's Pauli through
//! [`Tableau`] gates, resolves every random measurement and reset with
//! a fair coin, and reads detectors and observables as record parities
//! against the noiseless reference run. It shares no code with the
//! frame sampler beyond the circuit IR.
//!
//! On random small Clifford + noise circuits, every detector's and
//! observable's firing count, and the joint count of every pair of
//! them, must agree between the two samplers (the same number of shots
//! each).
//!
//! **The bound.** Given the total `T = a + b` of two counts of equal
//! shot budgets, `a` is Binomial(T, 1/2) when both samplers fire at the
//! same rate, so Hoeffding's inequality gives
//! `P(|a − T/2| ≥ c·√T) ≤ 2·exp(−2c²)`. With `c = 2.9` a true sampler
//! fails one comparison with probability below 1e-7; a run makes fewer
//! than 3 000 comparisons in the tier-1 case and fewer than 10 000 in
//! the ignored one, so a correct sampler fails a run with probability
//! below 3e-4 and 1e-3 (union bound). At 4 000 shots a rate difference
//! of about 6 % absolute near 1/2 is caught; at the ignored case's
//! 40 000 shots, about 2 %.

use dqec_sim::circuit::{Circuit, Gate1, Gate2, Noise1, Op};
use dqec_sim::frame::{FrameProgram, FrameScratch};
use dqec_sim::pauli::Pauli;
use dqec_sim::tableau::{ReferenceSample, Tableau};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// The circuit generator is written against `crate::circuit`.
use dqec_sim::circuit;

#[path = "support/random_circuit.rs"]
mod random_circuit;

/// Hoeffding's `c`: a comparison fails when `|a − T/2| ≥ C·√T`.
const C: f64 = 2.9;

/// Frame batch sizes, cycled: a batch ends mid-word, on a word, and
/// one past it, so tail masks and every per-batch position are covered.
const BATCHES: [usize; 6] = [1, 63, 64, 65, 1000, 511];

/// Applies the Pauli with symplectic bits `(x, z)` to qubit `q`.
fn apply_pauli(t: &mut Tableau, q: u32, (x, z): (bool, bool)) {
    if x {
        t.x_gate(q as usize);
    }
    if z {
        t.z_gate(q as usize);
    }
}

/// One noisy shot of `c` through a tableau: the detector flips, then
/// the observable flips, against `reference`.
fn tableau_shot(c: &Circuit, reference: &ReferenceSample, rng: &mut StdRng) -> Vec<bool> {
    let mut t = Tableau::new(c.num_qubits() as usize);
    let mut records = Vec::with_capacity(c.num_measurements() as usize);
    for op in c.ops() {
        match *op {
            Op::Gate1 { kind, q } => {
                let q = q as usize;
                match kind {
                    Gate1::H => t.h(q),
                    Gate1::S => t.s(q),
                    Gate1::X => t.x_gate(q),
                    Gate1::Z => t.z_gate(q),
                }
            }
            Op::Gate2 {
                kind: Gate2::Cx,
                a,
                b,
            } => t.cx(a as usize, b as usize),
            Op::Gate2 {
                kind: Gate2::Cz,
                a,
                b,
            } => t.cz(a as usize, b as usize),
            Op::Reset { q } => {
                // A reset is a measurement whose outcome is forgotten;
                // a random one still collapses entangled partners.
                let (outcome, _) = t.measure_z_choosing(q as usize, rng.gen_bool(0.5));
                if outcome {
                    t.x_gate(q as usize);
                }
            }
            Op::Measure { q } => {
                let (outcome, _) = t.measure_z_choosing(q as usize, rng.gen_bool(0.5));
                records.push(outcome);
            }
            Op::Noise1 { kind, q, p } => {
                if rng.gen_bool(p) {
                    let xz = match kind {
                        Noise1::XError => (true, false),
                        Noise1::ZError => (false, true),
                        Noise1::Depolarize1 => {
                            Pauli::ONE_QUBIT_ERRORS[rng.gen_range(0..3usize)].xz()
                        }
                    };
                    apply_pauli(&mut t, q, xz);
                }
            }
            Op::Depolarize2 { a, b, p } => {
                if rng.gen_bool(p) {
                    let (pa, pb) = Pauli::TWO_QUBIT_ERRORS[rng.gen_range(0..15usize)];
                    apply_pauli(&mut t, a, pa.xz());
                    apply_pauli(&mut t, b, pb.xz());
                }
            }
            Op::Tick => {}
        }
    }
    let flip = |rs: &[u32]| rs.iter().fold(false, |acc, &r| acc ^ records[r as usize]);
    c.detectors()
        .iter()
        .map(|d| flip(&d.records) ^ reference.detector_parity(&d.records))
        .chain(
            c.observables()
                .iter()
                .map(|o| flip(o) ^ reference.detector_parity(o)),
        )
        .collect()
}

/// Firing counts of every output (detectors, then observables) and of
/// every pair of outputs, as one flat vector: the `k` singles, then the
/// pairs `(i, j)`, `i < j`, in lexicographic order.
#[derive(Debug, Default)]
struct Counts(Vec<u64>);

impl Counts {
    fn add(&mut self, fired: &[bool]) {
        let k = fired.len();
        if self.0.is_empty() {
            self.0 = vec![0; k + k * k.saturating_sub(1) / 2];
        }
        let mut at = k;
        for i in 0..k {
            self.0[i] += u64::from(fired[i]);
            for j in i + 1..k {
                self.0[at] += u64::from(fired[i] & fired[j]);
                at += 1;
            }
        }
    }
}

/// The outputs of `shots` frame-sampled shots of `c`, drawn in batches
/// of the sizes [`BATCHES`] cycles through, from one generator.
fn frame_counts(c: &Circuit, shots: usize, rng: &mut StdRng) -> Counts {
    let program = FrameProgram::new(c);
    let mut scratch = FrameScratch::default();
    let mut counts = Counts::default();
    let (mut done, mut next) = (0, 0);
    while done < shots {
        let n = BATCHES[next % BATCHES.len()].min(shots - done);
        next += 1;
        let batch = program.sample(n, rng, &mut scratch);
        for shot in 0..n {
            let fired: Vec<bool> = (0..batch.detectors.rows())
                .map(|d| batch.detectors.get(d, shot))
                .chain((0..batch.observables.rows()).map(|o| batch.observables.get(o, shot)))
                .collect();
            counts.add(&fired);
        }
        done += n;
    }
    counts
}

/// Compares frame and tableau counts of `circuits` random circuits at
/// `shots` shots each, drawing everything from `seed`; returns the
/// number of comparisons made.
fn compare(circuits: usize, shots: usize, seed: u64) -> usize {
    let mut seeds = StdRng::seed_from_u64(seed);
    let mut comparisons = 0;
    for case in 0..circuits {
        let mut gen = StdRng::seed_from_u64(seeds.gen());
        let c = random_circuit::random_circuit(&mut gen, case % 2 == 1);
        if c.detectors().is_empty() && c.observables().is_empty() {
            continue;
        }
        let reference = ReferenceSample::of(&c);
        let mut rng = StdRng::seed_from_u64(seeds.gen());
        let mut tableau = Counts::default();
        for _ in 0..shots {
            tableau.add(&tableau_shot(&c, &reference, &mut rng));
        }
        let frame = frame_counts(&c, shots, &mut rng);
        for (at, (&a, &b)) in frame.0.iter().zip(&tableau.0).enumerate() {
            let total = (a + b) as f64;
            let excess = (a as f64 - total / 2.0).abs();
            assert!(
                excess < C * total.sqrt() || a == b,
                "case {case}, count {at}: frame {a} vs tableau {b} of {shots} shots\n{:?}",
                c.ops()
            );
            comparisons += 1;
        }
    }
    comparisons
}

#[test]
fn frame_sampler_matches_tableau_marginals_and_pair_correlations() {
    let comparisons = compare(120, 4_000, 0x57a7_0001);
    assert!(comparisons > 500, "{comparisons} comparisons");
}

#[test]
#[ignore = "40 000 shots on 400 circuits; tens of seconds in release"]
fn frame_sampler_matches_tableau_statistics_at_depth() {
    let comparisons = compare(400, 40_000, 0x57a7_0002);
    assert!(comparisons > 2_000, "{comparisons} comparisons");
}
