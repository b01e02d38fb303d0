//! The forward frame interpreter `dqec_sim::frame::FrameProgram`'s
//! symptom compile replaced, kept as the oracle the program must
//! reproduce bit for bit, RNG position included. It draws everything
//! first, by the rule of sampler stream 2 written out afresh, then
//! walks the operations forward over X and Z frame tables, injecting
//! the drawn Paulis and gauge words where they occur, and collects
//! record flips in a record table.
//!
//! Gauge liveness comes from the program (the backward rules have
//! their own unit test); an inert gauge still gets random words, from a
//! generator of its own, and they must not show in the tables.
//!
//! Written against `crate::{circuit, frame, pauli}`, so it compiles as
//! a unit-test module of `dqec_sim` and inside an integration test that
//! imports those three modules at its root.

use crate::circuit::{Circuit, Gate1, Gate2, Noise1, Op};
use crate::frame::{BitTable, FrameProgram, FrameScratch, ShotBatch};
use crate::pauli::Pauli;
use rand::{Rng, SeedableRng};

/// Samples `shots` shots of `c` through `program` (twice over one
/// scratch, so buffer reuse is covered) and through the interpreter,
/// each from a clone of `rng`, and asserts that the tables and the
/// generators' next outputs are equal. Returns both generators as the
/// samples left them, for checks of a cursor such as ChaCha's
/// `word_pos`.
pub fn assert_program_matches<R: Rng + Clone>(
    program: &FrameProgram,
    c: &Circuit,
    shots: usize,
    rng: &R,
) -> (R, R) {
    let mut scratch = FrameScratch::default();
    let mut warm = rng.clone();
    program.sample(shots.max(7) - 3, &mut warm, &mut scratch);
    let (mut ours, mut theirs) = (rng.clone(), rng.clone());
    let want = reference_sample(c, shots, &mut theirs, program.live_gauges());
    let got = program.sample(shots, &mut ours, &mut scratch);
    assert!(*got == want, "tables differ at {shots} shots");
    assert_eq!(
        ours.clone().next_u64(),
        theirs.clone().next_u64(),
        "RNG position differs at {shots} shots"
    );
    (ours, theirs)
}

/// `w` random words, the last masked to the shot count's tail.
fn random_words<G: Rng>(rng: &mut G, w: usize, tail_mask: u64) -> Vec<u64> {
    let mut words: Vec<u64> = (0..w).map(|_| rng.gen()).collect();
    words[w - 1] &= tail_mask;
    words
}

/// Samples `shots` noisy executions of `c` by walking its operations.
///
/// `live` is the program's [`FrameProgram::live_gauges`]: the initial
/// |0> of each qubit, then every reset and measurement. A live gauge
/// draws its words from `rng`; an inert one takes them from a generator
/// of its own.
pub fn reference_sample<R: Rng>(
    c: &Circuit,
    shots: usize,
    rng: &mut R,
    live: &[bool],
) -> ShotBatch {
    let nq = c.num_qubits() as usize;
    let w = shots.div_ceil(64).max(1);
    let tail_mask = if shots == 0 {
        0
    } else if shots.is_multiple_of(64) {
        u64::MAX
    } else {
        (1u64 << (shots % 64)) - 1
    };

    // 1. Every gauge's words, live ones from the stream in order.
    let mut elsewhere = rand::rngs::StdRng::seed_from_u64(0x1a7e);
    let gauge_words: Vec<Vec<u64>> = live
        .iter()
        .map(|&is_live| {
            if is_live {
                random_words(rng, w, tail_mask)
            } else {
                random_words(&mut elsewhere, w, tail_mask)
            }
        })
        .collect();

    // 2. One walk per probability class, in order of first appearance,
    // over `channel × shots + shot`; a hit draws its Pauli pair.
    let noise: Vec<(usize, f64)> = c
        .ops()
        .iter()
        .enumerate()
        .filter_map(|(i, op)| match *op {
            Op::Noise1 { p, .. } | Op::Depolarize2 { p, .. } => Some((i, p)),
            _ => None,
        })
        .collect();
    let mut class_ps: Vec<f64> = Vec::new();
    for &(_, p) in &noise {
        if p > 0.0 && !class_ps.iter().any(|q| q.to_bits() == p.to_bits()) {
            class_ps.push(p);
        }
    }
    let mut hits: Vec<Vec<(usize, Pauli, Pauli)>> = vec![Vec::new(); c.ops().len()];
    for p in class_ps {
        let members: Vec<usize> = noise
            .iter()
            .filter(|&&(_, q)| q.to_bits() == p.to_bits())
            .map(|&(i, _)| i)
            .collect();
        reference_walk(p, members.len() * shots, rng, |at, rng| {
            let op = members[at / shots];
            let paulis = match c.ops()[op] {
                Op::Noise1 { kind, .. } => {
                    let pauli = match kind {
                        Noise1::XError => Pauli::X,
                        Noise1::ZError => Pauli::Z,
                        Noise1::Depolarize1 => Pauli::ONE_QUBIT_ERRORS[rng.gen_range(0..3usize)],
                    };
                    (pauli, Pauli::I)
                }
                _ => Pauli::TWO_QUBIT_ERRORS[rng.gen_range(0..15usize)],
            };
            hits[op].push((at % shots, paulis.0, paulis.1));
        });
    }

    // 3. The forward walk.
    let mut fx = vec![0u64; nq * w];
    let mut fz = vec![0u64; nq * w];
    let mut records = BitTable::zeros(c.num_measurements() as usize, shots);
    let mut next_record = 0usize;
    let mut gauges = gauge_words.iter();
    for q in 0..nq {
        fz[q * w..(q + 1) * w].copy_from_slice(gauges.next().expect("initial gauge"));
    }
    let inject = |fx: &mut [u64], fz: &mut [u64], q: usize, shot: usize, pauli: Pauli| {
        let (x, z) = pauli.xz();
        let (at, bit) = (q * w + shot / 64, 1u64 << (shot % 64));
        if x {
            fx[at] ^= bit;
        }
        if z {
            fz[at] ^= bit;
        }
    };
    for (i, op) in c.ops().iter().enumerate() {
        match *op {
            Op::Gate1 { kind: Gate1::H, q } => {
                let q = q as usize;
                for i in 0..w {
                    std::mem::swap(&mut fx[q * w + i], &mut fz[q * w + i]);
                }
            }
            Op::Gate1 { kind: Gate1::S, q } => {
                let q = q as usize;
                for i in 0..w {
                    fz[q * w + i] ^= fx[q * w + i];
                }
            }
            Op::Gate1 { .. } => {}
            Op::Gate2 {
                kind: Gate2::Cx,
                a,
                b,
            } => {
                let (c_, t) = (a as usize, b as usize);
                for i in 0..w {
                    fx[t * w + i] ^= fx[c_ * w + i];
                    fz[c_ * w + i] ^= fz[t * w + i];
                }
            }
            Op::Gate2 {
                kind: Gate2::Cz,
                a,
                b,
            } => {
                let (a, b) = (a as usize, b as usize);
                for i in 0..w {
                    let xa = fx[a * w + i];
                    let xb = fx[b * w + i];
                    fz[a * w + i] ^= xb;
                    fz[b * w + i] ^= xa;
                }
            }
            Op::Reset { q } => {
                let q = q as usize;
                fx[q * w..(q + 1) * w].fill(0);
                fz[q * w..(q + 1) * w].copy_from_slice(gauges.next().expect("reset gauge"));
            }
            Op::Measure { q } => {
                let q = q as usize;
                records
                    .row_mut(next_record)
                    .copy_from_slice(&fx[q * w..(q + 1) * w]);
                next_record += 1;
                // Randomize the anticommuting part of the frame to
                // model measurement collapse (Stim's convention).
                let words = gauges.next().expect("measurement gauge");
                for i in 0..w {
                    fz[q * w + i] ^= words[i];
                }
            }
            Op::Noise1 { q, .. } => {
                for &(shot, pauli, _) in &hits[i] {
                    inject(&mut fx, &mut fz, q as usize, shot, pauli);
                }
            }
            Op::Depolarize2 { a, b, .. } => {
                for &(shot, pa, pb) in &hits[i] {
                    inject(&mut fx, &mut fz, a as usize, shot, pa);
                    inject(&mut fx, &mut fz, b as usize, shot, pb);
                }
            }
            Op::Tick => {}
        }
    }

    // Assemble detectors and observables from record flips.
    let mut detectors = BitTable::zeros(c.detectors().len(), shots);
    for (d, det) in c.detectors().iter().enumerate() {
        for &r in &det.records {
            detectors.xor_row_from(d, &records, r as usize);
        }
    }
    let mut observables = BitTable::zeros(c.observables().len(), shots);
    for (o, obs) in c.observables().iter().enumerate() {
        for &r in obs {
            observables.xor_row_from(o, &records, r as usize);
        }
    }
    ShotBatch {
        detectors,
        observables,
    }
}

/// The geometric walk of one probability class over `positions`
/// positions: `hit` at every position when `p ≥ 1`, and nothing drawn
/// when there are no positions.
fn reference_walk<R: Rng>(
    p: f64,
    positions: usize,
    rng: &mut R,
    mut hit: impl FnMut(usize, &mut R),
) {
    if positions == 0 {
        return;
    }
    if p >= 1.0 {
        for at in 0..positions {
            hit(at, rng);
        }
        return;
    }
    let log1m = (1.0 - p).ln();
    let mut at: usize = 0;
    loop {
        // Geometric gap: floor(ln(U) / ln(1-p)).
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let gap = (u.ln() / log1m).floor();
        if !gap.is_finite() || gap >= (positions - at) as f64 {
            break;
        }
        at += gap as usize;
        hit(at, rng);
        at += 1;
        if at >= positions {
            break;
        }
    }
}
