//! The `Op`-walking frame interpreter `dqec_sim::frame::FrameProgram`
//! replaced, kept as the oracle the program must reproduce bit for bit,
//! RNG position included: it draws the random Z frame of every reset
//! and measurement, whether or not a detector can see it, collects
//! record flips in a record table, and takes every geometric gap's
//! logarithm.
//!
//! Written against `crate::{circuit, frame, pauli}`, so it compiles as
//! a unit-test module of `dqec_sim` and inside an integration test that
//! imports those three modules at its root.

use crate::circuit::{Circuit, Gate1, Gate2, Noise1, Op};
use crate::frame::{BitTable, FrameProgram, FrameScratch, ShotBatch};
use crate::pauli::Pauli;
use rand::Rng;

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
    let want = reference_sample(c, shots, &mut theirs);
    let got = program.sample(shots, &mut ours, &mut scratch);
    assert!(*got == want, "tables differ at {shots} shots");
    assert_eq!(
        ours.clone().next_u64(),
        theirs.clone().next_u64(),
        "RNG position differs at {shots} shots"
    );
    (ours, theirs)
}

/// Samples `shots` noisy executions of `c` by walking its operations.
pub fn reference_sample<R: Rng>(c: &Circuit, shots: usize, rng: &mut R) -> ShotBatch {
    let nq = c.num_qubits() as usize;
    let w = shots.div_ceil(64).max(1);
    let mut fx = vec![0u64; nq * w];
    let mut fz = vec![0u64; nq * w];
    let mut records = BitTable::zeros(c.num_measurements() as usize, shots);
    let mut next_record = 0usize;

    // Mask to keep random bits within the shot count in the last word.
    let tail_bits = shots % 64;
    let tail_mask = if tail_bits == 0 {
        u64::MAX
    } else {
        (1u64 << tail_bits) - 1
    };
    let fill_random = |dst: &mut [u64], rng: &mut R| {
        for (i, word) in dst.iter_mut().enumerate() {
            let mut r: u64 = rng.gen();
            if i == w - 1 {
                r &= tail_mask;
            }
            *word = r;
        }
    };

    for op in c.ops() {
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
                fill_random(&mut fz[q * w..(q + 1) * w], rng);
            }
            Op::Measure { q } => {
                let q = q as usize;
                records
                    .row_mut(next_record)
                    .copy_from_slice(&fx[q * w..(q + 1) * w]);
                next_record += 1;
                // Randomize the anticommuting part of the frame to
                // model measurement collapse (Stim's convention).
                let mut scratch = vec![0u64; w];
                fill_random(&mut scratch, rng);
                for i in 0..w {
                    fz[q * w + i] ^= scratch[i];
                }
            }
            Op::Noise1 { kind, q, p } => {
                let q = q as usize;
                reference_sample_hits(p, shots, rng, |shot, rng| {
                    let (ex, ez) = match kind {
                        Noise1::XError => (true, false),
                        Noise1::ZError => (false, true),
                        Noise1::Depolarize1 => {
                            Pauli::ONE_QUBIT_ERRORS[rng.gen_range(0..3usize)].xz()
                        }
                    };
                    let (wi, b) = (shot / 64, shot % 64);
                    if ex {
                        fx[q * w + wi] ^= 1 << b;
                    }
                    if ez {
                        fz[q * w + wi] ^= 1 << b;
                    }
                });
            }
            Op::Depolarize2 { a, b, p } => {
                let (a, b) = (a as usize, b as usize);
                reference_sample_hits(p, shots, rng, |shot, rng| {
                    let (pa, pb) = Pauli::TWO_QUBIT_ERRORS[rng.gen_range(0..15usize)];
                    let (wi, bit) = (shot / 64, shot % 64);
                    let (ax, az) = pa.xz();
                    let (bx, bz) = pb.xz();
                    if ax {
                        fx[a * w + wi] ^= 1 << bit;
                    }
                    if az {
                        fz[a * w + wi] ^= 1 << bit;
                    }
                    if bx {
                        fx[b * w + wi] ^= 1 << bit;
                    }
                    if bz {
                        fz[b * w + wi] ^= 1 << bit;
                    }
                });
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

/// The geometric skip of the noise channels, with no first-draw
/// shortcut and the logarithm taken per channel.
fn reference_sample_hits<R: Rng>(
    p: f64,
    shots: usize,
    rng: &mut R,
    mut hit: impl FnMut(usize, &mut R),
) {
    if p <= 0.0 {
        return;
    }
    if p >= 1.0 {
        for s in 0..shots {
            hit(s, rng);
        }
        return;
    }
    let log1m = (1.0 - p).ln();
    let mut s: usize = 0;
    loop {
        // Geometric gap: floor(ln(U) / ln(1-p)).
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let gap = (u.ln() / log1m).floor();
        if !gap.is_finite() || gap >= (shots - s) as f64 {
            break;
        }
        s += gap as usize;
        hit(s, rng);
        s += 1;
        if s >= shots {
            break;
        }
    }
}
