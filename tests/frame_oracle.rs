//! Frame sampling against the forward interpreter, on the circuits
//! the paper's figures are built from: adapted l = 5, 7 and 9 memory
//! patches under both defect models (so super-stabilizer gauge
//! schedules and deformed boundaries are in the circuit), with and
//! without a bad qubit, and defective 4 × 4 and 6 × 6 stability
//! patches, noised by the paper's model. At 16, 512, 1024 and 4096
//! shots, under ChaCha8 and `StdRng`, `FrameProgram::sample` must equal
//! the interpreter bit for bit and leave the generator where the
//! interpreter leaves it: both draw by sampler stream 2, the program
//! from its compiled symptoms, the interpreter by walking the gates.
//! l = 11 and 13 are `#[ignore]`d; run them with
//! `cargo test --release -- --ignored`.

use dqec::chiplet::runner::default_rounds;
use dqec::chiplet::DefectModel;
use dqec::core::{memory_z, stability, AdaptedPatch, PatchLayout};
use dqec::sim::noise::NoiseModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

// The oracle is written against `crate::{circuit, frame, pauli}`.
use dqec::sim::{circuit, frame, pauli};

#[path = "../crates/sim/tests/support/frame_oracle.rs"]
mod oracle;

const SHOTS: [usize; 4] = [16, 512, 1024, 4096];

/// Draws defective `model` patches of `layout` until one is valid, has
/// a defect and `build` turns it into a circuit.
fn defective(
    layout: &PatchLayout,
    model: DefectModel,
    rng: &mut StdRng,
    build: impl Fn(&AdaptedPatch) -> Option<circuit::Circuit>,
) -> circuit::Circuit {
    for _ in 0..10_000 {
        let defects = model.sample(layout, 0.02, rng);
        let patch = AdaptedPatch::new(layout.clone(), &defects);
        if defects.is_empty() || !patch.is_valid() {
            continue;
        }
        if let Some(c) = build(&patch) {
            return c;
        }
    }
    panic!("no usable {model:?} patch drawn");
}

/// Noises `clean` at a random operating-point rate, with one bad qubit
/// when `bad_qubit` is set, and checks program against interpreter at
/// every shot count under both generators.
fn check(name: &str, clean: &circuit::Circuit, bad_qubit: bool, rng: &mut StdRng) {
    let mut model = NoiseModel::new(rng.gen_range(5e-4..2e-3));
    if bad_qubit {
        model = model.with_bad_qubit(rng.gen_range(0..clean.num_qubits()), 0.1);
    }
    let noisy = model.apply(clean);
    let program = frame::FrameProgram::new(&noisy);
    for shots in SHOTS {
        let seed = rng.gen_range(0..u64::MAX);
        let std = StdRng::seed_from_u64(seed);
        oracle::assert_program_matches(&program, &noisy, shots, &std);
        let chacha = ChaCha8Rng::seed_from_u64(seed);
        let (ours, theirs) = oracle::assert_program_matches(&program, &noisy, shots, &chacha);
        assert_eq!(
            ours.word_pos(),
            theirs.word_pos(),
            "{name}: ChaCha8 word_pos at {shots} shots"
        );
    }
}

fn memory_patches(ls: &[u32], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for &l in ls {
        for model in [DefectModel::LinkOnly, DefectModel::LinkAndQubit] {
            let clean = defective(&PatchLayout::memory(l), model, &mut rng, |patch| {
                memory_z(patch, default_rounds(patch))
                    .ok()
                    .map(|e| e.circuit)
            });
            for bad_qubit in [false, true] {
                let name = format!("memory l = {l}, {model:?}, bad qubit {bad_qubit}");
                check(&name, &clean, bad_qubit, &mut rng);
            }
        }
    }
}

#[test]
fn program_matches_the_interpreter_on_defective_memory_patches() {
    memory_patches(&[5, 7, 9], 0xf4a3_0001);
}

#[test]
fn program_matches_the_interpreter_on_defective_stability_patches() {
    let mut rng = StdRng::seed_from_u64(0xf4a3_0002);
    for size in [4u32, 6] {
        for model in [DefectModel::LinkOnly, DefectModel::LinkAndQubit] {
            let layout = PatchLayout::stability(size, size);
            let clean = defective(&layout, model, &mut rng, |patch| {
                stability(patch, size).ok().map(|e| e.circuit)
            });
            let name = format!("stability {size} × {size}, {model:?}");
            check(&name, &clean, false, &mut rng);
        }
    }
}

#[test]
#[ignore = "l = 11 and 13; seconds in release"]
fn program_matches_the_interpreter_on_large_memory_patches() {
    memory_patches(&[11, 13], 0xf4a3_0003);
}
