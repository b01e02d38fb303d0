//! Vectorized Pauli-frame sampling of noisy circuit shots.
//!
//! Shots are packed 64 per machine word. Each shot's state is a Pauli
//! *frame* (a Pauli string) describing how that shot deviates from the
//! noiseless reference execution computed by the tableau simulator. All
//! extracted quantities (detectors, observables) are deterministic
//! parities, for which frame sampling is exact (Gidney, Stim 2021).
//!
//! Every output table is XOR-linear in the frame bits the random events
//! inject, so [`FrameProgram`] reads each event of a circuit (a noise
//! channel, a reset, a measurement, a qubit's initial |0>) as its
//! *symptom*, the detectors and observables it flips, from the crate's
//! one backward pass over the circuit, which the detector error model
//! ([`crate::dem`]) reads too. Sampling XORs the symptoms of the events
//! that fire and never interprets a gate, so a batch costs its hits,
//! not its circuit. The order in which it draws from the RNG is the
//! versioned sampler stream [`SAMPLER_STREAM`].

use crate::circuit::Circuit;
use crate::pauli::Pauli;
use crate::symptoms::{Channel, ChannelKind, Segment, Symptoms};
use rand::Rng;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A dense bit table: `rows` bit-rows of `shots` columns each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitTable {
    rows: usize,
    shots: usize,
    words_per_row: usize,
    data: Vec<u64>,
}

impl BitTable {
    /// Creates an all-zero table.
    pub fn zeros(rows: usize, shots: usize) -> Self {
        let words_per_row = shots.div_ceil(64).max(1);
        BitTable {
            rows,
            shots,
            words_per_row,
            data: vec![0; rows * words_per_row],
        }
    }

    /// Reshapes to an all-zero `rows` x `shots` table, keeping the
    /// allocation when it is large enough.
    pub fn reset(&mut self, rows: usize, shots: usize) {
        self.rows = rows;
        self.shots = shots;
        self.words_per_row = shots.div_ceil(64).max(1);
        self.data.clear();
        self.data.resize(rows * self.words_per_row, 0);
    }

    /// The number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The number of shot columns.
    pub fn shots(&self) -> usize {
        self.shots
    }

    /// Reads the bit for `(row, shot)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[inline]
    pub fn get(&self, row: usize, shot: usize) -> bool {
        assert!(row < self.rows && shot < self.shots, "index out of range");
        (self.data[row * self.words_per_row + shot / 64] >> (shot % 64)) & 1 == 1
    }

    /// Writes the bit for `(row, shot)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[inline]
    pub fn set(&mut self, row: usize, shot: usize, value: bool) {
        assert!(row < self.rows && shot < self.shots, "index out of range");
        let word = &mut self.data[row * self.words_per_row + shot / 64];
        let bit = 1u64 << (shot % 64);
        if value {
            *word |= bit;
        } else {
            *word &= !bit;
        }
    }

    /// Mutable word slice of one row.
    #[inline]
    pub fn row_mut(&mut self, row: usize) -> &mut [u64] {
        let w = self.words_per_row;
        &mut self.data[row * w..(row + 1) * w]
    }

    /// Word slice of one row.
    #[inline]
    pub fn row(&self, row: usize) -> &[u64] {
        let w = self.words_per_row;
        &self.data[row * w..(row + 1) * w]
    }

    /// XORs row `src` of `other` into row `dst` of `self`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ or rows are out of range.
    pub fn xor_row_from(&mut self, dst: usize, other: &BitTable, src: usize) {
        assert_eq!(
            self.words_per_row, other.words_per_row,
            "shot count mismatch"
        );
        let w = self.words_per_row;
        let d = &mut self.data[dst * w..(dst + 1) * w];
        let s = &other.data[src * w..(src + 1) * w];
        for (a, b) in d.iter_mut().zip(s) {
            *a ^= b;
        }
    }

    /// The number of set bits in a row (e.g. failures over shots).
    pub fn count_row(&self, row: usize) -> usize {
        self.row(row).iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Indices of set bits in a row, ascending.
    ///
    /// Thin wrapper over [`BitTable::ones_in_row_iter`]; hot paths
    /// should use the iterator directly to avoid the `Vec` allocation.
    pub fn ones_in_row(&self, row: usize) -> Vec<usize> {
        self.ones_in_row_iter(row).collect()
    }

    /// Iterates the indices of set bits in a row, ascending, without
    /// allocating.
    pub fn ones_in_row_iter(&self, row: usize) -> OnesInRow<'_> {
        OnesInRow {
            words: self.row(row),
            next_word: 0,
            current: 0,
            base: 0,
            shots: self.shots,
        }
    }
}

/// Iterator over the set-bit positions of one [`BitTable`] row; see
/// [`BitTable::ones_in_row_iter`].
#[derive(Debug, Clone)]
pub struct OnesInRow<'a> {
    words: &'a [u64],
    next_word: usize,
    current: u64,
    base: usize,
    shots: usize,
}

impl Iterator for OnesInRow<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            while self.current == 0 {
                if self.next_word == self.words.len() {
                    return None;
                }
                self.current = self.words[self.next_word];
                self.base = self.next_word * 64;
                self.next_word += 1;
            }
            let b = self.current.trailing_zeros() as usize;
            self.current &= self.current - 1;
            let shot = self.base + b;
            if shot < self.shots {
                return Some(shot);
            }
        }
    }
}

impl Default for BitTable {
    /// The empty table, `zeros(0, 0)`.
    fn default() -> Self {
        BitTable::zeros(0, 0)
    }
}

/// The outcome of sampling a batch of shots.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShotBatch {
    /// Detector flip bits: row = detector id, column = shot.
    pub detectors: BitTable,
    /// Observable flip bits: row = observable id, column = shot.
    pub observables: BitTable,
}

impl ShotBatch {
    /// The flagged detector ids for one shot, ascending.
    pub fn detection_events(&self, shot: usize) -> Vec<u32> {
        let mut out = Vec::new();
        for d in 0..self.detectors.rows() {
            if self.detectors.get(d, shot) {
                out.push(d as u32);
            }
        }
        out
    }

    /// Flagged detector ids for every shot, computed in one row-major
    /// scan (fast at low physical error rates).
    ///
    /// Each shot's events land in their own `Vec`; batch decoders
    /// should prefer [`ShotBatch::shot_events`], which packs all events
    /// into two flat arrays with no per-shot allocation.
    pub fn detection_events_by_shot(&self) -> Vec<Vec<u32>> {
        let mut out = vec![Vec::new(); self.detectors.shots()];
        for d in 0..self.detectors.rows() {
            for shot in self.detectors.ones_in_row_iter(d) {
                out[shot].push(d as u32);
            }
        }
        out
    }

    /// Flagged detector ids for every shot as a flat CSR-style index:
    /// one row-major scan collecting `(shot, detector)` pairs and
    /// per-shot counts, then a counting-sort scatter into the flat
    /// event array — events ascending within each shot (rows are
    /// visited in detector order), and the bit table is only walked
    /// once.
    pub fn shot_events(&self) -> ShotEvents {
        let shots = self.detectors.shots();
        let mut offsets = vec![0u32; shots + 1];
        // Popcount pre-pass (no per-event work) sizes the pair buffer
        // exactly, so the per-event scan never reallocates.
        let total: usize = (0..self.detectors.rows())
            .map(|d| self.detectors.count_row(d))
            .sum();
        let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(total);
        for d in 0..self.detectors.rows() {
            for shot in self.detectors.ones_in_row_iter(d) {
                offsets[shot + 1] += 1;
                pairs.push((shot as u32, d as u32));
            }
        }
        for s in 0..shots {
            offsets[s + 1] += offsets[s];
        }
        let mut cursor: Vec<u32> = offsets[..shots].to_vec();
        let mut events = vec![0u32; pairs.len()];
        for &(shot, d) in &pairs {
            events[cursor[shot as usize] as usize] = d;
            cursor[shot as usize] += 1;
        }
        ShotEvents { offsets, events }
    }
}

/// Detection events of a whole batch in flat CSR form: shot `s` owns
/// `events[offsets[s]..offsets[s + 1]]`, ascending. Built by
/// [`ShotBatch::shot_events`].
#[derive(Debug, Clone)]
pub struct ShotEvents {
    offsets: Vec<u32>,
    events: Vec<u32>,
}

impl ShotEvents {
    /// The number of shots indexed.
    pub fn shots(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The total number of detection events across all shots.
    pub fn total_events(&self) -> usize {
        self.events.len()
    }

    /// The flagged detector ids of one shot, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `shot` is out of range.
    #[inline]
    pub fn events_of(&self, shot: usize) -> &[u32] {
        &self.events[self.offsets[shot] as usize..self.offsets[shot + 1] as usize]
    }
}

/// Samples noisy shots of a circuit via batch Pauli-frame simulation.
///
/// A thin compile-then-run wrapper over [`FrameProgram`]: callers that
/// sample one circuit repeatedly should compile the program once and
/// reuse a [`FrameScratch`] instead.
///
/// # Examples
///
/// ```
/// use dqec_sim::circuit::{CheckBasis, Circuit, Noise1};
/// use dqec_sim::frame::FrameSampler;
/// use rand::SeedableRng;
///
/// let mut c = Circuit::new(1);
/// c.reset(0)?;
/// c.noise1(Noise1::XError, 0, 0.25)?;
/// let m = c.measure(0)?;
/// c.add_detector(&[m], CheckBasis::Z, (0, 0, 0))?;
///
/// let sampler = FrameSampler::new(&c);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let batch = sampler.sample(10_000, &mut rng);
/// let flips = batch.detectors.count_row(0);
/// assert!((1_800..3_200).contains(&flips), "~25% of shots flip");
/// # Ok::<(), dqec_sim::SimError>(())
/// ```
#[derive(Debug)]
pub struct FrameSampler<'a> {
    circuit: &'a Circuit,
}

impl<'a> FrameSampler<'a> {
    /// Creates a sampler for the given circuit.
    pub fn new(circuit: &'a Circuit) -> Self {
        FrameSampler { circuit }
    }

    /// Samples `shots` noisy executions and returns detector/observable
    /// flip tables.
    pub fn sample<R: Rng>(&self, shots: usize, rng: &mut R) -> ShotBatch {
        let mut scratch = FrameScratch::default();
        FrameProgram::new(self.circuit).sample(shots, rng, &mut scratch);
        scratch.batch
    }
}

impl ChannelKind {
    /// Draws the Pauli a firing channel places, as the `(x, z)` bits of
    /// its first qubit followed by those of its second.
    #[inline]
    fn draw<R: Rng>(self, rng: &mut R) -> [bool; 4] {
        match self {
            ChannelKind::X => [true, false, false, false],
            ChannelKind::Z => [false, true, false, false],
            ChannelKind::Depolarize1 => {
                let (x, z) = Pauli::ONE_QUBIT_ERRORS[rng.gen_range(0..3usize)].xz();
                [x, z, false, false]
            }
            ChannelKind::Depolarize2 => {
                let (pa, pb) = Pauli::TWO_QUBIT_ERRORS[rng.gen_range(0..15usize)];
                let ((ax, az), (bx, bz)) = (pa.xz(), pb.xz());
                [ax, az, bx, bz]
            }
        }
    }
}

/// One distinct firing probability of a program's noise channels: the
/// class one geometric walk covers.
#[derive(Debug, Clone, Copy)]
struct Class {
    p: f64,
    /// `ln(1 - p)`, which every gap of the walk divides by.
    log1m: f64,
    /// The class's channels are the ones `members[previous end..end]`
    /// index.
    end: u32,
}

/// The version of the draw order of [`FrameProgram::sample`], the
/// *sampler stream*. Tallies drawn under different streams must never
/// be combined, so the fingerprints that guard checkpoints and shard
/// merges mix it in.
///
/// Version 1 walked the circuit, drawing every gauge and running one
/// geometric walk per noise channel in circuit order. Version 2 draws
/// the live gauges first and then runs one walk per probability class.
pub const SAMPLER_STREAM: u64 = 2;

/// A [`Circuit`] compiled for repeated frame sampling: the *symptom* of
/// every random event — the detectors and observables (its outputs) it
/// flips — so that a batch costs its hits, not its circuit.
///
/// A shot's state is a Pauli frame, and every table is XOR-linear in
/// the frame bits injected into it. Each reset and measurement
/// randomizes its qubit's Z frame (Stim's model of collapse), and so
/// does the circuit's start, since every qubit begins in |0>; each
/// noise channel that fires places a Pauli. [`FrameProgram::new`] reads
/// every such event's symptom off the crate's one backward pass over
/// the circuit (the one [`crate::dem::ParametricDem`] reads too), and
/// sampling XORs each injected bit's symptom into its shot's column
/// without touching a gate.
///
/// A *gauge* (a random Z frame) whose Z row is empty is inert: no value
/// of its words can change a table, so it draws nothing.
/// [`FrameProgram::live_gauges`] lists the verdicts.
///
/// [`FrameProgram::sample`] draws in the order of stream version
/// [`SAMPLER_STREAM`]:
///
/// 1. Each live gauge, initial ones first in qubit order and then in
///    circuit order, draws one `u64` per 64 shots and at least one
///    (the last masked to the shot count, to nothing at 0 shots) and
///    XORs them into its symptom.
/// 2. Each class of channels with one probability `p > 0`, in order of
///    first appearance, runs one geometric walk over the positions
///    `channel × shots + shot`, its channels counted in circuit order.
///    Each gap is `floor(ln u / ln(1 − p))`, with `u` drawn by
///    `gen_range(f64::MIN_POSITIVE..1.0)`; `p ≥ 1` hits every position.
///    A hit on a depolarizing channel then draws its Pauli with
///    `gen_range(0..3)` or `gen_range(0..15)`.
///
/// So tables and the RNG's final position are a pure function of
/// `(circuit, shots, rng)`; the checkpoint, shard and serve
/// byte-identity contracts rest on that.
#[derive(Debug, Clone)]
pub struct FrameProgram {
    num_detectors: usize,
    num_observables: usize,
    /// The live gauges' segments of `outputs`, in draw order.
    gauges: Vec<Segment>,
    /// The classes in draw order.
    classes: Vec<Class>,
    /// The indices into `channels` of every class's channels, grouped
    /// by class, in circuit order within one.
    members: Vec<u32>,
    /// Every noise channel, in circuit order.
    channels: Vec<Channel>,
    /// Every symptom segment's outputs: detector `d` is `d`, observable
    /// `o` is `num_detectors + o`.
    outputs: Vec<u32>,
    /// One flag per gauge, see [`FrameProgram::live_gauges`].
    live: Vec<bool>,
}

/// Reusable working memory of [`FrameProgram::sample`]: the output
/// batch, whose tables grow to the largest `(circuit, shots)` sampled
/// and are then reused, so a warm sample allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct FrameScratch {
    batch: ShotBatch,
}

/// A stash of reusable working memory shared by the workers of one
/// parallel loop: each unit of work borrows a value for its duration
/// and returns it, so once every worker holds a warm value no unit
/// allocates. The frame sampler pools [`FrameScratch`]es in it and the
/// decoder its per-chunk decode state. Reuse must be invisible to
/// results; a value that caches results derived from state that
/// changes needs [`ScratchPool::clear`] when it does.
#[derive(Default)]
pub struct ScratchPool<T: Default> {
    stack: Mutex<Vec<T>>,
}

impl<T: Default> ScratchPool<T> {
    /// Runs `f` with a value borrowed from the pool (a fresh one when
    /// the pool is empty).
    pub fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let popped = self.lock().pop();
        let mut value = popped.unwrap_or_default();
        let out = f(&mut value);
        self.lock().push(value);
        out
    }

    /// Drops every pooled value.
    pub fn clear(&self) {
        self.lock().clear();
    }

    fn lock(&self) -> MutexGuard<'_, Vec<T>> {
        self.stack.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A clone starts cold: pooled values are derived state, and sharing
/// them across clones would couple their locking.
impl<T: Default> Clone for ScratchPool<T> {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl<T: Default> std::fmt::Debug for ScratchPool<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScratchPool")
            .field("pooled", &self.lock().len())
            .finish()
    }
}

impl FrameProgram {
    /// Compiles `circuit`: one backward pass gives every event its
    /// symptom, and the channels with `p > 0` are grouped into their
    /// probability classes.
    ///
    /// # Panics
    ///
    /// Panics on a two-qubit operation whose qubits coincide, which
    /// [`Circuit`]'s builder methods reject.
    pub fn new(circuit: &Circuit) -> Self {
        let Symptoms {
            num_detectors,
            outputs,
            mut gauges,
            channels,
            rates,
        } = Symptoms::of(circuit);

        // Count each class's channels, in order of first appearance,
        // then list them through one cursor per class.
        let mut classes: Vec<Class> = Vec::new();
        for &p in &rates {
            if p <= 0.0 {
                // A channel that never fires draws nothing.
                continue;
            }
            match classes.iter_mut().find(|c| c.p.to_bits() == p.to_bits()) {
                Some(class) => class.end += 1,
                None => classes.push(Class {
                    p,
                    log1m: (1.0 - p).ln(),
                    end: 1,
                }),
            }
        }
        let mut cursor = Vec::with_capacity(classes.len());
        let mut end = 0;
        for class in &mut classes {
            cursor.push(end as usize);
            end += class.end;
            class.end = end;
        }
        let mut members = vec![0; end as usize];
        for (i, &p) in rates.iter().enumerate() {
            if let Some(class) = classes.iter().position(|c| c.p.to_bits() == p.to_bits()) {
                members[cursor[class]] = i as u32;
                cursor[class] += 1;
            }
        }

        let live: Vec<bool> = gauges.iter().map(|&[start, end]| start < end).collect();
        gauges.retain(|&[start, end]| start < end);
        FrameProgram {
            num_detectors,
            num_observables: circuit.observables().len(),
            gauges,
            classes,
            members,
            channels,
            outputs,
            live,
        }
    }

    /// One flag per *gauge* (a random Z frame) of the circuit: first
    /// the initial |0> of each qubit, in qubit order, then every reset
    /// and measurement, in circuit order. A flag is set when the
    /// gauge's Z frame can flip some detector or observable.
    pub fn live_gauges(&self) -> &[bool] {
        &self.live
    }

    /// XORs `word` into word `i` of every output of `segment`.
    #[inline]
    fn flip(&self, batch: &mut ShotBatch, [start, end]: Segment, i: usize, word: u64) {
        for &out in &self.outputs[start as usize..end as usize] {
            let out = out as usize;
            let (table, row) = if out < self.num_detectors {
                (&mut batch.detectors, out)
            } else {
                (&mut batch.observables, out - self.num_detectors)
            };
            table.data[row * table.words_per_row + i] ^= word;
        }
    }

    /// Injects the Paulis `xz` (see [`ChannelKind::draw`]) of `channel`
    /// into shot `shot`.
    #[inline]
    fn hit(&self, batch: &mut ShotBatch, channel: &Channel, xz: [bool; 4], shot: usize) {
        let (i, bit) = (shot / 64, 1u64 << (shot % 64));
        for (on, &segment) in xz.into_iter().zip(&channel.segments) {
            if on {
                self.flip(batch, segment, i, bit);
            }
        }
    }

    /// Samples `shots` noisy executions into `scratch` and returns the
    /// detector/observable flip tables, which live in `scratch` until
    /// its next use.
    pub fn sample<'s, R: Rng>(
        &self,
        shots: usize,
        rng: &mut R,
        scratch: &'s mut FrameScratch,
    ) -> &'s ShotBatch {
        let w = shots.div_ceil(64).max(1);
        let batch = &mut scratch.batch;
        batch.detectors.reset(self.num_detectors, shots);
        batch.observables.reset(self.num_observables, shots);

        // Mask to keep random bits within the shot count in the last
        // word; at 0 shots that word is padding, and keeps no bit.
        let tail_mask = match shots % 64 {
            0 if shots == 0 => 0,
            0 => u64::MAX,
            tail => (1u64 << tail) - 1,
        };
        for &segment in &self.gauges {
            for i in 0..w {
                let r: u64 = rng.gen();
                let word = if i == w - 1 { r & tail_mask } else { r };
                self.flip(batch, segment, i, word);
            }
        }
        let mut start = 0;
        for class in &self.classes {
            let members = &self.members[start..class.end as usize];
            start = class.end as usize;
            sample_hits(class, members.len() * shots, rng, |at, rng| {
                let channel = &self.channels[members[at / shots] as usize];
                let xz = channel.kind.draw(rng);
                self.hit(batch, channel, xz, at % shots);
            });
        }
        batch
    }
}

/// Calls `hit(position, rng)`, ascending, for each of `positions`
/// positions independently selected with probability `class.p`, by
/// geometric skipping: the cost follows the number of hits, not of
/// positions. Draws nothing when there are no positions.
fn sample_hits<R: Rng>(
    class: &Class,
    positions: usize,
    rng: &mut R,
    mut hit: impl FnMut(usize, &mut R),
) {
    if positions == 0 {
        return;
    }
    if class.p >= 1.0 {
        for at in 0..positions {
            hit(at, rng);
        }
        return;
    }
    let mut at: usize = 0;
    loop {
        // Geometric gap: floor(ln(U) / ln(1-p)).
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let gap = (u.ln() / class.log1m).floor();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{CheckBasis, Noise1};
    use crate::frame_oracle::assert_program_matches;
    use crate::random_circuit::random_circuit;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x5eed)
    }

    /// The liveness of every reset and measurement of `c`, compiled to
    /// `program`, in circuit order.
    fn live_flags(program: &FrameProgram, c: &Circuit) -> Vec<bool> {
        program.live_gauges()[c.num_qubits() as usize..].to_vec()
    }

    #[test]
    fn program_matches_reference_interpreter() {
        let mut seeds = StdRng::seed_from_u64(0xf4a3e);
        let (mut live, mut inert) = (0, 0);
        for _ in 0..150 {
            let seed = seeds.gen_range(0..u64::MAX);
            let mut gen = StdRng::seed_from_u64(seed);
            let c = random_circuit(&mut gen, false);
            let program = FrameProgram::new(&c);
            let flags = program.live_gauges();
            live += flags.iter().filter(|&&l| l).count();
            inert += flags.iter().filter(|&&l| !l).count();
            for shots in [0usize, 1, 16, 63, 64, 65, 1000, 4096] {
                let std = StdRng::seed_from_u64(seed ^ 1);
                assert_program_matches(&program, &c, shots, &std);
                // The cursor the sweep checkpoints would persist.
                let chacha = ChaCha8Rng::seed_from_u64(seed ^ 2);
                let (ours, theirs) = assert_program_matches(&program, &c, shots, &chacha);
                assert_eq!(ours.word_pos(), theirs.word_pos(), "seed {seed}");
            }
            // A 0-shot batch has no bits, padding included, though each
            // live gauge still draws its one word.
            let mut scratch = FrameScratch::default();
            let empty = program.sample(0, &mut StdRng::seed_from_u64(seed), &mut scratch);
            for table in [&empty.detectors, &empty.observables] {
                for row in 0..table.rows() {
                    assert_eq!(table.count_row(row), 0, "seed {seed}: 0-shot row {row}");
                }
            }
        }
        // Both branches of the sampler's gauge step were exercised.
        assert!(
            live > 0 && inert > 0,
            "{live} live and {inert} inert gauges"
        );
    }

    /// One step of a circuit for [`hand_built`].
    #[derive(Clone, Copy)]
    enum Step {
        R(u32),
        H(u32),
        S(u32),
        Cx(u32, u32),
        Cz(u32, u32),
        /// A measurement; the last one of a circuit feeds its detector.
        M(u32),
    }

    /// The two-qubit circuit of `steps` with one detector on its last
    /// measurement, and its program, checked against the interpreter
    /// under `StdRng` and ChaCha8 (`word_pos` included).
    fn hand_built(steps: &[Step]) -> (Circuit, FrameProgram) {
        let mut c = Circuit::new(2);
        let mut last = None;
        for &step in steps {
            match step {
                Step::R(q) => c.reset(q).unwrap(),
                Step::H(q) => c.h(q).unwrap(),
                Step::S(q) => c.s(q).unwrap(),
                Step::Cx(a, b) => c.cx(a, b).unwrap(),
                Step::Cz(a, b) => c.cz(a, b).unwrap(),
                Step::M(q) => last = Some(c.measure(q).unwrap()),
            }
        }
        c.add_detector(&[last.unwrap()], CheckBasis::Z, (0, 0, 0))
            .unwrap();
        let program = FrameProgram::new(&c);
        for shots in [1, 64, 100, 4096] {
            assert_program_matches(&program, &c, shots, &rng());
            let chacha = ChaCha8Rng::seed_from_u64(3);
            let (ours, theirs) = assert_program_matches(&program, &c, shots, &chacha);
            assert_eq!(ours.word_pos(), theirs.word_pos());
        }
        (c, program)
    }

    /// The live flags of [`hand_built`]`(steps)`.
    fn gauge_verdicts(steps: &[Step]) -> Vec<bool> {
        let (c, program) = hand_built(steps);
        live_flags(&program, &c)
    }

    #[test]
    fn gauge_verdicts_follow_every_backward_rule() {
        use Step::*;
        let (t, f) = (true, false);
        // H turns the reset's Z into the measured X (see
        // `live_gauge_stays_random`); twice, it does not.
        assert_eq!(gauge_verdicts(&[R(0), H(0), H(0), M(0)]), [f, f]);
        // S adds Z to an X frame: H S H leaves Z's image in X.
        assert_eq!(gauge_verdicts(&[R(0), H(0), S(0), H(0), M(0)]), [t, f]);
        // CX copies the control's X to the target...
        assert_eq!(
            gauge_verdicts(&[R(0), R(1), H(0), Cx(0, 1), M(1)]),
            [t, f, f]
        );
        // ...and the target's Z to the control.
        assert_eq!(
            gauge_verdicts(&[R(0), R(1), Cx(0, 1), H(0), M(0)]),
            [t, t, f]
        );
        // CZ adds each qubit's X to the other's Z.
        assert_eq!(
            gauge_verdicts(&[R(0), R(1), H(0), Cz(0, 1), H(1), M(1)]),
            [t, t, f]
        );
        // A measurement's own random Z is a gauge too.
        assert_eq!(gauge_verdicts(&[R(0), M(0), H(0), M(0)]), [t, t, f]);
        // A reset erases whatever an earlier gauge put on the qubit.
        assert_eq!(gauge_verdicts(&[R(0), H(0), R(0), M(0)]), [f, f, f]);
    }

    #[test]
    fn live_gauge_stays_random() {
        // Reset, H, measure: the reset's random Z frame becomes the
        // measured X frame, so the detector is a fair coin.
        let (c, program) = hand_built(&[Step::R(0), Step::H(0), Step::M(0)]);
        assert_eq!(live_flags(&program, &c), [true, false]);
        let shots = 4096;
        let fires = program
            .sample(shots, &mut rng(), &mut FrameScratch::default())
            .detectors
            .count_row(0);
        // Binomial(4096, 1/2): mean 2048, sigma 32; 5 sigma each way.
        assert!((1888..=2208).contains(&fires), "{fires} of {shots} fired");
    }

    #[test]
    fn bit_table_roundtrip() {
        let mut t = BitTable::zeros(2, 130);
        t.row_mut(1)[2] |= 1; // shot 128
        assert!(t.get(1, 128));
        assert!(!t.get(1, 127));
        assert_eq!(t.ones_in_row(1), vec![128]);
        assert_eq!(t.count_row(1), 1);
    }

    fn count_hits(p: f64, positions: usize) -> usize {
        let class = Class {
            p,
            log1m: (1.0 - p).ln(),
            end: 0,
        };
        let mut n = 0usize;
        sample_hits(&class, positions, &mut rng(), |_, _| n += 1);
        n
    }

    #[test]
    fn sample_hits_density_matches() {
        let n = count_hits(0.01, 100_000);
        assert!((700..1350).contains(&n), "got {n} hits for p=0.01");
    }

    #[test]
    fn sample_hits_extremes() {
        assert_eq!(count_hits(0.0, 1000), 0);
        assert_eq!(count_hits(1.0, 1000), 1000);
    }

    #[test]
    fn x_error_flips_z_measurement() {
        let mut c = Circuit::new(1);
        c.reset(0).unwrap();
        c.noise1(Noise1::XError, 0, 1.0).unwrap();
        let m = c.measure(0).unwrap();
        c.add_detector(&[m], CheckBasis::Z, (0, 0, 0)).unwrap();
        let batch = FrameSampler::new(&c).sample(100, &mut rng());
        assert_eq!(batch.detectors.count_row(0), 100);
    }

    #[test]
    fn z_error_does_not_flip_z_measurement() {
        let mut c = Circuit::new(1);
        c.reset(0).unwrap();
        c.noise1(Noise1::ZError, 0, 1.0).unwrap();
        let m = c.measure(0).unwrap();
        c.add_detector(&[m], CheckBasis::Z, (0, 0, 0)).unwrap();
        let batch = FrameSampler::new(&c).sample(100, &mut rng());
        assert_eq!(batch.detectors.count_row(0), 0);
    }

    #[test]
    fn z_error_flips_after_hadamard() {
        let mut c = Circuit::new(1);
        c.reset(0).unwrap();
        c.h(0).unwrap();
        c.noise1(Noise1::ZError, 0, 1.0).unwrap();
        c.h(0).unwrap();
        let m = c.measure(0).unwrap();
        c.add_detector(&[m], CheckBasis::Z, (0, 0, 0)).unwrap();
        let batch = FrameSampler::new(&c).sample(64, &mut rng());
        assert_eq!(batch.detectors.count_row(0), 64);
    }

    #[test]
    fn cx_propagates_x_to_target() {
        let mut c = Circuit::new(2);
        c.reset(0).unwrap();
        c.reset(1).unwrap();
        c.noise1(Noise1::XError, 0, 1.0).unwrap();
        c.cx(0, 1).unwrap();
        let m = c.measure(1).unwrap();
        c.add_detector(&[m], CheckBasis::Z, (0, 0, 0)).unwrap();
        let batch = FrameSampler::new(&c).sample(10, &mut rng());
        assert_eq!(batch.detectors.count_row(0), 10);
    }

    #[test]
    fn reset_clears_errors() {
        let mut c = Circuit::new(1);
        c.reset(0).unwrap();
        c.noise1(Noise1::XError, 0, 1.0).unwrap();
        c.reset(0).unwrap();
        let m = c.measure(0).unwrap();
        c.add_detector(&[m], CheckBasis::Z, (0, 0, 0)).unwrap();
        let batch = FrameSampler::new(&c).sample(50, &mut rng());
        assert_eq!(batch.detectors.count_row(0), 0);
    }

    #[test]
    fn depolarize1_flips_about_two_thirds() {
        let mut c = Circuit::new(1);
        c.reset(0).unwrap();
        c.noise1(Noise1::Depolarize1, 0, 1.0).unwrap();
        let m = c.measure(0).unwrap();
        c.add_detector(&[m], CheckBasis::Z, (0, 0, 0)).unwrap();
        let shots = 30_000;
        let batch = FrameSampler::new(&c).sample(shots, &mut rng());
        let frac = batch.detectors.count_row(0) as f64 / shots as f64;
        assert!((frac - 2.0 / 3.0).abs() < 0.02, "X or Y flip: got {frac}");
    }

    #[test]
    fn observable_tracks_logical_flip() {
        // Repetition "code": observable = Z0 via final measurement.
        let mut c = Circuit::new(1);
        c.reset(0).unwrap();
        c.noise1(Noise1::XError, 0, 0.5).unwrap();
        let m = c.measure(0).unwrap();
        c.include_observable(0, &[m]).unwrap();
        let shots = 20_000;
        let batch = FrameSampler::new(&c).sample(shots, &mut rng());
        let frac = batch.observables.count_row(0) as f64 / shots as f64;
        assert!((frac - 0.5).abs() < 0.02, "got {frac}");
    }

    #[test]
    fn detection_events_by_shot_matches_naive() {
        let mut c = Circuit::new(2);
        for q in 0..2 {
            c.reset(q).unwrap();
            c.noise1(Noise1::XError, q, 0.3).unwrap();
        }
        let m0 = c.measure(0).unwrap();
        let m1 = c.measure(1).unwrap();
        c.add_detector(&[m0], CheckBasis::Z, (0, 0, 0)).unwrap();
        c.add_detector(&[m1], CheckBasis::Z, (1, 0, 0)).unwrap();
        let batch = FrameSampler::new(&c).sample(777, &mut rng());
        let by_shot = batch.detection_events_by_shot();
        for shot in [0usize, 1, 100, 776] {
            assert_eq!(by_shot[shot], batch.detection_events(shot));
        }
    }

    #[test]
    fn ones_in_row_iter_matches_vec_form() {
        let mut t = BitTable::zeros(1, 200);
        for shot in [0usize, 63, 64, 65, 128, 199] {
            t.set(0, shot, true);
        }
        let from_iter: Vec<usize> = t.ones_in_row_iter(0).collect();
        assert_eq!(from_iter, t.ones_in_row(0));
        assert_eq!(from_iter, vec![0, 63, 64, 65, 128, 199]);
        // Clearing a bit works too.
        t.set(0, 64, false);
        assert_eq!(t.ones_in_row(0), vec![0, 63, 65, 128, 199]);
        // An all-zero row yields nothing without allocating.
        let z = BitTable::zeros(1, 100);
        assert_eq!(z.ones_in_row_iter(0).next(), None);
    }

    #[test]
    fn shot_events_matches_per_shot_vectors() {
        let mut c = Circuit::new(3);
        for q in 0..3 {
            c.reset(q).unwrap();
            c.noise1(Noise1::XError, q, 0.25).unwrap();
        }
        for q in 0..3 {
            let m = c.measure(q).unwrap();
            c.add_detector(&[m], CheckBasis::Z, (q as i32, 0, 0))
                .unwrap();
        }
        let batch = FrameSampler::new(&c).sample(513, &mut rng());
        let flat = batch.shot_events();
        let by_shot = batch.detection_events_by_shot();
        assert_eq!(flat.shots(), 513);
        let total: usize = by_shot.iter().map(Vec::len).sum();
        assert_eq!(flat.total_events(), total);
        for (shot, events) in by_shot.iter().enumerate() {
            assert_eq!(flat.events_of(shot), events.as_slice());
        }
    }
}
