//! Vectorized Pauli-frame sampling of noisy circuit shots.
//!
//! Shots are packed 64 per machine word. Each shot's state is a Pauli
//! *frame* (a Pauli string) describing how that shot deviates from the
//! noiseless reference execution computed by the tableau simulator. All
//! extracted quantities (detectors, observables) are deterministic
//! parities, for which frame sampling is exact (Gidney, Stim 2021).

use crate::circuit::{Circuit, Gate1, Gate2, Noise1, Op};
use crate::pauli::Pauli;
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

/// One instruction of a [`FrameProgram`]. Qubits index frame rows;
/// `prob` indexes the program's table of distinct noise probabilities;
/// the `k`-th `Measure` of the program owns the `k`-th span of the
/// detector and observable feed lists. `live` marks a reset or
/// measurement whose random Z frame can reach a detector or observable
/// (see [`FrameProgram::mark_live_gauges`]).
#[derive(Debug, Clone, Copy)]
enum Instr {
    H { q: u32 },
    S { q: u32 },
    Cx { c: u32, t: u32 },
    Cz { a: u32, b: u32 },
    Reset { q: u32, live: bool },
    Measure { q: u32, live: bool },
    Noise1 { kind: Noise1, q: u32, prob: u32 },
    Depolarize2 { a: u32, b: u32, prob: u32 },
}

/// Relative slack of the first-draw no-hit threshold, see
/// [`NoiseProb::no_hit_threshold`].
const NO_HIT_SLACK: f64 = 1e-9;

/// One distinct firing probability of a program's noise channels, with
/// the logarithm the geometric skip divides by computed once.
#[derive(Debug, Clone, Copy)]
struct NoiseProb {
    p: f64,
    /// `ln(1 - p)`.
    log1m: f64,
}

impl NoiseProb {
    fn new(p: f64) -> Self {
        NoiseProb {
            p,
            log1m: (1.0 - p).ln(),
        }
    }

    /// A bound `thr` such that a first geometric draw `u < thr` is
    /// certain to skip past all `shots` shots, so the channel fires on
    /// no shot of the batch and [`sample_hits`] may return without
    /// evaluating `ln(u)`.
    ///
    /// The exact test is `floor(ln(u) / log1m) >= shots`, which in real
    /// arithmetic is `u <= (1-p)^shots = exp(shots·log1m)`. Error
    /// budget of the shortcut: `u < thr = exp(x)·(1-ε)` with
    /// `x = shots·log1m` puts `ln(u)/log1m` at least `ε/|log1m|` above
    /// `shots`, a *relative* margin of `ε/|x|`. `thr` is only above
    /// `f64::MIN_POSITIVE` (and `u` never is below it) for `|x| < 709`,
    /// so the margin is at least `1e-9/709 ≈ 1.4e-12`; against it stand
    /// the rounding of the product `x` (2⁻⁵³ relative, amplified by
    /// `|x|` through `exp`: < 8e-14), of `exp` and `ln` (≤ 1 ulp each)
    /// and of the division (½ ulp) — under 1e-13 in total. A draw at or
    /// above `thr` falls through to the exact expression, so the
    /// shortcut never changes a result; ε only sets how rarely
    /// (probability ε·(1-p)^shots) a no-hit draw still pays for `ln`.
    fn no_hit_threshold(&self, shots: usize) -> f64 {
        (shots as f64 * self.log1m).exp() * (1.0 - NO_HIT_SLACK)
    }
}

/// A [`Circuit`] compiled for repeated frame sampling: a flat
/// instruction list (identity gates and ticks dropped), per-measurement
/// lists of the detector and observable rows the measurement feeds (so
/// record flips are XORed straight into the output tables and no
/// record table exists), and the table of distinct noise probabilities.
///
/// [`FrameProgram::sample`] advances the RNG in exactly the order the
/// circuit's operations prescribe — by one `u64` per 64 shots for each
/// reset and each measurement, one geometric draw sequence per noise
/// channel — so tables and the RNG's final position are a pure function
/// of `(circuit, shots, rng)`; the checkpoint, shard and serve
/// byte-identity contracts rest on that.
///
/// Each reset and measurement randomizes its qubit's Z frame (Stim's
/// model of collapse). [`FrameProgram::new`] marks such a *gauge* live
/// when that random Z frame can flip some detector or observable, which
/// one backward pass over the instructions decides: a gate maps the
/// detectors and observables each frame bit reaches as it maps frames,
/// and a gauge is live iff its qubit's Z bit reaches any just after it.
/// An inert gauge's words cannot change any table, so the sampler skips
/// them with [`rand::RngCore::discard_u64s`] instead of generating
/// them: the tables and the RNG's position are those of drawing every
/// word.
#[derive(Debug, Clone)]
pub struct FrameProgram {
    num_qubits: usize,
    instrs: Vec<Instr>,
    probs: Vec<NoiseProb>,
    /// CSR over measurements: measurement `k` feeds detector rows
    /// `det_rows[det_offsets[k]..det_offsets[k + 1]]`.
    det_offsets: Vec<u32>,
    det_rows: Vec<u32>,
    /// The same for observable rows.
    obs_offsets: Vec<u32>,
    obs_rows: Vec<u32>,
    num_detectors: usize,
    num_observables: usize,
}

/// Reusable working memory of [`FrameProgram::sample`]: the X and Z
/// frame tables, the per-probability no-hit thresholds, and the output
/// batch. Buffers grow to the largest `(circuit, shots)` sampled and
/// are then reused, so a warm sample allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct FrameScratch {
    fx: Vec<u64>,
    fz: Vec<u64>,
    thresholds: Vec<f64>,
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

/// CSR feed lists from per-target record lists: `rows` of measurement
/// `k` are the targets listing record `k`, once per listing (a record
/// listed twice cancels, as it did in the record table).
fn feeds<'a>(
    num_measurements: usize,
    targets: impl Iterator<Item = &'a [u32]> + Clone,
) -> (Vec<u32>, Vec<u32>) {
    let mut offsets = vec![0u32; num_measurements + 1];
    for records in targets.clone() {
        for &r in records {
            offsets[r as usize + 1] += 1;
        }
    }
    for k in 0..num_measurements {
        offsets[k + 1] += offsets[k];
    }
    let mut cursor = offsets.clone();
    let mut rows = vec![0u32; offsets[num_measurements] as usize];
    for (row, records) in targets.enumerate() {
        for &r in records {
            rows[cursor[r as usize] as usize] = row as u32;
            cursor[r as usize] += 1;
        }
    }
    (offsets, rows)
}

/// Rows `a != b` of a `w`-words-per-row table, both mutable.
#[inline]
fn two_rows(table: &mut [u64], w: usize, a: usize, b: usize) -> (&mut [u64], &mut [u64]) {
    if a < b {
        let (lo, hi) = table.split_at_mut(b * w);
        (&mut lo[a * w..(a + 1) * w], &mut hi[..w])
    } else {
        let (lo, hi) = table.split_at_mut(a * w);
        (&mut hi[..w], &mut lo[b * w..(b + 1) * w])
    }
}

#[inline]
fn xor_into(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= *s;
    }
}

impl FrameProgram {
    /// Compiles `circuit`.
    ///
    /// # Panics
    ///
    /// Panics on a two-qubit operation whose qubits coincide, which
    /// [`Circuit`]'s builder methods reject.
    pub fn new(circuit: &Circuit) -> Self {
        let mut instrs = Vec::with_capacity(circuit.ops().len());
        let mut probs: Vec<NoiseProb> = Vec::new();
        let mut prob_index = |p: f64| -> u32 {
            let at = probs
                .iter()
                .position(|known| known.p.to_bits() == p.to_bits())
                .unwrap_or_else(|| {
                    probs.push(NoiseProb::new(p));
                    probs.len() - 1
                });
            at as u32
        };
        for op in circuit.ops() {
            if let Op::Gate2 { a, b, .. } | Op::Depolarize2 { a, b, .. } = *op {
                assert_ne!(a, b, "two-qubit operation on one qubit");
            }
            instrs.push(match *op {
                Op::Gate1 { kind: Gate1::H, q } => Instr::H { q },
                Op::Gate1 { kind: Gate1::S, q } => Instr::S { q },
                // Paulis commute with a Pauli frame up to sign.
                Op::Gate1 { .. } | Op::Tick => continue,
                Op::Gate2 {
                    kind: Gate2::Cx,
                    a,
                    b,
                } => Instr::Cx { c: a, t: b },
                Op::Gate2 {
                    kind: Gate2::Cz,
                    a,
                    b,
                } => Instr::Cz { a, b },
                Op::Reset { q } => Instr::Reset { q, live: true },
                Op::Measure { q } => Instr::Measure { q, live: true },
                Op::Noise1 { kind, q, p } => Instr::Noise1 {
                    kind,
                    q,
                    prob: prob_index(p),
                },
                Op::Depolarize2 { a, b, p } => Instr::Depolarize2 {
                    a,
                    b,
                    prob: prob_index(p),
                },
            });
        }
        let m = circuit.num_measurements() as usize;
        let (det_offsets, det_rows) =
            feeds(m, circuit.detectors().iter().map(|d| d.records.as_slice()));
        let (obs_offsets, obs_rows) = feeds(m, circuit.observables().iter().map(Vec::as_slice));
        let mut program = FrameProgram {
            num_qubits: circuit.num_qubits() as usize,
            instrs,
            probs,
            det_offsets,
            det_rows,
            obs_offsets,
            obs_rows,
            num_detectors: circuit.detectors().len(),
            num_observables: circuit.observables().len(),
        };
        program.mark_live_gauges();
        program
    }

    /// Sets `live` on every reset and measurement whose random Z frame
    /// can flip a detector or observable, in one backward pass.
    ///
    /// Each qubit carries an X and a Z *sensitivity row*: the set of
    /// detectors and observables (one bit each, observables after the
    /// detectors) that an X or Z frame bit on the qubit at that point
    /// would flip. Walking the program backwards from empty rows, each
    /// gate conjugates the rows as it conjugates frames (H swaps them,
    /// S does `x ^= z`, CX(c, t) does `x[c] ^= x[t]` and
    /// `z[t] ^= z[c]`, CZ(a, b) does `x[a] ^= z[b]` and
    /// `x[b] ^= z[a]`). A measurement is live iff `z[q]` is non-empty
    /// just after it, and then adds the rows it feeds to `x[q]`, since
    /// an X bit flips its record and survives it. A reset is live iff
    /// `z[q]` is non-empty just after it, and then clears both rows,
    /// since no earlier frame bit on `q` survives it. Noise never
    /// changes which bits reach the outputs, only whether they are set.
    ///
    /// Tables are XOR-linear in the injected frame bits, so a gauge
    /// whose rows are empty contributes nothing for any value of its
    /// random words.
    fn mark_live_gauges(&mut self) {
        let w = (self.num_detectors + self.num_observables).div_ceil(64);
        let (mut sx, mut sz) = (
            vec![0u64; self.num_qubits * w],
            vec![0u64; self.num_qubits * w],
        );
        let row = |q: u32| q as usize * w..(q as usize + 1) * w;
        let mut k = self.det_offsets.len() - 1;
        for instr in self.instrs.iter_mut().rev() {
            match instr {
                Instr::H { q } => sx[row(*q)].swap_with_slice(&mut sz[row(*q)]),
                Instr::S { q } => xor_into(&mut sx[row(*q)], &sz[row(*q)]),
                Instr::Cx { c, t } => {
                    let (xc, xt) = two_rows(&mut sx, w, *c as usize, *t as usize);
                    xor_into(xc, xt);
                    let (zc, zt) = two_rows(&mut sz, w, *c as usize, *t as usize);
                    xor_into(zt, zc);
                }
                Instr::Cz { a, b } => {
                    xor_into(&mut sx[row(*a)], &sz[row(*b)]);
                    xor_into(&mut sx[row(*b)], &sz[row(*a)]);
                }
                Instr::Measure { q, live } => {
                    k -= 1;
                    *live = sz[row(*q)].iter().any(|&word| word != 0);
                    let x = &mut sx[row(*q)];
                    let dets = &self.det_rows
                        [self.det_offsets[k] as usize..self.det_offsets[k + 1] as usize];
                    let obs = self.obs_rows
                        [self.obs_offsets[k] as usize..self.obs_offsets[k + 1] as usize]
                        .iter()
                        .map(|&o| o as usize + self.num_detectors);
                    for bit in dets.iter().map(|&d| d as usize).chain(obs) {
                        x[bit / 64] ^= 1 << (bit % 64);
                    }
                }
                Instr::Reset { q, live } => {
                    *live = sz[row(*q)].iter().any(|&word| word != 0);
                    sx[row(*q)].fill(0);
                    sz[row(*q)].fill(0);
                }
                Instr::Noise1 { .. } | Instr::Depolarize2 { .. } => {}
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
        let FrameScratch {
            fx,
            fz,
            thresholds,
            batch,
        } = scratch;
        for frame in [&mut *fx, &mut *fz] {
            frame.clear();
            frame.resize(self.num_qubits * w, 0);
        }
        thresholds.clear();
        thresholds.extend(self.probs.iter().map(|pr| pr.no_hit_threshold(shots)));
        batch.detectors.reset(self.num_detectors, shots);
        batch.observables.reset(self.num_observables, shots);

        // Mask to keep random bits within the shot count in the last word.
        let tail_bits = shots % 64;
        let tail_mask = if tail_bits == 0 {
            u64::MAX
        } else {
            (1u64 << tail_bits) - 1
        };
        let random_word = |i: usize, rng: &mut R| -> u64 {
            let r: u64 = rng.gen();
            if i == w - 1 {
                r & tail_mask
            } else {
                r
            }
        };

        let mut measurement = 0usize;
        for instr in &self.instrs {
            match *instr {
                Instr::H { q } => {
                    let q = q as usize;
                    fx[q * w..(q + 1) * w].swap_with_slice(&mut fz[q * w..(q + 1) * w]);
                }
                Instr::S { q } => {
                    let q = q as usize;
                    xor_into(&mut fz[q * w..(q + 1) * w], &fx[q * w..(q + 1) * w]);
                }
                Instr::Cx { c, t } => {
                    let (xc, xt) = two_rows(fx, w, c as usize, t as usize);
                    xor_into(xt, xc);
                    let (zc, zt) = two_rows(fz, w, c as usize, t as usize);
                    xor_into(zc, zt);
                }
                Instr::Cz { a, b } => {
                    let (a, b) = (a as usize, b as usize);
                    let (za, zb) = two_rows(fz, w, a, b);
                    xor_into(za, &fx[b * w..(b + 1) * w]);
                    xor_into(zb, &fx[a * w..(a + 1) * w]);
                }
                Instr::Reset { q, live } => {
                    let q = q as usize;
                    fx[q * w..(q + 1) * w].fill(0);
                    let z = &mut fz[q * w..(q + 1) * w];
                    if live {
                        for (i, word) in z.iter_mut().enumerate() {
                            *word = random_word(i, rng);
                        }
                    } else {
                        z.fill(0);
                        rng.discard_u64s(w);
                    }
                }
                Instr::Measure { q, live } => {
                    let q = q as usize;
                    let flips = &fx[q * w..(q + 1) * w];
                    let k = measurement;
                    measurement += 1;
                    for &d in &self.det_rows
                        [self.det_offsets[k] as usize..self.det_offsets[k + 1] as usize]
                    {
                        xor_into(batch.detectors.row_mut(d as usize), flips);
                    }
                    for &o in &self.obs_rows
                        [self.obs_offsets[k] as usize..self.obs_offsets[k + 1] as usize]
                    {
                        xor_into(batch.observables.row_mut(o as usize), flips);
                    }
                    // Randomize the anticommuting part of the frame to
                    // model measurement collapse (Stim's convention).
                    if live {
                        for (i, word) in fz[q * w..(q + 1) * w].iter_mut().enumerate() {
                            *word ^= random_word(i, rng);
                        }
                    } else {
                        rng.discard_u64s(w);
                    }
                }
                Instr::Noise1 { kind, q, prob } => {
                    let q = q as usize;
                    let (pr, thr) = (&self.probs[prob as usize], thresholds[prob as usize]);
                    sample_hits(pr, thr, shots, rng, |shot, rng| {
                        let (ex, ez) = match kind {
                            Noise1::XError => (true, false),
                            Noise1::ZError => (false, true),
                            Noise1::Depolarize1 => {
                                Pauli::ONE_QUBIT_ERRORS[rng.gen_range(0..3usize)].xz()
                            }
                        };
                        let (at, bit) = (q * w + shot / 64, 1u64 << (shot % 64));
                        if ex {
                            fx[at] ^= bit;
                        }
                        if ez {
                            fz[at] ^= bit;
                        }
                    });
                }
                Instr::Depolarize2 { a, b, prob } => {
                    let (a, b) = (a as usize, b as usize);
                    let (pr, thr) = (&self.probs[prob as usize], thresholds[prob as usize]);
                    sample_hits(pr, thr, shots, rng, |shot, rng| {
                        let (pa, pb) = Pauli::TWO_QUBIT_ERRORS[rng.gen_range(0..15usize)];
                        let (wi, bit) = (shot / 64, 1u64 << (shot % 64));
                        let (ax, az) = pa.xz();
                        let (bx, bz) = pb.xz();
                        if ax {
                            fx[a * w + wi] ^= bit;
                        }
                        if az {
                            fz[a * w + wi] ^= bit;
                        }
                        if bx {
                            fx[b * w + wi] ^= bit;
                        }
                        if bz {
                            fz[b * w + wi] ^= bit;
                        }
                    });
                }
            }
        }
        batch
    }
}

/// Calls `hit(shot, rng)` for each shot independently selected with
/// probability `pr.p`, using geometric skipping (cost proportional to
/// the number of hits rather than the number of shots). `no_hit` is
/// [`NoiseProb::no_hit_threshold`] of `shots`: a first draw below it
/// ends the channel without a logarithm.
fn sample_hits<R: Rng>(
    pr: &NoiseProb,
    no_hit: f64,
    shots: usize,
    rng: &mut R,
    mut hit: impl FnMut(usize, &mut R),
) {
    if pr.p <= 0.0 {
        return;
    }
    if pr.p >= 1.0 {
        for s in 0..shots {
            hit(s, rng);
        }
        return;
    }
    let mut u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    if u < no_hit {
        return;
    }
    let mut s: usize = 0;
    loop {
        // Geometric gap: floor(ln(U) / ln(1-p)).
        let gap = (u.ln() / pr.log1m).floor();
        if !gap.is_finite() || gap >= (shots - s) as f64 {
            break;
        }
        s += gap as usize;
        hit(s, rng);
        s += 1;
        if s >= shots {
            break;
        }
        u = rng.gen_range(f64::MIN_POSITIVE..1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::CheckBasis;
    use crate::frame_oracle::assert_program_matches;
    use crate::random_circuit::random_circuit;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x5eed)
    }

    /// The `live` flag of every reset and measurement of `program`, in
    /// program order.
    fn live_flags(program: &FrameProgram) -> Vec<bool> {
        program
            .instrs
            .iter()
            .filter_map(|instr| match *instr {
                Instr::Reset { live, .. } | Instr::Measure { live, .. } => Some(live),
                _ => None,
            })
            .collect()
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
            let flags = live_flags(&program);
            live += flags.iter().filter(|&&l| l).count();
            inert += flags.iter().filter(|&&l| !l).count();
            for shots in [1usize, 16, 63, 64, 65, 1000, 4096] {
                let std = StdRng::seed_from_u64(seed ^ 1);
                assert_program_matches(&program, &c, shots, &std);
                // The cursor the sweep checkpoints would persist.
                let chacha = ChaCha8Rng::seed_from_u64(seed ^ 2);
                let (ours, theirs) = assert_program_matches(&program, &c, shots, &chacha);
                assert_eq!(ours.word_pos(), theirs.word_pos(), "seed {seed}");
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
        live_flags(&hand_built(steps).1)
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
        let (_, program) = hand_built(&[Step::R(0), Step::H(0), Step::M(0)]);
        assert_eq!(live_flags(&program), [true, false]);
        let shots = 4096;
        let fires = program
            .sample(shots, &mut rng(), &mut FrameScratch::default())
            .detectors
            .count_row(0);
        // Binomial(4096, 1/2): mean 2048, sigma 32; 5 sigma each way.
        assert!((1888..=2208).contains(&fires), "{fires} of {shots} fired");
    }

    /// The exact first-draw test of [`sample_hits`]: does the gap of
    /// draw `u` skip all `shots` shots?
    fn first_draw_skips_all(u: f64, pr: &NoiseProb, shots: usize) -> bool {
        let gap = (u.ln() / pr.log1m).floor();
        !gap.is_finite() || gap >= shots as f64
    }

    #[test]
    fn no_hit_shortcut_agrees_with_the_exact_test_around_the_threshold() {
        let mut rng = rng();
        let mut shortcuts = 0usize;
        for shots in (1..=4096usize).step_by(7).chain([4095, 4096]) {
            for p in [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.3, 0.5] {
                let pr = NoiseProb::new(p);
                let thr = pr.no_hit_threshold(shots);
                let edge = (shots as f64 * pr.log1m).exp();
                let mut check = |u: f64| {
                    if (f64::MIN_POSITIVE..1.0).contains(&u) && u < thr {
                        shortcuts += 1;
                        assert!(
                            first_draw_skips_all(u, &pr, shots),
                            "shortcut taken but the exact test hits: u={u:e} p={p} shots={shots}"
                        );
                    }
                };
                for rel in [
                    -1e-6, -1e-8, -2e-9, -1e-9, -1e-10, -1e-13, 0.0, 1e-13, 1e-9, 1e-6,
                ] {
                    check(edge * (1.0 + rel));
                }
                // Neighbouring floats of the threshold itself, and
                // random draws in the +-1e-6 band.
                check(f64::from_bits(thr.to_bits().saturating_sub(1)));
                check(thr);
                for _ in 0..8 {
                    check(edge * (1.0 + rng.gen_range(-1e-6..1e-6)));
                }
            }
        }
        assert!(shortcuts > 1000, "the band must exercise the shortcut");
    }

    #[test]
    fn no_hit_shortcut_is_off_where_the_threshold_underflows() {
        // (1-p)^shots below the smallest draw: no draw can take the
        // shortcut, the exact expression decides alone.
        let pr = NoiseProb::new(0.5);
        assert!(pr.no_hit_threshold(4096) < f64::MIN_POSITIVE);
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

    fn count_hits(p: f64, shots: usize) -> usize {
        let pr = NoiseProb::new(p);
        let mut n = 0usize;
        sample_hits(
            &pr,
            pr.no_hit_threshold(shots),
            shots,
            &mut rng(),
            |_, _| n += 1,
        );
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
