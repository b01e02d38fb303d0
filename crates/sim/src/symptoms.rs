//! The symptom compile: one backward pass over a circuit that gives
//! every random event its *symptom*, the detectors and observables (its
//! outputs) it flips. The frame sampler ([`crate::frame::FrameProgram`])
//! and the detector error model ([`crate::dem::ParametricDem`]) both
//! read it, so the backward conjugation rules live here alone.
//!
//! Every detector and observable is a parity of measurement records,
//! hence XOR-linear in the Pauli frame bits an event injects. Walking
//! the circuit backwards from empty *sensitivity rows* (one bit per
//! detector, then one per observable), each qubit carries an X and a Z
//! row: the outputs an X or Z frame bit on it at that point would flip.
//! Each gate conjugates the rows as it conjugates frames: H swaps them,
//! S does `x ^= z`, CX(c, t) does `x[c] ^= x[t]` and `z[t] ^= z[c]`,
//! CZ(a, b) does `x[a] ^= z[b]` and `x[b] ^= z[a]`. A measurement
//! records `z[q]` as its gauge's row (the random Z frame of collapse)
//! and then adds the outputs it feeds to `x[q]`, since an X bit flips
//! its record and survives it. A reset records `z[q]` as its gauge's
//! row and then clears both rows, since no earlier frame bit on `q`
//! survives it. A noise channel records the rows of its qubits. What is
//! left at the start are the rows of each qubit's initial |0>, a gauge
//! too.

use crate::circuit::{Circuit, Gate1, Gate2, Noise1, Op};

/// What a noise channel can place on its qubits.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ChannelKind {
    /// `X` on its qubit.
    X,
    /// `Z` on its qubit.
    Z,
    /// One of `X`, `Y`, `Z` on its qubit, uniformly.
    Depolarize1,
    /// One of the fifteen non-identity Pauli pairs on its two qubits,
    /// uniformly.
    Depolarize2,
}

/// A run `outputs[start..end]` of a [`Symptoms`] output list.
pub(crate) type Segment = [u32; 2];

/// One noise channel compiled to its symptom: segment `i` holds the
/// outputs that an X on the first qubit (`i = 0`), a Z on it (`1`), an
/// X on the second (`2`) or a Z on it (`3`) flips; a segment the kind
/// cannot reach is empty.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Channel {
    pub(crate) kind: ChannelKind,
    pub(crate) segments: [Segment; 4],
}

/// The symptoms of every random event of a circuit, from one backward
/// pass (see the module doc).
pub(crate) struct Symptoms {
    pub(crate) num_detectors: usize,
    /// Every segment's outputs, ascending within a segment: detector
    /// `d` is `d`, observable `o` is `num_detectors + o`.
    pub(crate) outputs: Vec<u32>,
    /// The Z row of every gauge (a random Z frame): first the initial
    /// |0> of each qubit, in qubit order, then every reset and
    /// measurement, in circuit order. An empty row marks an inert gauge.
    pub(crate) gauges: Vec<Segment>,
    /// Every noise op in circuit order, `p ≤ 0` included.
    pub(crate) channels: Vec<Channel>,
    /// The probability of each of `channels`.
    pub(crate) rates: Vec<f64>,
}

impl Symptoms {
    /// Compiles `circuit` in one backward pass.
    ///
    /// # Panics
    ///
    /// Panics on a two-qubit operation whose qubits coincide, which
    /// [`Circuit`]'s builder methods reject.
    pub(crate) fn of(circuit: &Circuit) -> Self {
        let m = circuit.num_measurements() as usize;
        let num_detectors = circuit.detectors().len();
        let (det_offsets, det_rows) =
            feeds(m, circuit.detectors().iter().map(|d| d.records.as_slice()));
        let (obs_offsets, obs_rows) = feeds(m, circuit.observables().iter().map(Vec::as_slice));
        let num_qubits = circuit.num_qubits() as usize;
        let mut rows = Sensitivity::new(num_qubits, num_detectors, circuit.observables().len());
        let (x, z) = (|q: u32| 2 * q as usize, |q: u32| 2 * q as usize + 1);

        // A forward count sizes the lists, so the backward pass fills
        // them from their ends.
        let (mut num_gauges, mut num_channels) = (num_qubits, 0);
        for op in circuit.ops() {
            match op {
                Op::Reset { .. } | Op::Measure { .. } => num_gauges += 1,
                Op::Noise1 { .. } | Op::Depolarize2 { .. } => num_channels += 1,
                _ => {}
            }
        }
        let mut gauges: Vec<Segment> = vec![[0, 0]; num_gauges];
        let unset = Channel {
            kind: ChannelKind::X,
            segments: [[0, 0]; 4],
        };
        let mut channels = vec![unset; num_channels];
        let mut rates = vec![0.0; num_channels];
        let mut outputs: Vec<u32> = Vec::with_capacity(2 * circuit.ops().len());
        let mut k = m;
        for op in circuit.ops().iter().rev() {
            if let Op::Gate2 { a, b, .. } | Op::Depolarize2 { a, b, .. } = *op {
                assert_ne!(a, b, "two-qubit operation on one qubit");
            }
            match *op {
                Op::Gate1 { kind: Gate1::H, q } => rows.swap(x(q), z(q)),
                Op::Gate1 { kind: Gate1::S, q } => rows.xor(x(q), z(q)),
                // Paulis commute with a Pauli frame up to sign.
                Op::Gate1 { .. } | Op::Tick => {}
                Op::Gate2 {
                    kind: Gate2::Cx,
                    a: c,
                    b: t,
                } => {
                    rows.xor(x(c), x(t));
                    rows.xor(z(t), z(c));
                }
                Op::Gate2 {
                    kind: Gate2::Cz,
                    a,
                    b,
                } => {
                    rows.xor(x(a), z(b));
                    rows.xor(x(b), z(a));
                }
                Op::Measure { q } => {
                    k -= 1;
                    num_gauges -= 1;
                    gauges[num_gauges] = rows.push(z(q), &mut outputs);
                    let dets = &det_rows[det_offsets[k] as usize..det_offsets[k + 1] as usize];
                    let obs = obs_rows[obs_offsets[k] as usize..obs_offsets[k + 1] as usize]
                        .iter()
                        .map(|&o| o as usize + num_detectors);
                    for out in dets.iter().map(|&d| d as usize).chain(obs) {
                        rows.flip(x(q), out);
                    }
                }
                Op::Reset { q } => {
                    num_gauges -= 1;
                    gauges[num_gauges] = rows.push(z(q), &mut outputs);
                    rows.clear(x(q));
                    rows.clear(z(q));
                }
                Op::Noise1 { kind, q, p } => {
                    let (kind, has_x, has_z) = match kind {
                        Noise1::XError => (ChannelKind::X, true, false),
                        Noise1::ZError => (ChannelKind::Z, false, true),
                        Noise1::Depolarize1 => (ChannelKind::Depolarize1, true, true),
                    };
                    let mut segments = [[0, 0]; 4];
                    if has_x {
                        segments[0] = rows.push(x(q), &mut outputs);
                    }
                    if has_z {
                        segments[1] = rows.push(z(q), &mut outputs);
                    }
                    num_channels -= 1;
                    channels[num_channels] = Channel { kind, segments };
                    rates[num_channels] = p;
                }
                Op::Depolarize2 { a, b, p } => {
                    let segments = [
                        rows.push(x(a), &mut outputs),
                        rows.push(z(a), &mut outputs),
                        rows.push(x(b), &mut outputs),
                        rows.push(z(b), &mut outputs),
                    ];
                    let kind = ChannelKind::Depolarize2;
                    num_channels -= 1;
                    channels[num_channels] = Channel { kind, segments };
                    rates[num_channels] = p;
                }
            }
        }
        for q in 0..num_qubits as u32 {
            gauges[q as usize] = rows.push(z(q), &mut outputs);
        }
        Symptoms {
            num_detectors,
            outputs,
            gauges,
            channels,
            rates,
        }
    }

    /// The outputs of `segment`.
    #[inline]
    pub(crate) fn outputs_of(&self, [start, end]: Segment) -> &[u32] {
        &self.outputs[start as usize..end as usize]
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

/// The sensitivity rows of the backward pass: for each qubit `q`, row
/// `2q` (X) and row `2q + 1` (Z) hold the outputs an X or Z frame bit
/// on `q` would flip, as `wd` detector words and then `w - wd`
/// observable words. A row's detector words are zero outside its span,
/// so its cost follows the few rounds of detectors it reaches rather
/// than the whole circuit's.
struct Sensitivity {
    num_detectors: usize,
    /// Words per row.
    w: usize,
    /// Detector words per row.
    wd: usize,
    words: Vec<u64>,
    /// Per row, the detector words `lo..hi` that may be non-zero;
    /// [`EMPTY`] when none may, so that spans unite by `min` and `max`.
    span: Vec<(u32, u32)>,
    /// Per row, the segment its last [`Sensitivity::push`] wrote, or
    /// [`STALE`] once the row has changed since: a row pushed again
    /// unchanged shares its segment.
    pushed: Vec<Segment>,
}

/// No segment: the row must be pushed afresh.
const STALE: Segment = [u32::MAX, 0];

/// The span of no words.
const EMPTY: (u32, u32) = (u32::MAX, 0);

impl Sensitivity {
    fn new(num_qubits: usize, num_detectors: usize, num_observables: usize) -> Self {
        let wd = num_detectors.div_ceil(64);
        let w = wd + num_observables.div_ceil(64);
        Sensitivity {
            num_detectors,
            w,
            wd,
            words: vec![0; 2 * num_qubits * w],
            span: vec![EMPTY; 2 * num_qubits],
            pushed: vec![[0, 0]; 2 * num_qubits],
        }
    }

    /// `row[dst] ^= row[src]`, for `dst != src`.
    fn xor(&mut self, dst: usize, src: usize) {
        let (lo, hi) = self.span[src];
        let into = &mut self.span[dst];
        *into = (into.0.min(lo), into.1.max(hi));
        self.pushed[dst] = STALE;
        let (d, s) = (dst * self.w, src * self.w);
        for i in lo as usize..hi as usize {
            let word = self.words[s + i];
            self.words[d + i] ^= word;
        }
        for i in self.wd..self.w {
            let word = self.words[s + i];
            self.words[d + i] ^= word;
        }
    }

    /// Exchanges rows `a` and `b`.
    fn swap(&mut self, a: usize, b: usize) {
        let (sa, sb) = (self.span[a], self.span[b]);
        let (lo, hi) = (sa.0.min(sb.0) as usize, sa.1.max(sb.1) as usize);
        for i in (lo..hi).chain(self.wd..self.w) {
            self.words.swap(a * self.w + i, b * self.w + i);
        }
        self.span.swap(a, b);
        self.pushed.swap(a, b);
    }

    /// Empties row `r`.
    fn clear(&mut self, r: usize) {
        let (lo, hi) = std::mem::replace(&mut self.span[r], EMPTY);
        self.pushed[r] = [0, 0];
        for i in (lo as usize..hi as usize).chain(self.wd..self.w) {
            self.words[r * self.w + i] = 0;
        }
    }

    /// Flips output `out` (detectors first, then observables) in row
    /// `r`.
    fn flip(&mut self, r: usize, out: usize) {
        let (i, bit) = if out < self.num_detectors {
            let i = out / 64;
            let span = &mut self.span[r];
            *span = (span.0.min(i as u32), span.1.max(i as u32 + 1));
            (i, out % 64)
        } else {
            let o = out - self.num_detectors;
            (self.wd + o / 64, o % 64)
        };
        self.words[r * self.w + i] ^= 1 << bit;
        self.pushed[r] = STALE;
    }

    /// The segment of `outputs` holding the outputs of row `r`,
    /// ascending: the one its last push wrote if the row has not
    /// changed since, or else a new one appended. Trims the row's span
    /// to its non-zero words on the way.
    fn push(&mut self, r: usize, outputs: &mut Vec<u32>) -> Segment {
        if self.pushed[r] != STALE {
            return self.pushed[r];
        }
        let start = outputs.len() as u32;
        let (lo, hi) = self.span[r];
        let row = &self.words[r * self.w..(r + 1) * self.w];
        let mut trimmed = EMPTY;
        for i in lo..hi {
            let word = row[i as usize];
            if word != 0 {
                trimmed = (trimmed.0.min(i), i + 1);
                let mut bits = word;
                while bits != 0 {
                    outputs.push(i * 64 + bits.trailing_zeros());
                    bits &= bits - 1;
                }
            }
        }
        self.span[r] = trimmed;
        for (i, &word) in row[self.wd..].iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                outputs.push((self.num_detectors + i * 64) as u32 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
        self.pushed[r] = [start, outputs.len() as u32];
        self.pushed[r]
    }
}
