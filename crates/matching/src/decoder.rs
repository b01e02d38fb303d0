//! The [`Decoder`] trait and the one decoder shell behind it.
//!
//! [`GraphDecoder`] owns everything a graph-based decoder needs apart
//! from the matching itself: the two CSS decoding graphs, the
//! parametric detector error model behind in-place reweighting, and one
//! fan-out of fixed 1024-shot chunks over worker threads. Each chunk
//! borrows its kernel scratch, syndrome memo ([`SyndromeCache`]) and
//! event index from one [`ScratchPool`], which the one-shot
//! [`Decoder::decode_events`] borrows from too; chunk boundaries depend
//! only on the shot count, so results never depend on the worker count.
//! A chunk reads its shots' events straight from the batch's detector
//! table, and only from the rows of detectors a kernel owns (listed
//! once when the decoder is built): no batch-wide transpose of every
//! detector row comes first.
//! What happens per basis is a [`Kernel`]: [`MwpmDecoder`] instantiates
//! the shell with the exact sparse-blossom matcher
//! [`Blossom`](crate::sparse), [`UfDecoder`](crate::UfDecoder) with the
//! union-find view [`UfGraph`](crate::UfGraph).
//!
//! Only a basis that owns an observable is decoded. A kernel predicts
//! the XOR of the observables of the edges it matches through, so a
//! graph whose edges all carry none predicts 0 on every shot: such a
//! graph (the X graph of a memory experiment, the Z graph of a
//! stability one) is built and reweighted, but gets no kernel, is never
//! matched, and its detectors are left out of the memo keys.

use crate::graph::DecodingGraph;
use crate::sparse::Blossom;
use dqec_sim::circuit::Circuit;
use dqec_sim::dem::ParametricDem;
use dqec_sim::frame::{BitTable, ScratchPool, ShotBatch};
use dqec_sim::noise::NoiseModel;
use rayon::prelude::*;
use std::collections::BTreeMap;

/// Shots per work unit in batch decoding. Chunk boundaries depend only
/// on the shot count — never on the worker count — so per-chunk caches
/// cannot make results thread-count-dependent. A whole number of
/// 64-shot words, so a chunk starts on a word of the detector table.
const DECODE_CHUNK: usize = 1024;
const _: () = assert!(DECODE_CHUNK.is_multiple_of(64));

/// Default bound on memoized syndromes per decode chunk worker.
const DEFAULT_CACHE_ENTRIES: usize = 1 << 15;

/// Syndromes longer than this are not memoized: large event lists
/// essentially never repeat within a chunk, so hashing and storing them
/// would only burn time and memory on guaranteed misses.
const CACHE_KEY_MAX_EVENTS: usize = 16;

/// One worker's per-chunk decode state: the kernel scratch, the
/// syndrome memo, and the chunk's index of owned events (those of the
/// detectors of the bases that hold a kernel), whose per-shot lists are
/// both the memo keys and what the kernels see. The decoder pools
/// these, so a *warm* `decode_batch` performs zero scratch, cache or
/// index allocations regardless of shot count
/// (`tests/alloc_regression.rs`).
///
/// Reuse is invisible to results: decoding is contractually
/// deterministic, so a cache entry written by any earlier chunk (even
/// of an earlier batch) holds exactly the prediction the current chunk
/// would compute. The one event that *does* invalidate entries is
/// reweighting, which clears the pool.
struct ChunkState<S> {
    scratch: S,
    cache: SyndromeCache,
    index: ChunkEvents,
}

impl<S: Default> Default for ChunkState<S> {
    fn default() -> Self {
        ChunkState {
            scratch: S::default(),
            cache: SyndromeCache::with_capacity(DEFAULT_CACHE_ENTRIES),
            index: ChunkEvents::default(),
        }
    }
}

/// One chunk's detection events on a chosen set of detector rows, as a
/// per-shot CSR index: after [`ChunkEvents::build`], the chunk's shot
/// `i` has `events[starts[i]..starts[i + 1]]`, ascending.
#[derive(Default)]
struct ChunkEvents {
    starts: Vec<u32>,
    events: Vec<u32>,
}

impl ChunkEvents {
    /// Indexes the set bits of shots `lo..lo + n` (`lo` a multiple of
    /// 64) on `rows` (ascending detector ids) of `detectors`, reading
    /// only those rows' words `lo/64 .. ⌈(lo + n)/64⌉`. Bits past
    /// `lo + n` in the last word are ignored, so stray bits past the
    /// table's shot count never count (as in
    /// [`BitTable::ones_in_row_iter`]).
    ///
    /// A counting sort: one pass counts each shot's events, one
    /// scatters them. Rows are visited in ascending order, so each
    /// shot's list comes out ascending.
    fn build(&mut self, detectors: &BitTable, rows: &[u32], lo: usize, n: usize) {
        debug_assert_eq!(lo % 64, 0);
        // Counts land two slots up, so after the prefix sum
        // `starts[i + 1]` is shot `i`'s start, and the scatter, which
        // advances it as a cursor, leaves it at shot `i + 1`'s start.
        let starts = &mut self.starts;
        starts.clear();
        starts.resize(n + 2, 0);
        for_each_bit(detectors, rows, lo, n, |i, _| starts[i + 2] += 1);
        for i in 2..n + 2 {
            starts[i] += starts[i - 1];
        }
        let events = &mut self.events;
        events.clear();
        events.resize(starts[n + 1] as usize, 0);
        for_each_bit(detectors, rows, lo, n, |i, d| {
            events[starts[i + 1] as usize] = d;
            starts[i + 1] += 1;
        });
        starts.truncate(n + 1);
    }

    /// The events of the chunk's shot `i`, ascending.
    #[inline]
    fn of(&self, i: usize) -> &[u32] {
        &self.events[self.starts[i] as usize..self.starts[i + 1] as usize]
    }
}

/// Calls `visit(i, d)` for every set bit `lo + i` of row `d`, over
/// `rows` in the order given and shots `lo..lo + n` ascending within a
/// row (see [`ChunkEvents::build`]).
#[inline]
fn for_each_bit(
    detectors: &BitTable,
    rows: &[u32],
    lo: usize,
    n: usize,
    mut visit: impl FnMut(usize, u32),
) {
    let hi = lo + n;
    let words = lo / 64..hi.div_ceil(64);
    let last = match hi % 64 {
        0 => u64::MAX,
        tail => (1u64 << tail) - 1,
    };
    for &d in rows {
        let row = &detectors.row(d as usize)[words.clone()];
        for (k, &word) in row.iter().enumerate() {
            let mut bits = if k + 1 == row.len() {
                word & last
            } else {
                word
            };
            while bits != 0 {
                visit(k * 64 + bits.trailing_zeros() as usize, d);
                bits &= bits - 1;
            }
        }
    }
}

/// What a kernel did while decoding, for explaining a decode time
/// from a metrics dump. For the exact matcher: how far regions grew,
/// how often alternating trees met something, how many blossoms came
/// and went. For union-find (the `uf_` fields): which of its exits each
/// per-basis decode beyond the closed forms took, and how many growth
/// rounds the slow one ran. For both: how many per-basis decodes were
/// answered in closed form. Kernels accumulate these in their scratch
/// and the shell drains them once per chunk
/// ([`Kernel::take_counters`]) and drops them after each one-shot
/// decode; a kernel leaves the other's fields 0.
/// Only the bases that hold a kernel are decoded, so a "per-basis
/// decode" is one of an observable-owning basis: one per decoded shot
/// on a memory or stability experiment, not two.
///
/// Diagnostic only, like the syndrome-cache counters: a shot answered
/// from a pooled cache runs no kernel, and which cache a chunk borrows
/// depends on scheduling, so totals vary across worker counts while
/// predictions do not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// Graph nodes taken by a growing region (detection events
    /// included).
    pub nodes_explored: u64,
    /// Times a growing region of an alternating tree ran into another
    /// region or the boundary.
    pub tree_collisions: u64,
    /// Blossoms formed.
    pub blossoms_formed: u64,
    /// Blossoms that shrank to nothing and were shattered.
    pub blossoms_shattered: u64,
    /// Per-basis decodes answered in closed form (at most one event;
    /// at most two under union-find).
    pub closed_form: u64,
    /// Union-find decodes (three or more events) fully resolved by the
    /// first-event shortcuts.
    pub uf_shortcut: u64,
    /// Union-find decodes ended by the single cluster the shortcuts
    /// left going to the boundary.
    pub uf_single_residual: u64,
    /// Union-find decodes ended by the closed-form cluster race.
    pub uf_race: u64,
    /// Union-find decodes that ran the grow/merge/peel loop.
    pub uf_growth: u64,
    /// Growth rounds those ran.
    pub uf_growth_rounds: u64,
}

impl KernelCounters {
    /// Adds `other`'s counts to these.
    pub fn merge(&mut self, other: &KernelCounters) {
        self.nodes_explored += other.nodes_explored;
        self.tree_collisions += other.tree_collisions;
        self.blossoms_formed += other.blossoms_formed;
        self.blossoms_shattered += other.blossoms_shattered;
        self.closed_form += other.closed_form;
        self.uf_shortcut += other.uf_shortcut;
        self.uf_single_residual += other.uf_single_residual;
        self.uf_race += other.uf_race;
        self.uf_growth += other.uf_growth;
        self.uf_growth_rounds += other.uf_growth_rounds;
    }
}

/// The diagnostics of one decoded chunk (and, summed, of a batch): the
/// syndrome-cache hit/miss deltas and what the kernel counted.
#[derive(Debug, Clone, Copy, Default)]
struct ChunkCounters {
    hits: u64,
    misses: u64,
    kernel: KernelCounters,
}

/// A syndrome decoder for a fixed circuit.
///
/// This is the seam every consumer outside `dqec_matching` decodes
/// through: the experiment `Runner` in `dqec_chiplet` drives any
/// `dyn Decoder`, so union-find, correlated-matching, or lookup
/// decoders drop in beside [`MwpmDecoder`] without touching the
/// experiment plumbing.
///
/// Implementors must be deterministic: the same events must always
/// produce the same prediction (the experiment harness relies on this
/// for thread-count-independent results).
pub trait Decoder: Send + Sync {
    /// The number of logical observables predictions cover.
    fn num_observables(&self) -> usize;

    /// Predicts the observable flips for one shot's detection events
    /// (flagged detector ids, any basis, ascending or not).
    fn decode_events(&self, events: &[u32]) -> u64;

    /// Re-derives internal weights for a new noise model *without*
    /// rebuilding the decoder, so a p-sweep over one circuit pays the
    /// construction cost once. Returns `false` when this decoder cannot
    /// reweight (the caller should rebuild instead); the default
    /// implementation always does.
    fn reweight(&mut self, noise: &NoiseModel) -> bool {
        let _ = noise;
        false
    }

    /// Predicts the observable flips of every shot in a batch, in shot
    /// order. The default is a sequential loop over
    /// [`Decoder::decode_events`]; [`GraphDecoder`] overrides it with its
    /// chunk fan-out, and any override must stay deterministic and
    /// independent of worker count.
    fn decode_all(&self, batch: &ShotBatch) -> Vec<u64> {
        let ev = batch.shot_events();
        (0..ev.shots())
            .map(|shot| self.decode_events(ev.events_of(shot)))
            .collect()
    }

    /// Decodes every shot of a batch through [`Decoder::decode_all`] and
    /// tallies logical failures in one sequential pass over the
    /// predictions, so the result does not depend on how many threads
    /// decoded.
    fn decode_batch(&self, batch: &ShotBatch) -> DecodeStats {
        tally_failures(self.num_observables(), &self.decode_all(batch), batch)
    }
}

/// Tallies logical failures of precomputed per-shot predictions into a
/// [`DecodeStats`]. Shared by the default [`Decoder::decode_batch`] and
/// the cache-counting override of [`GraphDecoder`]. Per observable, 64
/// shots at a time: the predicted bits are packed into one word, XORed
/// with the observable row's word and counted, ignoring bits past the
/// last shot.
///
/// # Panics
///
/// Panics if the observable table covers a different shot count.
fn tally_failures(nobs: usize, preds: &[u64], batch: &ShotBatch) -> DecodeStats {
    debug_assert_eq!(preds.len(), batch.detectors.shots());
    let mut stats = DecodeStats::new(nobs);
    stats.shots = preds.len();
    if nobs > 0 {
        assert_eq!(
            batch.observables.shots(),
            preds.len(),
            "one prediction per shot"
        );
    }
    for (o, f) in stats.failures.iter_mut().enumerate() {
        *f = preds
            .chunks(64)
            .zip(batch.observables.row(o))
            .map(|(block, &actual)| {
                let predicted = block
                    .iter()
                    .enumerate()
                    .fold(0u64, |word, (i, &p)| word | ((p >> o) & 1) << i);
                let live = u64::MAX >> (64 - block.len());
                ((predicted ^ actual) & live).count_ones() as usize
            })
            .sum();
    }
    stats
}

/// Asserts the invariants every [`Decoder`] implementation must hold on
/// `circuit`, which is expected to decode a noiseless batch perfectly:
/// empty events predict nothing, predictions are deterministic and
/// independent of event order, batch decoding tallies every shot, a
/// noiseless batch decodes without logical failures, and — on a bank of
/// random syndromes — batch predictions agree with one-shot decoding,
/// are identical with a cold or warm memo cache, and do not change with
/// the worker count (1, 4, or 16 threads), nor do one-shot predictions
/// made concurrently by 4 workers. Batches of 1, 63, 64, 65, 1023, 1024
/// and 1025 shots (the edges of a 64-shot word and of a 1024-shot
/// decode chunk) with random observable flips must agree shot by shot
/// with one-shot decoding, tally exactly the failures their
/// predictions imply, and ignore bits set past the last shot.
///
/// Shared by implementors as a conformance test; see
/// `tests/decoder_trait.rs` for its use on [`MwpmDecoder`].
///
/// # Panics
///
/// Panics (via assertions) when the decoder violates an invariant.
pub fn check_decoder_conformance<D: Decoder>(decoder: &D, circuit: &Circuit) {
    use dqec_sim::frame::FrameSampler;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    assert_eq!(
        decoder.num_observables(),
        circuit.observables().len(),
        "num_observables must match the circuit"
    );
    assert_eq!(
        decoder.decode_events(&[]),
        0,
        "empty events must predict no flips"
    );

    // Determinism and event-order independence on a handful of synthetic
    // symptoms (pairs of same-basis detectors are always matchable).
    let dets: Vec<u32> = (0..circuit.detectors().len() as u32).collect();
    for pair in dets.windows(2) {
        let fwd = decoder.decode_events(pair);
        let rev: Vec<u32> = pair.iter().rev().copied().collect();
        assert_eq!(fwd, decoder.decode_events(pair), "must be deterministic");
        assert_eq!(
            fwd,
            decoder.decode_events(&rev),
            "must not depend on event order"
        );
    }

    // A noiseless batch has no detection events and no observable flips,
    // so every conforming decoder reports zero failures.
    let batch = FrameSampler::new(circuit).sample(256, &mut StdRng::seed_from_u64(0xc0f));
    let stats = decoder.decode_batch(&batch);
    assert_eq!(stats.shots, 256, "batch decoding must tally every shot");
    assert_eq!(stats.failures.len(), decoder.num_observables());
    assert!(
        stats.failures.iter().all(|&f| f == 0),
        "noiseless shots must not fail: {:?}",
        stats.failures
    );

    // Noisy agreement: a bank of random syndromes, each present twice
    // in *adjacent* shots (even shot cold, odd shot through the warm
    // memo cache of the same chunk — adjacency keeps every pair inside
    // one fixed-size chunk, whichever pooled state the chunk borrows),
    // decoded under worker caps of 1, 4, and 16, and one shot at a time
    // by 4 concurrent workers (a pooling decoder lends them the states
    // its chunks use) — every path must produce identical predictions,
    // and the batch path must agree with one-shot decoding. This is
    // what keeps memoization, pooling and shot-parallelism honest.
    let ndet = circuit.detectors().len();
    if ndet > 0 {
        let shots = 1000;
        let mut rng = StdRng::seed_from_u64(0xa11ce);
        let mut detectors = BitTable::zeros(ndet, 2 * shots);
        for s in 0..shots {
            for d in 0..ndet {
                if rng.gen_bool(0.08) {
                    detectors.set(d, 2 * s, true);
                    detectors.set(d, 2 * s + 1, true);
                }
            }
        }
        let noisy = ShotBatch {
            detectors,
            observables: BitTable::zeros(decoder.num_observables(), 2 * shots),
        };
        let base = rayon::with_worker_cap(1, || decoder.decode_all(&noisy));
        assert_eq!(base.len(), 2 * shots, "decode_all must cover every shot");
        for (workers, one_shot) in [(4usize, false), (16, false), (4, true)] {
            let preds = rayon::with_worker_cap(workers, || {
                if one_shot {
                    (0..2 * shots)
                        .into_par_iter()
                        .map(|s| decoder.decode_events(&noisy.detection_events(s)))
                        .collect()
                } else {
                    decoder.decode_all(&noisy)
                }
            });
            assert_eq!(
                base, preds,
                "{workers} workers must not change predictions (one-shot: {one_shot})"
            );
        }
        for s in 0..shots {
            assert_eq!(
                base[2 * s],
                base[2 * s + 1],
                "warm-cache decode of shot {} must match the cold decode",
                2 * s
            );
        }
        for s in (0..2 * shots).step_by(97) {
            assert_eq!(
                base[s],
                decoder.decode_events(&noisy.detection_events(s)),
                "batch and one-shot predictions must agree on shot {s}"
            );
        }

        // Word and chunk edges, with random observable flips so the
        // tally is checked against the predictions it comes from.
        let nobs = decoder.num_observables();
        for shots in [1usize, 63, 64, 65, 1023, 1024, 1025] {
            let mut batch = ShotBatch {
                detectors: BitTable::zeros(ndet, shots),
                observables: BitTable::zeros(nobs, shots),
            };
            for s in 0..shots {
                for d in 0..ndet {
                    batch.detectors.set(d, s, rng.gen_bool(0.08));
                }
                for o in 0..nobs {
                    batch.observables.set(o, s, rng.gen_bool(0.3));
                }
            }
            let preds = decoder.decode_all(&batch);
            assert_eq!(preds.len(), shots, "decode_all must cover every shot");
            for (s, &pred) in preds.iter().enumerate() {
                assert_eq!(
                    pred,
                    decoder.decode_events(&batch.detection_events(s)),
                    "{shots} shots: batch and one-shot predictions must agree on shot {s}"
                );
            }
            let failures: Vec<usize> = (0..nobs)
                .map(|o| {
                    (0..shots)
                        .filter(|&s| batch.observables.get(o, s) != ((preds[s] >> o) & 1 == 1))
                        .count()
                })
                .collect();
            let stats = decoder.decode_batch(&batch);
            assert_eq!(stats.shots, shots);
            assert_eq!(
                stats.failures, failures,
                "{shots} shots: decode_batch must tally the failures of decode_all's predictions"
            );
            // A bit past the last shot, in a row's last word, is not a
            // shot: neither the event index nor the tally may see it.
            if shots % 64 != 0 {
                let mut stray = batch.clone();
                for table in [&mut stray.detectors, &mut stray.observables] {
                    for row in 0..table.rows() {
                        let words = table.row_mut(row);
                        words[words.len() - 1] |= 1 << 63;
                    }
                }
                let (clean_ev, stray_ev) = (batch.shot_events(), stray.shot_events());
                assert!(
                    (0..shots).all(|s| clean_ev.events_of(s) == stray_ev.events_of(s)),
                    "shot_events must ignore bits past the last shot"
                );
                assert_eq!(
                    decoder.decode_all(&stray),
                    preds,
                    "{shots} shots: a bit past the last shot must not change a prediction"
                );
                assert_eq!(
                    decoder.decode_batch(&stray).failures,
                    failures,
                    "{shots} shots: a bit past the last shot must not be tallied"
                );
            }
        }
    }
}

/// Outcome statistics of decoding a batch of shots.
///
/// Equality compares only the *results* — `shots` and `failures`. The
/// syndrome-cache and kernel counters are diagnostics of the batch's
/// chunk fan-out: which pooled cache a chunk borrows depends on
/// scheduling, so the hit/miss split — and with it how many shots reach
/// the kernel — varies across worker counts while predictions (and
/// therefore tallies) do not. Only [`GraphDecoder`] fills them; the
/// default [`Decoder::decode_batch`] leaves them 0.
#[derive(Debug, Clone, Default)]
pub struct DecodeStats {
    /// Number of shots decoded.
    pub shots: usize,
    /// Per-observable counts of logical failures (prediction != actual).
    pub failures: Vec<usize>,
    /// Syndrome-cache hits observed while decoding (merge-aware
    /// diagnostic; excluded from equality — see the type docs).
    pub cache_hits: u64,
    /// Syndrome-cache misses observed while decoding (merge-aware
    /// diagnostic; excluded from equality — see the type docs).
    pub cache_misses: u64,
    /// What the matching kernel counted while decoding (merge-aware
    /// diagnostic; excluded from equality — see the type docs).
    pub kernel: KernelCounters,
}

impl PartialEq for DecodeStats {
    fn eq(&self, other: &DecodeStats) -> bool {
        self.shots == other.shots && self.failures == other.failures
    }
}

impl Eq for DecodeStats {}

impl DecodeStats {
    /// An empty tally over `num_observables` observables.
    pub fn new(num_observables: usize) -> Self {
        DecodeStats {
            shots: 0,
            failures: vec![0; num_observables],
            cache_hits: 0,
            cache_misses: 0,
            kernel: KernelCounters::default(),
        }
    }

    /// Accumulates another tally into this one: shot counts add,
    /// per-observable failure counts add elementwise, cache and kernel
    /// counters add. The natural reduction for per-chunk statistics from
    /// parallel batch decoding (associative and commutative, so the
    /// total is independent of chunk evaluation order).
    ///
    /// # Panics
    ///
    /// Panics if the two tallies cover different observable counts.
    pub fn merge(&mut self, other: &DecodeStats) {
        assert_eq!(
            self.failures.len(),
            other.failures.len(),
            "cannot merge tallies over different observable counts"
        );
        self.shots += other.shots;
        for (a, b) in self.failures.iter_mut().zip(&other.failures) {
            *a += b;
        }
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.kernel.merge(&other.kernel);
    }

    /// Logical error rate of observable `obs`.
    ///
    /// # Panics
    ///
    /// Panics if no shots were decoded or `obs` is out of range.
    pub fn logical_error_rate(&self, obs: usize) -> f64 {
        assert!(self.shots > 0, "no shots decoded");
        self.failures[obs] as f64 / self.shots as f64
    }

    /// Publishes this tally into the process-global `dqec_obs` metrics
    /// registry through `metrics`: shots/failures and the kernel
    /// counters as counters (summed across calls) and the
    /// syndrome-cache split as both counters and a hit-rate gauge in
    /// basis points.
    pub fn publish(&self, metrics: &DecodeStatsMetrics) {
        metrics.shots.add(self.shots as u64);
        let failures: usize = self.failures.iter().sum();
        metrics.failures.add(failures as u64);
        metrics.syndrome_hits.add(self.cache_hits);
        metrics.syndrome_misses.add(self.cache_misses);
        metrics.nodes_explored.add(self.kernel.nodes_explored);
        metrics.tree_collisions.add(self.kernel.tree_collisions);
        metrics.blossoms_formed.add(self.kernel.blossoms_formed);
        metrics
            .blossoms_shattered
            .add(self.kernel.blossoms_shattered);
        metrics.closed_form.add(self.kernel.closed_form);
        metrics.uf_shortcut.add(self.kernel.uf_shortcut);
        metrics
            .uf_single_residual
            .add(self.kernel.uf_single_residual);
        metrics.uf_race.add(self.kernel.uf_race);
        metrics.uf_growth.add(self.kernel.uf_growth);
        metrics.uf_growth_rounds.add(self.kernel.uf_growth_rounds);
        let total = self.cache_hits + self.cache_misses;
        if total > 0 {
            let bp = (self.cache_hits as f64 / total as f64 * 10_000.0) as i64;
            metrics.syndrome_hit_rate_bp.set(bp);
        }
    }
}

/// Interned registry handles for [`DecodeStats::publish`] under one
/// name prefix: built once by whoever publishes per request, so the
/// publishing itself only touches atomics.
#[derive(Debug)]
pub struct DecodeStatsMetrics {
    shots: &'static dqec_obs::Counter,
    failures: &'static dqec_obs::Counter,
    syndrome_hits: &'static dqec_obs::Counter,
    syndrome_misses: &'static dqec_obs::Counter,
    nodes_explored: &'static dqec_obs::Counter,
    tree_collisions: &'static dqec_obs::Counter,
    blossoms_formed: &'static dqec_obs::Counter,
    blossoms_shattered: &'static dqec_obs::Counter,
    closed_form: &'static dqec_obs::Counter,
    uf_shortcut: &'static dqec_obs::Counter,
    uf_single_residual: &'static dqec_obs::Counter,
    uf_race: &'static dqec_obs::Counter,
    uf_growth: &'static dqec_obs::Counter,
    uf_growth_rounds: &'static dqec_obs::Counter,
    /// Registered with the first syndrome-cache lookup.
    syndrome_hit_rate_bp: dqec_obs::LazyGauge,
}

impl DecodeStatsMetrics {
    /// Registers `{prefix}.shots`, `.failures`, `.syndrome_hits`,
    /// `.syndrome_misses` and one counter per [`KernelCounters`] field
    /// (`.nodes_explored`, `.tree_collisions`, `.blossoms_formed`,
    /// `.blossoms_shattered`, `.closed_form`, `.uf_shortcut`,
    /// `.uf_single_residual`, `.uf_race`, `.uf_growth`,
    /// `.uf_growth_rounds`).
    pub fn new(prefix: &str) -> Self {
        let reg = dqec_obs::registry();
        let counter = |name: &str| reg.counter(&format!("{prefix}.{name}"));
        DecodeStatsMetrics {
            shots: counter("shots"),
            failures: counter("failures"),
            syndrome_hits: counter("syndrome_hits"),
            syndrome_misses: counter("syndrome_misses"),
            nodes_explored: counter("nodes_explored"),
            tree_collisions: counter("tree_collisions"),
            blossoms_formed: counter("blossoms_formed"),
            blossoms_shattered: counter("blossoms_shattered"),
            closed_form: counter("closed_form"),
            uf_shortcut: counter("uf_shortcut"),
            uf_single_residual: counter("uf_single_residual"),
            uf_race: counter("uf_race"),
            uf_growth: counter("uf_growth"),
            uf_growth_rounds: counter("uf_growth_rounds"),
            syndrome_hit_rate_bp: dqec_obs::LazyGauge::new(format!(
                "{prefix}.syndrome_hit_rate_bp"
            )),
        }
    }
}

/// Bounded memo of decoded syndromes, keyed by the exact (ascending)
/// event list. [`GraphDecoder`] keys it by a shot's *owned* events
/// only (those of the bases that hold a kernel), so two shots that
/// differ only in the other basis's events share one entry, and a shot
/// with no owned event never reaches it. [`Decoder`] implementations
/// are contractually deterministic, so caching can never change a
/// prediction — it only skips repeated matching work, which dominates
/// at low physical error rates where most shots carry one of a few
/// small event sets. Once `capacity` distinct syndromes are stored,
/// further misses decode without being inserted (deterministic, no
/// eviction policy to tune).
pub struct SyndromeCache {
    /// Open-addressed slots: `(event-arena offset, event count,
    /// prediction)`; `u32::MAX` offset marks an empty slot. Power-of-two
    /// sized, linear probing, no deletion (the cache only grows until
    /// `capacity`), keys inlined in one arena — so neither lookups nor
    /// inserts ever allocate per entry.
    slots: Vec<(u32, u32, u64)>,
    arena: Vec<u32>,
    len: usize,
    capacity: usize,
    hits: u64,
    misses: u64,
}

/// Empty-slot marker for [`SyndromeCache`].
const CACHE_EMPTY: u32 = u32::MAX;

impl SyndromeCache {
    /// Creates a cache bounded to `capacity` distinct syndromes. Slots
    /// pre-size for up to one chunk's worth of entries (growing by
    /// doubling beyond that) so the steady state never rehashes.
    pub fn with_capacity(capacity: usize) -> Self {
        let slots = capacity.min(DECODE_CHUNK).next_power_of_two() * 2;
        SyndromeCache {
            slots: vec![(CACHE_EMPTY, 0, 0); slots],
            arena: Vec::new(),
            len: 0,
            capacity,
            hits: 0,
            misses: 0,
        }
    }

    /// FxHash-style multiply-rotate over the event ids: event lists are
    /// short integer slices, for which SipHash's per-call setup would
    /// dominate the decode fast path. Not DoS-resistant — keys here are
    /// detector ids from our own sampler, never attacker-controlled.
    fn hash(events: &[u32]) -> u64 {
        const K: u64 = 0x517c_c1b7_2722_0a95;
        events.iter().fold(0u64, |h, &e| {
            (h.rotate_left(5) ^ u64::from(e)).wrapping_mul(K)
        })
    }

    /// The slot index holding `events`, or the empty slot where it
    /// would be inserted.
    fn probe(&self, events: &[u32]) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = Self::hash(events) as usize & mask;
        loop {
            let (off, n, _) = self.slots[i];
            if off == CACHE_EMPTY {
                return i;
            }
            if n as usize == events.len()
                && &self.arena[off as usize..off as usize + n as usize] == events
            {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// Looks up a syndrome, counting the hit or miss: a hit returns the
    /// prediction, a miss returns the empty slot where
    /// [`SyndromeCache::fill`] may store it (`None` at capacity) — so
    /// the miss-then-insert path of batch decoding probes (and hashes)
    /// only once. Any growth needed for the upcoming insert happens
    /// here, keeping the returned slot index stable.
    pub(crate) fn get_or_slot(&mut self, events: &[u32]) -> Result<u64, Option<usize>> {
        if self.len < self.capacity && (self.len + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let i = self.probe(events);
        if self.slots[i].0 != CACHE_EMPTY {
            self.hits += 1;
            return Ok(self.slots[i].2);
        }
        self.misses += 1;
        Err((self.len < self.capacity).then_some(i))
    }

    /// Stores a prediction into a slot returned by
    /// [`SyndromeCache::get_or_slot`]. The cache must not be touched in
    /// between.
    pub(crate) fn fill(&mut self, slot: usize, events: &[u32], prediction: u64) {
        debug_assert_eq!(self.slots[slot].0, CACHE_EMPTY, "slot must still be empty");
        let off = self.arena.len() as u32;
        self.arena.extend_from_slice(events);
        self.slots[slot] = (off, events.len() as u32, prediction);
        self.len += 1;
    }

    /// Doubles the slot table, re-seating every entry.
    fn grow(&mut self) {
        let doubled = vec![(CACHE_EMPTY, 0, 0); self.slots.len() * 2];
        let old = std::mem::replace(&mut self.slots, doubled);
        let mask = self.slots.len() - 1;
        for (off, n, p) in old {
            if off == CACHE_EMPTY {
                continue;
            }
            let key = &self.arena[off as usize..(off + n) as usize];
            let mut i = Self::hash(key) as usize & mask;
            while self.slots[i].0 != CACHE_EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = (off, n, p);
        }
    }

    /// Lookups answered from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to decode so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

/// The per-basis matching kernel a [`GraphDecoder`] is instantiated
/// with: given one basis graph and a shot's detection events, predict
/// the observable flips. Everything around that — graph construction,
/// reweighting, the scratch pool, memoization, the chunk fan-out — is
/// the shell's, written once, and a kernel keeps no state of its own
/// outside its view and the scratch the shell lends it.
///
/// A kernel's prediction is the XOR of the [`observables`] of the
/// graph edges on its matched and boundary paths, and nothing else. So
/// on a graph whose edges all carry `observables == 0` every kernel
/// predicts 0 on every shot; the shell relies on this to build no
/// kernel for such a graph and never decode it.
///
/// [`observables`]: crate::GraphEdge::observables
pub trait Kernel: Clone + std::fmt::Debug + Send + Sync {
    /// Reusable working memory; carries no results between shots, so
    /// the shell pools it and lends it to any chunk or one-shot decode.
    type Scratch: Default + Send;

    /// Builds the kernel's view of one basis graph.
    fn from_graph(graph: &DecodingGraph) -> Self;

    /// Re-derives the view after `graph` was reweighted in place (same
    /// structure, new weights).
    fn reweighted(&mut self, graph: &DecodingGraph);

    /// Predicts the observable flips `graph`'s basis contributes for
    /// one shot. `events` holds flagged detector ids in any order; the
    /// ones without a node in `graph` (the other basis's, when the
    /// shell did not filter them out) must be ignored.
    fn decode_basis(
        &self,
        graph: &DecodingGraph,
        events: &[u32],
        scratch: &mut Self::Scratch,
    ) -> u64;

    /// Hands over (and zeroes) the telemetry `scratch` accumulated
    /// since the last call; the shell asks once per decoded chunk and
    /// after each one-shot decode. The default is for kernels that
    /// count nothing.
    fn take_counters(scratch: &mut Self::Scratch) -> KernelCounters {
        let _ = scratch;
        KernelCounters::default()
    }
}

/// A minimum-weight perfect-matching decoder for a fixed noisy circuit.
///
/// # Examples
///
/// ```
/// use dqec_matching::MwpmDecoder;
/// use dqec_sim::circuit::{CheckBasis, Circuit, Noise1};
/// use dqec_sim::frame::FrameSampler;
/// use rand::SeedableRng;
///
/// // Two-round repetition-ish toy circuit.
/// let mut c = Circuit::new(2);
/// c.reset(0)?;
/// c.reset(1)?;
/// c.noise1(Noise1::XError, 0, 0.05)?;
/// c.cx(0, 1)?;
/// let m = c.measure_reset(1)?;
/// c.add_detector(&[m], CheckBasis::Z, (0, 0, 0))?;
/// let d = c.measure(0)?;
/// c.add_detector(&[m, d], CheckBasis::Z, (0, 0, 1))?;
/// c.include_observable(0, &[d])?;
///
/// use dqec_matching::Decoder;
/// let decoder = MwpmDecoder::new(&c);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let batch = FrameSampler::new(&c).sample(2000, &mut rng);
/// let stats = decoder.decode_batch(&batch);
/// // A single qubit's flip is always detected and corrected here.
/// assert_eq!(stats.failures[0], 0);
/// # Ok::<(), dqec_sim::SimError>(())
/// ```
pub type MwpmDecoder = GraphDecoder<Blossom>;

/// A decoder for a fixed noisy circuit: the two CSS decoding graphs, a
/// [`Kernel`] view of each graph that can change a prediction, and the
/// batch machinery shared by every kernel. Each shot's events are
/// matched per kernel-holding basis and the predicted observable flips
/// XORed together. Use it through its instantiations [`MwpmDecoder`]
/// and [`UfDecoder`](crate::UfDecoder).
#[derive(Debug, Clone)]
pub struct GraphDecoder<K: Kernel> {
    z_graph: DecodingGraph,
    x_graph: DecodingGraph,
    /// Present only if some edge of the graph carries an observable
    /// (see the [`Kernel`] contract); the graph is never decoded
    /// otherwise.
    z_kernel: Option<K>,
    x_kernel: Option<K>,
    /// The detector ids with a node in a graph that holds a kernel,
    /// ascending: the rows a batch decode reads.
    owned_detectors: Vec<u32>,
    num_observables: usize,
    /// What in-place reweighting to a different baseline error rate
    /// needs.
    parametric: ParametricState,
    /// Pooled per-chunk decode states reused across batch and one-shot
    /// decodes; cleared on reweight (memoized predictions go stale).
    scratch_pool: ScratchPool<ChunkState<K::Scratch>>,
}

#[derive(Debug, Clone)]
struct ParametricState {
    pdem: ParametricDem,
    /// The per-qubit overrides the template was built with; reweighting
    /// is only valid while they are unchanged.
    overrides: BTreeMap<u32, f64>,
    /// Whether the template's baseline `p` was above 0. A `p = 0`
    /// template inserted no channel, so its graphs cannot move to
    /// another `p`.
    scales: bool,
    /// The baseline `p` the graphs currently carry; reweighting to the
    /// same value is a no-op.
    current_p: f64,
    /// The mechanism probabilities at `current_p` (buffer reused by the
    /// next reweight).
    probabilities: Vec<f64>,
}

impl<K: Kernel> GraphDecoder<K> {
    /// Builds a decoder for `circuit` as it stands: a circuit that
    /// already carries its noise. This is [`GraphDecoder::from_clean`]
    /// with a `p = 0` model, which inserts no channel and keeps every
    /// noise op of `circuit` at its own rate, so the decoder declines
    /// every [`Decoder::reweight`] to another `p`.
    pub fn new(circuit: &Circuit) -> Self {
        Self::from_clean(circuit, &NoiseModel::new(0.0))
    }

    /// Builds a *reweightable* decoder: applies `noise` to the clean
    /// circuit, extracts a parametric detector error model, and keeps it
    /// so later [`Decoder::reweight`] calls can move the edge weights to
    /// a different baseline `p` without re-walking the circuit.
    ///
    /// Both basis graphs come straight from
    /// [`ParametricDem::mechanisms`] and one buffer of
    /// [`ParametricDem::probabilities_into`] at `noise.p()` (the buffer
    /// later reweights reuse). Each graph that has an edge carrying an
    /// observable gets a kernel.
    ///
    /// Build the template at the sweep's largest `p` (any `p > 0`
    /// works): a template built at `p = 0` inserts no channel, cannot
    /// represent the mechanisms that appear at `p > 0`, and declines
    /// every reweight to another `p`.
    ///
    /// # Examples
    ///
    /// ```
    /// use dqec_matching::{Decoder, MwpmDecoder};
    /// use dqec_sim::circuit::{CheckBasis, Circuit};
    /// use dqec_sim::noise::NoiseModel;
    ///
    /// let mut clean = Circuit::new(2);
    /// clean.reset(0)?;
    /// clean.reset(1)?;
    /// clean.cx(0, 1)?;
    /// let m = clean.measure_reset(1)?;
    /// clean.add_detector(&[m], CheckBasis::Z, (0, 0, 0))?;
    /// let d = clean.measure(0)?;
    /// clean.add_detector(&[m, d], CheckBasis::Z, (0, 0, 1))?;
    /// clean.include_observable(0, &[d])?;
    ///
    /// // Build once at the top of the sweep, reweight per point.
    /// let mut decoder = MwpmDecoder::from_clean(&clean, &NoiseModel::new(2e-3));
    /// for p in [2e-3, 1e-3, 5e-4] {
    ///     assert!(decoder.reweight(&NoiseModel::new(p)));
    /// }
    /// # Ok::<(), dqec_sim::SimError>(())
    /// ```
    pub fn from_clean(clean: &Circuit, noise: &NoiseModel) -> Self {
        let (noisy, params) = noise.apply_with_params(clean);
        let pdem = ParametricDem::from_noisy(&noisy, &params);
        let mut probabilities = Vec::new();
        pdem.probabilities_into(noise.p(), &mut probabilities);
        let (z_graph, x_graph) = DecodingGraph::css_pair(&noisy, &pdem, &probabilities);
        let kernel = |graph: &DecodingGraph| {
            graph
                .edges()
                .iter()
                .any(|e| e.observables != 0)
                .then(|| K::from_graph(graph))
        };
        let mut decoder = GraphDecoder {
            z_kernel: kernel(&z_graph),
            x_kernel: kernel(&x_graph),
            owned_detectors: Vec::new(),
            z_graph,
            x_graph,
            num_observables: noisy.observables().len(),
            parametric: ParametricState {
                pdem,
                overrides: noise.overrides().clone(),
                scales: noise.p() > 0.0,
                current_p: noise.p(),
                probabilities,
            },
            scratch_pool: ScratchPool::default(),
        };
        let owned = (0..noisy.detectors().len() as u32)
            .filter(|&d| {
                decoder
                    .kernels()
                    .iter()
                    .any(|(graph, kernel)| kernel.is_some() && graph.node_of_detector(d).is_some())
            })
            .collect();
        decoder.owned_detectors = owned;
        decoder
    }

    /// The Z-basis decoding graph.
    pub fn z_graph(&self) -> &DecodingGraph {
        &self.z_graph
    }

    /// The X-basis decoding graph.
    pub fn x_graph(&self) -> &DecodingGraph {
        &self.x_graph
    }

    /// Each basis graph with its kernel view, if it holds one, Z first
    /// (test oracle hook).
    #[doc(hidden)]
    pub fn kernels(&self) -> [(&DecodingGraph, Option<&K>); 2] {
        [
            (&self.z_graph, self.z_kernel.as_ref()),
            (&self.x_graph, self.x_kernel.as_ref()),
        ]
    }

    /// Decodes the kernel-holding bases with caller-owned scratch.
    /// Equivalent to [`Decoder::decode_events`], but a tight loop around
    /// it performs no allocation at all. Each graph has nodes only for
    /// its own basis's detectors, so the whole event list goes to every
    /// kernel; a graph without one would predict 0 and is skipped.
    pub fn decode_events_with(&self, events: &[u32], scratch: &mut K::Scratch) -> u64 {
        self.kernels().into_iter().fold(0, |obs, (graph, kernel)| {
            obs ^ kernel.map_or(0, |k| k.decode_basis(graph, events, scratch))
        })
    }

    /// The scratch-reusing, syndrome-memoizing batch decode: fans
    /// fixed-size shot chunks out over worker threads, gives each chunk
    /// a private [`ChunkState`] borrowed from the pool, and decodes
    /// each shot directly into a preallocated output. Each chunk first
    /// indexes its shots' events on the owned detectors' rows of the
    /// detector table (the detectors of kernel-holding graphs; other
    /// rows are never read). A shot's list is the empty-shot check, the
    /// memo key and the kernels' input, so a shot whose events all
    /// belong to the other basis predicts 0 without a lookup. Chunk
    /// boundaries depend only on the shot count and decoding is
    /// contractually deterministic, so predictions are identical for
    /// any worker count and any pool state. Also returns the batch's
    /// aggregate syndrome-cache hit/miss deltas and kernel counters for
    /// observability.
    fn decode_chunked(&self, batch: &ShotBatch) -> (Vec<u64>, ChunkCounters) {
        let detectors = &batch.detectors;
        // A batch with fewer detector rows than the circuit has no
        // events on the missing ones.
        let rows = &self.owned_detectors[..self
            .owned_detectors
            .partition_point(|&d| (d as usize) < detectors.rows())];
        let mut out = vec![0u64; detectors.shots()];
        let chunks: Vec<(usize, &mut [u64])> = out
            .chunks_mut(DECODE_CHUNK)
            .enumerate()
            .map(|(c, slot)| (c * DECODE_CHUNK, slot))
            .collect();
        let deltas: Vec<ChunkCounters> = chunks
            .into_par_iter()
            .map(|(lo, slot)| {
                self.scratch_pool.with(|state| {
                    let ChunkState {
                        scratch,
                        cache,
                        index,
                    } = state;
                    index.build(detectors, rows, lo, slot.len());
                    let (h0, m0) = (cache.hits(), cache.misses());
                    for (i, pred) in slot.iter_mut().enumerate() {
                        let events = index.of(i);
                        *pred = if events.is_empty() {
                            0
                        } else if events.len() > CACHE_KEY_MAX_EVENTS {
                            self.decode_events_with(events, scratch)
                        } else {
                            match cache.get_or_slot(events) {
                                Ok(p) => p,
                                Err(open) => {
                                    let p = self.decode_events_with(events, scratch);
                                    if let Some(open) = open {
                                        cache.fill(open, events, p);
                                    }
                                    p
                                }
                            }
                        };
                    }
                    ChunkCounters {
                        hits: cache.hits() - h0,
                        misses: cache.misses() - m0,
                        kernel: K::take_counters(scratch),
                    }
                })
            })
            .collect();
        let mut counters = ChunkCounters::default();
        for delta in deltas {
            counters.hits += delta.hits;
            counters.misses += delta.misses;
            counters.kernel.merge(&delta.kernel);
        }
        (out, counters)
    }
}

impl<K: Kernel> Decoder for GraphDecoder<K> {
    fn num_observables(&self) -> usize {
        self.num_observables
    }

    /// Decodes with the scratch of a pooled chunk state, bypassing its
    /// memo; the kernel counters it leaves are dropped, so they never
    /// reach a later batch's stats.
    fn decode_events(&self, events: &[u32]) -> u64 {
        self.scratch_pool.with(|state| {
            let prediction = self.decode_events_with(events, &mut state.scratch);
            K::take_counters(&mut state.scratch);
            prediction
        })
    }

    /// Shot-parallel batch decode through the chunk fan-out, with pooled
    /// scratch and syndrome memoization. Chunks are fixed-size, each
    /// borrows a private scratch and [`SyndromeCache`] for its duration,
    /// and decoding is deterministic, so predictions are identical for
    /// any worker count.
    fn decode_all(&self, batch: &ShotBatch) -> Vec<u64> {
        self.decode_chunked(batch).0
    }

    /// Same tallies as the default implementation, plus the batch's
    /// syndrome-cache hit/miss counts and kernel counters in the stats.
    fn decode_batch(&self, batch: &ShotBatch) -> DecodeStats {
        let (preds, counters) = self.decode_chunked(batch);
        let mut stats = tally_failures(self.num_observables(), &preds, batch);
        stats.cache_hits = counters.hits;
        stats.cache_misses = counters.misses;
        stats.kernel = counters.kernel;
        stats
    }

    /// Reweights both basis graphs from the cached parametric DEM (so
    /// every public weight stays current) and lets each kernel that
    /// exists refresh its view. Requires a noise model with the *same*
    /// per-qubit overrides as the template (the overrides shape the
    /// mechanism structure; only the baseline `p` may move), and a
    /// template built at `p > 0` unless `p` stays where it is (see
    /// [`GraphDecoder::from_clean`]). Returns `false` otherwise.
    fn reweight(&mut self, noise: &NoiseModel) -> bool {
        let state = &mut self.parametric;
        if state.overrides != *noise.overrides() {
            return false;
        }
        if state.current_p == noise.p() {
            return true; // weights already match
        }
        if !state.scales {
            return false;
        }
        state
            .pdem
            .probabilities_into(noise.p(), &mut state.probabilities);
        self.z_graph
            .reweight_from_probabilities(&state.probabilities);
        self.x_graph
            .reweight_from_probabilities(&state.probabilities);
        if let Some(kernel) = &mut self.z_kernel {
            kernel.reweighted(&self.z_graph);
        }
        if let Some(kernel) = &mut self.x_kernel {
            kernel.reweighted(&self.x_graph);
        }
        state.current_p = noise.p();
        // Pooled syndrome caches memoize predictions under the *old*
        // weights; drop them so no stale prediction survives.
        self.scratch_pool.clear();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::repetition;
    use crate::paths::PathTables;
    use dqec_sim::frame::FrameSampler;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    #[test]
    fn noiseless_batch_has_no_failures() {
        let c = repetition(3, 0.0);
        let decoder = MwpmDecoder::new(&c);
        let batch = FrameSampler::new(&c).sample(500, &mut StdRng::seed_from_u64(1));
        let stats = decoder.decode_batch(&batch);
        assert_eq!(stats.failures[0], 0);
    }

    #[test]
    fn single_flips_are_always_corrected() {
        // With p small, shots containing exactly one data error must be
        // corrected; the LER should be well below the physical rate.
        let p = 0.02;
        let c = repetition(3, p);
        let decoder = MwpmDecoder::new(&c);
        let batch = FrameSampler::new(&c).sample(20_000, &mut StdRng::seed_from_u64(2));
        let stats = decoder.decode_batch(&batch);
        let ler = stats.logical_error_rate(0);
        assert!(ler < p / 2.0, "LER {ler} should be well below p {p}");
    }

    #[test]
    fn ler_decreases_with_lower_p() {
        let mut lers = Vec::new();
        for &p in &[0.08, 0.04, 0.02] {
            let c = repetition(3, p);
            let decoder = MwpmDecoder::new(&c);
            let batch = FrameSampler::new(&c).sample(30_000, &mut StdRng::seed_from_u64(99));
            lers.push(decoder.decode_batch(&batch).logical_error_rate(0));
        }
        assert!(lers[0] > lers[1] && lers[1] > lers[2], "{lers:?}");
    }

    #[test]
    fn empty_events_predict_nothing() {
        let c = repetition(2, 0.01);
        let decoder = MwpmDecoder::new(&c);
        assert_eq!(decoder.decode_events(&[]), 0);
    }

    #[test]
    fn batch_predictions_match_one_shot_decoding() {
        let c = repetition(4, 0.03);
        let decoder = MwpmDecoder::new(&c);
        let batch = FrameSampler::new(&c).sample(3000, &mut StdRng::seed_from_u64(11));
        let preds = decoder.decode_all(&batch);
        assert_eq!(preds.len(), 3000);
        for shot in (0..3000).step_by(113) {
            let events = batch.detection_events(shot);
            assert_eq!(preds[shot], decoder.decode_events(&events), "shot {shot}");
        }
    }

    #[test]
    fn decode_batch_is_worker_count_independent() {
        let c = repetition(3, 0.04);
        let decoder = MwpmDecoder::new(&c);
        let batch = FrameSampler::new(&c).sample(5000, &mut StdRng::seed_from_u64(21));
        let s1 = rayon::with_worker_cap(1, || decoder.decode_batch(&batch));
        let s4 = rayon::with_worker_cap(4, || decoder.decode_batch(&batch));
        let s16 = rayon::with_worker_cap(16, || decoder.decode_batch(&batch));
        assert_eq!(s1, s4);
        assert_eq!(s1, s16);
        assert_eq!(s1.shots, 5000);
    }

    #[test]
    fn syndrome_cache_counts_and_bounds() {
        let mut cache = SyndromeCache::with_capacity(2);
        for (events, prediction) in [(&[1u32, 2][..], 7), (&[3], 1)] {
            let slot = cache
                .get_or_slot(events)
                .unwrap_err()
                .expect("below capacity");
            cache.fill(slot, events, prediction);
        }
        assert_eq!(cache.get_or_slot(&[1, 2]), Ok(7));
        // At capacity a miss decodes without being stored.
        assert_eq!(cache.get_or_slot(&[4]), Err(None));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 3);
    }

    #[test]
    fn merge_accumulates_tallies() {
        let mut a = DecodeStats {
            shots: 10,
            failures: vec![1, 2],
            cache_hits: 7,
            cache_misses: 3,
            kernel: KernelCounters {
                nodes_explored: 40,
                blossoms_formed: 1,
                ..Default::default()
            },
        };
        let b = DecodeStats {
            shots: 5,
            failures: vec![0, 3],
            cache_hits: 2,
            cache_misses: 1,
            kernel: KernelCounters {
                nodes_explored: 2,
                closed_form: 3,
                ..Default::default()
            },
        };
        a.merge(&b);
        assert_eq!(a.shots, 15);
        assert_eq!(a.failures, vec![1, 5]);
        assert_eq!((a.cache_hits, a.cache_misses), (9, 4));
        assert_eq!(
            a.kernel,
            KernelCounters {
                nodes_explored: 42,
                blossoms_formed: 1,
                closed_form: 3,
                ..Default::default()
            }
        );
        // Merging into a fresh tally is the reduction identity.
        let mut zero = DecodeStats::new(2);
        zero.merge(&a);
        assert_eq!(zero, a);
        // Equality compares results, not the diagnostics: the hit/miss
        // split (and so the kernel's traffic) varies with which pooled
        // cache a chunk borrowed, while tallies are worker-count
        // independent.
        let mut c = a.clone();
        c.cache_hits = 0;
        c.cache_misses = 999;
        c.kernel = KernelCounters::default();
        assert_eq!(a, c);
    }

    #[test]
    fn decode_batch_reports_cache_traffic() {
        let c = repetition(3, 0.04);
        let batch = FrameSampler::new(&c).sample(5000, &mut StdRng::seed_from_u64(21));
        let decoder = MwpmDecoder::new(&c);
        let stats = decoder.decode_batch(&batch);
        // Small-syndrome shots all flow through the cache, so a 5000-
        // shot batch at p=0.04 must generate traffic; the exact
        // hit/miss split is scheduling-dependent, but every cached-path
        // decode is either a hit or a miss and repeated syndromes on a
        // warm per-chunk cache guarantee some hits.
        assert!(
            stats.cache_hits + stats.cache_misses > 0,
            "no cache traffic recorded: {stats:?}"
        );
        assert!(stats.cache_hits > 0, "no hits on a repetition-code batch");
        // A second (warm-pool) decode keeps counting from zero per call.
        let again = decoder.decode_batch(&batch);
        assert!(
            again.cache_hits >= stats.cache_hits,
            "warm pool should not hit less: {} < {}",
            again.cache_hits,
            stats.cache_hits
        );
    }

    #[test]
    fn decode_batch_reports_what_the_kernel_did() {
        let c = repetition(4, 0.04);
        let batch = FrameSampler::new(&c).sample(3000, &mut StdRng::seed_from_u64(5));
        // One worker: which pooled memo a chunk borrows — and so how
        // many shots reach the kernel — depends on chunk scheduling.
        let decode = |d: &dyn Decoder| rayon::with_worker_cap(1, || d.decode_batch(&batch));
        let stats = decode(&MwpmDecoder::new(&c));
        // Every cache miss ran the kernel once per basis: in closed
        // form or through region growth, which explores at least the
        // events' own nodes and ends every tree in a collision.
        let k = stats.kernel;
        assert!(
            k.closed_form > 0 && k.closed_form <= 2 * stats.cache_misses,
            "{k:?}"
        );
        assert!(k.nodes_explored > 0 && k.tree_collisions > 0, "{k:?}");
        assert!(k.blossoms_shattered <= k.blossoms_formed, "{k:?}");
        // Counters are per call, not cumulative over the pooled scratch.
        let again = decode(&MwpmDecoder::new(&c));
        assert_eq!(again.kernel, k);
        // The union-find kernel counts its own exits, and none of the
        // matcher's.
        let uf = decode(&crate::UfDecoder::new(&c)).kernel;
        assert!(uf.closed_form > 0 && uf.uf_shortcut + uf.uf_race > 0);
        assert_eq!((uf.nodes_explored, uf.tree_collisions), (0, 0), "{uf:?}");
        assert_eq!((k.uf_shortcut, k.uf_race, k.uf_growth), (0, 0, 0), "{k:?}");
    }

    #[test]
    fn mwpm_never_materialises_the_path_tables_and_union_find_does() {
        let clean = repetition(3, 0.0);
        let mut mwpm = MwpmDecoder::from_clean(&clean, &NoiseModel::new(2e-2));
        assert!(mwpm.reweight(&NoiseModel::new(1e-2)));
        assert!(mwpm.reweight(&NoiseModel::new(4e-2)));
        let noisy = NoiseModel::new(4e-2).apply(&clean);
        let batch = FrameSampler::new(&noisy).sample(2000, &mut StdRng::seed_from_u64(8));
        let stats = mwpm.decode_batch(&batch);
        assert!(
            stats.kernel.tree_collisions > 0,
            "the matcher must have run"
        );
        mwpm.decode_events(&[0, 1, 3, 4, 6]);
        // None of that could have built a table: a graph has none, and
        // neither does the matcher's view. Whoever wants distances
        // builds them from the graph,
        let tables = PathTables::build(mwpm.z_graph());
        assert!(tables.distance(Some(0), None) > 0.0);

        // and union-find does, once per basis view, keeping them
        // current through reweights: its one-event closed form is a
        // table read.
        let mut uf = crate::UfDecoder::from_clean(&clean, &NoiseModel::new(2e-2));
        assert!(uf.reweight(&NoiseModel::new(4e-2)));
        for det in 0..noisy.detectors().len() as u32 {
            assert_eq!(
                uf.decode_events(&[det]),
                tables.path_observables(Some(det), None)
            );
        }
    }

    #[test]
    fn repeated_detector_ids_cancel_in_pairs() {
        // Detection events are a set under XOR: an id listed twice is
        // not an event, thrice is one.
        let c = repetition(3, 0.02);
        let decoder = MwpmDecoder::new(&c);
        assert_eq!(decoder.decode_events(&[2, 2]), 0);
        assert_eq!(
            decoder.decode_events(&[3, 0, 3]),
            decoder.decode_events(&[0])
        );
        assert_eq!(
            decoder.decode_events(&[1, 4, 1, 2, 1, 4]),
            decoder.decode_events(&[1, 2])
        );
    }

    #[test]
    #[should_panic(expected = "different observable counts")]
    fn merge_rejects_mismatched_observables() {
        let mut a = DecodeStats::new(1);
        a.merge(&DecodeStats::new(2));
    }

    #[test]
    fn reweighted_decoder_matches_fresh_decoder() {
        // Clean repetition circuit; the noise model supplies the errors.
        // Reweighted weights agree with a fresh build to ~1 ulp, which
        // can flip exact ties between degenerate corrections, so compare
        // per-shot predictions with a small tolerance instead of
        // demanding bit-identical tallies.
        let clean = repetition(3, 0.0);
        let mut reweightable = MwpmDecoder::from_clean(&clean, &NoiseModel::new(2e-2));
        for p in [2e-2, 8e-3, 4e-2] {
            let noise = NoiseModel::new(p);
            assert!(reweightable.reweight(&noise));
            let noisy = noise.apply(&clean);
            let fresh = MwpmDecoder::new(&noisy);
            let batch = FrameSampler::new(&noisy).sample(8000, &mut StdRng::seed_from_u64(17));
            let events = batch.detection_events_by_shot();
            let mismatches = events
                .iter()
                .filter(|ev| reweightable.decode_events(ev) != fresh.decode_events(ev))
                .count();
            assert!(
                mismatches <= events.len() / 100,
                "p={p}: {mismatches} of {} predictions differ from a fresh build",
                events.len()
            );
        }
    }

    #[test]
    fn plain_decoder_declines_reweighting() {
        let c = repetition(2, 0.01);
        let mut decoder = MwpmDecoder::new(&c);
        assert!(!decoder.reweight(&NoiseModel::new(1e-3)));
    }

    #[test]
    fn p_zero_template_declines_reweighting() {
        // A p = 0 template inserted no channel: its graphs cannot carry
        // the mechanisms of any p > 0.
        let clean = repetition(2, 0.0);
        let mut decoder = MwpmDecoder::from_clean(&clean, &NoiseModel::new(0.0));
        assert!(decoder.reweight(&NoiseModel::new(0.0)));
        assert!(!decoder.reweight(&NoiseModel::new(1e-3)));
    }

    /// Reweights a decoder of `K` from `p_hi` down to `p_lo` and back
    /// around one batch. The bad qubit keeps its rate while every other
    /// channel scales with `p`, so some matchings change with `p`. A
    /// comes from a twin decoder, which leaves this decoder's memo
    /// empty; the decode at `p_hi` then fills it, and only the pool
    /// clear in `reweight` keeps those predictions from answering at
    /// `p_lo`.
    fn reweight_drops_memoized_predictions_of<K: Kernel>() {
        let clean = repetition(4, 0.0);
        let noise = |p: f64| NoiseModel::new(p).with_bad_qubit(1, 0.2);
        let (p_lo, p_hi) = (2e-3, 8e-2);
        let at_p_lo = || {
            let mut decoder = GraphDecoder::<K>::from_clean(&clean, &noise(p_hi));
            assert!(decoder.reweight(&noise(p_lo)));
            decoder
        };
        let noisy = noise(p_hi).apply(&clean);
        let batch = FrameSampler::new(&noisy).sample(1000, &mut StdRng::seed_from_u64(4));
        let a = at_p_lo().decode_all(&batch);
        let mut decoder = at_p_lo();
        assert!(decoder.reweight(&noise(p_hi)));
        assert_ne!(
            decoder.decode_all(&batch),
            a,
            "some matching must move with p"
        );
        assert!(decoder.reweight(&noise(p_lo)));
        assert_eq!(decoder.decode_all(&batch), a);
    }

    #[test]
    fn reweight_drops_memoized_predictions() {
        reweight_drops_memoized_predictions_of::<Blossom>();
        reweight_drops_memoized_predictions_of::<crate::UfGraph>();
    }

    #[test]
    fn reweight_rejects_changed_overrides() {
        let clean = repetition(2, 0.0);
        let template = NoiseModel::new(1e-2).with_bad_qubit(0, 0.2);
        let mut decoder = MwpmDecoder::from_clean(&clean, &template);
        assert!(decoder.reweight(&NoiseModel::new(5e-3).with_bad_qubit(0, 0.2)));
        assert!(!decoder.reweight(&NoiseModel::new(5e-3)));
        assert!(!decoder.reweight(&NoiseModel::new(5e-3).with_bad_qubit(1, 0.2)));
    }
}
