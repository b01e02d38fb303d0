//! The compiled-experiment cache: the server-side seam that amortizes
//! circuit generation and decoder construction (detector-error-model
//! extraction dominates; union-find adds all-pairs shortest paths)
//! across every request that shares a (patch, decoder, noise)
//! configuration.
//!
//! The cache is keyed on the **request**, not on what it compiles to:
//! [`request_key`] hashes the fields of a [`DecodeRequest`] that
//! determine its [`CompiledExperiment`] — `d`, the defects that lie
//! inside the `d x d` layout, `p`, `rounds` and the decoder — and none
//! of the serving parameters (shots, seed, id), so requests that differ
//! only in those share one entry. A hit therefore touches only compiled
//! state; patch adaptation ([`normalized_spec`]) and compilation run on
//! a miss. One consequence: `rounds: Some(r)` with `r` equal to the
//! patch's default round count gets its own entry beside the
//! `rounds: None` one, although the two compile alike.
//!
//! Each request is sampled under its *own* seed through
//! [`CompiledExperiment::sample_batches_with_seed`] with the standard
//! [`BATCH_SHOTS`]-shot batch layout, which makes a served tally
//! bit-identical to a one-shot [`Runner`](dqec_chiplet::runner::Runner)
//! run of the same request — the conformance property the CI smoke job
//! diffs.
//!
//! Eviction is LRU over a monotonic use tick; capacity 0 disables
//! caching entirely (every request compiles, counted as a miss), which
//! is the `bench_serve` cold mode.

use crate::protocol::{DecodeRequest, ErrorKind, ErrorResponse, LerResponse};
use dqec_chiplet::runner::{coord_word, CompiledExperiment, ExperimentSpec, Fnv, BATCH_SHOTS};
use dqec_core::adapt::AdaptedPatch;
use dqec_core::layout::PatchLayout;
use dqec_matching::{DecodeStats, DecodeStatsMetrics};
use dqec_obs::{Clock, Gauge, Histogram, LazyGauge};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

#[cfg(test)]
thread_local! {
    /// How often this thread ran [`normalized_spec`] (and with it
    /// `AdaptedPatch::new`).
    static NORMALIZED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The normalized experiment spec a decode request compiles to: same
/// patch, protocol, error rate, rounds, and decoder backend — shots,
/// seed, and label pinned, as they are serving parameters.
pub fn normalized_spec(req: &DecodeRequest) -> ExperimentSpec {
    #[cfg(test)]
    NORMALIZED.with(|n| n.set(n.get() + 1));
    let layout = PatchLayout::memory(req.d);
    let defects = req.defects.clamp_to(&layout);
    let patch = AdaptedPatch::new(layout, &defects);
    let mut spec = ExperimentSpec::memory(patch)
        .p(req.p)
        .shots(0)
        .seed(0)
        .label("serve")
        .decoder(req.decoder.builder());
    if let Some(rounds) = req.rounds {
        spec = spec.rounds(rounds);
    }
    spec
}

/// The cache key of a validated request: FNV-1a over `d`, the defects
/// [`DefectSet::clamp_to`](dqec_core::DefectSet::clamp_to) would keep
/// for the `d x d` memory layout (filtered while hashing, nothing
/// allocated), the bits of `p`, `rounds` (`None` apart from every
/// `Some`) and the decoder name.
///
/// # Panics
///
/// Panics if `req.d < 2`, which [`DecodeRequest::validate`] rejects.
pub fn request_key(req: &DecodeRequest) -> u64 {
    let layout = PatchLayout::memory(req.d);
    // Ends a defect list; no in-layout coordinate is (-1, -1).
    const END: u64 = u64::MAX;
    let mut h = Fnv::new();
    h.word(u64::from(req.d));
    for c in req.defects.data_in(&layout) {
        h.word(coord_word(c));
    }
    h.word(END);
    for c in req.defects.synd_in(&layout) {
        h.word(coord_word(c));
    }
    h.word(END);
    for (d, f) in req.defects.links_in(&layout) {
        h.word(coord_word(d));
        h.word(coord_word(f));
    }
    h.word(END);
    h.word(req.p.to_bits());
    h.word(req.rounds.map_or(0, |r| u64::from(r) + 1));
    h.bytes(req.decoder.name().as_bytes());
    h.finish()
}

struct Entry {
    exp: Arc<CompiledExperiment>,
    last_used: u64,
}

/// Aggregate cache counters (compiled-experiment level plus the
/// syndrome-memoization traffic of every decode served through
/// [`ExperimentCache::execute`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheCounters {
    /// Requests answered from a resident compiled experiment.
    pub hits: u64,
    /// Requests that had to compile.
    pub misses: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Syndrome-cache hits summed over executed requests.
    pub syndrome_hits: u64,
    /// Syndrome-cache misses summed over executed requests.
    pub syndrome_misses: u64,
}

/// Interned handles to everything [`ExperimentCache::execute`]
/// publishes per request, so the warm path takes no registry lock.
struct Published {
    decode: &'static Histogram,
    tally: DecodeStatsMetrics,
    entries: &'static Gauge,
    hit_rate_bp: &'static Gauge,
    /// Registered with the first syndrome-cache lookup.
    syndrome_hit_rate_bp: LazyGauge,
}

fn published() -> &'static Published {
    static PUBLISHED: OnceLock<Published> = OnceLock::new();
    PUBLISHED.get_or_init(|| {
        let reg = dqec_obs::registry();
        Published {
            decode: reg.histogram("serve.stage.decode"),
            tally: DecodeStatsMetrics::new("serve.decode"),
            entries: reg.gauge("serve.cache.entries"),
            hit_rate_bp: reg.gauge("serve.cache.hit_rate_bp"),
            syndrome_hit_rate_bp: LazyGauge::new("serve.syndrome.hit_rate_bp"),
        }
    })
}

/// An LRU cache of [`CompiledExperiment`]s keyed by [`request_key`].
pub struct ExperimentCache {
    capacity: usize,
    tick: u64,
    entries: BTreeMap<u64, Entry>,
    counters: CacheCounters,
}

impl ExperimentCache {
    /// A cache holding at most `capacity` compiled experiments;
    /// capacity 0 disables caching (every request compiles).
    pub fn new(capacity: usize) -> Self {
        ExperimentCache {
            capacity,
            tick: 0,
            entries: BTreeMap::new(),
            counters: CacheCounters::default(),
        }
    }

    /// Counter snapshot.
    pub fn counters(&self) -> CacheCounters {
        let mut c = self.counters;
        c.entries = self.entries.len() as u64;
        c
    }

    /// One cache lookup: advances the use tick and, on a hit, marks the
    /// entry used and counts the hit.
    fn lookup(&mut self, key: u64) -> Option<Arc<CompiledExperiment>> {
        self.tick += 1;
        let entry = self.entries.get_mut(&key)?;
        entry.last_used = self.tick;
        self.counters.hits += 1;
        Some(Arc::clone(&entry.exp))
    }

    /// The miss half of a lookup: compiles `spec`, counts the miss, and
    /// inserts the result under `key`, evicting as needed.
    fn compile(
        &mut self,
        key: u64,
        spec: &ExperimentSpec,
        id: u64,
    ) -> Result<Arc<CompiledExperiment>, ErrorResponse> {
        self.counters.misses += 1;
        let _span = dqec_obs::trace::span("serve.compile");
        let t0 = Clock::now_ns();
        let mut compiled = CompiledExperiment::new(spec).map_err(|e| ErrorResponse {
            id: Some(id),
            kind: ErrorKind::BadRequest,
            detail: format!("cannot compile experiment: {e}"),
        })?;
        dqec_obs::registry()
            .histogram("serve.stage.compile")
            .record(Clock::now_ns().saturating_sub(t0));
        // Single-point spec: select once at insert so every request
        // sampled from this entry reuses the reweighted decoder and
        // frame program.
        compiled.select_point(0);
        let exp = Arc::new(compiled);
        if self.capacity > 0 {
            while self.entries.len() >= self.capacity {
                // Evict the least-recently-used entry; BTreeMap keeps
                // the scan deterministic.
                let lru = self
                    .entries
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| *k);
                match lru {
                    Some(k) => {
                        self.entries.remove(&k);
                        self.counters.evictions += 1;
                    }
                    None => break,
                }
            }
            self.entries.insert(
                key,
                Entry {
                    exp: Arc::clone(&exp),
                    last_used: self.tick,
                },
            );
        }
        Ok(exp)
    }

    /// Runs one decode request end to end: validate, fetch or compile,
    /// then sample `shots` under the request's seed in the standard
    /// batch layout. `batched` reports how many requests of the
    /// current coalesced batch share the entry (1 when serving solo).
    /// Returns the response and the raw tally (whose syndrome-cache
    /// counters have already been folded into [`Self::counters`]).
    ///
    /// # Errors
    ///
    /// A typed [`ErrorResponse`] of kind `bad-request` for validation
    /// or compilation failures (degenerate patch, bad rounds) — both
    /// are properties of the request, not the server.
    pub fn execute(
        &mut self,
        req: &DecodeRequest,
        batched: usize,
    ) -> Result<(LerResponse, DecodeStats), ErrorResponse> {
        req.validate().map_err(|detail| ErrorResponse {
            id: Some(req.id),
            kind: ErrorKind::BadRequest,
            detail,
        })?;
        let key = request_key(req);
        let (exp, hit) = match self.lookup(key) {
            Some(exp) => (exp, true),
            None => (self.compile(key, &normalized_spec(req), req.id)?, false),
        };
        let num_batches = req.shots.div_ceil(BATCH_SHOTS) as u64;
        let t0 = Clock::now_ns();
        let stats = {
            let _span = dqec_obs::trace::span("serve.decode");
            exp.sample_batches_with_seed(0..num_batches, BATCH_SHOTS, req.shots, req.seed)
        };
        self.counters.syndrome_hits += stats.cache_hits;
        self.counters.syndrome_misses += stats.cache_misses;
        self.publish_metrics(&stats, Clock::now_ns().saturating_sub(t0));
        let resp = LerResponse {
            id: req.id,
            d: req.d,
            p: req.p,
            rounds: exp.spec().effective_rounds(),
            decoder: req.decoder,
            seed: req.seed,
            shots: stats.shots,
            failures: stats.failures.first().copied().unwrap_or(0) as u64,
            cache_hit: hit,
            batched,
        };
        Ok((resp, stats))
    }

    /// Folds one executed request into the obs registry: the decode
    /// stage histogram, the tally bridge, and the hit-rate gauges of
    /// both cache levels.
    fn publish_metrics(&self, stats: &DecodeStats, decode_ns: u64) {
        let published = published();
        published.decode.record(decode_ns);
        stats.publish(&published.tally);
        let c = self.counters;
        published.entries.set(self.entries.len() as i64);
        let lookups = c.hits + c.misses;
        if lookups > 0 {
            let bp = (c.hits as f64 / lookups as f64 * 10_000.0) as i64;
            published.hit_rate_bp.set(bp);
        }
        let syndrome = c.syndrome_hits + c.syndrome_misses;
        if syndrome > 0 {
            let bp = (c.syndrome_hits as f64 / syndrome as f64 * 10_000.0) as i64;
            published.syndrome_hit_rate_bp.set(bp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqec_chiplet::runner::DecoderChoice;
    use dqec_core::{Coord, DefectSet};

    fn req(id: u64, d: u32, p: f64, seed: u64, decoder: DecoderChoice) -> DecodeRequest {
        DecodeRequest {
            id,
            d,
            p,
            rounds: None,
            shots: 512,
            seed,
            decoder,
            defects: DefectSet::new(),
        }
    }

    #[test]
    fn same_configuration_hits_different_seed_or_shots() {
        let mut cache = ExperimentCache::new(4);
        let (r1, _) = cache
            .execute(&req(1, 3, 3e-3, 0, DecoderChoice::Mwpm), 1)
            .unwrap();
        assert!(!r1.cache_hit);
        // Different seed and id: same compiled experiment.
        let (r2, _) = cache
            .execute(&req(2, 3, 3e-3, 7, DecoderChoice::Mwpm), 1)
            .unwrap();
        assert!(r2.cache_hit);
        let c = cache.counters();
        assert_eq!((c.hits, c.misses, c.entries), (1, 1, 1));
    }

    #[test]
    fn decoder_backend_and_defects_split_the_key() {
        let mut cache = ExperimentCache::new(8);
        cache
            .execute(&req(1, 3, 3e-3, 0, DecoderChoice::Mwpm), 1)
            .unwrap();
        cache
            .execute(&req(2, 3, 3e-3, 0, DecoderChoice::Uf), 1)
            .unwrap();
        let mut defective = req(3, 3, 3e-3, 0, DecoderChoice::Mwpm);
        defective.defects.add_synd(Coord::new(2, 2));
        cache.execute(&defective, 1).unwrap();
        let c = cache.counters();
        assert_eq!((c.hits, c.misses, c.entries), (0, 3, 3));
    }

    #[test]
    fn request_key_ignores_serving_parameters_and_out_of_layout_defects() {
        let mut base = req(1, 5, 3e-3, 0, DecoderChoice::Mwpm);
        base.defects.add_data(Coord::new(3, 3));
        base.defects.add_synd(Coord::new(4, 4));
        base.defects.add_link(Coord::new(5, 5), Coord::new(6, 6));
        let key = request_key(&base);

        let mut same = base.clone();
        same.id = 99;
        same.seed = 7;
        same.shots = 16;
        // A data qubit and a face off the 5x5 patch, a face site that
        // the layout does not keep, and links that are out of the
        // patch or not a coupler.
        same.defects.add_data(Coord::new(11, 3));
        same.defects.add_synd(Coord::new(12, 12));
        same.defects.add_synd(Coord::new(0, 0));
        same.defects
            .add_link(Coord::new(13, 13), Coord::new(14, 14));
        same.defects.add_link(Coord::new(1, 1), Coord::new(4, 4));
        assert_eq!(request_key(&same), key);
        assert_eq!(
            normalized_spec(&same).fingerprint(),
            normalized_spec(&base).fingerprint(),
            "the key must clamp exactly as the spec does"
        );
    }

    #[test]
    fn request_key_splits_on_every_compilation_parameter() {
        let mut base = req(1, 5, 3e-3, 0, DecoderChoice::Mwpm);
        base.defects.add_data(Coord::new(3, 3));
        type Change = Box<dyn Fn(&mut DecodeRequest)>;
        let variants: Vec<(&str, Change)> = vec![
            ("d", Box::new(|r| r.d = 7)),
            ("p", Box::new(|r| r.p = 3.0000000000000005e-3)),
            ("rounds", Box::new(|r| r.rounds = Some(5))),
            ("decoder", Box::new(|r| r.decoder = DecoderChoice::Uf)),
            (
                "data defect",
                Box::new(|r| r.defects.add_data(Coord::new(5, 5))),
            ),
            (
                "face defect",
                Box::new(|r| r.defects.add_synd(Coord::new(4, 4))),
            ),
            (
                "link defect",
                Box::new(|r| r.defects.add_link(Coord::new(5, 5), Coord::new(6, 6))),
            ),
            (
                // The same coordinates as a data qubit plus a face.
                "defect kind",
                Box::new(|r| {
                    r.defects.data.clear();
                    r.defects.add_link(Coord::new(3, 3), Coord::new(4, 4));
                }),
            ),
        ];
        let mut keys = vec![request_key(&base)];
        for (what, change) in &variants {
            let mut r = base.clone();
            change(&mut r);
            let key = request_key(&r);
            assert!(!keys.contains(&key), "{what} must split the key");
            keys.push(key);
        }
        // `rounds: None` is apart from every explicit count, the
        // patch's default (5 here) included.
        let mut zero = base.clone();
        zero.rounds = Some(0);
        assert!(!keys.contains(&request_key(&zero)));
    }

    #[test]
    fn a_hit_adapts_no_patch() {
        let mut cache = ExperimentCache::new(4);
        let mut r = req(1, 5, 3e-3, 0, DecoderChoice::Uf);
        r.defects.add_data(Coord::new(3, 3));
        let before = NORMALIZED.with(std::cell::Cell::get);
        let (cold, _) = cache.execute(&r, 1).unwrap();
        assert!(!cold.cache_hit);
        assert_eq!(NORMALIZED.with(std::cell::Cell::get), before + 1);
        for seed in 1..5 {
            r.seed = seed;
            let (warm, _) = cache.execute(&r, 1).unwrap();
            assert!(warm.cache_hit);
        }
        assert_eq!(
            NORMALIZED.with(std::cell::Cell::get),
            before + 1,
            "a hit must not run normalized_spec"
        );
    }

    #[test]
    fn explicit_default_rounds_get_their_own_entry() {
        let mut cache = ExperimentCache::new(4);
        let implicit = req(1, 3, 3e-3, 0, DecoderChoice::Uf);
        let mut explicit = implicit.clone();
        explicit.rounds = Some(3);
        let (a, _) = cache.execute(&implicit, 1).unwrap();
        let (b, _) = cache.execute(&explicit, 1).unwrap();
        assert_eq!(a.rounds, b.rounds);
        assert!(
            !b.cache_hit,
            "keyed on the request, not on what it compiles to"
        );
        assert_eq!((a.shots, a.failures), (b.shots, b.failures));
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let mut cache = ExperimentCache::new(2);
        let a = req(1, 3, 1e-3, 0, DecoderChoice::Mwpm);
        let b = req(2, 3, 2e-3, 0, DecoderChoice::Mwpm);
        let c = req(3, 3, 4e-3, 0, DecoderChoice::Mwpm);
        cache.execute(&a, 1).unwrap(); // a
        cache.execute(&b, 1).unwrap(); // a b
        cache.execute(&a, 1).unwrap(); // touch a -> b is LRU
        cache.execute(&c, 1).unwrap(); // evicts b
        assert_eq!(cache.counters().evictions, 1);
        cache.execute(&a, 1).unwrap(); // still resident
        assert_eq!(cache.counters().hits, 2);
        cache.execute(&b, 1).unwrap(); // recompiles
        assert_eq!(cache.counters().misses, 4);
    }

    #[test]
    fn capacity_zero_always_compiles() {
        let mut cache = ExperimentCache::new(0);
        let r = req(1, 3, 3e-3, 0, DecoderChoice::Mwpm);
        cache.execute(&r, 1).unwrap();
        cache.execute(&r, 1).unwrap();
        let c = cache.counters();
        assert_eq!((c.hits, c.misses, c.entries), (0, 2, 0));
    }

    #[test]
    fn served_tally_matches_one_shot_runner() {
        use dqec_chiplet::record::NullSink;
        use dqec_chiplet::runner::{ExperimentSpec, Runner};

        let request = DecodeRequest {
            id: 1,
            d: 3,
            p: 6e-3,
            rounds: None,
            shots: 3000, // not a multiple of 4096: exercises truncation
            seed: 11,
            decoder: DecoderChoice::Uf,
            defects: DefectSet::new(),
        };
        let mut cache = ExperimentCache::new(2);
        let (served, _) = cache.execute(&request, 1).unwrap();

        let patch = AdaptedPatch::new(PatchLayout::memory(3), &DefectSet::new());
        let spec = ExperimentSpec::memory(patch)
            .p(6e-3)
            .shots(3000)
            .seed(11)
            .decoder(DecoderChoice::Uf.builder());
        let outcome = Runner::new().run(&spec, &mut NullSink).unwrap();
        assert_eq!(served.shots, outcome.points[0].shots);
        assert_eq!(served.failures as usize, outcome.points[0].failures);
    }

    #[test]
    fn compile_failures_become_bad_request() {
        // Rounds below the gauge-schedule requirement trip a typed
        // CoreError during compilation.
        let mut bad = req(5, 5, 3e-3, 0, DecoderChoice::Mwpm);
        bad.defects.add_synd(Coord::new(4, 4));
        bad.rounds = Some(1);
        let err = ExperimentCache::new(2).execute(&bad, 1).unwrap_err();
        assert_eq!(err.kind, crate::protocol::ErrorKind::BadRequest);
        assert_eq!(err.id, Some(5));
    }
}
