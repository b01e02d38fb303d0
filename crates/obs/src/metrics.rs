//! Process-global metrics: counters, gauges, and log-bucketed latency
//! histograms behind an interning registry.
//!
//! Hot-path mutation is a relaxed atomic op on a per-thread striped
//! shard — no locks, no contention between threads pinned to different
//! shards. Reads (`snapshot`) merge the shards; they are racy in the
//! benign sense (a snapshot taken mid-increment may miss in-flight
//! ops) which is the standard contract for monitoring counters.
//!
//! Histograms are HDR-style log-linear: values `0..32` get exact unit
//! buckets, and each subsequent power-of-two octave is split into 32
//! linear sub-buckets, bounding relative quantile error at `1/32`
//! (~3.1%) across the full `u64` range with 1920 buckets total.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Number of striped shards per counter/histogram.
const N_SHARDS: usize = 8;

/// Total histogram buckets: 32 exact + 59 octaves x 32 sub-buckets.
pub const BUCKETS: usize = 32 + 59 * 32;

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Globally enables or disables metrics mutation. Disabled metrics
/// cost one relaxed load per call site; existing values are retained.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether metrics mutation is currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Stable per-thread shard assignment (round-robin at first use).
fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed) % N_SHARDS;
    }
    SHARD.with(|s| *s)
}

/// One cache line per shard so striped increments never false-share.
#[repr(align(64))]
#[derive(Debug)]
struct PadCell(AtomicU64);

impl PadCell {
    fn new() -> PadCell {
        PadCell(AtomicU64::new(0))
    }
}

/// A monotonically increasing striped counter.
#[derive(Debug)]
pub struct Counter {
    shards: [PadCell; N_SHARDS],
}

impl Counter {
    fn new() -> Counter {
        Counter {
            shards: std::array::from_fn(|_| PadCell::new()),
        }
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` to this thread's shard.
    pub fn add(&self, n: u64) {
        if enabled() {
            self.shards[shard_index()].0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Sum across shards.
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// A settable signed gauge (single cell: gauges are set, not summed).
#[derive(Debug)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    fn new() -> Gauge {
        Gauge {
            value: AtomicI64::new(0),
        }
    }

    /// Overwrites the gauge.
    pub fn set(&self, v: i64) {
        if enabled() {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// Adds `d` (may be negative).
    pub fn add(&self, d: i64) {
        if enabled() {
            self.value.fetch_add(d, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge that joins the registry on its first [`LazyGauge::set`], for
/// hot paths that intern their handles once but whose value must stay
/// out of snapshots until it exists.
#[derive(Debug)]
pub struct LazyGauge {
    name: String,
    cell: OnceLock<&'static Gauge>,
}

impl LazyGauge {
    /// A handle to the gauge named `name`, not yet registered.
    pub fn new(name: impl Into<String>) -> LazyGauge {
        LazyGauge {
            name: name.into(),
            cell: OnceLock::new(),
        }
    }

    /// Overwrites the gauge, registering it first if this is the first
    /// call.
    pub fn set(&self, v: i64) {
        self.cell
            .get_or_init(|| registry().gauge(&self.name))
            .set(v);
    }
}

/// Maps a value to its log-linear bucket index.
pub fn bucket_index(v: u64) -> usize {
    if v < 32 {
        v as usize
    } else {
        let e = 63 - v.leading_zeros() as usize; // 5..=63
        let sub = ((v >> (e - 5)) & 31) as usize;
        32 + (e - 5) * 32 + sub
    }
}

/// Inclusive `(lo, hi)` value bounds of bucket `idx`.
pub fn bucket_bounds(idx: usize) -> (u64, u64) {
    if idx < 32 {
        (idx as u64, idx as u64)
    } else {
        let e = (idx - 32) / 32 + 5;
        let sub = ((idx - 32) % 32) as u64;
        let lo = (32 + sub) << (e - 5);
        let hi = lo + ((1u64 << (e - 5)) - 1);
        (lo, hi)
    }
}

#[derive(Debug)]
struct HistShard {
    counts: Vec<AtomicU64>, // len BUCKETS
    total: AtomicU64,
    sum: AtomicU64,
}

impl HistShard {
    fn new() -> HistShard {
        HistShard {
            counts: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            total: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// A striped log-bucketed histogram of `u64` samples (latencies in ns).
#[derive(Debug)]
pub struct Histogram {
    shards: Vec<HistShard>, // len N_SHARDS
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            shards: (0..N_SHARDS).map(|_| HistShard::new()).collect(),
        }
    }

    /// Records one sample into this thread's shard.
    pub fn record(&self, v: u64) {
        if !enabled() {
            return;
        }
        let shard = &self.shards[shard_index()];
        shard.counts[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        shard.total.fetch_add(1, Ordering::Relaxed);
        shard.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Merges all shards into an owned snapshot.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut snap = HistSnapshot::new();
        for shard in &self.shards {
            for (i, c) in shard.counts.iter().enumerate() {
                snap.counts[i] += c.load(Ordering::Relaxed);
            }
            snap.count += shard.total.load(Ordering::Relaxed);
            snap.sum += shard.sum.load(Ordering::Relaxed);
        }
        snap
    }
}

/// An owned, mergeable histogram snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket sample counts (`BUCKETS` entries).
    pub counts: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of all recorded values (wrapping add on overflow).
    pub sum: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        Self::new()
    }
}

impl HistSnapshot {
    /// An empty snapshot.
    pub fn new() -> HistSnapshot {
        HistSnapshot {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    /// Records a sample directly (test/reference use).
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
    }

    /// Adds `other`'s buckets into `self`. Associative and commutative.
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// Inclusive `(lo, hi)` bounds of the bucket holding the q-quantile
    /// (the `max(1, ceil(q * count))`-th smallest sample), or `None`
    /// when empty. The true sample value lies within the bounds.
    pub fn quantile_bounds(&self, q: f64) -> Option<(u64, u64)> {
        if self.count == 0 {
            return None;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Some(bucket_bounds(i));
            }
        }
        None
    }

    /// Upper bound of the q-quantile bucket (0 when empty).
    pub fn quantile(&self, q: f64) -> u64 {
        self.quantile_bounds(q).map(|(_, hi)| hi).unwrap_or(0)
    }

    /// Mean of recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Interning registry: `counter("a.b")` always returns the same cell.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, &'static Counter>>,
    gauges: Mutex<BTreeMap<String, &'static Gauge>>,
    histograms: Mutex<BTreeMap<String, &'static Histogram>>,
}

impl Registry {
    /// Returns (interning on first use) the counter named `name`.
    pub fn counter(&self, name: &str) -> &'static Counter {
        let mut map = self.counters.lock().unwrap_or_else(|e| e.into_inner());
        map.entry(name.to_string())
            .or_insert_with(|| Box::leak(Box::new(Counter::new())))
    }

    /// Returns (interning on first use) the gauge named `name`.
    pub fn gauge(&self, name: &str) -> &'static Gauge {
        let mut map = self.gauges.lock().unwrap_or_else(|e| e.into_inner());
        map.entry(name.to_string())
            .or_insert_with(|| Box::leak(Box::new(Gauge::new())))
    }

    /// Returns (interning on first use) the histogram named `name`.
    pub fn histogram(&self, name: &str) -> &'static Histogram {
        let mut map = self.histograms.lock().unwrap_or_else(|e| e.into_inner());
        map.entry(name.to_string())
            .or_insert_with(|| Box::leak(Box::new(Histogram::new())))
    }

    /// A point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> Snapshot {
        let counters = {
            let map = self.counters.lock().unwrap_or_else(|e| e.into_inner());
            map.iter().map(|(k, c)| (k.clone(), c.get())).collect()
        };
        let gauges = {
            let map = self.gauges.lock().unwrap_or_else(|e| e.into_inner());
            map.iter().map(|(k, g)| (k.clone(), g.get())).collect()
        };
        let histograms = {
            let map = self.histograms.lock().unwrap_or_else(|e| e.into_inner());
            map.iter().map(|(k, h)| (k.clone(), h.snapshot())).collect()
        };
        Snapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// The process-global registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// An owned point-in-time view of the registry, renderable as
/// Prometheus text exposition format.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// `(name, value)` for every counter, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge, name-sorted.
    pub gauges: Vec<(String, i64)>,
    /// `(name, snapshot)` for every histogram, name-sorted.
    pub histograms: Vec<(String, HistSnapshot)>,
}

/// Maps a dotted metric name onto the Prometheus grammar.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 5);
    out.push_str("dqec_");
    for ch in name.chars() {
        if ch.is_ascii_alphanumeric() {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    out
}

impl Snapshot {
    /// Renders the snapshot in Prometheus text exposition format:
    /// counters and gauges as scalars, histograms as summaries with
    /// `quantile` labels plus `_sum`/`_count`.
    pub fn prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, v) in &self.counters {
            let n = prom_name(name);
            let _ = writeln!(out, "# TYPE {n} counter\n{n} {v}");
        }
        for (name, v) in &self.gauges {
            let n = prom_name(name);
            let _ = writeln!(out, "# TYPE {n} gauge\n{n} {v}");
        }
        for (name, h) in &self.histograms {
            let n = prom_name(name);
            let _ = writeln!(out, "# TYPE {n} summary");
            for (label, q) in [("0.5", 0.5), ("0.99", 0.99), ("0.999", 0.999)] {
                let _ = writeln!(out, "{n}{{quantile=\"{label}\"}} {}", h.quantile(q));
            }
            let _ = writeln!(out, "{n}_sum {}\n{n}_count {}", h.sum, h.count);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_and_bounds_agree() {
        for v in (0u64..4096).chain([u64::MAX, u64::MAX - 1, 1 << 40, (1 << 40) + 12345]) {
            let idx = bucket_index(v);
            assert!(idx < BUCKETS, "index {idx} out of range for {v}");
            let (lo, hi) = bucket_bounds(idx);
            assert!(lo <= v && v <= hi, "{v} outside bucket [{lo}, {hi}]");
        }
    }

    #[test]
    fn bucket_relative_error_is_bounded() {
        for idx in 32..BUCKETS {
            let (lo, hi) = bucket_bounds(idx);
            let width = hi - lo;
            assert!(
                (width as f64) <= lo as f64 / 32.0,
                "bucket {idx} [{lo}, {hi}] wider than lo/32"
            );
        }
    }

    /// Serialises the tests that record against the one that turns
    /// the process-wide enable flag off: in between, a concurrent
    /// `add` is dropped by design.
    static ENABLE_FLAG: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn registry_interns_and_snapshots() {
        let _flag = ENABLE_FLAG.lock().unwrap_or_else(|e| e.into_inner());
        let reg = Registry::default();
        let c = reg.counter("test.counter");
        c.add(3);
        reg.counter("test.counter").inc();
        assert_eq!(c.get(), 4);
        reg.gauge("test.gauge").set(-7);
        reg.histogram("test.hist").record(100);

        let snap = reg.snapshot();
        assert_eq!(snap.counters, vec![("test.counter".to_string(), 4)]);
        assert_eq!(snap.gauges, vec![("test.gauge".to_string(), -7)]);
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.histograms[0].1.count, 1);

        let text = snap.prometheus();
        assert!(text.contains("dqec_test_counter 4"), "{text}");
        assert!(text.contains("dqec_test_gauge -7"), "{text}");
        assert!(text.contains("dqec_test_hist{quantile=\"0.5\"}"), "{text}");
        assert!(text.contains("dqec_test_hist_count 1"), "{text}");
    }

    #[test]
    fn disabled_metrics_freeze() {
        let _flag = ENABLE_FLAG.lock().unwrap_or_else(|e| e.into_inner());
        let reg = Registry::default();
        let c = reg.counter("x");
        c.inc();
        set_enabled(false);
        c.inc();
        reg.histogram("h").record(5);
        set_enabled(true);
        assert_eq!(c.get(), 1);
        assert_eq!(reg.histogram("h").snapshot().count, 0);
    }

    #[test]
    fn quantiles_on_a_known_distribution() {
        let mut h = HistSnapshot::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        // p50 target is the 500th smallest = 500; bucket bounds must
        // bracket it within the 1/32 relative-error guarantee.
        for (q, truth) in [(0.5, 500u64), (0.99, 990), (0.999, 999)] {
            let (lo, hi) = h.quantile_bounds(q).expect("non-empty");
            assert!(
                lo <= truth && truth <= hi,
                "q={q}: {truth} not in [{lo}, {hi}]"
            );
        }
        assert_eq!(h.mean(), 500.5);
    }
}
