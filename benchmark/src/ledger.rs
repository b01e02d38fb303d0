//! Metric names, units and the rows a run reports.
//!
//! The two tables here are the single list of what the benchmark
//! prints; `BENCHMARK.json` repeats them for the driver and a unit test
//! keeps the two in step.

use crate::stats;
use crate::trace::Tracer;
use std::collections::BTreeMap;

/// End-to-end metrics: name, unit, better direction (every workload
/// reports all three).
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("work_per_s", "1/s", "higher"),
    ("lat_p50_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
];

/// Per-layer metrics: name, unit, and which direction is better (they
/// carry no bound). Grouped by layer; see README.md for what each one
/// measures and which end-to-end metric it should move.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("core.adapt_us", "us", "lower"),
    ("core.indicators_us", "us", "lower"),
    ("core.circuit_gen_us", "us", "lower"),
    ("core.valid_frac", "frac", "higher"),
    ("sim.noise_apply_us", "us", "lower"),
    ("sim.dem_us", "us", "lower"),
    ("sim.sample_ns_per_shot", "ns", "lower"),
    ("sim.shot_events_ns_per_shot", "ns", "lower"),
    ("sim.events_per_shot", "count", "higher"),
    ("matching.build_ms", "ms", "lower"),
    ("matching.reweight_ms", "ms", "lower"),
    ("matching.decode_ns_per_shot", "ns", "lower"),
    ("matching.decode_ns_per_event", "ns", "lower"),
    ("matching.tally_ns_per_shot", "ns", "lower"),
    ("matching.cache_hit_frac", "frac", "higher"),
    ("chiplet.compile_ms", "ms", "lower"),
    ("chiplet.select_point_ms", "ms", "lower"),
    ("chiplet.glue_ns_per_shot", "ns", "lower"),
    ("chiplet.yield_us_per_sample", "us", "lower"),
    ("chiplet.accept_frac", "frac", "higher"),
    ("sweep.run_self_ms", "ms", "lower"),
    ("sweep.rounds", "count", "higher"),
    ("sweep.checkpoint_save_ms", "ms", "lower"),
    ("sweep.checkpoint_load_ms", "ms", "lower"),
    ("sweep.checkpoint_bytes", "bytes", "lower"),
    ("dist.merge_ms", "ms", "lower"),
    ("dist.shard_imbalance", "frac", "lower"),
    ("serve.parse_us", "us", "lower"),
    ("serve.render_us", "us", "lower"),
    ("serve.execute_us", "us", "lower"),
    ("serve.wire_queue_us", "us", "lower"),
    ("serve.cold_compile_ms", "ms", "lower"),
    ("serve.req_bytes", "bytes", "lower"),
    ("serve.resp_bytes", "bytes", "lower"),
    ("serve.errors", "count", "lower"),
    ("serve.cache_hit_frac", "frac", "higher"),
    ("serve.lat_p99_ms", "ms", "lower"),
    ("serve.open.lat_p50_ms", "ms", "lower"),
    ("serve.open.lat_p99_ms", "ms", "lower"),
    ("serve.open.late_ms", "ms", "lower"),
    ("serve.open.backlog_max", "count", "lower"),
    ("rayon.scaling_eff", "frac", "higher"),
    ("obs.metrics_off_gain_frac", "frac", "higher"),
    ("share.core", "frac", "higher"),
    ("share.sim", "frac", "higher"),
    ("share.matching", "frac", "higher"),
    ("share.chiplet", "frac", "lower"),
    ("share.sweep", "frac", "lower"),
    ("share.dist", "frac", "lower"),
    ("share.serve", "frac", "higher"),
    ("share.sim_sample", "frac", "higher"),
    ("share.matching_decode", "frac", "higher"),
    ("share.compile_side", "frac", "higher"),
    ("bench.wall_s", "s", "lower"),
    ("bench.segments", "count", "higher"),
    ("bench.seg_spread_frac", "frac", "lower"),
    ("bench.setup_first_s", "s", "lower"),
    ("bench.peak_rss_mb", "MB", "lower"),
    ("bench.host_ref_ns", "ns", "lower"),
    ("bench.trace_coverage", "frac", "higher"),
    ("bench.trace_overhead_frac", "frac", "lower"),
    ("bench.spans", "count", "higher"),
    ("bench.spans_dropped", "count", "lower"),
    ("bench.ops_attempted", "count", "higher"),
    ("bench.ops_failed", "count", "lower"),
];

/// Span names that make up the compile ("build") side of the pipeline.
const COMPILE_SIDE: &[&str] = &[
    "core.adapt",
    "core.circuit_gen",
    "sim.noise_apply",
    "sim.dem",
    "matching.build",
    "matching.reweight",
    "chiplet.compile",
    "chiplet.select_point",
];

/// One reported number with the spread it was taken from.
#[derive(Debug, Clone)]
pub struct Row {
    /// Metric value.
    pub value: f64,
    /// Smallest sample behind it.
    pub min: f64,
    /// Largest sample behind it.
    pub max: f64,
    /// Number of samples behind it.
    pub n: usize,
}

/// The rows of one run, by metric name.
#[derive(Debug, Default)]
pub struct Ledger {
    rows: BTreeMap<&'static str, Row>,
}

impl Ledger {
    /// A single number with no spread behind it.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.put(name, value, value, value, 1);
    }

    /// The median of `samples` with their extremes.
    pub fn set_median(&mut self, name: &'static str, samples: &[f64]) {
        let (min, max) = stats::min_max(samples);
        self.put(name, stats::median(samples), min, max, samples.len());
    }

    /// A row with everything spelled out.
    pub fn put(&mut self, name: &'static str, value: f64, min: f64, max: f64, n: usize) {
        self.rows.insert(name, Row { value, min, max, n });
    }

    /// The row for `name`, if the run produced one.
    pub fn get(&self, name: &str) -> Option<&Row> {
        self.rows.get(name)
    }

    /// The value for `name`, or `0.0` when the run produced none.
    pub fn value(&self, name: &str) -> f64 {
        self.get(name).map_or(0.0, |r| r.value)
    }
}

/// Median over the spans named `span` of `times[i] / per`, where
/// `times` is indexed like the tracer's spans (durations or self
/// times, in ns).
fn median_of(
    led: &mut Ledger,
    tr: &Tracer,
    metric: &'static str,
    span: &str,
    times: &[u64],
    per: f64,
) {
    let picked = tr.named(span);
    if !picked.is_empty() {
        let v: Vec<f64> = picked.iter().map(|&i| times[i] as f64 / per).collect();
        led.set_median(metric, &v);
    }
}

/// Total of `times` over total work units of the spans named `span`,
/// divided by `per` (ns per unit when `per` is 1).
fn per_unit(
    led: &mut Ledger,
    tr: &Tracer,
    metric: &'static str,
    span: &str,
    times: &[u64],
    per: f64,
) {
    let picked = tr.named(span);
    if picked.is_empty() {
        return;
    }
    let spans = tr.spans();
    let units: u64 = picked.iter().map(|&i| spans[i].units).sum();
    let each: Vec<f64> = picked
        .iter()
        .filter(|&&i| spans[i].units > 0)
        .map(|&i| times[i] as f64 / spans[i].units as f64 / per)
        .collect();
    let (min, max) = stats::min_max(&each);
    let value = ratio(total(tr, span, times), units) / per;
    led.put(metric, value, min, max, each.len());
}

/// Sum of `times` over the spans named `span`.
fn total(tr: &Tracer, span: &str, times: &[u64]) -> u64 {
    tr.named(span).iter().map(|&i| times[i]).sum()
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Fills every row that is read straight off the trace: per-call
/// medians, per-shot costs, count ratios, layer shares and coverage.
/// A row whose spans or counts the workload never recorded stays
/// absent. Shares and coverage use only the spans under a
/// `bench.segment` root.
pub fn rows_from_trace(led: &mut Ledger, tr: &Tracer) {
    let selfs = tr.self_times();
    let durs: Vec<u64> = tr.spans().iter().map(|s| s.dur_ns()).collect();

    for (metric, span, per) in [
        ("core.adapt_us", "core.adapt", 1e3),
        ("core.indicators_us", "core.indicators", 1e3),
        ("core.circuit_gen_us", "core.circuit_gen", 1e3),
        ("sim.noise_apply_us", "sim.noise_apply", 1e3),
        ("sim.dem_us", "sim.dem", 1e3),
        ("matching.reweight_ms", "matching.reweight", 1e6),
        ("chiplet.compile_ms", "chiplet.compile", 1e6),
        ("chiplet.select_point_ms", "chiplet.select_point", 1e6),
        ("sweep.checkpoint_save_ms", "sweep.checkpoint_save", 1e6),
        ("sweep.checkpoint_load_ms", "sweep.checkpoint_load", 1e6),
        ("dist.merge_ms", "dist.merge", 1e6),
        ("serve.parse_us", "serve.parse", 1e3),
        ("serve.render_us", "serve.render", 1e3),
        ("serve.execute_us", "serve.execute", 1e3),
    ] {
        median_of(led, tr, metric, span, &durs, per);
    }
    // `from_clean` minus its inferred noise and DEM children is the
    // graph build; a round trip minus its replayed parse, execute and
    // render is wire and queue. Both are self times.
    median_of(led, tr, "matching.build_ms", "matching.build", &selfs, 1e6);
    median_of(
        led,
        tr,
        "serve.wire_queue_us",
        "serve.roundtrip",
        &selfs,
        1e3,
    );

    for (metric, span, times, per) in [
        ("sim.sample_ns_per_shot", "sim.sample", &durs, 1.0),
        ("sim.shot_events_ns_per_shot", "sim.shot_events", &durs, 1.0),
        ("matching.tally_ns_per_shot", "matching.tally", &durs, 1.0),
        (
            "matching.decode_ns_per_shot",
            "matching.decode_batch",
            &selfs,
            1.0,
        ),
        ("chiplet.yield_us_per_sample", "chiplet.yield", &durs, 1e3),
    ] {
        per_unit(led, tr, metric, span, times, per);
    }
    for (metric, num, den) in [
        ("sim.events_per_shot", "sim.events", "sim.shots"),
        (
            "matching.cache_hit_frac",
            "matching.cache_hits",
            "matching.cache_lookups",
        ),
        ("core.valid_frac", "core.valid", "core.draws"),
        ("chiplet.accept_frac", "chiplet.accepted", "chiplet.judged"),
    ] {
        if tr.counter(den) > 0 {
            led.set(metric, ratio(tr.counter(num), tr.counter(den)));
        }
    }
    if tr.counter("sim.events") > 0 {
        led.set(
            "matching.decode_ns_per_event",
            ratio(
                total(tr, "matching.decode_batch", &selfs),
                tr.counter("sim.events"),
            ),
        );
    }

    // Shares: self time by layer over the replayed wall, spans under a
    // `bench.segment` root only.
    let spans = tr.spans();
    let mut in_segment = vec![false; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        in_segment[i] = match s.parent {
            None => s.name == "bench.segment",
            Some(p) => in_segment[p as usize],
        };
    }
    let wall: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name == "bench.segment")
        .map(|s| s.dur_ns())
        .sum();
    let mut by_layer: BTreeMap<&str, u64> = BTreeMap::new();
    let mut by_name: BTreeMap<&str, u64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if in_segment[i] {
            *by_layer.entry(s.layer()).or_insert(0) += selfs[i];
            *by_name.entry(s.name).or_insert(0) += selfs[i];
        }
    }
    let share = |ns: u64| ratio(ns, wall);
    for (metric, layer) in [
        ("share.core", "core"),
        ("share.sim", "sim"),
        ("share.matching", "matching"),
        ("share.chiplet", "chiplet"),
        ("share.sweep", "sweep"),
        ("share.dist", "dist"),
        ("share.serve", "serve"),
    ] {
        led.set(metric, share(by_layer.get(layer).copied().unwrap_or(0)));
    }
    let name_ns = |n: &str| by_name.get(n).copied().unwrap_or(0);
    led.set("share.sim_sample", share(name_ns("sim.sample")));
    led.set(
        "share.matching_decode",
        share(name_ns("matching.decode_batch")),
    );
    led.set(
        "share.compile_side",
        share(COMPILE_SIDE.iter().map(|n| name_ns(n)).sum()),
    );
    let covered: u64 = by_layer
        .iter()
        .filter(|(layer, _)| **layer != "bench")
        .map(|(_, &ns)| ns)
        .sum();
    led.set("bench.trace_coverage", share(covered));
    led.set("bench.spans", spans.len() as f64);
    led.set("bench.spans_dropped", tr.dropped() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(["higher", "lower"].contains(better));
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics_and_workloads() {
        use dqec_sweep::json::{parse, Json};
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String, String)> {
            let field = |m: &Json, f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("a list")
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
                .collect()
        };
        let table = |t: &[(&str, &str, &str)]| -> Vec<(String, String, String)> {
            t.iter()
                .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), table(END_TO_END));
        assert_eq!(listed("per_layer"), table(PER_LAYER));
        let workloads: Vec<String> = listed("workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, crate::workloads::NAMES);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(crate::harness::REF_SECONDS)
        );
    }

    #[test]
    fn shares_and_coverage_come_from_segment_spans() {
        let mut tr = Tracer::new(64);
        let sleep = |ms| std::thread::sleep(std::time::Duration::from_millis(ms));
        // Outside any segment: counted in per-call rows, not in shares.
        tr.time("core.adapt", 1, || sleep(1));
        let seg = tr.enter("bench.segment");
        tr.time("sim.sample", 100, || sleep(4));
        let d = tr.enter("matching.decode_batch");
        sleep(4);
        tr.exit(d);
        tr.set_units(d, 100);
        tr.infer_child(d, "sim.shot_events", 1_000_000, 100);
        tr.exit(seg);
        let mut led = Ledger::default();
        rows_from_trace(&mut led, &tr);
        assert_eq!(led.value("share.core"), 0.0);
        let (sim, mat) = (led.value("share.sim"), led.value("share.matching"));
        assert!(sim > 0.5 && sim < 0.7, "{sim}");
        assert!(mat > 0.25 && mat < 0.45, "{mat}");
        assert!(led.value("share.sim_sample") < sim);
        let cov = led.value("bench.trace_coverage");
        assert!(cov > 0.9 && cov <= 1.0, "{cov}");
        assert!(led.value("core.adapt_us") >= 1000.0);
        assert!(led.value("sim.sample_ns_per_shot") >= 40_000.0);
        assert_eq!(led.value("bench.spans_dropped"), 0.0);
    }
}
