//! The run loop shared by the four workloads: fixed-work sizing,
//! repeated cold set-up, one discarded warm-up segment and then
//! identical timed segments, correctness checks, and the report.

use crate::ledger::{rows_from_trace, Ledger, END_TO_END, PER_LAYER};
use crate::stats;
use crate::trace::Tracer;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The `--seconds` value the base work counts are sized for: with it
/// (and `--scale 1`) a timed run of every workload — inputs, nine cold
/// set-ups, the warm-up and the timed segments — takes about this long
/// at the commit that introduced the benchmark.
pub const REF_SECONDS: f64 = 25.0;

/// Cold set-ups per untraced run (no workload has fewer timed segments).
const SETUP_REPEATS: usize = 9;

/// Untraced segments a traced run times before replaying, and the
/// number of segments it replays.
const TRACED_SEGMENTS: usize = 3;

/// Span capacity of the recorder; a replay stays far below it.
const SPAN_CAP: usize = 4_000_000;

/// Iterations of the host reference loop.
const HOST_REF_ITERS: u64 = 20_000_000;

/// Parsed command line of one run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Seed of every generated input.
    pub seed: u64,
    /// Requested measuring time; scales the fixed work.
    pub seconds: f64,
    /// Extra multiplier on shot and request counts.
    pub scale: f64,
    /// Where result and trace files go.
    pub out_dir: PathBuf,
}

/// Fixed-work sizing: every base count of a workload is multiplied by
/// `seconds / REF_SECONDS × scale`, never by anything measured, so op
/// counts repeat exactly for given arguments.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    factor: f64,
}

impl Sizing {
    /// Sizing for `--seconds` and `--scale`.
    pub fn new(seconds: f64, scale: f64) -> Self {
        Sizing {
            factor: seconds / REF_SECONDS * scale,
        }
    }

    /// `base` scaled and rounded, at least 1.
    pub fn count(&self, base: usize) -> usize {
        ((base as f64 * self.factor).round() as usize).max(1)
    }
}

/// Shots and logical failures of one op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Tally {
    /// Shots decoded.
    pub shots: u64,
    /// Logical failures among them.
    pub failures: u64,
}

/// What one segment (timed or replayed) produced.
#[derive(Debug, Clone, Default)]
pub struct Segment {
    /// Time of each op, ms, in op order.
    pub op_ms: Vec<f64>,
    /// Tally of each op, in op order: must be bit-identical between
    /// segments and between the top-level path and the replay.
    pub tallies: Vec<Tally>,
    /// Ops whose own check failed (a reply that differs from the
    /// in-process result, an error response, a state mismatch).
    pub failed_ops: u64,
}

/// The median time of each op across `segments`, ms (every segment
/// runs the same ops in the same order).
pub fn median_op_ms(segments: &[Segment]) -> Vec<f64> {
    let ops = segments.iter().map(|s| s.op_ms.len()).min().unwrap_or(0);
    (0..ops)
        .map(|k| stats::median(&segments.iter().map(|s| s.op_ms[k]).collect::<Vec<_>>()))
        .collect()
}

/// One of the four workloads. `State` is what a cold set-up produces
/// and the segments run on.
pub trait Workload {
    /// Result of a cold set-up.
    type State;

    /// The unit of `work_per_s`.
    fn unit(&self) -> &'static str;
    /// Timed segments of an untraced run.
    fn segments(&self) -> usize;
    /// Work units one segment completes.
    fn units_per_segment(&self) -> f64;
    /// Pooled logical error rate of a segment recorded at the commit
    /// that introduced the benchmark (the middle of what eight seeds
    /// gave); a segment must land within the band of [`ler_in_band`].
    fn reference_ler(&self) -> f64;
    /// Cold set-up from generated inputs to the first op being
    /// possible; its wall time is what `setup_s` measures.
    fn setup(&self) -> Self::State;
    /// Releases a set-up outside the timed region (default: drop).
    fn teardown(&self, state: Self::State) {
        drop(state);
    }
    /// One segment through the top-level API.
    fn segment(&self, state: &mut Self::State) -> Segment;
    /// `segments` segments driven by hand, a span around each call;
    /// each segment under a `bench.segment` root span.
    fn replay(&self, state: &mut Self::State, tr: &mut Tracer, segments: usize) -> Vec<Segment>;
    /// Per-layer rows only this workload can measure, and extra checks,
    /// returned as `(ops attempted, ops failed)`.
    fn extras(
        &self,
        state: &mut Self::State,
        tr: &mut Tracer,
        timed: &Timed,
        led: &mut Ledger,
    ) -> (u64, u64);
}

/// The timed segments of a run.
#[derive(Debug, Default)]
pub struct Timed {
    /// Wall time of each segment, s.
    pub seg_wall_s: Vec<f64>,
    /// The segments.
    pub segments: Vec<Segment>,
    /// Work units per segment.
    pub units: f64,
}

impl Timed {
    /// Work units per second of each segment.
    pub fn rates(&self) -> Vec<f64> {
        self.seg_wall_s.iter().map(|w| self.units / w).collect()
    }

    /// Every op time of every segment, ms.
    pub fn pooled_op_ms(&self) -> Vec<f64> {
        self.segments
            .iter()
            .flat_map(|s| s.op_ms.iter().copied())
            .collect()
    }
}

/// A fixed integer loop (xorshift64), timed: a reading of how fast the
/// host is running right now. Reported, never used to normalise.
pub fn host_ref_ns() -> f64 {
    let t = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..HOST_REF_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    t.elapsed().as_nanos() as f64
}

/// Peak resident set size of this process, MB (`VmHWM`; 0 when
/// `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// How far a segment's pooled logical error rate may sit from the
/// pinned reference, as a factor. The populations are drawn from the
/// seed — whether an l = 5 patch keeps distance 4 or drops to 3 moves
/// its error rate tenfold — so the pooled rate itself spans a factor
/// 2.5 over seeds; a decoder that is actually broken is off by a
/// hundred.
const LER_BAND: f64 = 4.0;

/// Whether `failures` among `shots` is within a factor [`LER_BAND`] of
/// the pinned rate `reference`, widened by four standard deviations of
/// the count at each edge so a short `--scale` smoke does not fail on
/// noise.
pub fn ler_in_band(failures: u64, shots: u64, reference: f64) -> bool {
    let n = shots as f64;
    let lo = reference / LER_BAND * n;
    let hi = reference * LER_BAND * n;
    let f = failures as f64;
    f >= lo - 4.0 * lo.sqrt() - 1.0 && f <= hi + 4.0 * hi.sqrt() + 1.0
}

/// Runs `segments` timed segments after one discarded warm-up, and
/// `between(i)` after the `i`-th timed one.
fn time_segments<W: Workload>(
    w: &W,
    state: &mut W::State,
    segments: usize,
    mut between: impl FnMut(usize),
) -> Timed {
    let mut timed = Timed {
        units: w.units_per_segment(),
        ..Timed::default()
    };
    for i in 0..=segments {
        let t = Instant::now();
        let seg = w.segment(state);
        let wall = t.elapsed().as_secs_f64();
        if i > 0 {
            timed.seg_wall_s.push(wall);
            timed.segments.push(seg);
            between(i);
        }
    }
    timed
}

/// Checks shared by every workload; returns `(attempted, failed)` ops.
/// An op fails when its own check failed, when its tally differs from
/// the same op of the first segment (or, for replayed segments, of the
/// top-level path), or — every op of the segment — when the segment's
/// pooled logical error rate leaves the pinned band.
fn check_segments(segments: &[&Segment], reference: &Segment, ler: f64) -> (u64, u64) {
    let (mut attempted, mut failed) = (0u64, 0u64);
    for seg in segments {
        let ops = seg.tallies.len() as u64;
        attempted += ops;
        let mismatched = seg
            .tallies
            .iter()
            .zip(&reference.tallies)
            .filter(|(a, b)| a != b)
            .count() as u64
            + seg.tallies.len().abs_diff(reference.tallies.len()) as u64;
        let shots: u64 = seg.tallies.iter().map(|t| t.shots).sum();
        let failures: u64 = seg.tallies.iter().map(|t| t.failures).sum();
        failed += if ler_in_band(failures, shots, ler) {
            (seg.failed_ops + mismatched).min(ops)
        } else {
            eprintln!(
                "check: pooled LER {failures}/{shots} outside a factor {LER_BAND} of the pinned {ler:e}"
            );
            ops
        };
    }
    (attempted, failed)
}

/// Everything a finished run reports.
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Traced run?
    pub trace: bool,
    /// The rows.
    pub ledger: Ledger,
    /// Ops attempted, over timed, replayed and extra-check ops.
    pub attempted: u64,
    /// Ops that failed a check.
    pub failed: u64,
    /// Unit of `work_per_s`.
    pub unit: &'static str,
}

/// A cold set-up and its wall time, s.
fn time_setup<W: Workload>(w: &W) -> (W::State, f64) {
    let t = Instant::now();
    let state = w.setup();
    (state, t.elapsed().as_secs_f64())
}

/// The untraced run: `setup_s` as the median of nine cold set-ups,
/// `work_per_s` as the median over the timed segments, `lat_p50_ms` as
/// the median over every op of every timed segment.
pub fn run_timed<W: Workload>(w: &W, workload: &str) -> Report {
    let mut led = Ledger::default();
    let ref_before = host_ref_ns();
    let wall = Instant::now();

    // The first set-up's state runs every segment; the other cold
    // set-ups are spread evenly between the timed segments, so that
    // their median samples the host over the whole run and not over its
    // first three seconds.
    let (mut state, first_s) = time_setup(w);
    let mut setups_s = vec![first_s];
    let (n, extra) = (w.segments(), SETUP_REPEATS - 1);
    let timed = time_segments(w, &mut state, n, |done| {
        if done * extra / n > (done - 1) * extra / n {
            let (again, took) = time_setup(w);
            w.teardown(again);
            setups_s.push(took);
        }
    });
    w.teardown(state);

    let segs: Vec<&Segment> = timed.segments.iter().collect();
    let (attempted, mut failed) = check_segments(&segs, &timed.segments[0], w.reference_ler());

    led.set_median("setup_s", &setups_s);
    led.set_median("work_per_s", &timed.rates());
    led.set_median("lat_p50_ms", &timed.pooled_op_ms());
    failed += unusable_gated(&led);
    // Reported beside the gated three for the human table only.
    led.set("bench.setup_first_s", setups_s[0]);
    run_rows(&mut led, &timed, wall, ref_before);
    Report {
        workload: workload.to_string(),
        trace: false,
        ledger: led,
        attempted,
        failed,
        unit: w.unit(),
    }
}

/// End-to-end metrics the run cannot vouch for: missing, not finite or
/// not positive. Each counts as a failed op, so a broken measurement
/// makes the run incorrect instead of reading as a perfect time.
fn unusable_gated(led: &Ledger) -> u64 {
    END_TO_END
        .iter()
        .filter(|(name, ..)| {
            let usable = led
                .get(name)
                .is_some_and(|r| r.value.is_finite() && r.value > 0.0);
            if !usable {
                eprintln!("check: end-to-end metric {name} was not measured");
            }
            !usable
        })
        .count() as u64
}

/// The rows about the run itself, shared by both kinds of run.
fn run_rows(led: &mut Ledger, timed: &Timed, started: Instant, ref_before: f64) {
    led.set("bench.seg_spread_frac", stats::iqr_frac(&timed.rates()));
    led.set("bench.segments", timed.segments.len() as f64);
    led.set("bench.wall_s", started.elapsed().as_secs_f64());
    led.set("bench.peak_rss_mb", peak_rss_mb());
    led.set_median("bench.host_ref_ns", &[ref_before, host_ref_ns()]);
}

/// The traced run: a short untraced slice for the reference rate and
/// tallies, the hand-driven replay, the workload's extras, then every
/// per-layer row.
pub fn run_traced<W: Workload>(w: &W, workload: &str, tr: &mut Tracer) -> Report {
    let mut led = Ledger::default();
    let ref_before = host_ref_ns();
    let wall = Instant::now();

    let (mut state, setup_s) = time_setup(w);
    led.set("bench.setup_first_s", setup_s);
    let timed = time_segments(w, &mut state, TRACED_SEGMENTS, |_| {});
    let replayed = w.replay(&mut state, tr, TRACED_SEGMENTS);

    let mut segs: Vec<&Segment> = timed.segments.iter().collect();
    segs.extend(replayed.iter());
    let (mut attempted, mut failed) = check_segments(&segs, &timed.segments[0], w.reference_ler());

    let (extra_attempted, extra_failed) = w.extras(&mut state, tr, &timed, &mut led);
    attempted += extra_attempted;
    failed += extra_failed;
    w.teardown(state);

    rows_from_trace(&mut led, tr);

    // What the top-level path spends beyond its replayed children, per
    // shot: per op, the untraced time minus the hand-driven time.
    let glue: Vec<f64> = median_op_ms(&timed.segments)
        .iter()
        .zip(&median_op_ms(&replayed))
        .zip(&timed.segments[0].tallies)
        .filter(|(_, t)| t.shots > 0)
        .map(|((a, b), t)| (a - b) * 1e6 / t.shots as f64)
        .collect();
    led.set_median("chiplet.glue_ns_per_shot", &glue);

    let replay_wall_s: Vec<f64> = tr
        .spans()
        .iter()
        .filter(|s| s.parent.is_none() && s.name == "bench.segment")
        .map(|s| s.dur_ns() as f64 / 1e9)
        .collect();
    let untraced_wall = stats::median(&timed.seg_wall_s);
    led.set(
        "bench.trace_overhead_frac",
        stats::median(&replay_wall_s) / untraced_wall - 1.0,
    );
    led.set("bench.ops_attempted", attempted as f64);
    led.set("bench.ops_failed", failed as f64);
    run_rows(&mut led, &timed, wall, ref_before);
    Report {
        workload: workload.to_string(),
        trace: true,
        ledger: led,
        attempted,
        failed,
        unit: w.unit(),
    }
}

/// A JSON number, or `null` for a value JSON cannot hold.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

impl Report {
    /// The metrics this run must print: end-to-end when untraced,
    /// per-layer when traced.
    fn contract_metrics(&self) -> &'static [(&'static str, &'static str, &'static str)] {
        if self.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// The machine-readable result: one JSON object on one line.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .contract_metrics()
            .iter()
            .map(|(name, unit, _)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(self.ledger.value(name))
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// The human table: name, value, unit, min/max and sample count.
    pub fn table(&self) -> String {
        let mut out = format!(
            "== {} ({}) — work unit: {} ==\n{:<32} {:>16} {:<6} {:>14} {:>14} {:>8}\n",
            self.workload,
            if self.trace {
                "traced replay"
            } else {
                "timed run"
            },
            self.unit,
            "metric",
            "value",
            "unit",
            "min",
            "max",
            "n"
        );
        // A timed run also shows the rows about the run itself.
        let extra = PER_LAYER
            .iter()
            .filter(|(name, ..)| !self.trace && self.ledger.get(name).is_some());
        for (name, unit, _) in self.contract_metrics().iter().chain(extra) {
            match self.ledger.get(name) {
                Some(r) => out.push_str(&format!(
                    "{:<32} {:>16.6} {:<6} {:>14.6} {:>14.6} {:>8}\n",
                    name, r.value, unit, r.min, r.max, r.n
                )),
                None => out.push_str(&format!(
                    "{name:<32} {:>16} {unit:<6} (not measured)\n",
                    "-"
                )),
            }
        }
        out.push_str(&format!(
            "ops attempted {} failed {} -> {}\n",
            self.attempted,
            self.failed,
            if self.failed == 0 {
                "correct"
            } else {
                "INCORRECT"
            }
        ));
        out
    }

    /// Writes the JSON line to `<dir>/<workload>.trace<0|1>.json`.
    pub fn save(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let name = format!("{}.trace{}.json", self.workload, u8::from(self.trace));
        std::fs::write(dir.join(name), self.json_line() + "\n")
    }
}

/// A fresh recorder sized for any replay.
pub fn new_tracer() -> Tracer {
    Tracer::new(SPAN_CAP)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizing_scales_fixed_work_and_never_reaches_zero() {
        let unit = Sizing::new(REF_SECONDS, 1.0);
        assert_eq!(unit.count(2000), 2000);
        assert_eq!(unit.count(13), 13);
        // --scale multiplies, --seconds scales relative to the reference.
        assert_eq!(Sizing::new(REF_SECONDS, 0.25).count(2000), 500);
        assert_eq!(Sizing::new(REF_SECONDS / 2.0, 1.0).count(2000), 1000);
        assert_eq!(Sizing::new(REF_SECONDS * 2.0, 0.5).count(13), 13);
        // Rounded, and at least one op always remains.
        assert_eq!(Sizing::new(REF_SECONDS, 0.1).count(13), 1);
        assert_eq!(Sizing::new(REF_SECONDS, 0.001).count(13), 1);
        // The same arguments give the same counts.
        assert_eq!(
            Sizing::new(7.0, 0.3).count(6144),
            Sizing::new(7.0, 0.3).count(6144)
        );
    }

    #[test]
    fn end_to_end_metrics_are_medians_over_segments_and_ops() {
        // Five segments of two ops; one segment and one op hit by a
        // burst. Total work over total wall would move, medians do not.
        let seg = |op_ms: [f64; 2]| Segment {
            op_ms: op_ms.to_vec(),
            ..Segment::default()
        };
        let timed = Timed {
            seg_wall_s: vec![0.05, 0.05, 0.25, 0.05, 0.05],
            segments: vec![
                seg([20.0, 30.0]),
                seg([20.0, 30.0]),
                seg([220.0, 30.0]),
                seg([22.0, 30.0]),
                seg([20.0, 34.0]),
            ],
            units: 10.0,
        };
        assert_eq!(stats::median(&timed.rates()), 200.0);
        assert_eq!(timed.pooled_op_ms().len(), 10);
        assert_eq!(stats::median(&timed.pooled_op_ms()), 30.0);
        assert_eq!(median_op_ms(&timed.segments), vec![20.0, 30.0]);
    }

    #[test]
    fn a_gated_metric_that_was_not_measured_fails_the_run() {
        let mut led = Ledger::default();
        led.set("work_per_s", 1234.5);
        led.set("lat_p50_ms", f64::NAN);
        assert_eq!(unusable_gated(&led), 2, "NaN latency, missing set-up");
        led.set("lat_p50_ms", 0.25);
        led.set("setup_s", 0.0);
        assert_eq!(unusable_gated(&led), 1, "a zero time is no measurement");
        led.set("setup_s", 0.3);
        assert_eq!(unusable_gated(&led), 0);
    }

    #[test]
    fn ler_band_is_a_factor_four_plus_counting_noise() {
        // 1e-3 over a million shots: 250..4000 expected, ± 4 sigma.
        assert!(ler_in_band(1000, 1_000_000, 1e-3));
        assert!(ler_in_band(260, 1_000_000, 1e-3));
        assert!(ler_in_band(3900, 1_000_000, 1e-3));
        assert!(!ler_in_band(150, 1_000_000, 1e-3));
        assert!(!ler_in_band(4400, 1_000_000, 1e-3));
        // A broken decoder (every other shot wrong) is far outside.
        assert!(!ler_in_band(500_000, 1_000_000, 1e-3));
        // A tiny smoke run with nothing to count still passes.
        assert!(ler_in_band(0, 100, 1e-3));
    }

    #[test]
    fn checks_count_mismatches_and_band_violations() {
        let t = |f| Tally {
            shots: 100_000,
            failures: f,
        };
        let good = Segment {
            op_ms: vec![1.0; 2],
            tallies: vec![t(100), t(110)],
            failed_ops: 0,
        };
        let drifted = Segment {
            tallies: vec![t(100), t(111)],
            ..good.clone()
        };
        let broken = Segment {
            tallies: vec![t(50_000), t(50_000)],
            ..good.clone()
        };
        assert_eq!(check_segments(&[&good, &good], &good, 1e-3), (4, 0));
        assert_eq!(check_segments(&[&good, &drifted], &good, 1e-3), (4, 1));
        assert_eq!(check_segments(&[&broken], &broken, 1e-3), (2, 2));
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut led = Ledger::default();
        led.set("work_per_s", 1234.5678);
        led.set("lat_p50_ms", 0.25);
        led.set("setup_s", f64::NAN);
        let report = Report {
            workload: "w".into(),
            trace: false,
            ledger: led,
            attempted: 10,
            failed: 0,
            unit: "shot",
        };
        let line = report.json_line();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"work_per_s\": {\"value\": 1234.5678, \"unit\": \"1/s\"}, \
             \"lat_p50_ms\": {\"value\": 0.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": null, \"unit\": \"s\"}}}"
        );
        assert!(!line.contains('\n'));
    }
}
