//! In-memory span recorder for the traced replay.
//!
//! The replay drives the pipeline by hand from one thread, so the
//! recorder is a plain stack: [`Tracer::enter`] pushes, [`Tracer::exit`]
//! pops, and every span remembers its parent and the op it belongs to.
//! Nothing is written until the run ends ([`Tracer::chrome_json`]).
//!
//! Two things a public-API-only trace cannot see directly are handled
//! explicitly rather than hidden:
//!
//! * **Calibration.** Some calls do work the trace wants split
//!   (`from_clean` applies noise and extracts the DEM internally;
//!   `decode_batch` indexes events and tallies internally). The replay
//!   times the inner call stand-alone under [`Tracer::calibrate`] — time
//!   that is *paused out* of every enclosing span — and then attaches
//!   the measured duration to the opaque parent as an *inferred* child
//!   ([`Tracer::infer_child`]), flagged as such in the trace file.
//! * **Self time** is a span's duration minus the part of it its
//!   children cover (the union of their intervals, so overlapping
//!   children are not subtracted twice).

use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = u32;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call`, e.g. `sim.sample`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Calibration time inside `[start, end]`, excluded from durations.
    pub paused_ns: u64,
    /// The enclosing span.
    pub parent: Option<SpanId>,
    /// The op (request, batch, chiplet, point) the span belongs to.
    pub op: u32,
    /// Work units the call covered (shots, draws, bytes), for per-unit
    /// metrics; 0 when not applicable.
    pub units: u64,
    /// Placed inside its parent from a stand-alone calibration rather
    /// than observed there.
    pub inferred: bool,
}

impl Span {
    /// Duration with calibration pauses removed.
    pub fn dur_ns(&self) -> u64 {
        (self.end_ns - self.start_ns).saturating_sub(self.paused_ns)
    }

    /// The layer: the name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// The recorder. See the module docs.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<SpanId>,
    cap: usize,
    dropped: u64,
    op: u32,
    counts: BTreeMap<&'static str, u64>,
    /// Parent of the last inferred child and where that child ended.
    infer_cursor: (SpanId, u64),
}

impl Tracer {
    /// A recorder keeping at most `cap` spans (further ones are
    /// counted as dropped, never silently lost).
    pub fn new(cap: usize) -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            cap,
            dropped: 0,
            op: 0,
            counts: BTreeMap::new(),
            infer_cursor: (SpanId::MAX, 0),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Sets the op id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    /// Opens a span under the innermost open one. Returns `None` when
    /// the recorder is full (the drop is counted).
    pub fn enter(&mut self, name: &'static str) -> Option<SpanId> {
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return None;
        }
        let id = self.spans.len() as SpanId;
        let now = self.now();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            paused_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
            units: 0,
            inferred: false,
        });
        self.stack.push(id);
        Some(id)
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: Option<SpanId>) {
        let Some(id) = id else { return };
        let now = self.now();
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id as usize].end_ns = now;
    }

    /// Duration of a recorded span, calibration pauses removed (0 for
    /// a span the full recorder refused).
    pub fn dur_ns(&self, id: Option<SpanId>) -> u64 {
        id.map_or(0, |id| self.spans[id as usize].dur_ns())
    }

    /// Records the work units a closed span covered.
    pub fn set_units(&mut self, id: Option<SpanId>, units: u64) {
        if let Some(id) = id {
            self.spans[id as usize].units = units;
        }
    }

    /// Runs `f` inside a span named `name` covering `units` work units.
    pub fn time<R>(&mut self, name: &'static str, units: u64, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        self.set_units(id, units);
        r
    }

    /// Runs `f` as a stand-alone calibration: its time is recorded as a
    /// `bench.calibrate` span and paused out of every open span.
    /// Returns the result and the measured ns.
    pub fn calibrate<R>(&mut self, f: impl FnOnce() -> R) -> (R, u64) {
        let id = self.enter("bench.calibrate");
        let t = Instant::now();
        let r = f();
        let ns = t.elapsed().as_nanos() as u64;
        self.exit(id);
        let paused = match id {
            Some(id) => self.spans[id as usize].end_ns - self.spans[id as usize].start_ns,
            None => ns,
        };
        for &open in &self.stack {
            self.spans[open as usize].paused_ns += paused;
        }
        (r, ns)
    }

    /// Attaches a child of `dur_ns` to the closed span `parent`, placed
    /// after the inferred child attached to it just before (attach all
    /// children of one parent in a row) and clipped to the parent's end.
    pub fn infer_child(
        &mut self,
        parent: Option<SpanId>,
        name: &'static str,
        dur_ns: u64,
        units: u64,
    ) -> Option<SpanId> {
        let parent = parent?;
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return None;
        }
        let p = &self.spans[parent as usize];
        let (p_start, p_end, op) = (p.start_ns, p.end_ns, p.op);
        let start = match self.infer_cursor {
            (cur, end) if cur == parent => end,
            _ => p_start,
        };
        let end = start.saturating_add(dur_ns).min(p_end);
        self.infer_cursor = (parent, end);
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: end,
            paused_ns: 0,
            parent: Some(parent),
            op,
            units,
            inferred: true,
        });
        Some(self.spans.len() as SpanId - 1)
    }

    /// Adds `n` to the named counter.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_insert(0) += n;
    }

    /// The named counter (0 when nothing counted under the name).
    pub fn counter(&self, name: &'static str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans refused because the recorder was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Self time of every span, by span index.
    pub fn self_times(&self) -> Vec<u64> {
        // Raw intervals on purpose: a calibration is an ordinary child
        // here (of layer `bench`), so it leaves its parent's self time
        // exactly once; `paused_ns` only corrects whole durations.
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, kids)| self_time(s.start_ns, s.end_ns, kids))
            .collect()
    }

    /// Indices of the spans named `name`.
    pub fn named(&self, name: &str) -> Vec<usize> {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, _)| i)
            .collect()
    }

    /// Chrome trace-event JSON (`ph: "X"` complete events, µs), which
    /// Perfetto and `chrome://tracing` load. Inferred children carry
    /// `"inferred": true`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{},\"op\":{},\
                 \"units\":{},\"inferred\":{}}}}}",
                s.name,
                s.layer(),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.op,
                s.units,
                s.inferred
            ));
        }
        out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
        out
    }
}

/// `[start, end]` minus the union of `children` clipped to it.
pub fn self_time(start: u64, end: u64, mut children: Vec<(u64, u64)>) -> u64 {
    children.sort_unstable();
    let mut covered = 0u64;
    let mut reach = start;
    for (s, e) in children {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (end - start).saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_disjoint_children() {
        assert_eq!(self_time(0, 100, vec![(10, 20), (50, 70)]), 70);
        assert_eq!(self_time(0, 100, vec![]), 100);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // [10,40] and [30,60] cover [10,60]: 50, not 60.
        assert_eq!(self_time(0, 100, vec![(30, 60), (10, 40)]), 50);
        // A child nested in its sibling adds nothing.
        assert_eq!(self_time(0, 100, vec![(10, 90), (20, 30)]), 20);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        assert_eq!(self_time(50, 100, vec![(0, 60), (90, 200)]), 30);
        assert_eq!(self_time(50, 100, vec![(0, 500)]), 0);
    }

    #[test]
    fn spans_nest_and_calibration_is_paused_out() {
        let mut tr = Tracer::new(16);
        let outer = tr.enter("chiplet.outer");
        tr.time("sim.inner", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let ((), cal_ns) = tr.calibrate(|| std::thread::sleep(std::time::Duration::from_millis(5)));
        tr.exit(outer);
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].units, 7);
        assert_eq!(spans[2].name, "bench.calibrate");
        assert!(cal_ns >= 5_000_000);
        // The outer span's effective duration excludes the 5 ms pause…
        let raw = spans[0].end_ns - spans[0].start_ns;
        assert!(spans[0].paused_ns >= 5_000_000);
        assert_eq!(spans[0].dur_ns(), raw - spans[0].paused_ns);
        // …and its self time excludes the pause and the 2 ms child,
        // each exactly once.
        let selfs = tr.self_times();
        let kids = (spans[1].end_ns - spans[1].start_ns) + (spans[2].end_ns - spans[2].start_ns);
        assert_eq!(selfs[0], raw - kids);
    }

    #[test]
    fn inferred_children_stack_inside_the_parent() {
        let mut tr = Tracer::new(16);
        let p = tr.enter("matching.build");
        std::thread::sleep(std::time::Duration::from_millis(3));
        tr.exit(p);
        tr.infer_child(p, "sim.noise_apply", 1_000_000, 0);
        tr.infer_child(p, "sim.dem", 1_000_000, 0);
        tr.infer_child(p, "sim.huge", u64::MAX / 4, 0);
        let s = tr.spans();
        assert_eq!(s[1].start_ns, s[0].start_ns);
        assert_eq!(s[2].start_ns, s[1].end_ns);
        assert_eq!(s[3].end_ns, s[0].end_ns, "clipped to the parent");
        assert!(s[1].inferred && s[2].inferred);
        assert_eq!(tr.self_times()[0], 0, "children cover the parent");
    }

    #[test]
    fn full_recorder_counts_drops() {
        let mut tr = Tracer::new(1);
        let a = tr.enter("a.a");
        let b = tr.enter("b.b");
        assert!(b.is_none());
        tr.exit(b);
        tr.exit(a);
        assert_eq!(tr.dropped(), 1);
        assert_eq!(tr.spans().len(), 1);
    }
}
