//! Span tracing into per-thread ring buffers with Chrome trace-event
//! export.
//!
//! Tracing is off by default: a disabled [`span`] is one relaxed load
//! and no timestamp read. When enabled, each thread appends completed
//! spans to its own fixed-capacity ring (oldest events overwritten),
//! so the hot path never contends with other threads — the per-thread
//! mutex is only ever shared with the exporter.
//!
//! [`export_chrome_trace`] renders every thread's ring as Chrome
//! trace-event JSON (`{"traceEvents": [...]}`), loadable directly in
//! `ui.perfetto.dev` or `chrome://tracing`.

use crate::clock::Clock;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Max retained events per thread; older events are overwritten.
pub const RING_CAPACITY: usize = 8192;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns tracing on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether tracing is currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

#[derive(Debug, Clone)]
struct Event {
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
    instant: bool,
}

#[derive(Debug, Default)]
struct Ring {
    events: Vec<Event>,
    next: usize,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, ev: Event) {
        if self.events.len() < RING_CAPACITY {
            self.events.push(ev);
        } else {
            self.events[self.next] = ev;
            self.dropped += 1;
        }
        self.next = (self.next + 1) % RING_CAPACITY;
    }
}

#[derive(Debug)]
struct ThreadBuf {
    tid: usize,
    ring: Mutex<Ring>,
}

fn bufs() -> &'static Mutex<Vec<Arc<ThreadBuf>>> {
    static BUFS: OnceLock<Mutex<Vec<Arc<ThreadBuf>>>> = OnceLock::new();
    BUFS.get_or_init(|| Mutex::new(Vec::new()))
}

fn local() -> Arc<ThreadBuf> {
    thread_local! {
        static LOCAL: Arc<ThreadBuf> = register();
    }
    LOCAL.with(Arc::clone)
}

fn register() -> Arc<ThreadBuf> {
    static NEXT_TID: AtomicUsize = AtomicUsize::new(1);
    let buf = Arc::new(ThreadBuf {
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        ring: Mutex::new(Ring::default()),
    });
    let mut all = bufs().lock().unwrap_or_else(|e| e.into_inner());
    all.push(Arc::clone(&buf));
    buf
}

fn push_event(ev: Event) {
    let buf = local();
    let mut ring = buf.ring.lock().unwrap_or_else(|e| e.into_inner());
    ring.push(ev);
}

/// An in-flight span; records a complete (`ph: "X"`) event on drop.
#[must_use = "a span measures the scope it is bound to"]
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    start_ns: u64,
    armed: bool,
}

/// Opens a span named `name` covering the enclosing scope. `name` must
/// be a plain identifier-like literal (it is embedded in JSON
/// unescaped).
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span {
            name,
            start_ns: 0,
            armed: false,
        };
    }
    Span {
        name,
        start_ns: Clock::now_ns(),
        armed: true,
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let end = Clock::now_ns();
        push_event(Event {
            name: self.name,
            start_ns: self.start_ns,
            dur_ns: end.saturating_sub(self.start_ns),
            instant: false,
        });
    }
}

/// Records a zero-duration instant event (`ph: "i"`), e.g. a coalesce hit.
pub fn instant(name: &'static str) {
    if !enabled() {
        return;
    }
    push_event(Event {
        name,
        start_ns: Clock::now_ns(),
        dur_ns: 0,
        instant: true,
    });
}

/// Drops all buffered events on every thread (ring capacity is kept).
pub fn clear() {
    let all = bufs().lock().unwrap_or_else(|e| e.into_inner());
    for buf in all.iter() {
        let mut ring = buf.ring.lock().unwrap_or_else(|e| e.into_inner());
        ring.events.clear();
        ring.next = 0;
        ring.dropped = 0;
    }
}

/// Renders all buffered events as Chrome trace-event JSON. Timestamps
/// are microseconds since the clock epoch; one `tid` per OS thread.
pub fn export_chrome_trace() -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let all = bufs().lock().unwrap_or_else(|e| e.into_inner());
    for buf in all.iter() {
        let ring = buf.ring.lock().unwrap_or_else(|e| e.into_inner());
        // Ring order: oldest first once wrapped.
        let (tail, head) = if ring.events.len() == RING_CAPACITY {
            ring.events.split_at(ring.next)
        } else {
            ring.events.split_at(0)
        };
        for ev in head.iter().chain(tail) {
            if !first {
                out.push(',');
            }
            first = false;
            let ts = ev.start_ns as f64 / 1000.0;
            if ev.instant {
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"cat\":\"dqec\",\"ph\":\"i\",\"s\":\"t\",\
                     \"ts\":{ts:.3},\"pid\":1,\"tid\":{}}}",
                    ev.name, buf.tid
                );
            } else {
                let dur = ev.dur_ns as f64 / 1000.0;
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"cat\":\"dqec\",\"ph\":\"X\",\"ts\":{ts:.3},\
                     \"dur\":{dur:.3},\"pid\":1,\"tid\":{}}}",
                    ev.name, buf.tid
                );
            }
        }
    }
    out.push_str("]}");
    out
}

/// Writes [`export_chrome_trace`] to `path`.
pub fn export_to_file(path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, export_chrome_trace())
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tracing state is process-global, so exercise it in one test to
    // avoid cross-test interference under parallel execution.
    #[test]
    fn spans_round_trip_through_chrome_export() {
        clear();
        {
            let _off = span("not.recorded");
        }
        set_enabled(true);
        {
            let _s = span("unit.test.span");
            instant("unit.test.instant");
        }
        set_enabled(false);

        let json = export_chrome_trace();
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.ends_with("]}"), "{json}");
        assert!(json.contains("\"name\":\"unit.test.span\""), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"name\":\"unit.test.instant\""), "{json}");
        assert!(json.contains("\"ph\":\"i\""), "{json}");
        assert!(!json.contains("not.recorded"), "{json}");

        clear();
        let empty = export_chrome_trace();
        assert!(!empty.contains("unit.test.span"), "{empty}");
    }

    #[test]
    fn ring_overwrites_oldest() {
        let mut ring = Ring::default();
        for i in 0..(RING_CAPACITY + 10) {
            ring.push(Event {
                name: "e",
                start_ns: i as u64,
                dur_ns: 0,
                instant: false,
            });
        }
        assert_eq!(ring.events.len(), RING_CAPACITY);
        assert_eq!(ring.dropped, 10);
        // Oldest surviving event is number 10.
        let min = ring.events.iter().map(|e| e.start_ns).min().unwrap_or(0);
        assert_eq!(min, 10);
    }
}
