//! Typed experiment records and output sinks.
//!
//! Every reproduction binary used to hand-roll its own `println!` TSV
//! pipeline. Instead, experiments now emit typed [`Record`]s through a
//! [`Sink`]: the same run can render as human-readable TSV
//! ([`TsvSink`]), machine-readable JSON ([`JsonSink`]), be captured for
//! tests ([`MemorySink`]), or be discarded ([`NullSink`]).
//!
//! [`Sink::emit`] cannot fail, so the writing sinks latch the first
//! I/O error (a closed pipe under `| head`, a full disk), drop every
//! later record, and report it from [`Sink::finish`] — a figure binary
//! exits 1 with one line instead of panicking mid-run.

use crate::experiment::{LerPoint, SlopeFit};
use crate::json::{Float, Quoted};
use std::fmt;
use std::io::{self, Write};

/// One cell of a tabular [`Record::Row`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Free text.
    Text(String),
    /// A floating-point quantity (rendered compactly in TSV).
    Num(f64),
    /// An integer quantity.
    Int(i64),
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(s)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Num(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as i64)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

/// Formats an `f64` compactly for TSV outputs (fixed point in a
/// readable range, scientific elsewhere).
pub fn fmt_compact(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 0.01 && v.abs() < 1e6 {
        format!("{v:.4}")
    } else {
        format!("{v:.3e}")
    }
}

impl Value {
    /// The TSV rendering of this cell.
    pub fn tsv(&self) -> String {
        match self {
            Value::Text(s) => s.clone(),
            Value::Num(v) => fmt_compact(*v),
            Value::Int(v) => v.to_string(),
        }
    }
}

/// One logical-error-rate measurement of a labelled series.
#[derive(Debug, Clone, PartialEq)]
pub struct LerRecord {
    /// Series label (e.g. `"d=7"` or `"faulty p=0.08"`).
    pub series: String,
    /// The measured point.
    pub point: LerPoint,
}

/// One log-log slope fit of a labelled series.
#[derive(Debug, Clone, PartialEq)]
pub struct SlopeFitRecord {
    /// Series label.
    pub series: String,
    /// The fit.
    pub fit: SlopeFit,
}

/// One chiplet-yield measurement of a labelled series: either a
/// Monte-Carlo estimate with accept/fabricate counts
/// ([`YieldRecord::sampled`]) or a closed-form probability
/// ([`YieldRecord::analytic`]).
#[derive(Debug, Clone, PartialEq)]
pub struct YieldRecord {
    /// Series label (e.g. `"l=13"`).
    pub series: String,
    /// Fabrication defect rate.
    pub rate: f64,
    /// `(kept, fabricated)` counts for sampled estimates.
    pub counts: Option<(usize, usize)>,
    /// The yield fraction.
    pub yield_fraction: f64,
    /// Resource overhead factor at this point, when meaningful.
    pub overhead: Option<f64>,
}

impl YieldRecord {
    /// A Monte-Carlo yield estimate: `kept` of `samples` chiplets
    /// accepted. An empty population yields 0, not NaN.
    pub fn sampled(series: impl Into<String>, rate: f64, kept: usize, samples: usize) -> Self {
        YieldRecord {
            series: series.into(),
            rate,
            counts: Some((kept, samples)),
            yield_fraction: if samples == 0 {
                0.0
            } else {
                kept as f64 / samples as f64
            },
            overhead: None,
        }
    }

    /// A closed-form yield (e.g. the defect-intolerant baseline's
    /// defect-free probability).
    pub fn analytic(series: impl Into<String>, rate: f64, yield_fraction: f64) -> Self {
        YieldRecord {
            series: series.into(),
            rate,
            counts: None,
            yield_fraction,
            overhead: None,
        }
    }

    /// Attaches a resource overhead factor.
    pub fn with_overhead(mut self, overhead: f64) -> Self {
        self.overhead = Some(overhead);
        self
    }

    /// The yield fraction.
    pub fn fraction(&self) -> f64 {
        self.yield_fraction
    }
}

/// A typed experiment output record.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// Run header: binary name, description, and effective parameters.
    Meta {
        /// Binary / experiment name (e.g. `"fig06"`).
        name: String,
        /// One-line description.
        what: String,
        /// `"full"` or `"quick"`.
        mode: String,
        /// Chiplet samples per sweep point.
        samples: usize,
        /// Monte-Carlo shots per LER point.
        shots: usize,
        /// Base RNG seed.
        seed: u64,
    },
    /// A section title (`## ...` in TSV).
    Section(String),
    /// Commentary (`# ...` in TSV), e.g. the paper's expected findings.
    Note(String),
    /// Column names for subsequent [`Record::Row`]s.
    Columns(Vec<String>),
    /// One row of tabular data.
    Row(Vec<Value>),
    /// A logical-error-rate point.
    Ler(LerRecord),
    /// A log-log slope fit.
    Slope(SlopeFitRecord),
    /// A yield point.
    Yield(YieldRecord),
}

impl Record {
    /// Convenience constructor for a [`Record::Row`].
    pub fn row<I: IntoIterator<Item = Value>>(cells: I) -> Record {
        Record::Row(cells.into_iter().collect())
    }
}

/// A destination for experiment [`Record`]s.
pub trait Sink {
    /// Consumes one record.
    fn emit(&mut self, record: &Record);

    /// Finalizes the output (e.g. closes a JSON array) and flushes it.
    /// Must be called once after the last `emit`; implementations
    /// should tolerate repeated calls.
    ///
    /// # Errors
    ///
    /// The first I/O error the sink met, in `emit` or here: `emit`
    /// cannot fail, so a writing sink latches the error, drops every
    /// later record, and reports it from this call.
    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Discards every record (for callers that only want return values).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl Sink for NullSink {
    fn emit(&mut self, _record: &Record) {}
}

/// Captures records in memory (for tests and aggregation).
#[derive(Debug, Default, Clone)]
pub struct MemorySink {
    /// Everything emitted so far.
    pub records: Vec<Record>,
}

impl Sink for MemorySink {
    fn emit(&mut self, record: &Record) {
        self.records.push(record.clone());
    }
}

/// A line writer that latches its first error: once a write fails
/// (a closed pipe, a full disk) later lines are dropped, and
/// [`Latched::finish`] reports the failure.
#[derive(Debug)]
struct Latched<W: Write> {
    out: W,
    error: Option<io::Error>,
}

impl<W: Write> Latched<W> {
    fn new(out: W) -> Self {
        Latched { out, error: None }
    }

    fn line(&mut self, line: fmt::Arguments<'_>) {
        if self.error.is_none() {
            self.error = writeln!(self.out, "{line}").err();
        }
    }

    fn finish(&mut self) -> io::Result<()> {
        match &self.error {
            // `io::Error` is not `Clone`; keep the latch, hand out a copy.
            Some(e) => Err(io::Error::new(e.kind(), e.to_string())),
            None => self.out.flush(),
        }
    }
}

/// Which typed-record header a [`TsvSink`] last wrote, so repeated
/// records of one kind share a single header line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TsvHeader {
    None,
    Ler,
    Slope,
    Yield,
}

/// Renders records as tab-separated values — the format the seed's
/// binaries printed, now driven by typed records.
#[derive(Debug)]
pub struct TsvSink<W: Write> {
    out: Latched<W>,
    header: TsvHeader,
}

impl<W: Write> TsvSink<W> {
    /// Creates a TSV sink writing to `out`.
    pub fn new(out: W) -> Self {
        TsvSink {
            out: Latched::new(out),
            header: TsvHeader::None,
        }
    }

    /// Consumes the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.out.out
    }

    fn typed_header(&mut self, kind: TsvHeader, columns: &str) {
        if self.header != kind {
            self.out.line(format_args!("{columns}"));
            self.header = kind;
        }
    }
}

impl<W: Write> Sink for TsvSink<W> {
    fn emit(&mut self, record: &Record) {
        match record {
            Record::Meta {
                name,
                what,
                mode,
                samples,
                shots,
                seed,
            } => {
                self.out.line(format_args!("# {name}: {what}"));
                self.out.line(format_args!(
                    "# mode={} samples={samples} shots={shots} seed={seed}",
                    if mode == "full" {
                        "full (paper-scale)"
                    } else {
                        "quick (shape-reproduction)"
                    },
                ));
            }
            Record::Section(title) => {
                self.out.line(format_args!("\n## {title}"));
                self.header = TsvHeader::None;
            }
            Record::Note(text) => self.out.line(format_args!("# {text}")),
            Record::Columns(cols) => {
                self.out.line(format_args!("{}", cols.join("\t")));
                self.header = TsvHeader::None;
            }
            Record::Row(cells) => {
                let line: Vec<String> = cells.iter().map(Value::tsv).collect();
                self.out.line(format_args!("{}", line.join("\t")));
                self.header = TsvHeader::None;
            }
            Record::Ler(r) => {
                self.typed_header(
                    TsvHeader::Ler,
                    "series\tp\tshots\tfailures\tler\tci_lo\tci_hi",
                );
                let (lo, hi) = r.point.ci95();
                self.out.line(format_args!(
                    "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                    r.series,
                    fmt_compact(r.point.p),
                    r.point.shots,
                    r.point.failures,
                    fmt_compact(r.point.ler()),
                    fmt_compact(lo),
                    fmt_compact(hi)
                ));
            }
            Record::Slope(r) => {
                self.typed_header(TsvHeader::Slope, "series\tslope\tintercept\tpoints_used");
                self.out.line(format_args!(
                    "{}\t{}\t{}\t{}",
                    r.series,
                    fmt_compact(r.fit.slope),
                    fmt_compact(r.fit.intercept),
                    r.fit.points_used
                ));
            }
            Record::Yield(r) => {
                self.typed_header(
                    TsvHeader::Yield,
                    "series\trate\tkept\tsamples\tyield\toverhead",
                );
                let (kept, samples) = r.counts.map_or(("-".into(), "-".into()), |(k, n)| {
                    (k.to_string(), n.to_string())
                });
                self.out.line(format_args!(
                    "{}\t{}\t{kept}\t{samples}\t{}\t{}",
                    r.series,
                    fmt_compact(r.rate),
                    fmt_compact(r.fraction()),
                    r.overhead.map_or_else(|| "-".into(), fmt_compact)
                ));
            }
        }
    }

    fn finish(&mut self) -> io::Result<()> {
        self.out.finish()
    }
}

/// Renders records as one JSON array of objects (`--json` output).
///
/// The sink only writes, so each record is a one-line template — the
/// templates are the format (`seed` prints as the full `u64`, floats
/// always carry a decimal point) — with strings and floats going
/// through the codec's [`Quoted`] escaper and [`Float`] rule.
#[derive(Debug)]
pub struct JsonSink<W: Write> {
    out: Latched<W>,
    count: usize,
    finished: bool,
}

impl<W: Write> JsonSink<W> {
    /// Creates a JSON sink writing to `out`.
    pub fn new(out: W) -> Self {
        JsonSink {
            out: Latched::new(out),
            count: 0,
            finished: false,
        }
    }

    /// Consumes the sink, returning the writer. Call
    /// [`Sink::finish`] first or the array stays unterminated.
    pub fn into_inner(self) -> W {
        self.out.out
    }
}

fn json_value(v: &Value) -> String {
    match v {
        Value::Text(s) => Quoted(s).to_string(),
        Value::Num(n) => Float(*n).to_string(),
        Value::Int(i) => i.to_string(),
    }
}

impl<W: Write> Sink for JsonSink<W> {
    fn emit(&mut self, record: &Record) {
        let object = match record {
            Record::Meta {
                name,
                what,
                mode,
                samples,
                shots,
                seed,
            } => format!(
                "{{\"type\":\"meta\",\"name\":{},\"what\":{},\"mode\":{},\"samples\":{samples},\"shots\":{shots},\"seed\":{seed}}}",
                Quoted(name),
                Quoted(what),
                Quoted(mode)
            ),
            Record::Section(title) => {
                format!("{{\"type\":\"section\",\"title\":{}}}", Quoted(title))
            }
            Record::Note(text) => format!("{{\"type\":\"note\",\"text\":{}}}", Quoted(text)),
            Record::Columns(cols) => {
                let cells: Vec<String> = cols.iter().map(|c| Quoted(c).to_string()).collect();
                format!("{{\"type\":\"columns\",\"columns\":[{}]}}", cells.join(","))
            }
            Record::Row(cells) => {
                let cells: Vec<String> = cells.iter().map(json_value).collect();
                format!("{{\"type\":\"row\",\"cells\":[{}]}}", cells.join(","))
            }
            Record::Ler(r) => {
                let (lo, hi) = r.point.ci95();
                format!(
                    "{{\"type\":\"ler\",\"series\":{},\"p\":{},\"shots\":{},\"failures\":{},\"ler\":{},\"ci95\":[{},{}]}}",
                    Quoted(&r.series),
                    Float(r.point.p),
                    r.point.shots,
                    r.point.failures,
                    Float(r.point.ler()),
                    Float(lo),
                    Float(hi)
                )
            }
            Record::Slope(r) => format!(
                "{{\"type\":\"slope\",\"series\":{},\"slope\":{},\"intercept\":{},\"points_used\":{}}}",
                Quoted(&r.series),
                Float(r.fit.slope),
                Float(r.fit.intercept),
                r.fit.points_used
            ),
            Record::Yield(r) => {
                let (kept, samples) = r.counts.map_or(("null".into(), "null".into()), |(k, n)| {
                    (k.to_string(), n.to_string())
                });
                format!(
                    "{{\"type\":\"yield\",\"series\":{},\"rate\":{},\"kept\":{kept},\"samples\":{samples},\"yield\":{},\"overhead\":{}}}",
                    Quoted(&r.series),
                    Float(r.rate),
                    Float(r.fraction()),
                    r.overhead
                        .map_or_else(|| "null".into(), |v| Float(v).to_string())
                )
            }
        };
        let sep = if self.count == 0 { "[" } else { "," };
        self.out.line(format_args!("{sep}{object}"));
        self.count += 1;
    }

    fn finish(&mut self) -> io::Result<()> {
        if !self.finished {
            self.out
                .line(format_args!("{}", if self.count == 0 { "[]" } else { "]" }));
            self.finished = true;
        }
        self.out.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn sample_records() -> Vec<Record> {
        vec![
            Record::Meta {
                name: "figXX".into(),
                what: "demo \"quoted\"".into(),
                mode: "quick".into(),
                samples: 2,
                shots: 100,
                seed: 7,
            },
            Record::Section("panel".into()),
            Record::Columns(vec!["a".into(), "b".into()]),
            Record::row([Value::from(1.5), Value::from("x")]),
            Record::Ler(LerRecord {
                series: "d=3".into(),
                point: LerPoint {
                    p: 1e-3,
                    shots: 100,
                    failures: 3,
                },
            }),
            Record::Yield(YieldRecord::sampled("l=13", 0.002, 8, 10)),
            Record::Note("done".into()),
        ]
    }

    #[test]
    fn tsv_sink_renders_rows_and_headers() {
        let mut sink = TsvSink::new(Vec::new());
        for r in sample_records() {
            sink.emit(&r);
        }
        sink.finish().unwrap();
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert!(text.contains("# figXX: demo"));
        assert!(text.contains("## panel"));
        assert!(text.contains("a\tb"));
        assert!(text.contains("series\tp\tshots\tfailures\tler\tci_lo\tci_hi"));
        assert!(text.contains("d=3\t"));
        assert!(text.contains("l=13\t"));
    }

    #[test]
    fn tsv_sink_writes_one_header_per_run_of_typed_records() {
        let mut sink = TsvSink::new(Vec::new());
        let ler = |p: f64| {
            Record::Ler(LerRecord {
                series: "s".into(),
                point: LerPoint {
                    p,
                    shots: 10,
                    failures: 1,
                },
            })
        };
        sink.emit(&ler(1e-3));
        sink.emit(&ler(2e-3));
        sink.finish().unwrap();
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(text.matches("series\tp").count(), 1);
    }

    #[test]
    fn json_sink_emits_a_parseable_array() {
        let mut sink = JsonSink::new(Vec::new());
        for r in sample_records() {
            sink.emit(&r);
        }
        sink.finish().unwrap();
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let doc = crate::json::parse(&text).unwrap();
        let records = doc.as_arr().unwrap();
        assert_eq!(records.len(), sample_records().len());
        let of_type = |ty: &str| {
            records
                .iter()
                .find(|r| r.str_field("type") == Ok(ty))
                .unwrap_or_else(|| panic!("no {ty} record in {text}"))
        };
        // The escaped quote survived the round trip.
        assert_eq!(of_type("meta").str_field("what"), Ok("demo \"quoted\""));
        assert_eq!(of_type("meta").uint_field::<u64>("seed"), Ok(7));
        assert_eq!(of_type("ler").f64_field("p"), Ok(1e-3));
        assert_eq!(of_type("yield").get("overhead"), Some(&Json::Null));
        assert_eq!(of_type("yield").uint_field::<u64>("kept"), Ok(8));
    }

    #[test]
    fn empty_json_sink_finishes_as_empty_array() {
        let mut sink = JsonSink::new(Vec::new());
        sink.finish().unwrap();
        assert_eq!(String::from_utf8(sink.into_inner()).unwrap().trim(), "[]");
    }

    #[test]
    fn fmt_compact_is_compact() {
        assert_eq!(fmt_compact(0.0), "0");
        assert_eq!(fmt_compact(0.5), "0.5000");
        assert!(fmt_compact(1e-7).contains('e'));
    }
}
