//! A writing sink must survive its writer failing — `| head` closing
//! the pipe, a full disk: no panic, nothing written after the failure,
//! and the first error reported by `finish`.

use dqec_chiplet::record::{JsonSink, Record, Sink, TsvSink, YieldRecord};
use std::io::{self, Write};

/// Fails every `write` call after the first `n`, like a closed pipe.
struct FailsAfter {
    n: usize,
    written: Vec<u8>,
}

impl Write for FailsAfter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.n == 0 {
            return Err(io::ErrorKind::BrokenPipe.into());
        }
        self.n -= 1;
        self.written.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn records() -> Vec<Record> {
    vec![
        Record::Section("panel".into()),
        Record::Columns(vec!["a".into(), "b".into()]),
        Record::Yield(YieldRecord::sampled("l=13", 0.002, 8, 10)),
        Record::Note("done".into()),
    ]
}

/// Emits everything, then returns what `finish` reported and what
/// reached the writer.
fn drive<S: Sink>(mut sink: S, into_inner: fn(S) -> FailsAfter) -> (io::Error, Vec<u8>) {
    for r in records() {
        sink.emit(&r); // must not panic
    }
    let err = sink.finish().expect_err("the write error surfaces");
    // Repeated calls keep reporting it.
    assert_eq!(sink.finish().expect_err("latched").kind(), err.kind());
    (err, into_inner(sink).written)
}

#[test]
fn a_failing_writer_is_latched_and_reported_by_finish() {
    for n in [0, 1, 3] {
        let writer = || FailsAfter {
            n,
            written: Vec::new(),
        };
        let (err, tsv) = drive(TsvSink::new(writer()), TsvSink::into_inner);
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        let (err, json) = drive(JsonSink::new(writer()), JsonSink::into_inner);
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        // The latch drops every record after the failure instead of
        // interleaving partial output: at most the `n` writes that
        // succeeded got through, all from the first records.
        for written in [tsv, json] {
            let text = String::from_utf8(written).expect("utf-8");
            assert!(!text.contains("done"), "n = {n}: {text:?}");
        }
    }
}
