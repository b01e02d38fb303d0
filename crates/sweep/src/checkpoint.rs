//! Durable sweep state: a versioned JSON file recording, per sweep
//! point, the accumulated shot/failure tallies and the RNG cursor (the
//! index of the next per-batch ChaCha8 stream), so an interrupted sweep
//! resumes bit-exactly.
//!
//! The file is written atomically (temp file + rename) after every
//! allocation round; a run killed mid-round loses at most that round's
//! work, and the re-executed round reproduces the identical batches, so
//! resumed results equal uninterrupted ones bit for bit. A fingerprint
//! of the plan (patches, sweep points, seeds, shot targets, engine
//! parameters, decoder tag) guards against resuming state against a
//! different plan.

use crate::shard::Shard;
use dqec_chiplet::json::{parse, Json};
use dqec_core::CoreError;
use std::path::Path;

/// The state-file format version this build writes. Version 2 adds the
/// optional shard identity and the per-point batch totals that the
/// distributed merge step needs; version 1 files (whole-plan, no shard)
/// are still read.
pub const STATE_VERSION: u64 = 2;

/// Accumulated Monte-Carlo state of one sweep point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PointTally {
    /// Shots sampled and decoded so far.
    pub shots: usize,
    /// Logical failures observed so far.
    pub failures: usize,
    /// The RNG cursor: index of the next unsampled fixed-size batch
    /// stream of this point ([`dqec_chiplet::runner::batch_seed`]).
    pub next_batch: u64,
}

/// One sweep point's identity and tally in the state file.
#[derive(Debug, Clone, PartialEq)]
pub struct PointEntry {
    /// Index of the owning spec in the plan.
    pub spec: usize,
    /// Index of the point within the spec's sweep.
    pub point: usize,
    /// The spec's series label (for human readers of the file).
    pub series: String,
    /// The physical error rate (consistency-checked on resume).
    pub p: f64,
    /// The point's *whole-plan* batch total (shot target divided by the
    /// batch size, rounded up) — the same number on every shard of a
    /// partitioned run, so a merge can verify shard completeness and
    /// set the merged cursor without re-deriving the plan. Zero in
    /// version-1 files, meaning "unknown".
    pub total_batches: u64,
    /// The accumulated tally.
    pub tally: PointTally,
}

/// The whole persistent state of one sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepState {
    /// Digest of the plan and engine parameters this state belongs to.
    pub fingerprint: u64,
    /// The fixed batch size (shots per RNG stream) of the run.
    pub batch: usize,
    /// The adaptive precision target, if the run is adaptive.
    pub precision: Option<f64>,
    /// When the state belongs to one shard of a partitioned run, that
    /// shard's identity; `None` for a whole-plan run or a merged state.
    pub shard: Option<Shard>,
    /// Completed allocation rounds.
    pub rounds_done: u64,
    /// Per-point tallies, in (spec, point) order.
    pub points: Vec<PointEntry>,
}

impl SweepState {
    /// Renders the state as its versioned JSON document.
    pub fn render(&self) -> String {
        let points = self
            .points
            .iter()
            .map(|e| {
                Json::obj([
                    ("spec", e.spec.into()),
                    ("point", e.point.into()),
                    ("series", e.series.as_str().into()),
                    ("p", e.p.into()),
                    ("total_batches", e.total_batches.into()),
                    ("shots", e.tally.shots.into()),
                    ("failures", e.tally.failures.into()),
                    ("next_batch", e.tally.next_batch.into()),
                ])
            })
            .collect();
        let shard = self
            .shard
            .map(|s| Json::obj([("index", s.index().into()), ("count", s.count().into())]));
        Json::obj([
            ("version", STATE_VERSION.into()),
            ("fingerprint", format!("{:#018x}", self.fingerprint).into()),
            ("batch", self.batch.into()),
            ("precision", self.precision.into()),
            ("shard", shard.into()),
            ("rounds_done", self.rounds_done.into()),
            ("points", Json::Arr(points)),
        ])
        .render()
    }

    /// Parses a state document produced by [`SweepState::render`].
    ///
    /// # Errors
    ///
    /// Rejects malformed JSON, unknown versions, and missing fields.
    pub fn from_text(text: &str) -> Result<SweepState, CoreError> {
        let bad = |detail: String| CoreError::Sweep { detail };
        let field = |e: String| bad(format!("checkpoint: {e}"));
        let doc = parse(text).map_err(|e| bad(format!("checkpoint does not parse: {e}")))?;
        let version: u64 = doc.uint_field("version").map_err(field)?;
        if version == 0 || version > STATE_VERSION {
            return Err(bad(format!(
                "checkpoint version {version} unsupported (this build reads 1..={STATE_VERSION})"
            )));
        }
        let fingerprint = doc.str_field("fingerprint").map_err(field)?;
        let fingerprint = u64::from_str_radix(fingerprint.trim_start_matches("0x"), 16)
            .map_err(|e| bad(format!("checkpoint fingerprint {fingerprint:?}: {e}")))?;
        let precision = match doc.opt("precision") {
            None => None,
            Some(v) => Some(
                v.as_f64()
                    .ok_or_else(|| bad("checkpoint precision is not a number".into()))?,
            ),
        };
        let shard = match doc.opt("shard") {
            None => None,
            Some(v) => Some(
                Shard::new(
                    v.uint_field("index").map_err(field)?,
                    v.uint_field("count").map_err(field)?,
                )
                .map_err(|e| bad(format!("checkpoint shard is not a valid partition: {e}")))?,
            ),
        };
        let mut points = Vec::new();
        for (i, entry) in doc.arr_field("points").map_err(field)?.iter().enumerate() {
            let field = |e: String| bad(format!("checkpoint point {i}: {e}"));
            points.push(PointEntry {
                spec: entry.uint_field("spec").map_err(field)?,
                point: entry.uint_field("point").map_err(field)?,
                series: entry.str_field("series").unwrap_or_default().to_string(),
                p: entry.f64_field("p").map_err(field)?,
                // Absent in version-1 files; zero means "unknown".
                total_batches: entry.uint_field("total_batches").unwrap_or(0),
                tally: PointTally {
                    shots: entry.uint_field("shots").map_err(field)?,
                    failures: entry.uint_field("failures").map_err(field)?,
                    next_batch: entry.uint_field("next_batch").map_err(field)?,
                },
            });
        }
        Ok(SweepState {
            fingerprint,
            batch: doc.uint_field("batch").map_err(field)?,
            precision,
            shard,
            rounds_done: doc.uint_field("rounds_done").unwrap_or(0),
            points,
        })
    }

    /// Writes the state to `path` atomically: the document lands in a
    /// sibling temp file first and is renamed over the target, so a
    /// kill at any instant leaves either the old state or the new one,
    /// never a torn file.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures as [`CoreError::Sweep`].
    pub fn save(&self, path: &Path) -> Result<(), CoreError> {
        let bad = |detail: String| CoreError::Sweep { detail };
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)
                .map_err(|e| bad(format!("create {}: {e}", dir.display())))?;
        }
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        std::fs::write(&tmp, self.render() + "\n")
            .map_err(|e| bad(format!("write {}: {e}", tmp.display())))?;
        std::fs::rename(&tmp, path).map_err(|e| {
            bad(format!(
                "rename {} -> {}: {e}",
                tmp.display(),
                path.display()
            ))
        })
    }

    /// Loads a state file saved by [`SweepState::save`].
    ///
    /// # Errors
    ///
    /// Propagates I/O failures and format errors as [`CoreError::Sweep`].
    pub fn load(path: &Path) -> Result<SweepState, CoreError> {
        let text = std::fs::read_to_string(path).map_err(|e| CoreError::Sweep {
            detail: format!("read checkpoint {}: {e}", path.display()),
        })?;
        Self::from_text(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> SweepState {
        SweepState {
            fingerprint: 0xdead_beef_1234_5678,
            batch: 4096,
            precision: Some(0.1),
            shard: Some(Shard::new(1, 4).unwrap()),
            rounds_done: 3,
            points: vec![
                PointEntry {
                    spec: 0,
                    point: 0,
                    series: "d=3".into(),
                    p: 3e-3,
                    total_batches: 8,
                    tally: PointTally {
                        shots: 8192,
                        failures: 37,
                        next_batch: 2,
                    },
                },
                PointEntry {
                    spec: 1,
                    point: 2,
                    series: "defective d=9".into(),
                    p: 6.75e-3,
                    total_batches: 8,
                    tally: PointTally::default(),
                },
            ],
        }
    }

    #[test]
    fn state_round_trips_through_json() {
        let s = state();
        assert_eq!(SweepState::from_text(&s.render()).unwrap(), s);
    }

    #[test]
    fn save_and_load_round_trip_on_disk() {
        let dir = std::env::temp_dir().join(format!("dqec_sweep_test_{}", std::process::id()));
        let path = dir.join("nested").join("state.json");
        let s = state();
        s.save(&path).unwrap();
        assert_eq!(SweepState::load(&path).unwrap(), s);
        // Overwrite is atomic and leaves no temp file behind.
        s.save(&path).unwrap();
        assert!(!path.with_extension("json.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_version_is_rejected() {
        let text = state().render().replace("\"version\":2", "\"version\":999");
        let err = SweepState::from_text(&text).unwrap_err();
        assert!(err.to_string().contains("version 999"), "{err}");
    }

    #[test]
    fn version_1_files_still_read() {
        // A pre-shard (PR 5) state document: no shard, no total_batches.
        let text = r#"{"version":1,"fingerprint":"0x00000000000000ab","batch":512,
            "precision":null,"rounds_done":2,"points":[{"spec":0,"point":0,
            "series":"d=3","p":0.003,"shots":1024,"failures":9,"next_batch":2}]}"#;
        let s = SweepState::from_text(text).unwrap();
        assert_eq!(s.shard, None);
        assert_eq!(s.points[0].total_batches, 0);
        assert_eq!(s.points[0].tally.next_batch, 2);
    }

    #[test]
    fn malformed_shard_is_rejected() {
        let text = state().render().replace(
            "\"shard\":{\"index\":1,\"count\":4}",
            "\"shard\":{\"index\":4,\"count\":4}",
        );
        let err = SweepState::from_text(&text).unwrap_err();
        assert!(err.to_string().contains("valid partition"), "{err}");
    }

    #[test]
    fn missing_file_is_a_clear_error() {
        let err = SweepState::load(Path::new("/nonexistent/dir/state.json")).unwrap_err();
        assert!(err.to_string().contains("read checkpoint"), "{err}");
    }
}
