//! Bit-exact recombination of shard sweep states.
//!
//! Each shard worker runs its [`Shard::batch_range`] slice of every
//! point's batch stream and checkpoints a [`SweepState`] tagged with its
//! shard identity. Because batches are independent seeded RNG streams,
//! per-point tallies are *sums over disjoint batch sets*: adding the
//! shard tallies yields exactly the numbers a single uninterrupted
//! process would have produced — not statistically equivalent, but equal
//! integer for integer.
//!
//! [`merge_states`] verifies the shards belong together (same engine
//! fingerprint, batch size, point identities), that the partition is
//! complete (every index of one `N`-way split present exactly once,
//! every shard's cursor at the end of its slice), and combines them into
//! a whole-plan state whose cursors sit at `total_batches`. Written to
//! `DIR/<tag>.sweep.json`, that merged state makes a `--resume` run of
//! the figure binary allocate zero batches and emit its records purely
//! from the tallies — byte-identical to the single-process run.

use dqec_core::CoreError;
use dqec_sweep::shard::{parse_state_file_name, state_file_name, Shard};
use dqec_sweep::SweepState;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn bad(detail: String) -> CoreError {
    CoreError::Sweep { detail }
}

/// Merges the complete states of all `N` shards of one sweep into the
/// equivalent whole-plan state (additive tallies, cursors at the end,
/// no shard identity).
///
/// # Errors
///
/// Rejects an empty input; states with mismatched fingerprints, batch
/// sizes, or point identities; adaptive states; a partition with
/// missing, duplicate, or differently-sized shard sets; and any shard
/// whose cursor has not reached the end of its slice (an incomplete
/// shard must be resumed, not merged).
pub fn merge_states(states: &[SweepState]) -> Result<SweepState, CoreError> {
    let first = states
        .first()
        .ok_or_else(|| bad("nothing to merge: no shard states given".into()))?;
    let count = match first.shard {
        Some(shard) => shard.count(),
        None => return Err(bad("state 0 has no shard identity; already merged?".into())),
    };
    if states.len() != count as usize {
        return Err(bad(format!(
            "partition is {count}-way but {} state(s) given",
            states.len()
        )));
    }
    let mut seen = vec![false; count as usize];
    for (i, state) in states.iter().enumerate() {
        let shard = state
            .shard
            .ok_or_else(|| bad(format!("state {i} has no shard identity")))?;
        if shard.count() != count {
            return Err(bad(format!(
                "state {i} belongs to a {}-way partition, expected {count}-way",
                shard.count()
            )));
        }
        let slot = &mut seen[shard.index() as usize];
        if *slot {
            return Err(bad(format!("shard {} appears more than once", shard)));
        }
        *slot = true;
        if state.fingerprint != first.fingerprint {
            return Err(bad(format!(
                "shard {shard} fingerprint {:#018x} != shard {} fingerprint {:#018x}; \
                 these states are not slices of the same sweep",
                state.fingerprint,
                first.shard.map_or(0, |s| s.index()),
                first.fingerprint
            )));
        }
        if state.batch != first.batch {
            return Err(bad(format!(
                "shard {shard} batch size {} != {}",
                state.batch, first.batch
            )));
        }
        if state.precision.is_some() {
            return Err(bad(format!(
                "shard {shard} is adaptive; sharded sweeps are uniform by contract"
            )));
        }
        if state.points.len() != first.points.len() {
            return Err(bad(format!(
                "shard {shard} has {} points, shard 0 has {}",
                state.points.len(),
                first.points.len()
            )));
        }
    }
    // `seen` is all-true here: count states, no duplicates.

    let mut merged = first.clone();
    merged.shard = None;
    merged.rounds_done = 0;
    for state in states {
        merged.rounds_done += state.rounds_done;
        // Verified present for every state above.
        let shard: Shard = match state.shard {
            Some(s) => s,
            None => continue,
        };
        for (slot, entry) in merged.points.iter_mut().zip(&state.points) {
            if entry.spec != slot.spec
                || entry.point != slot.point
                || entry.p.to_bits() != slot.p.to_bits()
                || entry.total_batches != slot.total_batches
            {
                return Err(bad(format!(
                    "shard {shard} point (spec {}, point {}, p {}, {} batches) does not \
                     line up with shard 0's (spec {}, point {}, p {}, {} batches)",
                    entry.spec,
                    entry.point,
                    entry.p,
                    entry.total_batches,
                    slot.spec,
                    slot.point,
                    slot.p,
                    slot.total_batches
                )));
            }
            if entry.total_batches == 0 {
                return Err(bad(format!(
                    "shard {shard} point (spec {}, point {}) has no batch total \
                     (version-1 state file?); cannot verify completeness",
                    entry.spec, entry.point
                )));
            }
            let slice = shard.batch_range(entry.total_batches);
            if entry.tally.next_batch != slice.end {
                return Err(bad(format!(
                    "shard {shard} is incomplete at point (spec {}, point {}): cursor {} \
                     of slice {}..{}; resume it before merging",
                    entry.spec, entry.point, entry.tally.next_batch, slice.start, slice.end
                )));
            }
        }
    }
    // Tallies are additive over disjoint batch sets; shard 0's numbers
    // are already in `merged`, so add the rest.
    for state in states.iter().filter(|s| s.shard != first.shard) {
        for (slot, entry) in merged.points.iter_mut().zip(&state.points) {
            slot.tally.shots += entry.tally.shots;
            slot.tally.failures += entry.tally.failures;
        }
    }
    for slot in &mut merged.points {
        slot.tally.next_batch = slot.total_batches;
    }
    Ok(merged)
}

/// One merged plan reported by [`merge_dir`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeReport {
    /// The plan tag (state files were `<tag>.shard<i>of<N>.sweep.json`).
    pub tag: String,
    /// How many shard states were combined.
    pub shards: u32,
    /// Sweep points in the merged state.
    pub points: usize,
    /// Total shots across all points after merging.
    pub shots: usize,
    /// Where the merged whole-plan state was written.
    pub out: PathBuf,
}

/// Merges every complete shard set found in `dir`: groups
/// `<tag>.shard<i>of<N>.sweep.json` files by tag, runs
/// [`merge_states`] per group, and writes each merged whole-plan state
/// to `dir/<tag>.sweep.json` (atomically, overwriting any previous
/// merge) so a `--resume --checkpoint dir` run of the figure binary
/// emits the final records without sampling a single new shot.
///
/// # Errors
///
/// Propagates directory I/O failures, state-file parse errors, and
/// every [`merge_states`] verification failure; reports when no shard
/// files are present at all.
pub fn merge_dir(dir: &Path) -> Result<Vec<MergeReport>, CoreError> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| bad(format!("read checkpoint dir {}: {e}", dir.display())))?;
    let mut groups: BTreeMap<String, Vec<PathBuf>> = BTreeMap::new();
    for entry in entries {
        let entry = entry.map_err(|e| bad(format!("read checkpoint dir: {e}")))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some((tag, _)) = parse_state_file_name(name) {
            groups
                .entry(tag.to_string())
                .or_default()
                .push(entry.path());
        }
    }
    if groups.is_empty() {
        return Err(bad(format!(
            "no shard state files (*.shard<i>of<N>.sweep.json) in {}",
            dir.display()
        )));
    }
    let mut reports = Vec::with_capacity(groups.len());
    for (tag, mut paths) in groups {
        paths.sort();
        let mut states = Vec::with_capacity(paths.len());
        for path in &paths {
            states.push(SweepState::load(path)?);
        }
        let merged = merge_states(&states).map_err(|e| bad(format!("plan {tag:?}: {e}")))?;
        let out = dir.join(state_file_name(&tag, None));
        merged.save(&out)?;
        reports.push(MergeReport {
            tag,
            shards: states.len() as u32,
            points: merged.points.len(),
            shots: merged.points.iter().map(|p| p.tally.shots).sum(),
            out,
        });
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqec_sweep::checkpoint::{PointEntry, PointTally};

    /// A synthetic complete shard state: 2 points, `total` batches each,
    /// `batch` shots per batch, failures `fail_per_batch` per batch.
    fn shard_state(index: u32, count: u32, total: u64, batch: usize) -> SweepState {
        let shard = Shard::new(index, count).expect("valid shard");
        let slice = shard.batch_range(total);
        let batches = (slice.end - slice.start) as usize;
        let points = (0..2)
            .map(|j| PointEntry {
                spec: 0,
                point: j,
                series: "d=3".into(),
                p: 1e-3 * (j + 1) as f64,
                total_batches: total,
                tally: PointTally {
                    shots: batches * batch,
                    failures: batches * (j + 1),
                    next_batch: slice.end,
                },
            })
            .collect();
        SweepState {
            fingerprint: 0xabc,
            batch,
            precision: None,
            shard: Some(shard),
            rounds_done: 1,
            points,
        }
    }

    #[test]
    fn merge_sums_tallies_and_clears_shard_identity() {
        let states: Vec<SweepState> = (0..3).map(|i| shard_state(i, 3, 10, 64)).collect();
        let merged = merge_states(&states).expect("merge");
        assert_eq!(merged.shard, None);
        assert_eq!(merged.fingerprint, 0xabc);
        for (j, pt) in merged.points.iter().enumerate() {
            assert_eq!(pt.tally.shots, 10 * 64, "all batches' shots");
            assert_eq!(pt.tally.failures, 10 * (j + 1));
            assert_eq!(pt.tally.next_batch, 10, "cursor at the whole-plan end");
        }
        // Order independence: any permutation merges identically.
        let shuffled = vec![states[2].clone(), states[0].clone(), states[1].clone()];
        assert_eq!(merge_states(&shuffled).expect("merge"), merged);
    }

    #[test]
    fn merge_rejects_broken_partitions() {
        let states: Vec<SweepState> = (0..3).map(|i| shard_state(i, 3, 10, 64)).collect();

        // Missing shard.
        let err = merge_states(&states[..2]).expect_err("2 of 3");
        assert!(err.to_string().contains("3-way"), "{err}");

        // Duplicate shard.
        let dup = vec![states[0].clone(), states[1].clone(), states[1].clone()];
        let err = merge_states(&dup).expect_err("duplicate");
        assert!(err.to_string().contains("more than once"), "{err}");

        // Foreign fingerprint.
        let mut alien = states.clone();
        alien[1].fingerprint ^= 1;
        let err = merge_states(&alien).expect_err("fingerprint");
        assert!(err.to_string().contains("fingerprint"), "{err}");

        // Incomplete shard (cursor short of its slice end).
        let mut partial = states.clone();
        partial[2].points[0].tally.next_batch -= 1;
        let err = merge_states(&partial).expect_err("incomplete");
        assert!(err.to_string().contains("incomplete"), "{err}");

        // Already-merged input.
        let merged = merge_states(&states).expect("merge");
        let err = merge_states(&[merged]).expect_err("no shard identity");
        assert!(err.to_string().contains("shard identity"), "{err}");

        // Empty input.
        assert!(merge_states(&[]).is_err());
    }

    #[test]
    fn merge_dir_round_trips_through_files() {
        let dir = std::env::temp_dir().join(format!("dqec_dist_merge_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        for i in 0..2 {
            let state = shard_state(i, 2, 8, 32);
            state
                .save(&dir.join(format!("figX.plan.shard{i}of2.sweep.json")))
                .expect("save shard state");
        }
        let reports = merge_dir(&dir).expect("merge dir");
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].tag, "figX.plan");
        assert_eq!(reports[0].shards, 2);
        assert_eq!(reports[0].shots, 2 * 8 * 32);
        let merged = SweepState::load(&dir.join("figX.plan.sweep.json")).expect("load merged");
        assert_eq!(merged.shard, None);
        assert_eq!(merged.points[0].tally.next_batch, 8);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
