//! Deterministic sweep partitioning: splits a sweep's per-point batch
//! streams into `N` contiguous, non-overlapping ranges so independent
//! worker processes can run disjoint slices of one plan and a merge
//! step can recombine them bit-exactly.
//!
//! # Determinism contract
//!
//! Batches are independent seeded ChaCha8 streams
//! ([`dqec_chiplet::runner::batch_seed`]) and tallies are sums over the
//! set of completed batches, so *any* partition of `[0, total)` yields
//! the same merged tally. [`Shard::batch_range`] fixes one canonical
//! partition — the balanced contiguous split — as a pure function of
//! `(index, count, total)`, so shard assignment needs no coordination:
//! every worker derives its own ranges from the plan alone, and any
//! shard can be re-run independently (straggler re-dispatch, crash
//! resume) without consulting the others.

pub use dqec_chiplet::cli::{CHECKPOINT_FLAG, COORDINATOR_FLAGS, RESUME_FLAG, SHARD_FLAG};
use dqec_core::CoreError;
use std::fmt;
use std::ops::Range;
use std::path::Path;
use std::str::FromStr;

/// One slice of an `N`-way sweep partition: shard `index` of `count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    index: u32,
    count: u32,
}

impl Shard {
    /// Shard `index` of `count`.
    ///
    /// # Errors
    ///
    /// Rejects `count == 0` and `index >= count`.
    pub fn new(index: u32, count: u32) -> Result<Shard, CoreError> {
        if count == 0 {
            return Err(CoreError::Sweep {
                detail: "shard count must be at least 1".into(),
            });
        }
        if index >= count {
            return Err(CoreError::Sweep {
                detail: format!("shard index {index} out of range for {count} shards"),
            });
        }
        Ok(Shard { index, count })
    }

    /// This shard's index, in `0..count`.
    pub fn index(&self) -> u32 {
        self.index
    }

    /// Total number of shards in the partition.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// The canonical batch range of this shard for a point with
    /// `total` batches: the balanced contiguous split
    /// `total*i/N .. total*(i+1)/N`. The `count` ranges exactly
    /// partition `[0, total)` and any two differ in length by at most
    /// one batch.
    pub fn batch_range(&self, total: u64) -> Range<u64> {
        let (i, n) = (self.index as u64, self.count as u64);
        // u64*u32 cannot overflow u128, so the split is exact even for
        // absurd batch counts.
        let lo = (total as u128 * i as u128 / n as u128) as u64;
        let hi = (total as u128 * (i + 1) as u128 / n as u128) as u64;
        lo..hi
    }
}

/// The name of plan `tag`'s sweep state file: `<tag>.sweep.json` for a
/// whole-plan run, `<tag>.shard<i>of<N>.sweep.json` for shard `i/N`.
/// Shard workers thus each own a distinct file, and the merged
/// whole-plan state takes the unsuffixed name a `--resume` run looks
/// for.
pub fn state_file_name(tag: &str, shard: Option<Shard>) -> String {
    match shard {
        None => format!("{tag}.sweep.json"),
        Some(s) => format!("{tag}.shard{}of{}.sweep.json", s.index, s.count),
    }
}

/// Splits a shard state-file name into its plan tag and shard, e.g.
/// `fig06.defective.shard1of2.sweep.json` → `("fig06.defective", 1/2)`;
/// the inverse of [`state_file_name`] for shard files. Whole-plan
/// states, temp files and anything else give `None`.
pub fn parse_state_file_name(name: &str) -> Option<(&str, Shard)> {
    let stem = name.strip_suffix(".sweep.json")?;
    let (tag, shard) = stem.rsplit_once(".shard")?;
    let (i, n) = shard.split_once("of")?;
    let shard = Shard::new(i.parse().ok()?, n.parse().ok()?).ok()?;
    // Only the canonical spelling (no `+1`, no leading zeros).
    (state_file_name(tag, Some(shard)) == name).then_some((tag, shard))
}

/// The coordinator's part of a worker's command line, and the one place
/// it is written: `--shard i/N` for a shard worker (none for the run
/// that emits a merged state), `--checkpoint DIR`, and `--resume` when
/// `resume` is set.
pub fn worker_args(shard: Option<Shard>, checkpoint: &Path, resume: bool) -> Vec<String> {
    let mut args = Vec::with_capacity(5);
    if let Some(shard) = shard {
        args.extend([SHARD_FLAG.to_string(), shard.to_string()]);
    }
    args.extend([
        CHECKPOINT_FLAG.to_string(),
        checkpoint.display().to_string(),
    ]);
    if resume {
        args.push(RESUME_FLAG.to_string());
    }
    args
}

impl fmt::Display for Shard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

impl FromStr for Shard {
    type Err = CoreError;

    /// Parses the `"i/N"` form used by `--shard` (e.g. `"0/4"`).
    fn from_str(s: &str) -> Result<Shard, CoreError> {
        let bad = || CoreError::Sweep {
            detail: format!("shard spec {s:?} is not of the form I/N (e.g. 0/4)"),
        };
        let (i, n) = s.split_once('/').ok_or_else(bad)?;
        let index: u32 = i.trim().parse().map_err(|_| bad())?;
        let count: u32 = n.trim().parse().map_err(|_| bad())?;
        Shard::new(index, count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_partition_every_total() {
        for count in 1u32..=7 {
            for total in 0u64..50 {
                let mut next = 0u64;
                for index in 0..count {
                    let r = Shard::new(index, count).unwrap().batch_range(total);
                    assert_eq!(r.start, next, "gap at shard {index}/{count}, total {total}");
                    assert!(r.end >= r.start);
                    next = r.end;
                }
                assert_eq!(next, total, "partition of {total} over {count} incomplete");
            }
        }
    }

    #[test]
    fn ranges_are_balanced() {
        for count in 1u32..=6 {
            for total in 0u64..40 {
                let lens: Vec<u64> = (0..count)
                    .map(|i| {
                        let r = Shard::new(i, count).unwrap().batch_range(total);
                        r.end - r.start
                    })
                    .collect();
                let lo = lens.iter().min().unwrap();
                let hi = lens.iter().max().unwrap();
                assert!(hi - lo <= 1, "unbalanced split: {lens:?}");
            }
        }
    }

    #[test]
    fn parse_round_trips_and_rejects_garbage() {
        let s: Shard = "2/4".parse().unwrap();
        assert_eq!((s.index(), s.count()), (2, 4));
        assert_eq!(s.to_string(), "2/4");
        assert_eq!(state_file_name("t", Some(s)), "t.shard2of4.sweep.json");
        assert_eq!(state_file_name("t", None), "t.sweep.json");
        for bad in ["", "3", "4/4", "5/4", "a/b", "1/0", "-1/2", "1/2/3"] {
            assert!(bad.parse::<Shard>().is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn shard_file_names_parse() {
        let shard = |i, n| Shard::new(i, n).unwrap();
        assert_eq!(
            parse_state_file_name("fig06_ler_curves.defective.shard1of2.sweep.json"),
            Some(("fig06_ler_curves.defective", shard(1, 2)))
        );
        assert_eq!(
            parse_state_file_name("fig05.slopes.shard0of4.sweep.json"),
            Some(("fig05.slopes", shard(0, 4)))
        );
        // Whole-plan states, temp files, and junk are not shard files.
        for name in [
            "fig06.sweep.json",
            "fig06.shard1of2.sweep.json.tmp",
            "fig06.shardXofY.sweep.json",
            "fig06.shard2of2.sweep.json",
            "fig06.shard+1of2.sweep.json",
            "notes.txt",
        ] {
            assert_eq!(parse_state_file_name(name), None, "{name}");
        }
    }

    #[test]
    fn worker_args_write_the_coordinator_flags_in_order() {
        let dir = Path::new("ckpts");
        let shard = Shard::new(1, 2).unwrap();
        assert_eq!(
            worker_args(Some(shard), dir, false),
            ["--shard", "1/2", "--checkpoint", "ckpts"]
        );
        assert_eq!(
            worker_args(None, dir, true),
            ["--checkpoint", "ckpts", "--resume"]
        );
    }

    #[test]
    fn single_shard_is_the_whole_range() {
        let s = Shard::new(0, 1).unwrap();
        assert_eq!(s.batch_range(17), 0..17);
        assert_eq!(s.batch_range(0), 0..0);
    }
}
