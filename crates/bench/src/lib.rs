//! # dqec-bench
//!
//! Reproduction harness for every table and figure in the paper's
//! evaluation. Each binary in `src/bin/` is a thin wrapper around a
//! figure module in [`figs`]: it parses the shared [`RunConfig`],
//! builds a [`Sink`] (TSV on stdout by default), and hands both to the
//! figure's `run` function, which declares
//! [`ExperimentSpec`]s and emits typed [`Record`]s.
//!
//! All binaries accept the flags of [`USAGE`] and read them through
//! [`dqec_chiplet::cli`]: unknown flags and malformed values exit with
//! code 2. Default (quick) parameters reproduce the *shapes* of the
//! paper's results in minutes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figs;

use dqec_chiplet::cli;
use dqec_chiplet::defect_model::DefectModel;
use dqec_chiplet::record::{JsonSink, Record, Sink, TsvSink};
use dqec_chiplet::runner::{default_rounds, DecoderChoice, ExperimentSpec, RunOutcome};
use dqec_chiplet::yields::SampleConfig;
use dqec_core::adapt::AdaptedPatch;
use dqec_core::indicators::PatchIndicators;
use dqec_core::layout::PatchLayout;
use dqec_core::{CoreError, DefectSet};
use dqec_sweep::shard::{state_file_name, CHECKPOINT_FLAG, RESUME_FLAG, SHARD_FLAG};
use dqec_sweep::{EngineConfig, Precision, Shard, SweepEngine, SweepPlan};
use rayon::prelude::*;
use std::path::PathBuf;
use std::sync::{Mutex, PoisonError};

/// Command-line configuration shared by every reproduction binary.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Paper-scale parameters when set.
    pub full: bool,
    /// Chiplet samples per sweep point.
    pub samples: usize,
    /// Monte-Carlo shots per LER point.
    pub shots: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Emit JSON records instead of TSV.
    pub json: bool,
    /// Write output to `<dir>/<bin>.{tsv,json}` instead of stdout.
    pub out: Option<PathBuf>,
    /// Which decoder backend LER experiments run through.
    pub decoder: DecoderChoice,
    /// Worker-thread cap for every parallel fan-out
    /// (`rayon::with_worker_cap`); `None` uses the machine budget.
    pub threads: Option<usize>,
    /// Adaptive allocation: target relative width of each point's 95%
    /// Wilson interval — LER sweeps spend shots (capped by `--shots`),
    /// yield figures fabricate chiplets (capped by `--samples`).
    /// `None` spends the budgets uniformly.
    pub precision: Option<f64>,
    /// Directory for sweep engine state files (one per sweep plan).
    pub checkpoint: Option<PathBuf>,
    /// Resume engine sweeps from their state files.
    pub resume: bool,
    /// Run only shard `i/N` of every engine sweep: each plan covers its
    /// slice of the per-point batch streams and checkpoints to
    /// `DIR/<tag>.shard<i>of<N>.sweep.json`; `dqec_dist merge` combines
    /// the slices bit-exactly. Requires `--checkpoint` (the state file
    /// *is* the shard's output) and uniform allocation.
    pub shard: Option<Shard>,
    /// Testing hook (no CLI flag): make every engine sweep stop with an
    /// error after this many allocation rounds, checkpoint saved —
    /// deterministic mid-sweep "kill" for resume tests.
    pub halt_after_rounds: Option<u64>,
    /// Engine tuning override (no CLI flag): shots per batch — the
    /// RNG-stream/allocation unit. `None` uses the engine default
    /// (4096, the `Runner` batch size, which keeps engine tallies
    /// byte-identical to the pre-engine figures).
    pub sweep_batch: Option<usize>,
    /// Engine tuning override (no CLI flag): max batches per point per
    /// allocation round (checkpoint granularity).
    pub sweep_round_batches: Option<u64>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            full: false,
            samples: 1_000,
            shots: 20_000,
            seed: 0x00a5_7105,
            json: false,
            out: None,
            decoder: DecoderChoice::default(),
            threads: None,
            precision: None,
            checkpoint: None,
            resume: false,
            shard: None,
            halt_after_rounds: None,
            sweep_batch: None,
            sweep_round_batches: None,
        }
    }
}

/// The usage text printed by `--help` and on argument errors.
pub const USAGE: &str = "\
usage: <bin> [--full] [--samples N] [--shots N] [--seed N] [--decoder NAME]
             [--threads N] [--precision W] [--checkpoint DIR] [--resume]
             [--shard I/N] [--json] [--out DIR] [--help]

  --full          paper-scale parameters (slow; hours for Monte-Carlo figures)
  --samples N     chiplet samples per sweep point
  --shots N       Monte-Carlo shots per LER point (the per-point budget
                  cap when --precision is set)
  --seed N        base RNG seed
  --decoder NAME  decoder backend for LER experiments: mwpm (exact
                  minimum-weight matching, default) or uf (union-find:
                  several times faster, slightly less accurate)
  --threads N     cap every parallel fan-out at N worker threads
                  (N >= 1; results are identical for any N)
  --precision W   adaptive allocation to a relative 95% Wilson CI width
                  of W (e.g. 0.2): LER sweeps allocate shots per point
                  up to the --shots cap, and the yield figures
                  (fig12/13/17) fabricate chiplets per point up to the
                  --samples cap N, first min(200, N/5) of them, instead
                  of spending the budgets uniformly
  --checkpoint DIR  persist sweep state to DIR/<plan>.sweep.json after
                  every allocation round
  --resume        resume engine sweeps from their state files
  --shard I/N     run only shard I of an N-way deterministic partition of
                  every sweep (batch-range split; requires --checkpoint,
                  incompatible with --precision); shard state lands in
                  DIR/<plan>.shardIofN.sweep.json for dqec_dist merge
  --json          emit a JSON array of records instead of TSV
  --out DIR       write to DIR/<bin>.tsv (or .json) instead of stdout
  --help          show this message";

impl RunConfig {
    /// Parses the standard arguments (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a message for unknown flags, missing values, and
    /// unparseable numbers — a typo like `--shot 500` must fail loudly
    /// rather than silently run the default shot count for hours.
    /// `--help` is an error here too; [`RunConfig::from_args`] prints
    /// the usage for it.
    pub fn parse(args: &[String]) -> Result<RunConfig, String> {
        Self::read(args).map_err(|e| e.to_string())
    }

    /// Parses `std::env::args` through [`cli::or_exit`]: usage on
    /// stdout and exit code 0 on `--help`/`-h`, the error and usage on
    /// stderr and exit code 2 on invalid arguments.
    pub fn from_args() -> RunConfig {
        cli::or_exit(USAGE, Self::read(&cli::args()))
    }

    fn read(args: &[String]) -> Result<RunConfig, cli::Error> {
        let f = cli::read(
            args,
            &["--full", "--json", RESUME_FLAG],
            &[
                "--samples",
                "--shots",
                "--seed",
                "--out",
                "--decoder",
                "--threads",
                "--precision",
                CHECKPOINT_FLAG,
                SHARD_FLAG,
            ],
        )?;
        let full = f.has("--full");
        let precision = f.parse_with("--precision", |v| match v.parse::<f64>() {
            Err(_) => Err(format!("bad --precision value {v:?}")),
            Ok(w) if w.is_finite() && w > 0.0 => Ok(w),
            Ok(_) => Err(format!("--precision must be a positive width, got {v:?}")),
        })?;
        let checkpoint = f.value(CHECKPOINT_FLAG).map(PathBuf::from);
        let resume = f.has(RESUME_FLAG);
        let shard: Option<Shard> = f.parse_with(SHARD_FLAG, |v| {
            v.parse().map_err(|e| format!("bad --shard value: {e}"))
        })?;
        if resume && checkpoint.is_none() {
            return Err("--resume requires --checkpoint DIR".into());
        }
        if shard.is_some() && checkpoint.is_none() {
            return Err("--shard requires --checkpoint DIR (the state file is the output)".into());
        }
        if shard.is_some() && precision.is_some() {
            return Err(
                "--shard is incompatible with --precision: adaptive stopping depends on \
                 the global tally no single shard can see"
                    .into(),
            );
        }
        let defaults = RunConfig::default();
        Ok(RunConfig {
            full,
            samples: f
                .get("--samples")?
                .unwrap_or(if full { 10_000 } else { defaults.samples }),
            shots: f
                .get("--shots")?
                .unwrap_or(if full { 2_000_000 } else { defaults.shots }),
            seed: f.get("--seed")?.unwrap_or(defaults.seed),
            json: f.has("--json"),
            out: f.value("--out").map(PathBuf::from),
            decoder: f
                .parse_with("--decoder", DecoderChoice::parse)?
                .unwrap_or_default(),
            threads: f.positive("--threads")?,
            precision,
            checkpoint,
            resume,
            shard,
            ..defaults
        })
    }

    /// The physical-error window used for slope fits: the paper's
    /// 5·10⁻⁴…2·10⁻³ window in full mode, a shifted window in quick
    /// mode so that failures are observable with few shots.
    pub fn slope_window(&self) -> Vec<f64> {
        if self.full {
            vec![5e-4, 7.5e-4, 1.1e-3, 1.5e-3, 2e-3]
        } else {
            vec![3e-3, 4.5e-3, 6.75e-3]
        }
    }

    /// Patch size and distance groups for the indicator studies: the
    /// paper's l = 11 with d in 6..=10 in full mode, a lighter l = 9
    /// with d in 5..=8 in quick mode (high-p decoding of l = 11 patches
    /// is too expensive for a quick pass).
    pub fn slope_patch(&self) -> (u32, std::ops::RangeInclusive<u32>) {
        if self.full {
            (11, 6..=10)
        } else {
            (9, 5..=8)
        }
    }

    /// Patches sampled per distance group for the indicator studies
    /// (the paper uses 50).
    pub fn patches_per_group(&self) -> usize {
        if self.full {
            50
        } else {
            3
        }
    }

    /// The population of `l × l` chiplets under `model` at defect
    /// `rate` drawn from `--seed`; figures read its first `--samples`
    /// chiplets.
    pub fn population(&self, l: u32, model: DefectModel, rate: f64) -> SampleConfig {
        SampleConfig {
            seed: self.seed,
            ..SampleConfig::new(l, model, rate)
        }
    }

    /// Runs `specs` as one sweep plan named `tag`, every spec on this
    /// config's `--decoder` backend, emitting each series to `sink` and
    /// returning one outcome per spec. Every Monte-Carlo plan of the
    /// figure modules (fig06's two panels, fig20's five series, the
    /// slope dataset and its defect-free references) runs through here,
    /// so no plan can miss the decoder, and `--precision`,
    /// `--checkpoint`/`--resume` and `--shard` apply to all of them. A
    /// checkpointed plan's state lands in `DIR/<tag>.sweep.json`, and
    /// is never resumed under another tag or decoder.
    ///
    /// # Errors
    ///
    /// Propagates the engine's failures: circuit generation, checkpoint
    /// I/O, resume mismatches.
    pub fn sweep(
        &self,
        tag: &str,
        specs: impl IntoIterator<Item = ExperimentSpec>,
        sink: &mut dyn Sink,
    ) -> Result<Vec<RunOutcome>, CoreError> {
        let plan: SweepPlan = specs
            .into_iter()
            .map(|spec| spec.decoder(self.decoder.builder()))
            .collect();
        self.engine(tag).run(&plan, sink)
    }

    /// The sweep engine for one named plan under this config:
    /// `--precision` selects adaptive allocation, `--checkpoint DIR`
    /// persists state to `DIR/<tag>.sweep.json`, `--resume` restarts
    /// from it. The fingerprint salt covers `tag` and the decoder
    /// backend, so state files are never resumed across plans or
    /// backends.
    fn engine(&self, tag: &str) -> SweepEngine {
        let mut salt = dqec_chiplet::runner::Fnv::new();
        salt.bytes(tag.as_bytes());
        salt.bytes(self.decoder.name().as_bytes());
        let salt = salt.finish();
        let defaults = EngineConfig::default();
        SweepEngine::new(EngineConfig {
            batch: self.sweep_batch.unwrap_or(defaults.batch),
            round_batches: self.sweep_round_batches.unwrap_or(defaults.round_batches),
            precision: self.precision.map(Precision::new),
            checkpoint: self
                .checkpoint
                .as_ref()
                .map(|dir| dir.join(state_file_name(tag, self.shard))),
            resume: self.resume,
            halt_after_rounds: self.halt_after_rounds,
            salt,
            shard: self.shard,
        })
    }

    /// Runs `f` under this config's `--threads` worker cap (or
    /// uncapped on the machine budget when the flag is absent).
    pub fn with_threads<R>(&self, f: impl FnOnce() -> R) -> R {
        match self.threads {
            Some(n) => rayon::with_worker_cap(n, f),
            None => f(),
        }
    }

    /// The [`Record::Meta`] header for a binary under this config.
    pub fn meta(&self, name: &str, what: &str) -> Record {
        Record::Meta {
            name: name.to_string(),
            what: what.to_string(),
            mode: if self.full { "full" } else { "quick" }.to_string(),
            samples: self.samples,
            shots: self.shots,
            seed: self.seed,
        }
    }
}

/// Runs the named figure/table reproduction with `cfg`, routing records
/// to stdout or `--out DIR/<name>.{tsv,json}` per the config.
///
/// # Errors
///
/// Returns an error naming `name` if it is not in [`figs::ALL`], and
/// propagates experiment failures and output I/O errors.
pub fn run_reproduction(name: &str, cfg: &RunConfig) -> Result<(), String> {
    let rep = figs::ALL
        .iter()
        .find(|r| r.name == name)
        .ok_or_else(|| format!("unknown reproduction {name:?}"))?;
    let writer: Box<dyn std::io::Write> = match &cfg.out {
        None => Box::new(std::io::stdout().lock()),
        Some(dir) => {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
            let path = dir.join(format!("{name}.{}", if cfg.json { "json" } else { "tsv" }));
            Box::new(
                std::fs::File::create(&path)
                    .map_err(|e| format!("create {}: {e}", path.display()))?,
            )
        }
    };
    let mut sink: Box<dyn Sink> = if cfg.json {
        Box::new(JsonSink::new(writer))
    } else {
        Box::new(TsvSink::new(writer))
    };
    sink.emit(&cfg.meta(rep.name, rep.what));
    let result = (rep.run)(cfg, sink.as_mut());
    // A closed pipe or full disk surfaces here, not as a panic mid-run.
    let written = sink.finish();
    result.map_err(|e| e.to_string())?;
    written.map_err(|e| format!("write: {e}"))
}

/// The shared `main` of every reproduction binary: parse arguments, run
/// the named figure under the `--threads` cap, exit non-zero on
/// failure.
pub fn bin_main(name: &str) {
    let cfg = RunConfig::from_args();
    if let Err(e) = cfg.with_threads(|| run_reproduction(name, &cfg)) {
        eprintln!("{name} failed: {e}");
        std::process::exit(1);
    }
}

/// One defective patch with its measured log-log slope.
#[derive(Debug, Clone)]
pub struct SlopeRecord {
    /// The patch's indicators.
    pub indicators: PatchIndicators,
    /// Fitted slope of ln(LER) vs ln(p), when measurable.
    pub slope: Option<f64>,
}

/// The last slope dataset measured in this process and the config it
/// was measured under.
static SLOPES: Mutex<Option<(RunConfig, Vec<SlopeRecord>)>> = Mutex::new(None);

/// The slope dataset of Figs. 5 and 7–11: defective chiplets of the
/// [`RunConfig::slope_patch`] size, each with its measured log-log
/// slope. All six figures read this one measurement, so it is computed
/// at most once per process for a given `cfg` (`reproduce_all` runs it
/// once, not six times) and checkpoints under the one plan tag
/// `slopes`. A failed measurement is not remembered.
///
/// Chiplets (links and qubits faulty at the same rate, as in Fig. 5)
/// are drawn in one sequential stream until
/// [`RunConfig::patches_per_group`] patches of every adapted distance
/// have been collected; then every patch's slope is measured as one
/// plan through [`RunConfig::sweep`]: the
/// mixed-distance specs (a d = 5 patch decodes ~10x faster than a
/// d = 8 one) share the rayon pool instead of running
/// one-after-another, `--precision` makes the shot allocation adaptive,
/// and `--checkpoint`/`--resume` persist the sweep under
/// `slopes.sweep.json`.
///
/// Patches whose sweep cannot run (degenerate circuit) or fit (no
/// failures observed) report `slope: None`.
///
/// # Errors
///
/// Propagates sweep orchestration failures (checkpoint I/O, resume
/// mismatches); per-patch circuit-generation failures only mark that
/// patch's slope as unmeasured.
pub fn slope_dataset(cfg: &RunConfig) -> Result<Vec<SlopeRecord>, CoreError> {
    // The entry is only ever replaced whole, so a measurement that
    // panicked left the previous one valid behind the poisoned lock.
    let mut last = SLOPES.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some((_, records)) = last.as_ref().filter(|(measured, _)| measured == cfg) {
        return Ok(records.clone());
    }
    // Measured under the lock, so concurrent callers with one config
    // wait for one measurement; an `Err` is returned, never stored.
    let records = measure_slopes(cfg)?;
    *last = Some((cfg.clone(), records.clone()));
    Ok(records)
}

fn measure_slopes(cfg: &RunConfig) -> Result<Vec<SlopeRecord>, CoreError> {
    let (l, d_range) = cfg.slope_patch();
    // A mix of rates populates every distance group.
    let draws = figs::sequential_draw(l, cfg.seed, &[0.004, 0.008, 0.015, 0.025]);
    let groups = figs::by_distance(draws, d_range, cfg.patches_per_group(), 30_000);
    let ps = cfg.slope_window();
    let dataset: Vec<(u32, usize, AdaptedPatch)> = groups
        .into_iter()
        .flat_map(|(d, patches)| {
            patches
                .into_iter()
                .enumerate()
                .map(move |(i, patch)| (d, i, patch))
        })
        .collect();
    // Degenerate patches (the defects cut the patch, no observable
    // path, ...) cannot host an experiment; keep them in the dataset
    // with an unmeasured slope, as the old per-patch loop did, instead
    // of failing the whole plan. The precheck generates each circuit a
    // second time (the engine regenerates it when compiling), but
    // circuit generation is cheap next to the decoder build and this
    // fan-out runs in parallel.
    let compilable: Vec<bool> = dataset
        .par_iter()
        .map(|(_, _, patch)| dqec_core::circuit_gen::memory_z(patch, default_rounds(patch)).is_ok())
        .collect();
    let mut specs = Vec::new();
    let mut measured = Vec::new(); // index into `records` per plan spec
    let mut records = Vec::new();
    for ((d, i, patch), compiles) in dataset.into_iter().zip(compilable) {
        records.push(SlopeRecord {
            indicators: PatchIndicators::of(&patch),
            slope: None,
        });
        if !compiles {
            continue;
        }
        measured.push(records.len() - 1);
        specs.push(
            ExperimentSpec::memory(patch)
                .ps(&ps)
                .shots(cfg.shots)
                .seed(cfg.seed + i as u64)
                .label(format!("l={l} d={d} #{i}"))
                .fit(true),
        );
    }
    eprintln!(
        "  [slope dataset] measuring {} patches through the sweep engine",
        specs.len()
    );
    let outcomes = cfg.sweep("slopes", specs, &mut dqec_chiplet::record::NullSink)?;
    for (slot, outcome) in measured.into_iter().zip(outcomes) {
        records[slot].slope = outcome.fit.map(|f| f.slope);
    }
    Ok(records)
}

/// The slopes of defect-free distance-`d` patches under the same
/// protocol, measured as one engine plan (tagged `slopes.refs`).
///
/// # Errors
///
/// Propagates sweep orchestration and circuit-generation failures.
pub fn defect_free_slopes(ds: &[u32], cfg: &RunConfig) -> Result<Vec<Option<f64>>, CoreError> {
    let specs = ds.iter().map(|&d| {
        let patch = AdaptedPatch::new(PatchLayout::memory(d), &DefectSet::new());
        ExperimentSpec::memory(patch)
            .ps(&cfg.slope_window())
            .rounds(d)
            .shots(cfg.shots)
            .seed(cfg.seed ^ 0xdefec7)
            .label(format!("defect-free d={d}"))
            .fit(true)
    });
    let outcomes = cfg.sweep("slopes.refs", specs, &mut dqec_chiplet::record::NullSink)?;
    Ok(outcomes
        .into_iter()
        .map(|o| o.fit.map(|f| f.slope))
        .collect())
}

/// Formats an `f64` compactly for the TSV outputs.
pub fn fmt(v: f64) -> String {
    dqec_chiplet::record::fmt_compact(v)
}

/// A [`Result`] for figure runs: figures only fail on circuit
/// generation, which [`CoreError`] covers.
pub type FigResult = Result<(), CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unknown_reproduction_is_an_error_naming_it() {
        let err = run_reproduction("fig99_nope", &RunConfig::default()).unwrap_err();
        assert!(err.contains("\"fig99_nope\""), "{err}");
    }

    #[test]
    fn quick_config_defaults() {
        let cfg = RunConfig::default();
        assert_eq!(cfg.slope_window().len(), 3);
        assert_eq!(cfg.patches_per_group(), 3);
        assert!(!cfg.json);
    }

    #[test]
    fn parse_accepts_the_standard_flags() {
        let cfg = RunConfig::parse(&args(&[
            "--samples",
            "5",
            "--shots",
            "100",
            "--seed",
            "9",
            "--json",
            "--out",
            "results",
        ]))
        .unwrap();
        assert_eq!(cfg.samples, 5);
        assert_eq!(cfg.shots, 100);
        assert_eq!(cfg.seed, 9);
        assert!(cfg.json);
        assert_eq!(cfg.out, Some(PathBuf::from("results")));
    }

    #[test]
    fn parse_accepts_and_validates_decoder_choice() {
        let cfg = RunConfig::parse(&args(&["--decoder", "uf"])).unwrap();
        assert_eq!(cfg.decoder, dqec_chiplet::runner::DecoderChoice::Uf);
        let cfg = RunConfig::parse(&args(&["--decoder", "mwpm"])).unwrap();
        assert_eq!(cfg.decoder, dqec_chiplet::runner::DecoderChoice::Mwpm);
        // An unknown decoder fails loudly and names the valid choices
        // (the binary front-end turns this into exit code 2).
        let err = RunConfig::parse(&args(&["--decoder", "tensor"])).unwrap_err();
        assert!(err.contains("mwpm") && err.contains("uf"), "{err}");
        assert!(RunConfig::parse(&args(&["--decoder"])).is_err());
        // The help text lists the flag and both choices.
        assert!(USAGE.contains("--decoder") && USAGE.contains("mwpm") && USAGE.contains("uf"));
    }

    #[test]
    fn parse_accepts_and_validates_sweep_flags() {
        let cfg = RunConfig::parse(&args(&[
            "--threads",
            "4",
            "--precision",
            "0.2",
            "--checkpoint",
            "state",
            "--resume",
        ]))
        .unwrap();
        assert_eq!(cfg.threads, Some(4));
        assert_eq!(cfg.precision, Some(0.2));
        assert_eq!(cfg.checkpoint, Some(PathBuf::from("state")));
        assert!(cfg.resume);
        // Garbage must fail loudly (the binary front-end exits 2).
        assert!(RunConfig::parse(&args(&["--threads", "zero"])).is_err());
        assert!(RunConfig::parse(&args(&["--threads", "0"])).is_err());
        assert!(RunConfig::parse(&args(&["--threads", "-2"])).is_err());
        assert!(RunConfig::parse(&args(&["--threads"])).is_err());
        assert!(RunConfig::parse(&args(&["--precision", "lots"])).is_err());
        assert!(RunConfig::parse(&args(&["--precision", "0"])).is_err());
        assert!(RunConfig::parse(&args(&["--precision", "-0.5"])).is_err());
        assert!(RunConfig::parse(&args(&["--precision", "inf"])).is_err());
        // --resume without --checkpoint has no state to read.
        assert!(RunConfig::parse(&args(&["--resume"])).is_err());
        for flag in ["--threads", "--precision", "--checkpoint", "--resume"] {
            assert!(USAGE.contains(flag), "{flag} missing from usage");
        }
    }

    #[test]
    fn engine_tags_and_decoders_get_distinct_fingerprint_salts() {
        let cfg = RunConfig::default();
        let a = cfg.engine("slopes");
        let b = cfg.engine("slopes.refs");
        assert_ne!(a.config().salt, b.config().salt);
        let uf = RunConfig {
            decoder: dqec_chiplet::runner::DecoderChoice::Uf,
            ..RunConfig::default()
        };
        assert_ne!(
            cfg.engine("slopes").config().salt,
            uf.engine("slopes").config().salt,
            "decoder backend must be part of the checkpoint identity"
        );
        // Checkpoint files land under the configured directory, one
        // per tag.
        let ck = RunConfig {
            checkpoint: Some(PathBuf::from("ckpts")),
            ..RunConfig::default()
        };
        assert_eq!(
            ck.engine("slopes").config().checkpoint,
            Some(PathBuf::from("ckpts/slopes.sweep.json"))
        );
    }

    #[test]
    fn parse_accepts_and_validates_shard() {
        let cfg = RunConfig::parse(&args(&["--shard", "1/4", "--checkpoint", "state"])).unwrap();
        let shard = cfg.shard.unwrap();
        assert_eq!((shard.index(), shard.count()), (1, 4));
        // The flag is useless without a state file to carry the result.
        let err = RunConfig::parse(&args(&["--shard", "1/4"])).unwrap_err();
        assert!(err.contains("--checkpoint"), "{err}");
        // Adaptive allocation cannot be sharded.
        let err = RunConfig::parse(&args(&[
            "--shard",
            "1/4",
            "--checkpoint",
            "state",
            "--precision",
            "0.2",
        ]))
        .unwrap_err();
        assert!(err.contains("--precision"), "{err}");
        // Garbage fails loudly (the binary front-end exits 2).
        for bad in ["4/4", "x/2", "2", ""] {
            assert!(
                RunConfig::parse(&args(&["--shard", bad, "--checkpoint", "s"])).is_err(),
                "accepted --shard {bad:?}"
            );
        }
        assert!(USAGE.contains("--shard"));
        // Shard workers get per-shard state files sharing the tag.
        let ck = RunConfig {
            checkpoint: Some(PathBuf::from("ckpts")),
            shard: Some("0/2".parse().unwrap()),
            ..RunConfig::default()
        };
        assert_eq!(
            ck.engine("fig06_ler_curves.defective").config().checkpoint,
            Some(PathBuf::from(
                "ckpts/fig06_ler_curves.defective.shard0of2.sweep.json"
            ))
        );
        // All shards of one plan share the engine fingerprint salt.
        assert_eq!(
            ck.engine("fig06_ler_curves.defective").config().salt,
            RunConfig {
                checkpoint: Some(PathBuf::from("ckpts")),
                ..RunConfig::default()
            }
            .engine("fig06_ler_curves.defective")
            .config()
            .salt
        );
    }

    #[test]
    fn parse_rejects_unknown_flags() {
        // The motivating bug: `--shot 500` must not silently run the
        // 20k default.
        let err = RunConfig::parse(&args(&["--shot", "500"])).unwrap_err();
        assert!(err.contains("--shot"), "{err}");
    }

    #[test]
    fn parse_rejects_missing_and_malformed_values() {
        assert!(RunConfig::parse(&args(&["--shots"])).is_err());
        assert!(RunConfig::parse(&args(&["--shots", "many"])).is_err());
        assert!(RunConfig::parse(&args(&["--seed", "-1"])).is_err());
    }

    #[test]
    fn help_flags_are_values_in_value_position() {
        let cfg = RunConfig::parse(&args(&["--out", "-h"])).unwrap();
        assert_eq!(cfg.out, Some(PathBuf::from("-h")));
    }

    #[test]
    fn full_mode_scales_defaults() {
        let cfg = RunConfig::parse(&args(&["--full"])).unwrap();
        assert!(cfg.full);
        assert_eq!(cfg.samples, 10_000);
        assert_eq!(cfg.shots, 2_000_000);
        // Explicit values still win.
        let cfg = RunConfig::parse(&args(&["--full", "--shots", "7"])).unwrap();
        assert_eq!(cfg.shots, 7);
    }

    #[test]
    fn rounds_respect_gauge_schedule() {
        use dqec_core::Coord;
        let mut d = DefectSet::new();
        d.add_synd(Coord::new(6, 6));
        let patch = AdaptedPatch::new(PatchLayout::memory(7), &d);
        assert!(default_rounds(&patch) >= 4);
    }

    #[test]
    fn fmt_is_compact() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(0.5), "0.5000");
        assert!(fmt(1e-7).contains('e'));
    }

    /// A second call with the same config reads the memo: with the
    /// first call's state file deleted, it writes none.
    #[test]
    fn slope_dataset_is_measured_once_per_config() {
        let dir = std::env::temp_dir().join(format!("dqec_slope_memo_{}", std::process::id()));
        let cfg = RunConfig {
            shots: 200,
            seed: 3,
            checkpoint: Some(dir.clone()),
            ..RunConfig::default()
        };
        let first = slope_dataset(&cfg).expect("dataset measures");
        std::fs::remove_dir_all(&dir).expect("the first call wrote state");
        let second = slope_dataset(&cfg).expect("dataset remembered");
        assert!(!dir.exists(), "the second call measured again");
        assert_eq!(format!("{first:?}"), format!("{second:?}"));
    }

    #[test]
    fn every_reproduction_has_a_unique_name() {
        let mut names: Vec<&str> = figs::ALL.iter().map(|r| r.name).collect();
        assert_eq!(names.len(), 18, "18 figure/table reproductions");
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 18, "names must be unique");
    }
}
