//! `dqec_benchmark` — the repeatable end-to-end benchmark and
//! per-layer ledger of the dqec workspace. See `README.md` beside this
//! crate; `run.sh` builds and runs it.
//!
//! ```text
//! dqec_benchmark [run] [--workload NAME|all] [--seed N] [--seconds S]
//!                [--trace 0|1|both] [--scale K] [--out DIR]
//! dqec_benchmark compare DIR_A DIR_B [--benchmark-json FILE]
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compare;
mod harness;
mod inputs;
mod ledger;
mod pipeline;
mod stats;
mod trace;
mod workloads;

use harness::{new_tracer, run_timed, run_traced, Args, Report, Workload, REF_SECONDS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Tracer;
use workloads::{
    compile_churn::CompileChurn, ler_mwpm::LerMwpmSlope, ler_uf::LerUfLowp, serve_warm::ServeWarm,
    NAMES,
};

/// The seed of a run that names none (the date the paper appeared).
const DEFAULT_SEED: u64 = 20_240_427;

const USAGE: &str = "usage:
  dqec_benchmark [run] [--workload NAME|all] [--seed N] [--seconds S]
                 [--trace 0|1|both] [--scale K] [--out DIR]
  dqec_benchmark compare DIR_A DIR_B [--benchmark-json FILE]

workloads: ler-mwpm-slope, ler-uf-lowp, compile-churn, serve-warm
  --seconds S   measuring time the fixed work is sized for (default 25)
  --scale K     multiplies shot, chiplet and request counts (0.3 is a smoke run)
  --trace 0     timed run: prints the end-to-end metrics
  --trace 1     traced replay: prints the per-layer metrics, writes a Chrome trace
  --out DIR     result and trace files (default benchmark/out)";

/// Which of the two runs of a workload to make.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    Timed,
    Traced,
    Both,
}

struct Cli {
    workload: String,
    mode: Mode,
    args: Args,
}

fn parse_cli(argv: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: "all".to_string(),
        mode: Mode::Both,
        args: Args {
            seed: DEFAULT_SEED,
            seconds: REF_SECONDS,
            scale: 1.0,
            out_dir: PathBuf::from("benchmark/out"),
        },
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} requires a value"));
        let positive = |v: &String| match v.parse::<f64>() {
            Ok(x) if x.is_finite() && x > 0.0 => Ok(x),
            _ => Err(format!("{flag} needs a positive number, got {v:?}")),
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                if v != "all" && !NAMES.contains(&v.as_str()) {
                    return Err(format!("unknown workload {v:?}"));
                }
                cli.workload = v.clone();
            }
            "--seed" => {
                let v = value()?;
                cli.args.seed = v.parse().map_err(|_| format!("bad --seed value {v:?}"))?;
            }
            "--seconds" => cli.args.seconds = positive(value()?)?,
            "--scale" => cli.args.scale = positive(value()?)?,
            "--trace" => {
                cli.mode = match value()?.as_str() {
                    "0" => Mode::Timed,
                    "1" => Mode::Traced,
                    "both" => Mode::Both,
                    other => return Err(format!("--trace takes 0, 1 or both, got {other:?}")),
                }
            }
            "--out" => cli.args.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(cli)
}

/// Runs one workload in one mode and prints its table and result line.
fn run_one(name: &str, traced: bool, args: &Args) -> Report {
    let mut tracer = traced.then(new_tracer);
    fn go<W: Workload>(w: &W, name: &str, tr: Option<&mut Tracer>) -> Report {
        match tr {
            Some(tr) => run_traced(w, name, tr),
            None => run_timed(w, name),
        }
    }
    // Inputs come from the seed; a traced run spans their generation
    // too (every workload adapts and judges its own patches).
    let report = {
        let mut tr = tracer.as_mut();
        match name {
            "ler-mwpm-slope" => {
                let w = LerMwpmSlope::new(args, &mut tr);
                go(&w, name, tr)
            }
            "ler-uf-lowp" => {
                let w = LerUfLowp::new(args, &mut tr);
                go(&w, name, tr)
            }
            "compile-churn" => go(&CompileChurn::new(args), name, tr),
            "serve-warm" => {
                let w = ServeWarm::new(args, &mut tr);
                go(&w, name, tr)
            }
            other => unreachable!("workload {other:?} passed validation"),
        }
    };
    if let Some(tr) = &tracer {
        let path = args.out_dir.join(format!("{name}.trace.json"));
        match std::fs::create_dir_all(&args.out_dir)
            .and_then(|()| std::fs::write(&path, tr.chrome_json()))
        {
            Ok(()) => eprintln!("trace: {} ({} spans)", path.display(), tr.spans().len()),
            Err(e) => eprintln!("trace: cannot write {}: {e}", path.display()),
        }
    }
    if let Err(e) = report.save(&args.out_dir) {
        eprintln!("result: cannot write under {}: {e}", args.out_dir.display());
    }
    print!("{}", report.table());
    println!("{}", report.json_line());
    report
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if argv.first().map(String::as_str) == Some("compare") {
        let mut dirs: Vec<&Path> = Vec::new();
        let mut json = PathBuf::from("BENCHMARK.json");
        let mut it = argv[1..].iter();
        while let Some(arg) = it.next() {
            match (arg.as_str(), arg.starts_with("--")) {
                ("--benchmark-json", _) => match it.next() {
                    Some(file) => json = PathBuf::from(file),
                    None => dirs.clear(),
                },
                (_, false) => dirs.push(Path::new(arg)),
                _ => dirs.clear(),
            }
        }
        let [a, b] = dirs[..] else {
            eprintln!("error: compare takes two directories\n{USAGE}");
            return ExitCode::from(2);
        };
        return match compare::compare(a, b, &json) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    let rest = match argv.first().map(String::as_str) {
        Some("run") => &argv[1..],
        _ => &argv[..],
    };
    let cli = match parse_cli(rest) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = NAMES
        .iter()
        .copied()
        .filter(|n| cli.workload == "all" || cli.workload == *n)
        .collect();
    // Timed runs first, then the traced replays, as the suite reads.
    let mut failed = 0;
    for traced in [false, true] {
        let wanted = match cli.mode {
            Mode::Both => true,
            Mode::Timed => !traced,
            Mode::Traced => traced,
        };
        if wanted {
            for name in &names {
                failed += run_one(name, traced, &cli.args).failed;
            }
        }
    }
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: {failed} op(s) failed a correctness check");
        ExitCode::FAILURE
    }
}
