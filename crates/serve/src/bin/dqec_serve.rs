//! The decode-service CLI: serve (default), client, and oneshot modes.
//!
//! `--oneshot` answers through the same [`dqec_serve::respond`] the
//! server's executor calls, behind the same [`protocol::read_frame`]
//! limit, so `--client` output against a running server is
//! byte-identical to `--oneshot` output for the same request file —
//! the conformance property CI enforces.

use dqec_chiplet::cli;
use dqec_serve::protocol::{self, Frame, Response};
use dqec_serve::server::Metrics;
use dqec_serve::{ExperimentCache, ServerConfig};
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;

const USAGE: &str = "\
usage: dqec_serve [--addr A] [--threads N] [--cache N] [--queue N] [--batch N]
                  [--max-clients N] [--trace-out FILE]
                  [--oneshot FILE | --client FILE] [--help]

Modes
  (default)        serve: listen on --addr and run until killed
  --oneshot FILE   run the JSON-lines requests in FILE locally and print
                   one normalized response line per request, sorted by id
  --client FILE    connect to --addr, send the requests in FILE, collect
                   the responses, and print them normalized, sorted by id

Options
  --addr A         listen/connect address (default 127.0.0.1:7461)
  --threads N      worker cap for decode fan-outs (default: all cores)
  --cache N        compiled-experiment cache capacity (default 64; 0
                   compiles per request)
  --queue N        per-client admission queue capacity (default 64)
  --batch N        max requests coalesced per executor pass (default 32)
  --max-clients N  connection limit (default 64)
  --trace-out FILE enable span tracing and write a Chrome trace-event
                   JSON file on shutdown (serve and oneshot modes)
  --help           show this message";

struct Args {
    config: ServerConfig,
    threads: Option<usize>,
    oneshot: Option<PathBuf>,
    client: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, cli::Error> {
    let f = cli::read(
        argv,
        &[],
        &[
            "--addr",
            "--threads",
            "--cache",
            "--queue",
            "--batch",
            "--max-clients",
            "--trace-out",
            "--oneshot",
            "--client",
        ],
    )?;
    if f.has("--oneshot") && f.has("--client") {
        return Err("--oneshot and --client are mutually exclusive".into());
    }
    let defaults = ServerConfig::default();
    Ok(Args {
        config: ServerConfig {
            addr: f.value("--addr").map_or(defaults.addr, str::to_string),
            cache_capacity: f.get("--cache")?.unwrap_or(defaults.cache_capacity),
            queue_capacity: f.get("--queue")?.unwrap_or(defaults.queue_capacity),
            batch_max: f.get("--batch")?.unwrap_or(defaults.batch_max),
            max_clients: f.get("--max-clients")?.unwrap_or(defaults.max_clients),
            trace_out: f.value("--trace-out").map(PathBuf::from),
            ..defaults
        },
        threads: f.positive("--threads")?,
        oneshot: f.value("--oneshot").map(PathBuf::from),
        client: f.value("--client").map(PathBuf::from),
    })
}

fn main() {
    let args = cli::or_exit(USAGE, parse_args(&cli::args()));
    match args.threads {
        Some(n) => rayon::with_worker_cap(n, || run(&args)),
        None => run(&args),
    }
}

fn run(args: &Args) {
    if let Some(path) = &args.oneshot {
        oneshot(
            path,
            args.config.cache_capacity,
            args.config.trace_out.as_deref(),
        );
    } else if let Some(path) = &args.client {
        client(&args.config.addr, path);
    } else {
        serve(args.config.clone());
    }
}

fn serve(config: ServerConfig) {
    let handle = dqec_serve::start(config).unwrap_or_else(|e| {
        eprintln!("error: cannot start server: {e}");
        std::process::exit(1);
    });
    eprintln!("dqec_serve: listening on {}", handle.addr());
    handle.wait();
}

/// Blank lines and `#` comments of a request file are not requests.
fn is_request(line: &str) -> bool {
    let line = line.trim();
    !line.is_empty() && !line.starts_with('#')
}

/// Prints the responses normalized, sorted by id; the sort is stable,
/// so equal (or absent) ids keep their arrival order.
fn print_normalized(mut responses: Vec<Response>) {
    responses.sort_by_key(|resp| resp.id().unwrap_or(u64::MAX));
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for resp in responses {
        writeln!(out, "{}", resp.normalized_line()).unwrap_or_else(|e| {
            eprintln!("error: stdout: {e}");
            std::process::exit(1);
        });
    }
}

fn oneshot(path: &std::path::Path, cache_capacity: usize, trace_out: Option<&std::path::Path>) {
    if trace_out.is_some() {
        dqec_obs::trace::set_enabled(true);
    }
    let fail = |e: std::io::Error| -> ! {
        eprintln!("error: cannot read {}: {e}", path.display());
        std::process::exit(1);
    };
    let mut reader = BufReader::new(std::fs::File::open(path).unwrap_or_else(|e| fail(e)));
    let mut buf = Vec::new();
    let mut cache = ExperimentCache::new(cache_capacity);
    let metrics = Metrics::default();
    let mut responses = Vec::new();
    loop {
        let frame = protocol::read_frame(&mut reader, &mut buf, protocol::MAX_REQUEST_BYTES)
            .unwrap_or_else(|e| fail(e));
        let resp = match frame {
            Frame::Eof => break,
            Frame::Line(line) if !is_request(line) => continue,
            Frame::Line(line) => match protocol::parse_request(line) {
                Ok(request) => dqec_serve::respond(&request, &mut cache, &metrics, 1),
                Err((id, detail)) => Response::bad_request(id, detail),
            },
            Frame::Rejected(reason) => Response::bad_request(None, reason),
        };
        metrics.count(&resp);
        responses.push(resp);
    }
    print_normalized(responses);
    if let Some(out) = trace_out {
        dqec_obs::trace::set_enabled(false);
        if let Err(e) = dqec_obs::trace::export_to_file(out) {
            eprintln!("warning: cannot write trace to {}: {e}", out.display());
        }
    }
}

fn client(addr: &str, path: &std::path::Path) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {}: {e}", path.display());
        std::process::exit(1);
    });
    let lines: Vec<&str> = text.lines().filter(|l| is_request(l)).collect();
    let stream = TcpStream::connect(addr).unwrap_or_else(|e| {
        eprintln!("error: cannot connect to {addr}: {e}");
        std::process::exit(1);
    });
    let _ = stream.set_nodelay(true);
    let mut write_half = stream.try_clone().unwrap_or_else(|e| {
        eprintln!("error: cannot clone connection: {e}");
        std::process::exit(1);
    });
    for line in &lines {
        writeln!(write_half, "{line}").unwrap_or_else(|e| {
            eprintln!("error: send failed: {e}");
            std::process::exit(1);
        });
    }
    write_half.flush().unwrap_or_else(|e| {
        eprintln!("error: send failed: {e}");
        std::process::exit(1);
    });

    // One response per request line, in whatever order the server
    // produced them; normalize and sort for stable output.
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    let mut responses = Vec::new();
    while responses.len() < lines.len() {
        let line = match protocol::read_frame(&mut reader, &mut buf, protocol::MAX_REPLY_BYTES) {
            Ok(Frame::Line(line)) => line,
            Ok(Frame::Eof) => break,
            Ok(Frame::Rejected(reason)) => {
                eprintln!("error: bad response frame: {reason}");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("error: receive failed: {e}");
                std::process::exit(1);
            }
        };
        responses.push(protocol::parse_response(line).unwrap_or_else(|e| {
            eprintln!("error: bad response line {line:?}: {e}");
            std::process::exit(1);
        }));
    }
    if responses.len() != lines.len() {
        eprintln!(
            "error: sent {} requests but received {} responses",
            lines.len(),
            responses.len()
        );
        std::process::exit(1);
    }
    print_normalized(responses);
}
