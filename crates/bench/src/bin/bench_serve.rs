//! Harness-free serving benchmark: drives an in-process `dqec_serve`
//! server over real TCP with a mixed mwpm/uf burst at d = 5 and writes
//! throughput and latency percentiles to `BENCH_serve.json` so
//! successive PRs can track the trajectory.
//!
//! Three phases over the identical request stream:
//!
//! * `cold` — the server runs with `--cache 0`, so every request pays
//!   experiment compilation (circuit synthesis + decoder construction)
//!   before sampling;
//! * `warm` — the server runs with a real compiled-experiment cache,
//!   pre-warmed with one request per distinct (patch, decoder, noise)
//!   key, so the burst is pure cache-hit sampling;
//! * `warm_metrics_off` — the warm burst again with the `dqec_obs`
//!   metrics registry disabled, isolating the cost of the always-on
//!   instrumentation. `overhead_ratio` is metrics-on warm throughput
//!   over metrics-off; CI asserts it stays >= 0.98 (<= 2% overhead).
//!
//! `speedup` is warm throughput over cold throughput; the CI smoke job
//! asserts it stays >= 5 at d = 5.

use dqec_chiplet::cli;
use dqec_serve::protocol::{parse_response, DecodeRequest, Request, Response};
use dqec_serve::{start, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Instant;

const USAGE: &str = "\
usage: bench_serve [--requests N] [--shots N] [--threads N] [--out FILE]
                   [--help]

  --requests N  burst size per phase (default 32)
  --shots N     shots per decode request (default 256; small on purpose
                so compilation dominates the cold phase)
  --threads N   worker cap for decode fan-outs (N >= 1)
  --out FILE    where to write the JSON report (default BENCH_serve.json)
  --help        show this message";

struct Args {
    requests: usize,
    shots: usize,
    threads: Option<usize>,
    out: std::path::PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, cli::Error> {
    let f = cli::read(argv, &[], &["--requests", "--shots", "--threads", "--out"])?;
    Ok(Args {
        requests: f.positive("--requests")?.unwrap_or(32),
        shots: f.positive("--shots")?.unwrap_or(256),
        threads: f.positive("--threads")?,
        out: f.value("--out").unwrap_or("BENCH_serve.json").into(),
    })
}

/// The four distinct cache keys of the burst: {mwpm, uf} x {2 ps}.
const PS: [f64; 2] = [1e-3, 3e-3];
const DECODERS: [&str; 2] = ["mwpm", "uf"];
const D: u32 = 5;

/// Request `i` of the burst: cycles the four configurations, fresh
/// seed per request (same configuration, new randomness — the serving
/// workload the cache is built for).
fn burst_request(i: usize, shots: usize) -> Request {
    let decoder =
        dqec_chiplet::runner::DecoderChoice::parse(DECODERS[i % 2]).expect("known decoder name");
    Request::Decode(DecodeRequest {
        id: i as u64,
        d: D,
        p: PS[(i / 2) % 2],
        rounds: None,
        shots,
        seed: 0x5e7e + i as u64,
        decoder,
        defects: Default::default(),
    })
}

struct Phase {
    rps: f64,
    p50_ms: f64,
    p99_ms: f64,
    p999_ms: f64,
    total_s: f64,
}

fn percentiles(mut lat: Vec<f64>, requests: usize, total_s: f64) -> Phase {
    lat.sort_by(|a, b| a.total_cmp(b));
    let pct = |q: f64| lat[((lat.len() - 1) as f64 * q).round() as usize] * 1e3;
    Phase {
        rps: requests as f64 / total_s,
        p50_ms: pct(0.50),
        p99_ms: pct(0.99),
        p999_ms: pct(0.999),
        total_s,
    }
}

fn connect(addr: std::net::SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).unwrap_or_else(|e| {
        eprintln!("error: cannot connect: {e}");
        std::process::exit(1);
    });
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    let write = stream.try_clone().expect("clone connection");
    (write, BufReader::new(stream))
}

/// Closed-loop client: send a request, block for its response, repeat.
/// Closed-loop keeps per-request latency unambiguous (no queueing time
/// from the client's own burst inflating the tail).
fn run_phase(config: ServerConfig, requests: usize, shots: usize, prewarm: bool) -> Phase {
    let server = start(config).unwrap_or_else(|e| {
        eprintln!("error: cannot start server: {e}");
        std::process::exit(1);
    });
    let (mut write, mut read) = connect(server.addr());

    let mut roundtrip = |req: &Request| -> f64 {
        let t0 = Instant::now();
        writeln!(write, "{}", req.render_line()).expect("send request");
        write.flush().expect("flush request");
        let mut line = String::new();
        let n = read.read_line(&mut line).expect("read response");
        assert!(n > 0, "server closed the connection mid-phase");
        let dt = t0.elapsed().as_secs_f64();
        match parse_response(line.trim_end()).expect("parseable response") {
            Response::Ler(r) => assert_eq!(r.shots, shots, "short-counted response"),
            other => panic!("expected ler response, got {other:?}"),
        }
        dt
    };

    if prewarm {
        // One request per distinct (patch, decoder, noise) key: after
        // this, the timed burst never compiles.
        for i in 0..PS.len() * DECODERS.len() {
            roundtrip(&burst_request(i, shots));
        }
    }

    let t0 = Instant::now();
    let lat: Vec<f64> = (0..requests)
        .map(|i| roundtrip(&burst_request(i, shots)))
        .collect();
    let total_s = t0.elapsed().as_secs_f64();
    server.stop();
    percentiles(lat, requests, total_s)
}

/// Measures the metrics-on vs metrics-off warm burst against a single
/// server instance, alternating bursts and keeping the best of each
/// side. One instance means the comparison sees the same threads,
/// cache, and sockets — run-to-run server variance (which dwarfs the
/// few atomic ops the registry costs) cancels out.
fn run_onoff(config: ServerConfig, requests: usize, shots: usize) -> (Phase, Phase) {
    let server = start(config).unwrap_or_else(|e| {
        eprintln!("error: cannot start server: {e}");
        std::process::exit(1);
    });
    let (mut write, mut read) = connect(server.addr());
    let mut roundtrip = |req: &Request| -> f64 {
        let t0 = Instant::now();
        writeln!(write, "{}", req.render_line()).expect("send request");
        write.flush().expect("flush request");
        let mut line = String::new();
        let n = read.read_line(&mut line).expect("read response");
        assert!(n > 0, "server closed the connection mid-phase");
        let dt = t0.elapsed().as_secs_f64();
        match parse_response(line.trim_end()).expect("parseable response") {
            Response::Ler(r) => assert_eq!(r.shots, shots, "short-counted response"),
            other => panic!("expected ler response, got {other:?}"),
        }
        dt
    };
    for i in 0..PS.len() * DECODERS.len() {
        roundtrip(&burst_request(i, shots));
    }
    // Pool the per-request latencies of three alternating bursts per
    // side: the quantiles are then over ~3x`requests` samples, and the
    // p50 in particular is insensitive to the occasional slow wakeup
    // that dominates burst-total throughput on a 256-request burst.
    let mut lat_on: Vec<f64> = Vec::with_capacity(3 * requests);
    let mut lat_off: Vec<f64> = Vec::with_capacity(3 * requests);
    let mut s_on = 0.0f64;
    let mut s_off = 0.0f64;
    for _ in 0..3 {
        dqec_obs::metrics::set_enabled(false);
        let t0 = Instant::now();
        lat_off.extend((0..requests).map(|i| roundtrip(&burst_request(i, shots))));
        s_off += t0.elapsed().as_secs_f64();
        dqec_obs::metrics::set_enabled(true);
        let t0 = Instant::now();
        lat_on.extend((0..requests).map(|i| roundtrip(&burst_request(i, shots))));
        s_on += t0.elapsed().as_secs_f64();
    }
    server.stop();
    (
        percentiles(lat_on, 3 * requests, s_on),
        percentiles(lat_off, 3 * requests, s_off),
    )
}

fn main() {
    let args = cli::or_exit(USAGE, parse_args(&cli::args()));
    match args.threads {
        Some(n) => rayon::with_worker_cap(n, || bench(&args)),
        None => bench(&args),
    }
}

fn report(name: &str, ph: &Phase, requests: usize) {
    eprintln!(
        "{name}: {:.1} req/s, p50 {:.2} ms, p99 {:.2} ms, p999 {:.2} ms \
         ({requests} requests, {:.2} s)",
        ph.rps, ph.p50_ms, ph.p99_ms, ph.p999_ms, ph.total_s
    );
}

fn bench(args: &Args) {
    let base = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        queue_capacity: 1024,
        ..ServerConfig::default()
    };

    let cold_config = ServerConfig {
        cache_capacity: 0,
        ..base.clone()
    };
    let cold = run_phase(cold_config, args.requests, args.shots, false);
    report("cold", &cold, args.requests);

    let warm_config = ServerConfig {
        cache_capacity: 16,
        ..base.clone()
    };
    let warm = run_phase(warm_config.clone(), args.requests, args.shots, true);
    report("warm", &warm, args.requests);
    let speedup = warm.rps / cold.rps;
    eprintln!("speedup (warm/cold): {speedup:.1}x");

    let (warm_on, warm_off) = run_onoff(warm_config, args.requests, args.shots);
    report("warm_metrics_off", &warm_off, args.requests);
    // Median service rate ratio: 1/p50 on over 1/p50 off. CI asserts
    // >= 0.98 (instrumentation costs at most 2% of a median request).
    let overhead_ratio = warm_off.p50_ms / warm_on.p50_ms;
    eprintln!("overhead_ratio (metrics-on/metrics-off median rate): {overhead_ratio:.3}");

    let common = |ph: &Phase| {
        format!(
            "\"d\": {D}, \"requests\": {}, \"shots\": {}, \
             \"requests_per_sec\": {:.2}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \
             \"p999_ms\": {:.3}, \"total_s\": {:.3}",
            args.requests, args.shots, ph.rps, ph.p50_ms, ph.p99_ms, ph.p999_ms, ph.total_s
        )
    };
    let rows = [
        format!("{{\"phase\": \"cold\", {}}}", common(&cold)),
        format!(
            "{{\"phase\": \"warm\", {}, \"speedup\": {speedup:.2}}}",
            common(&warm)
        ),
        format!(
            "{{\"phase\": \"warm_metrics_off\", {}, \"overhead_ratio\": {overhead_ratio:.4}}}",
            common(&warm_off)
        ),
    ];
    let mut json = String::from("[\n");
    for (i, row) in rows.iter().enumerate() {
        json.push_str("  ");
        json.push_str(row);
        json.push_str(if i + 1 == rows.len() { "\n" } else { ",\n" });
    }
    json.push_str("]\n");
    let mut file = std::fs::File::create(&args.out)
        .unwrap_or_else(|e| panic!("create {}: {e}", args.out.display()));
    file.write_all(json.as_bytes())
        .unwrap_or_else(|e| panic!("write {}: {e}", args.out.display()));
    eprintln!("wrote {}", args.out.display());
}
