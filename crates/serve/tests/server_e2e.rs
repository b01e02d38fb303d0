//! End-to-end server coverage over real TCP on 127.0.0.1: framing
//! resilience, conformance against the one-shot `Runner`, coalescing,
//! backpressure, stats, and shutdown.

#![cfg(not(dqec_check))]

use dqec_serve::protocol::{parse_response, ErrorKind, Request, Response};
use dqec_serve::{start, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

fn test_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        cache_capacity: 8,
        queue_capacity: 64,
        batch_max: 16,
        max_clients: 4,
        response_capacity: 256,
        trace_out: None,
    }
}

struct Client {
    write: TcpStream,
    read: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let write = TcpStream::connect(addr).expect("connect");
        write.set_nodelay(true).expect("nodelay");
        let read = BufReader::new(write.try_clone().expect("clone"));
        Client { write, read }
    }

    fn send_line(&mut self, line: &str) {
        writeln!(self.write, "{line}").expect("send");
        self.write.flush().expect("flush");
    }

    fn recv(&mut self) -> Response {
        let mut line = String::new();
        let n = self.read.read_line(&mut line).expect("recv");
        assert!(n > 0, "connection closed unexpectedly");
        parse_response(line.trim_end()).expect("parseable response")
    }
}

fn decode_line(id: u64, d: u32, p: f64, shots: usize, seed: u64, decoder: &str) -> String {
    format!(
        "{{\"op\":\"decode\",\"id\":{id},\"d\":{d},\"p\":{p},\"shots\":{shots},\
         \"seed\":{seed},\"decoder\":\"{decoder}\"}}"
    )
}

#[test]
fn malformed_line_answers_error_and_keeps_connection() {
    let server = start(test_config()).expect("start");
    let mut client = Client::connect(server.addr());

    client.send_line("{this is not json");
    match client.recv() {
        Response::Error(e) => {
            assert_eq!(e.kind, ErrorKind::BadRequest);
            assert_eq!(e.id, None);
        }
        other => panic!("expected error, got {other:?}"),
    }

    // Parseable JSON with a bad field keeps the id for correlation.
    client.send_line("{\"op\":\"decode\",\"id\":31,\"d\":5,\"shots\":10,\"seed\":0}");
    match client.recv() {
        Response::Error(e) => {
            assert_eq!(e.kind, ErrorKind::BadRequest);
            assert_eq!(e.id, Some(31));
        }
        other => panic!("expected error, got {other:?}"),
    }

    // Nesting deep enough to overflow a recursive parser's stack is
    // just another malformed line, not a dead server.
    client.send_line(&"[".repeat(100_000));
    match client.recv() {
        Response::Error(e) => assert_eq!(e.kind, ErrorKind::BadRequest),
        other => panic!("expected error, got {other:?}"),
    }

    // A line over the request cap is discarded through its newline,
    // not buffered, and answered with the limit it broke.
    client.send_line(&"x".repeat(2 << 20));
    match client.recv() {
        Response::Error(e) => {
            assert_eq!((e.kind, e.id), (ErrorKind::BadRequest, None));
            assert!(e.detail.contains("1048576-byte limit"), "{}", e.detail);
        }
        other => panic!("expected error, got {other:?}"),
    }

    // Bytes that are not UTF-8 cost one frame, not the connection.
    client.write.write_all(b"\xff\xfe\n").expect("send");
    match client.recv() {
        Response::Error(e) => {
            assert_eq!((e.kind, e.id), (ErrorKind::BadRequest, None));
            assert!(e.detail.contains("UTF-8"), "{}", e.detail);
        }
        other => panic!("expected error, got {other:?}"),
    }

    // The connection survived all five: real requests still work.
    client.send_line("{\"op\":\"ping\",\"id\":33}");
    assert_eq!(client.recv(), Response::Pong { id: 33 });
    client.send_line(&decode_line(32, 3, 3e-3, 64, 0, "mwpm"));
    match client.recv() {
        Response::Ler(r) => assert_eq!((r.id, r.shots), (32, 64)),
        other => panic!("expected ler, got {other:?}"),
    }
    server.stop();
}

#[test]
fn served_responses_match_one_shot_runner_bit_exactly() {
    use dqec_chiplet::record::NullSink;
    use dqec_chiplet::runner::{DecoderChoice, ExperimentSpec, Runner};
    use dqec_core::adapt::AdaptedPatch;
    use dqec_core::layout::PatchLayout;
    use dqec_core::DefectSet;

    let server = start(test_config()).expect("start");
    let mut client = Client::connect(server.addr());

    // Mixed mwpm/uf burst over two error rates and seeds; shots chosen
    // to exercise both sub-batch and multi-batch (> 4096) paths.
    let cases: Vec<(u64, f64, usize, u64, DecoderChoice)> = vec![
        (1, 4e-3, 2000, 0, DecoderChoice::Mwpm),
        (2, 4e-3, 2000, 1, DecoderChoice::Uf),
        (3, 8e-3, 5000, 7, DecoderChoice::Mwpm),
        (4, 8e-3, 5000, 7, DecoderChoice::Uf),
        (5, 4e-3, 2000, 0, DecoderChoice::Mwpm), // repeat of id 1: cache hit
    ];
    for &(id, p, shots, seed, dec) in &cases {
        client.send_line(&decode_line(id, 3, p, shots, seed, dec.name()));
    }
    let mut got: Vec<(u64, usize, u64)> = (0..cases.len())
        .map(|_| match client.recv() {
            Response::Ler(r) => (r.id, r.shots, r.failures),
            other => panic!("expected ler, got {other:?}"),
        })
        .collect();
    got.sort_unstable();

    for (i, &(id, p, shots, seed, dec)) in cases.iter().enumerate() {
        let patch = AdaptedPatch::new(PatchLayout::memory(3), &DefectSet::new());
        let spec = ExperimentSpec::memory(patch)
            .p(p)
            .shots(shots)
            .seed(seed)
            .decoder(dec.builder());
        let outcome = Runner::new().run(&spec, &mut NullSink).expect("runner");
        assert_eq!(
            got[i],
            (
                id,
                outcome.points[0].shots,
                outcome.points[0].failures as u64
            ),
            "served tally diverges from one-shot runner for id {id}"
        );
    }
    server.stop();
}

#[test]
fn stats_reports_cache_and_syndrome_counters() {
    let server = start(test_config()).expect("start");
    let mut client = Client::connect(server.addr());

    client.send_line(&decode_line(1, 3, 5e-3, 512, 0, "mwpm"));
    client.send_line(&decode_line(2, 3, 5e-3, 512, 9, "mwpm"));
    let first = client.recv();
    let second = client.recv();
    match (&first, &second) {
        (Response::Ler(a), Response::Ler(b)) => {
            assert!(!a.cache_hit, "first request must compile");
            assert!(b.cache_hit, "second request must reuse the entry");
        }
        other => panic!("expected two lers, got {other:?}"),
    }

    client.send_line("{\"op\":\"stats\",\"id\":99}");
    match client.recv() {
        Response::Stats(s) => {
            assert_eq!(s.id, 99);
            assert_eq!(s.served, 2);
            assert_eq!((s.cache_hits, s.cache_misses, s.cache_entries), (1, 1, 1));
            assert!(
                s.syndrome_hits + s.syndrome_misses > 0,
                "syndrome cache traffic must be observable: {s:?}"
            );
            assert!(s.pool_workers >= 1, "resident pool must be running");
        }
        other => panic!("expected stats, got {other:?}"),
    }

    client.send_line("{\"op\":\"ping\",\"id\":100}");
    assert_eq!(client.recv(), Response::Pong { id: 100 });
    server.stop();
}

#[test]
fn full_admission_queue_yields_typed_backpressure() {
    let config = ServerConfig {
        queue_capacity: 1,
        batch_max: 1,
        ..test_config()
    };
    let server = start(config).expect("start");
    let mut client = Client::connect(server.addr());

    // A burst far deeper than queue(1) + in-flight(1): some requests
    // must bounce with a typed backpressure error, and every request
    // gets exactly one response either way.
    let burst = 12;
    for id in 0..burst {
        client.send_line(&decode_line(id, 3, 5e-3, 4096, id, "mwpm"));
    }
    let mut lers = 0;
    let mut bounced = 0;
    for _ in 0..burst {
        match client.recv() {
            Response::Ler(_) => lers += 1,
            Response::Error(e) => {
                assert_eq!(e.kind, ErrorKind::Backpressure);
                assert!(e.id.is_some(), "backpressure errors stay correlated");
                bounced += 1;
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(lers + bounced, burst);
    assert!(lers >= 1, "at least the in-flight request is served");
    assert!(bounced >= 1, "a 12-deep burst must overflow queue(1)");

    // The connection is still usable after being backpressured.
    client.send_line(&decode_line(100, 3, 5e-3, 64, 0, "mwpm"));
    loop {
        match client.recv() {
            Response::Ler(r) if r.id == 100 => break,
            Response::Error(e) if e.id == Some(100) => {
                // Still racing the earlier backlog: retry as a client
                // would.
                assert_eq!(e.kind, ErrorKind::Backpressure);
                std::thread::yield_now();
                client.send_line(&decode_line(100, 3, 5e-3, 64, 0, "mwpm"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    server.stop();
}

#[test]
fn connection_limit_answers_typed_error() {
    let config = ServerConfig {
        max_clients: 1,
        ..test_config()
    };
    let server = start(config).expect("start");
    let mut first = Client::connect(server.addr());
    // Prove the first connection is fully registered before the
    // second connects (accept-loop registration is asynchronous).
    first.send_line("{\"op\":\"ping\",\"id\":1}");
    assert_eq!(first.recv(), Response::Pong { id: 1 });

    let mut second = Client::connect(server.addr());
    match second.recv() {
        Response::Error(e) => assert_eq!(e.kind, ErrorKind::TooManyClients),
        other => panic!("expected too-many-clients, got {other:?}"),
    }
    server.stop();
}

#[test]
fn two_clients_interleave_fairly() {
    let server = start(test_config()).expect("start");
    let mut a = Client::connect(server.addr());
    let mut b = Client::connect(server.addr());

    for id in 0..4u64 {
        a.send_line(&decode_line(id, 3, 5e-3, 256, id, "mwpm"));
        b.send_line(&decode_line(100 + id, 3, 5e-3, 256, id, "uf"));
    }
    for id in 0..4u64 {
        match a.recv() {
            Response::Ler(r) => assert_eq!(r.id, id, "per-client FIFO order"),
            other => panic!("unexpected {other:?}"),
        }
        match b.recv() {
            Response::Ler(r) => assert_eq!(r.id, 100 + id, "per-client FIFO order"),
            other => panic!("unexpected {other:?}"),
        }
    }
    server.stop();
}

#[test]
fn metrics_request_reports_stage_histograms() {
    let server = start(test_config()).expect("start");
    let mut client = Client::connect(server.addr());

    // Drive every pipeline stage at least once before asking.
    client.send_line(&decode_line(1, 3, 5e-3, 512, 0, "mwpm"));
    client.send_line(&decode_line(2, 3, 5e-3, 512, 3, "mwpm"));
    for _ in 0..2 {
        match client.recv() {
            Response::Ler(_) => {}
            other => panic!("expected ler, got {other:?}"),
        }
    }

    client.send_line("{\"op\":\"metrics\",\"id\":7}");
    match client.recv() {
        Response::Metrics(m) => {
            assert_eq!(m.id, 7);
            for stage in [
                "serve.stage.compile",
                "serve.stage.decode",
                "serve.stage.queue_wait",
            ] {
                let s = m
                    .stages
                    .iter()
                    .find(|s| s.name == stage)
                    .unwrap_or_else(|| panic!("stage {stage} missing from {:?}", m.stages));
                assert!(s.count > 0, "{stage} must have samples");
                assert!(
                    s.p50_us <= s.p99_us && s.p99_us <= s.p999_us,
                    "quantiles must be ordered for {stage}: {s:?}"
                );
            }
            assert!(
                m.prometheus
                    .contains("# TYPE dqec_serve_stage_decode summary"),
                "prometheus text must cover the decode stage"
            );
        }
        other => panic!("expected metrics, got {other:?}"),
    }
    server.stop();
}

#[test]
fn identical_requests_in_one_batch_share_one_computation() {
    let server = start(test_config()).expect("start");
    let mut client = Client::connect(server.addr());

    // A slow opener occupies the executor so the identical burst backs
    // up in the inbox and drains as one batch behind it.
    client.send_line(&decode_line(0, 3, 8e-3, 20_000, 42, "mwpm"));
    let burst = 8u64;
    for id in 1..=burst {
        client.send_line(&decode_line(id, 3, 5e-3, 1024, 5, "mwpm"));
    }
    let mut tallies: Vec<(u64, u64)> = Vec::new();
    for _ in 0..=burst {
        match client.recv() {
            Response::Ler(r) if r.id == 0 => {}
            Response::Ler(r) => tallies.push((r.id, r.failures)),
            other => panic!("expected ler, got {other:?}"),
        }
    }
    tallies.sort_unstable();
    assert_eq!(tallies.len(), burst as usize);
    // Shared or not, identical (key, seed, shots) must tally identically.
    assert!(
        tallies.windows(2).all(|w| w[0].1 == w[1].1),
        "identical requests diverged: {tallies:?}"
    );

    client.send_line("{\"op\":\"stats\",\"id\":99}");
    match client.recv() {
        Response::Stats(s) => assert!(
            s.coalesce_hits >= 1,
            "an 8-deep identical burst behind a slow request must share: {s:?}"
        ),
        other => panic!("expected stats, got {other:?}"),
    }
    server.stop();
}

#[test]
fn trace_out_writes_perfetto_loadable_json() {
    let path = std::env::temp_dir().join(format!("dqec_e2e_trace_{}.json", std::process::id()));
    let config = ServerConfig {
        trace_out: Some(path.clone()),
        ..test_config()
    };
    let server = start(config).expect("start");
    let mut client = Client::connect(server.addr());
    client.send_line(&decode_line(1, 3, 5e-3, 256, 0, "mwpm"));
    match client.recv() {
        Response::Ler(_) => {}
        other => panic!("expected ler, got {other:?}"),
    }
    server.stop();

    let text = std::fs::read_to_string(&path).expect("trace file written on stop");
    let _ = std::fs::remove_file(&path);
    assert!(
        text.starts_with("{\"traceEvents\":["),
        "chrome trace envelope: {text:.>40}"
    );
    assert!(text.contains("\"serve.batch\""), "batch spans recorded");
    assert!(text.contains("\"ph\":\"X\""), "complete events present");
}

#[test]
fn request_render_parse_matches_wire_format() {
    // The Request renderer is what bench_serve and the CI request
    // files rely on; pin the wire shape end to end.
    let line = Request::Ping { id: 7 }.render_line();
    let server = start(test_config()).expect("start");
    let mut client = Client::connect(server.addr());
    client.send_line(&line);
    assert_eq!(client.recv(), Response::Pong { id: 7 });
    server.stop();
}
