//! `serve-warm`: a closed loop over one TCP connection to an in-process
//! `dqec_serve::start`, one request outstanding: 16-shot decode
//! requests cycling over 48 cached l = 7 and l = 5 defective patches,
//! each request under its own seed.
//!
//! Parsing, queueing, the thread hand-offs, rendering and the socket
//! are most of a round trip, so a change to the wire or the codec shows
//! here and nowhere else. Set-up is server start, connect, and priming
//! every patch cold through the wire, so the cold-compile path (cache
//! inserts beside cache reads) is gated too.

use crate::harness::{Args, Segment, Sizing, Tally, Timed, Workload};
use crate::inputs::{distinct_patches, Drawn};
use crate::ledger::Ledger;
use crate::pipeline::{self, HandCompiled};
use crate::stats;
use crate::trace::Tracer;
use dqec_chiplet::runner::DecoderChoice;
use dqec_serve::cache::normalized_spec;
use dqec_serve::protocol::{parse_request, parse_response};
use dqec_serve::{DecodeRequest, ExperimentCache, Request, Response, ServerConfig, ServerHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Patch widths, how many of each, and the band of sizes (detector
/// counts, see `inputs::size`) they are taken from. Two thirds are
/// l = 7, so the median request is an l = 7 one and does not sit
/// between the two.
const SIZES: [(u32, usize, RangeInclusive<usize>); 2] = [(7, 32, 285..=325), (5, 16, 100..=115)];
/// Decoder of every request.
const DECODER: DecoderChoice = DecoderChoice::Mwpm;
/// Physical error rate of every request.
const P: f64 = 1e-3;
/// Shots per request: few enough that wire and queue, not sampling and
/// decoding, are most of a round trip.
const SHOTS: usize = 16;
/// Requests per segment at `--seconds 25 --scale 1`.
const BASE_REQUESTS: usize = 2000;
/// Requests of the open-loop slice, as a multiple of a segment.
const OPEN_SEGMENTS: usize = 2;
/// Compiled-experiment cache capacity of the server under test.
const CACHE_CAPACITY: usize = 128;
/// Admission queue capacity of the server under test.
const QUEUE_CAPACITY: usize = 4096;
/// Input-stream salt of this workload.
const SALT: u64 = 4;

/// One client connection: a write half and a buffered read half.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Client {
    fn connect(server: &ServerHandle) -> std::io::Result<Client> {
        let writer = TcpStream::connect(server.addr())?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client {
            writer,
            reader,
            line: String::new(),
        })
    }

    fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")
    }

    /// The next reply line, parsed; its length in bytes beside it.
    fn receive(&mut self) -> std::io::Result<(Result<Response, String>, usize)> {
        self.line.clear();
        let n = self.reader.read_line(&mut self.line)?;
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok((parse_response(self.line.trim_end()), n))
    }

    /// Send → parsed reply: the op of this workload.
    fn round_trip(&mut self, line: &str) -> std::io::Result<(Result<Response, String>, usize)> {
        self.send(line)?;
        self.receive()
    }
}

/// A started server, its one client, and what priming cost.
pub struct Live {
    server: ServerHandle,
    client: Client,
    /// Round-trip time of each patch's first (compiling) request, ms.
    cold_ms: Vec<f64>,
    /// Priming replies that were wrong.
    cold_failed: u64,
}

/// The workload.
pub struct ServeWarm {
    patches: Vec<Drawn>,
    requests: Vec<DecodeRequest>,
    lines: Vec<String>,
    /// `normalized_line` of the in-process result of each request.
    expected: Vec<String>,
    /// One priming request per patch, with its expected reply.
    primers: Vec<(String, String)>,
}

/// What one reply amounted to.
struct Reply {
    tally: Tally,
    ok: bool,
    bytes: usize,
}

fn judge(reply: (Result<Response, String>, usize), expected: &str) -> Reply {
    let (parsed, bytes) = reply;
    match parsed {
        Ok(resp @ Response::Ler(_)) => {
            let ok = resp.normalized_line() == expected;
            if !ok {
                eprintln!(
                    "check: served {}\ncheck: wanted {expected}",
                    resp.normalized_line()
                );
            }
            let Response::Ler(r) = resp else {
                unreachable!()
            };
            Reply {
                tally: Tally {
                    shots: r.shots as u64,
                    failures: r.failures,
                },
                ok,
                bytes,
            }
        }
        other => {
            eprintln!("check: served {other:?}\ncheck: wanted {expected}");
            Reply {
                tally: Tally::default(),
                ok: false,
                bytes,
            }
        }
    }
}

impl ServeWarm {
    /// The workload's inputs for `args`.
    pub fn new(args: &Args, tr: &mut Option<&mut Tracer>) -> Self {
        let mut by_size: Vec<Vec<Drawn>> = SIZES
            .iter()
            .map(|(l, n, band)| distinct_patches(*l, *n, band.clone(), args.seed, SALT, tr))
            .collect();
        // Interleave two l = 7 patches with one l = 5 patch, so the
        // request cycle has no long run of either size.
        let small = by_size.pop().expect("two sizes");
        let large = by_size.pop().expect("two sizes");
        let mut patches = Vec::new();
        let (mut large, mut small) = (large.into_iter(), small.into_iter());
        while let (Some(a), Some(b), Some(c)) = (large.next(), large.next(), small.next()) {
            patches.extend([a, b, c]);
        }
        let count = Sizing::new(args.seconds, args.scale).count(BASE_REQUESTS);
        let seed = args.seed;
        // Every expected reply is computed in-process through
        // `ExperimentCache::execute` — the path a one-shot run takes.
        let request = |id: usize, patch: usize| {
            let d = &patches[patch];
            DecodeRequest {
                id: id as u64,
                d: d.l(),
                p: P,
                rounds: None,
                shots: SHOTS,
                // Seeds cross the wire as JSON numbers: keep them exact.
                seed: (seed ^ (id as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)) >> 16,
                decoder: DECODER,
                defects: d.defects.clone(),
            }
        };
        let mut local = ExperimentCache::new(CACHE_CAPACITY);
        let mut expect = |req: &DecodeRequest| {
            let (resp, _) = local.execute(req, 1).expect("input patches compile");
            Response::Ler(resp).normalized_line()
        };
        let requests: Vec<DecodeRequest> =
            (0..count).map(|i| request(i, i % patches.len())).collect();
        let expected = requests.iter().map(&mut expect).collect();
        let primers = (0..patches.len())
            .map(|k| {
                let req = request(count + k, k);
                let want = expect(&req);
                (Request::Decode(req).render_line(), want)
            })
            .collect();
        ServeWarm {
            lines: requests
                .iter()
                .map(|r| Request::Decode(r.clone()).render_line())
                .collect(),
            requests,
            expected,
            primers,
            patches,
        }
    }

    /// Runs requests `0..n` closed-loop, one outstanding.
    fn closed_loop(&self, live: &mut Live) -> Segment {
        let mut seg = Segment::default();
        for (line, expected) in self.lines.iter().zip(&self.expected) {
            let t = Instant::now();
            let reply = live.client.round_trip(line).expect("server is up");
            seg.op_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let reply = judge(reply, expected);
            seg.tallies.push(reply.tally);
            seg.failed_ops += u64::from(!reply.ok);
        }
        seg
    }

    /// The open-loop slice: the request stream sent on a schedule of
    /// one request per `interval` from a second thread, whatever the
    /// replies do; latency is timed from when each request was *due*.
    fn open_loop(&self, live: &mut Live, interval: Duration, led: &mut Ledger) -> (u64, u64) {
        let total = OPEN_SEGMENTS * self.lines.len();
        let received = AtomicUsize::new(0);
        let mut sender = live.client.writer.try_clone().expect("socket clones");
        let (mut lat_ms, mut failed) = (Vec::with_capacity(total), 0u64);
        // A sender that dies must not leave the receiver waiting.
        let _ = live
            .client
            .writer
            .set_read_timeout(Some(Duration::from_secs(10)));
        let start = Instant::now() + Duration::from_millis(1);
        let (late_ms, backlog_max) = std::thread::scope(|scope| {
            let sending = scope.spawn(|| {
                let (mut late_ms, mut backlog_max) = (Vec::with_capacity(total), 0usize);
                for i in 0..total {
                    let due = start + interval * i as u32;
                    // Sleep, never spin: a spinning sender would hold
                    // one of the two CPUs the server's threads need.
                    // Oversleeping shows up as `serve.open.late_ms`.
                    if let Some(left) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(left);
                    }
                    late_ms.push((Instant::now() - due).as_secs_f64() * 1e3);
                    let line = &self.lines[i % self.lines.len()];
                    if sender.write_all(line.as_bytes()).is_err()
                        || sender.write_all(b"\n").is_err()
                    {
                        break;
                    }
                    backlog_max = backlog_max.max(i + 1 - received.load(Ordering::Relaxed));
                }
                (late_ms, backlog_max)
            });
            for i in 0..total {
                let Ok(reply) = live.client.receive() else {
                    failed += (total - i) as u64;
                    break;
                };
                let due = start + interval * i as u32;
                lat_ms.push((Instant::now() - due).as_secs_f64() * 1e3);
                received.fetch_add(1, Ordering::Relaxed);
                let reply = judge(reply, &self.expected[i % self.lines.len()]);
                failed += u64::from(!reply.ok);
            }
            sending.join().expect("sender thread")
        });
        let _ = live.client.writer.set_read_timeout(None);
        led.set_median("serve.open.lat_p50_ms", &lat_ms);
        let p = stats::tail_percentile(lat_ms.len(), 99.0).unwrap_or(50.0);
        let (min, max) = stats::min_max(&lat_ms);
        led.put(
            "serve.open.lat_p99_ms",
            stats::percentile(&lat_ms, p),
            min,
            max,
            lat_ms.len(),
        );
        led.set_median("serve.open.late_ms", &late_ms);
        led.set("serve.open.backlog_max", backlog_max as f64);
        (total as u64, failed)
    }

    /// The serve rows that do not come off the trace: cold compile,
    /// sizes, errors, the server's own cache counters, the tail, and
    /// the open-loop slice paced at half the closed-loop rate.
    fn serve_rows(
        &self,
        live: &mut Live,
        closed: &[Segment],
        tr: &Tracer,
        led: &mut Ledger,
    ) -> (u64, u64) {
        led.set_median("serve.cold_compile_ms", &live.cold_ms);
        let req_bytes: usize = self.lines.iter().map(|l| l.len() + 1).sum();
        led.set(
            "serve.req_bytes",
            req_bytes as f64 / self.lines.len() as f64,
        );
        led.set(
            "serve.resp_bytes",
            tr.counter("serve.resp_bytes") as f64 / tr.counter("serve.replies").max(1) as f64,
        );
        let pooled: Vec<f64> = closed
            .iter()
            .flat_map(|s| s.op_ms.iter().copied())
            .collect();
        let p = stats::tail_percentile(pooled.len(), 99.0).unwrap_or(50.0);
        let (min, max) = stats::min_max(&pooled);
        led.put(
            "serve.lat_p99_ms",
            stats::percentile(&pooled, p),
            min,
            max,
            pooled.len(),
        );
        let errors: u64 = closed.iter().map(|s| s.failed_ops).sum::<u64>() + live.cold_failed;
        led.set("serve.errors", errors as f64);

        let interval = Duration::from_secs_f64(2.0 * stats::median(&pooled) / 1e3);
        let (attempted, failed) = self.open_loop(live, interval, led);

        let stats_line = Request::Stats { id: u64::MAX >> 16 }.render_line();
        if let Ok((Ok(Response::Stats(s)), _)) = live.client.round_trip(&stats_line) {
            let lookups = s.cache_hits + s.cache_misses;
            led.set(
                "serve.cache_hit_frac",
                if lookups == 0 {
                    0.0
                } else {
                    s.cache_hits as f64 / lookups as f64
                },
            );
        }
        (
            attempted + live.cold_ms.len() as u64,
            failed + live.cold_failed,
        )
    }
}

impl Workload for ServeWarm {
    type State = Live;

    fn unit(&self) -> &'static str {
        "request"
    }

    fn segments(&self) -> usize {
        25
    }

    fn units_per_segment(&self) -> f64 {
        self.lines.len() as f64
    }

    fn reference_ler(&self) -> f64 {
        2.0e-4
    }

    /// Server start, connect, and every patch primed cold through the
    /// wire.
    fn setup(&self) -> Live {
        let server = dqec_serve::start(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            cache_capacity: CACHE_CAPACITY,
            // Room for the open-loop slice to fall seconds behind in a
            // bad moment of the host without being refused.
            queue_capacity: QUEUE_CAPACITY,
            ..ServerConfig::default()
        })
        .expect("a loopback port is free");
        let client = Client::connect(&server).expect("the server accepts");
        let mut live = Live {
            server,
            client,
            cold_ms: Vec::with_capacity(self.primers.len()),
            cold_failed: 0,
        };
        for (line, expected) in &self.primers {
            let t = Instant::now();
            let reply = live.client.round_trip(line).expect("server is up");
            live.cold_ms.push(t.elapsed().as_secs_f64() * 1e3);
            live.cold_failed += u64::from(!judge(reply, expected).ok);
        }
        live
    }

    fn teardown(&self, live: Live) {
        drop(live.client);
        live.server.stop();
    }

    /// Op = one request, send → parsed reply.
    fn segment(&self, live: &mut Live) -> Segment {
        self.closed_loop(live)
    }

    /// The closed loop again under `serve.roundtrip` spans, as tight as
    /// the untraced one; then, segment by segment, every request once
    /// more in-process through `parse_request`,
    /// `ExperimentCache::execute` and `render_line`, and `execute` in
    /// turn through its adapt, sample and decode calls by hand. The
    /// in-process part runs as calibration (paused out of the segment)
    /// and is attached to the request's round-trip span as inferred
    /// children: what is left as the round trip's self time is wire,
    /// queue and thread hand-offs. (Interleaving the two would let the
    /// server's threads go to sleep between requests and cost the
    /// round trip half as much again.)
    fn replay(&self, live: &mut Live, tr: &mut Tracer, segments: usize) -> Vec<Segment> {
        let root = tr.enter("bench.setup_replay");
        let mut by_hand: Vec<HandCompiled> = Vec::new();
        let mut local = ExperimentCache::new(CACHE_CAPACITY);
        for (k, d) in self.patches.iter().enumerate() {
            tr.set_op(k as u32);
            let c = tr.enter("chiplet.compile");
            let mut exp = pipeline::compile(tr, &d.patch, &[P], DECODER);
            tr.exit(c);
            let sel = tr.enter("chiplet.select_point");
            pipeline::select(tr, &mut exp, P);
            tr.exit(sel);
            by_hand.push(exp);
            let _ = local.execute(&self.requests[k % self.requests.len()], 1);
        }
        tr.exit(root);
        (0..segments)
            .map(|_| {
                let mut seg = Segment::default();
                let root = tr.enter("bench.segment");
                let mut trips = Vec::with_capacity(self.lines.len());
                for (i, (line, expected)) in self.lines.iter().zip(&self.expected).enumerate() {
                    tr.set_op(i as u32);
                    let trip = tr.enter("serve.roundtrip");
                    let reply = live.client.round_trip(line).expect("server is up");
                    tr.exit(trip);
                    seg.op_ms.push(tr.dur_ns(trip) as f64 / 1e6);
                    trips.push((trip, judge(reply, expected)));
                }
                for (i, (trip, reply)) in trips.into_iter().enumerate() {
                    let (line, expected) = (&self.lines[i], &self.expected[i]);
                    tr.set_units(trip, (line.len() + 1 + reply.bytes) as u64);
                    tr.count("serve.resp_bytes", reply.bytes as u64);
                    tr.count("serve.replies", 1);

                    let (parsed, parse_ns) = tr.calibrate(|| parse_request(line));
                    let Ok(Request::Decode(req)) = parsed else {
                        unreachable!("the benchmark's own request lines parse")
                    };
                    let (done, execute_ns) = tr.calibrate(|| local.execute(&req, 1));
                    let (resp, _) = done.expect("input patches compile");
                    let resp = Response::Ler(resp);
                    let (rendered, render_ns) = tr.calibrate(|| resp.render_line());
                    let (_, adapt_ns) = tr.calibrate(|| normalized_spec(&req));
                    let exp = &by_hand[i % by_hand.len()];
                    let (stats, sample_ns, decode_ns) =
                        pipeline::batch_beside(tr, exp, req.seed, 0, SHOTS);
                    tr.infer_child(trip, "serve.parse", parse_ns, line.len() as u64);
                    let execute = tr.infer_child(trip, "serve.execute", execute_ns, 1);
                    tr.infer_child(trip, "serve.render", render_ns, rendered.len() as u64);
                    tr.infer_child(execute, "core.adapt", adapt_ns, 1);
                    tr.infer_child(execute, "sim.sample", sample_ns, SHOTS as u64);
                    tr.infer_child(execute, "matching.decode_batch", decode_ns, SHOTS as u64);

                    // Three results for one request must agree: the
                    // wire's, the in-process cache's, the hand-driven.
                    let by_hand_tally = Tally {
                        shots: stats.shots as u64,
                        failures: stats.failures[0] as u64,
                    };
                    let agree = reply.ok
                        && by_hand_tally == reply.tally
                        && resp.normalized_line() == *expected;
                    seg.tallies.push(reply.tally);
                    seg.failed_ops += u64::from(!agree);
                }
                tr.exit(root);
                seg
            })
            .collect()
    }

    fn extras(
        &self,
        live: &mut Live,
        tr: &mut Tracer,
        timed: &Timed,
        led: &mut Ledger,
    ) -> (u64, u64) {
        self.serve_rows(live, &timed.segments, tr, led)
    }
}
