//! The resident decode server: a TCP accept loop, one reader and one
//! writer thread per connection, and a single executor thread that
//! drains the fair admission inbox in coalesced batches.
//!
//! ```text
//!            reader (per conn)         executor (one)
//! socket ──▶ parse JSON line ──▶ Inbox ──▶ group by request key
//!        ◀── writer ◀── Bounded ◀──────── sample_batches_with_seed
//! ```
//!
//! Division of labour:
//!
//! * **reader** — frames the socket with [`protocol::read_frame`] and
//!   parses each line. A frame that never becomes a request — over
//!   [`protocol::MAX_REQUEST_BYTES`], not UTF-8, not JSON, a bad field
//!   — is answered with a typed `bad-request` error *on the same
//!   connection* (framing errors never tear the connection down);
//!   every parsed request, whatever its op, is admitted through
//!   [`Inbox::try_push`], so one connection's replies come back in
//!   request order; a full queue becomes a typed `backpressure` error.
//! * **executor** — drains up to `batch_max` requests round-robin
//!   across clients, counts how many of them share each compiled
//!   experiment (the coalescing diagnostic), then answers in arrival
//!   order through [`respond`] — the one place the decode service
//!   routes or refuses an op, shared with the `--oneshot` CLI mode so
//!   served == one-shot holds by construction; the actual Monte-Carlo
//!   decode fans out on the resident worker pool via the `rayon` shim.
//! * **writer** — drains the connection's bounded response channel to
//!   the socket, decoupling slow clients from the executor up to the
//!   channel capacity (beyond which the executor blocks: end-to-end
//!   backpressure instead of unbounded buffering).
//!
//! All thread spawns and shared state go through the
//! `dqec_check::thread` / `::sync` facade per the workspace lint gate.

use crate::cache::ExperimentCache;
use crate::chan::{Bounded, Inbox, PushError};
use crate::protocol::{
    self, ErrorKind, ErrorResponse, Frame, MetricsResponse, Request, Response, StageSummary,
    StatsResponse,
};
use dqec_check::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use dqec_check::sync::Mutex;
use dqec_check::thread;
use dqec_obs::{trace, Clock};
use std::collections::BTreeMap;
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, OnceLock, PoisonError};

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; port 0 picks a free port.
    pub addr: String,
    /// Compiled-experiment cache capacity (0 = compile per request).
    pub cache_capacity: usize,
    /// Per-client admission queue capacity.
    pub queue_capacity: usize,
    /// Maximum requests coalesced into one executor pass.
    pub batch_max: usize,
    /// Maximum concurrent client connections.
    pub max_clients: usize,
    /// Per-connection response channel capacity.
    pub response_capacity: usize,
    /// When set, span tracing is enabled for the server's lifetime and
    /// a Chrome trace-event JSON file (loadable in Perfetto) is written
    /// here on [`ServerHandle::stop`].
    pub trace_out: Option<std::path::PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7461".to_string(),
            cache_capacity: 64,
            queue_capacity: 64,
            batch_max: 32,
            max_clients: 64,
            response_capacity: 1024,
            trace_out: None,
        }
    }
}

/// Live server counters (all monotonic except `clients`).
#[derive(Debug)]
pub struct Metrics {
    /// Decode requests answered with a `ler` response.
    pub served: AtomicUsize,
    /// Requests answered with a typed error.
    pub rejected: AtomicUsize,
    /// Connections currently open.
    pub clients: AtomicUsize,
    /// Decode responses shared within a coalesced batch instead of
    /// recomputed.
    pub coalesce_hits: AtomicUsize,
}

// Manual: the facade's instrumented atomics have no `Default`.
impl Default for Metrics {
    fn default() -> Metrics {
        Metrics {
            served: AtomicUsize::new(0),
            rejected: AtomicUsize::new(0),
            clients: AtomicUsize::new(0),
            coalesce_hits: AtomicUsize::new(0),
        }
    }
}

impl Metrics {
    /// Counts one reply: a `ler` as served, a typed error as rejected.
    pub fn count(&self, response: &Response) {
        let counter = match response {
            Response::Ler(_) => &self.served,
            Response::Error(_) => &self.rejected,
            _ => return,
        };
        counter.fetch_add(1, Ordering::SeqCst);
    }
}

/// Interned handles to the pipeline-stage latency histograms (ns).
struct Stages {
    queue_wait: &'static dqec_obs::Histogram,
    serialize: &'static dqec_obs::Histogram,
    write: &'static dqec_obs::Histogram,
}

fn stages() -> &'static Stages {
    static STAGES: OnceLock<Stages> = OnceLock::new();
    STAGES.get_or_init(|| {
        let reg = dqec_obs::registry();
        Stages {
            queue_wait: reg.histogram("serve.stage.queue_wait"),
            serialize: reg.histogram("serve.stage.serialize"),
            write: reg.histogram("serve.stage.write"),
        }
    })
}

struct WorkItem {
    reply: Bounded<String>,
    request: Request,
    /// Obs-clock timestamp at admission, for the queue-wait histogram.
    admitted_ns: u64,
}

struct Shared {
    inbox: Inbox<WorkItem>,
    metrics: Metrics,
    stop: AtomicBool,
    /// Read-half clones of live connections, so stop() can unblock
    /// reader threads parked in a blocking read.
    conns: Mutex<Vec<TcpStream>>,
    config: ServerConfig,
}

impl Shared {
    /// Counts `resp` and queues it for the connection's writer.
    fn send_response(&self, reply: &Bounded<String>, resp: &Response) {
        self.metrics.count(resp);
        let t0 = Clock::now_ns();
        let line = resp.render_line();
        stages()
            .serialize
            .record(Clock::now_ns().saturating_sub(t0));
        // A closed reply channel means the connection is gone; the
        // response is dropped, matching what TCP would do anyway.
        let _ = reply.send(line);
    }
}

/// A running decode server. Dropping the handle without calling
/// [`ServerHandle::stop`] leaves the server running detached.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<thread::JoinHandle<()>>,
    executor: Option<thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound listen address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the server: closes the listener, shuts every connection
    /// down, drains the admitted backlog, and joins the service
    /// threads.
    pub fn stop(mut self) {
        let trace_out = self.shared.config.trace_out.clone();
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Unblock reader threads parked on their sockets.
        let conns = {
            let mut guard = self
                .shared
                .conns
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            std::mem::take(&mut *guard)
        };
        for conn in &conns {
            let _ = conn.shutdown(Shutdown::Both);
        }
        // The executor drains what was admitted, then exits.
        self.shared.inbox.close();
        if let Some(h) = self.executor.take() {
            let _ = h.join();
        }
        if let Some(path) = trace_out {
            trace::set_enabled(false);
            if let Err(e) = trace::export_to_file(&path) {
                eprintln!("dqec_serve: cannot write trace {}: {e}", path.display());
            }
        }
    }

    /// Blocks until the server exits on its own (the foreground mode
    /// of the `dqec_serve` bin; the process is stopped with a signal).
    pub fn wait(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.executor.take() {
            let _ = h.join();
        }
    }
}

/// Binds and starts a decode server.
///
/// # Errors
///
/// I/O errors from binding the listen address.
pub fn start(config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    if config.trace_out.is_some() {
        trace::set_enabled(true);
    }
    warm_pool();
    let shared = Arc::new(Shared {
        inbox: Inbox::new(config.queue_capacity),
        metrics: Metrics::default(),
        stop: AtomicBool::new(false),
        conns: Mutex::new(Vec::new()),
        config: config.clone(),
    });

    let exec_shared = Arc::clone(&shared);
    let executor = thread::spawn(move || executor_loop(&exec_shared));

    let accept_shared = Arc::clone(&shared);
    let accept = thread::spawn(move || accept_loop(&listener, &accept_shared));

    Ok(ServerHandle {
        addr,
        shared,
        accept: Some(accept),
        executor: Some(executor),
    })
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        // Request and response lines are small; leaving Nagle on would
        // stall every round trip on the peer's delayed ACK.
        let _ = stream.set_nodelay(true);
        let open = shared.metrics.clients.load(Ordering::SeqCst);
        if open >= shared.config.max_clients {
            let resp = Response::Error(ErrorResponse {
                id: None,
                kind: ErrorKind::TooManyClients,
                detail: format!("connection limit {} reached", shared.config.max_clients),
            });
            let mut s = stream;
            let _ = writeln!(s, "{}", resp.render_line());
            continue;
        }
        let read_half = match stream.try_clone() {
            Ok(s) => s,
            Err(_) => continue,
        };
        shared.metrics.clients.fetch_add(1, Ordering::SeqCst);
        {
            let mut conns = shared.conns.lock().unwrap_or_else(PoisonError::into_inner);
            if let Ok(clone) = stream.try_clone() {
                conns.push(clone);
            }
        }
        let reply = Bounded::new(shared.config.response_capacity);
        let writer_reply = reply.clone();
        thread::spawn(move || writer_loop(stream, &writer_reply));
        let conn_shared = Arc::clone(shared);
        thread::spawn(move || reader_loop(read_half, &conn_shared, &reply));
    }
}

fn writer_loop(mut stream: TcpStream, reply: &Bounded<String>) {
    while let Some(line) = reply.recv() {
        let t0 = Clock::now_ns();
        if writeln!(stream, "{line}").is_err() {
            break;
        }
        let _ = stream.flush();
        stages().write.record(Clock::now_ns().saturating_sub(t0));
    }
}

fn reader_loop(stream: TcpStream, shared: &Arc<Shared>, reply: &Bounded<String>) {
    let slot = shared.inbox.register();
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        let parsed = match protocol::read_frame(&mut reader, &mut buf, protocol::MAX_REQUEST_BYTES)
        {
            Ok(Frame::Line(line)) if line.trim().is_empty() => continue,
            Ok(Frame::Line(line)) => protocol::parse_request(line),
            Ok(Frame::Rejected(reason)) => Err((None, reason)),
            Ok(Frame::Eof) | Err(_) => break,
        };
        match parsed {
            Ok(request) => admit(shared, reply, slot, request),
            // Answered in place; the connection stays usable.
            Err((id, detail)) => shared.send_response(reply, &Response::bad_request(id, detail)),
        }
    }
    shared.inbox.deregister(slot);
    shared.metrics.clients.fetch_sub(1, Ordering::SeqCst);
    // Writer exits once the queued responses are flushed.
    reply.close();
}

fn admit(shared: &Arc<Shared>, reply: &Bounded<String>, slot: usize, request: Request) {
    let id = request.id();
    let item = WorkItem {
        reply: reply.clone(),
        request,
        admitted_ns: Clock::now_ns(),
    };
    let (kind, detail) = match shared.inbox.try_push(slot, item) {
        Ok(()) => return,
        Err(PushError::Full) => (
            ErrorKind::Backpressure,
            format!(
                "admission queue full (capacity {}); retry later",
                shared.config.queue_capacity
            ),
        ),
        Err(PushError::Closed) => (
            ErrorKind::Unavailable,
            "server is shutting down".to_string(),
        ),
    };
    let id = Some(id);
    shared.send_response(reply, &Response::Error(ErrorResponse { id, kind, detail }));
}

fn executor_loop(shared: &Arc<Shared>) {
    let mut cache = ExperimentCache::new(shared.config.cache_capacity);
    loop {
        let batch = shared.inbox.drain(shared.config.batch_max);
        if batch.is_empty() {
            break; // inbox closed and drained
        }
        let _batch_span = trace::span("serve.batch");
        // Coalescing pre-pass: count how many requests of this batch
        // share each compiled experiment, so one compile (or one cache
        // hit streak) serves the whole group and responses can report
        // the amortization factor.
        let mut group_sizes: BTreeMap<u64, usize> = BTreeMap::new();
        let mut keys: Vec<Option<u64>> = Vec::with_capacity(batch.len());
        for item in &batch {
            match &item.request {
                Request::Decode(req) if req.validate().is_ok() => {
                    let key = crate::cache::request_key(req);
                    *group_sizes.entry(key).or_insert(0) += 1;
                    keys.push(Some(key));
                }
                _ => keys.push(None),
            }
        }
        // Within this batch, requests identical in (compiled key, seed,
        // shots) are pure-function duplicates: compute once, share the
        // response (re-correlated per request id) instead of repeating
        // the Monte-Carlo run.
        let mut computed: BTreeMap<(u64, u64, u64), Response> = BTreeMap::new();
        for (item, key) in batch.into_iter().zip(keys) {
            stages()
                .queue_wait
                .record(Clock::now_ns().saturating_sub(item.admitted_ns));
            let response = match (&item.request, key) {
                (Request::Decode(req), Some(key)) => {
                    let share_key = (key, req.seed, req.shots as u64);
                    match computed.get(&share_key) {
                        Some(prior) => {
                            shared.metrics.coalesce_hits.fetch_add(1, Ordering::SeqCst);
                            trace::instant("serve.coalesce_hit");
                            let mut response = prior.clone();
                            match &mut response {
                                Response::Ler(resp) => resp.id = req.id,
                                Response::Error(err) => err.id = Some(req.id),
                                _ => {}
                            }
                            response
                        }
                        None => {
                            let _span = trace::span("serve.execute");
                            let batched = group_sizes.get(&key).copied().unwrap_or(1);
                            let response =
                                respond(&item.request, &mut cache, &shared.metrics, batched);
                            computed.insert(share_key, response.clone());
                            response
                        }
                    }
                }
                // Everything else, a decode that fails validation
                // included: `respond` answers it with the reason.
                _ => respond(&item.request, &mut cache, &shared.metrics, 1),
            };
            shared.send_response(&item.reply, &response);
        }
    }
}

/// Answers one parsed request — the only place the decode service
/// routes or refuses an op. The server's executor and the `--oneshot`
/// CLI mode both call it, which is what makes a served session and a
/// one-shot run of the same request file agree byte for byte.
/// `batched` is how many requests of the caller's batch share the
/// request's compiled experiment (1 when answering solo). The caller
/// counts the reply ([`Metrics::count`]); `metrics` here feeds `stats`.
pub fn respond(
    request: &Request,
    cache: &mut ExperimentCache,
    metrics: &Metrics,
    batched: usize,
) -> Response {
    match request {
        Request::Ping { id } => Response::Pong { id: *id },
        Request::Stats { id } => Response::Stats(stats_snapshot(metrics, cache, *id)),
        Request::Metrics { id } => Response::Metrics(metrics_snapshot(*id)),
        Request::Decode(req) => match cache.execute(req, batched) {
            Ok((resp, _stats)) => Response::Ler(resp),
            Err(err) => Response::Error(err),
        },
        // The frame lives in this protocol; the role does not.
        Request::Shard(req) => Response::bad_request(
            Some(req.id),
            "this is the decode server; shard jobs go to a `dqec_dist agent` endpoint".to_string(),
        ),
    }
}

/// Builds the observability snapshot answered to a `metrics` request:
/// per-stage latency quantiles from every registry histogram, plus all
/// counters and gauges, plus the Prometheus text rendering. Usable
/// outside a running server (the one-shot CLI mode answers with it
/// too).
pub fn metrics_snapshot(id: u64) -> MetricsResponse {
    let snap = dqec_obs::registry().snapshot();
    let stages = snap
        .histograms
        .iter()
        .map(|(name, h)| StageSummary {
            name: name.clone(),
            count: h.count,
            p50_us: h.quantile(0.5) as f64 / 1000.0,
            p99_us: h.quantile(0.99) as f64 / 1000.0,
            p999_us: h.quantile(0.999) as f64 / 1000.0,
        })
        .collect();
    MetricsResponse {
        id,
        stages,
        counters: snap.counters.clone(),
        gauges: snap.gauges.clone(),
        prometheus: snap.prometheus(),
    }
}

fn stats_snapshot(metrics: &Metrics, cache: &ExperimentCache, id: u64) -> StatsResponse {
    let c = cache.counters();
    StatsResponse {
        id,
        served: metrics.served.load(Ordering::SeqCst) as u64,
        rejected: metrics.rejected.load(Ordering::SeqCst) as u64,
        cache_hits: c.hits,
        cache_misses: c.misses,
        cache_evictions: c.evictions,
        cache_entries: c.entries,
        syndrome_hits: c.syndrome_hits,
        syndrome_misses: c.syndrome_misses,
        pool_workers: pool_workers() as u64,
        coalesce_hits: metrics.coalesce_hits.load(Ordering::SeqCst) as u64,
    }
}

#[cfg(not(dqec_check))]
fn pool_workers() -> usize {
    rayon::resident::global().workers()
}

/// Pre-spawns the resident pool so the first decode burst does not pay
/// worker startup, and so `pool_workers` in stats reflects the pool a
/// resident server actually holds.
#[cfg(not(dqec_check))]
fn warm_pool() {
    let cores = thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    rayon::resident::global().ensure_workers(cores.saturating_sub(1).max(1));
}

// Under the model-checker cfg the rayon shim builds per-fan-out pools
// instead of a process-global one; report zero rather than reaching
// for a global that intentionally does not exist there.
#[cfg(dqec_check)]
fn pool_workers() -> usize {
    0
}

#[cfg(dqec_check)]
fn warm_pool() {}
