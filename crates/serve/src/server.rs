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
//! * **reader** — parses each line; malformed input is answered with a
//!   typed `bad-request` error *on the same connection* (framing
//!   errors never tear the connection down), pings are answered
//!   inline, decode/stats work is admitted through
//!   [`Inbox::try_push`]; a full queue becomes a typed `backpressure`
//!   error.
//! * **executor** — drains up to `batch_max` requests round-robin
//!   across clients, counts how many of them share each compiled
//!   experiment (the coalescing diagnostic), then executes in arrival
//!   order against the [`ExperimentCache`]; the actual Monte-Carlo
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
    self, DecodeRequest, ErrorKind, ErrorResponse, LerResponse, MetricsResponse, Request, Response,
    StageSummary, StatsResponse,
};
use dqec_check::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use dqec_check::sync::Mutex;
use dqec_check::thread;
use dqec_obs::{trace, Clock};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
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
    kind: WorkKind,
    /// Obs-clock timestamp at admission, for the queue-wait histogram.
    admitted_ns: u64,
}

enum WorkKind {
    Decode(DecodeRequest),
    Stats { id: u64 },
    Metrics { id: u64 },
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
    fn send_response(reply: &Bounded<String>, resp: &Response) {
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

    /// Live counters.
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
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
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        if line.trim().is_empty() {
            continue;
        }
        match protocol::parse_request(&line) {
            Err((id, detail)) => {
                // Framing/validation errors answer in place and keep
                // the connection alive.
                shared.metrics.rejected.fetch_add(1, Ordering::SeqCst);
                Shared::send_response(
                    reply,
                    &Response::Error(ErrorResponse {
                        id,
                        kind: ErrorKind::BadRequest,
                        detail,
                    }),
                );
            }
            Ok(Request::Ping { id }) => {
                Shared::send_response(reply, &Response::Pong { id });
            }
            Ok(Request::Stats { id }) => {
                admit(shared, reply, slot, WorkKind::Stats { id }, Some(id));
            }
            Ok(Request::Metrics { id }) => {
                admit(shared, reply, slot, WorkKind::Metrics { id }, Some(id));
            }
            Ok(Request::Decode(req)) => {
                let id = req.id;
                admit(shared, reply, slot, WorkKind::Decode(req), Some(id));
            }
            Ok(Request::Shard(req)) => {
                // Shard dispatch is the dqec_dist agent's job; the
                // decode server shares the frame format but not the
                // role.
                shared.metrics.rejected.fetch_add(1, Ordering::SeqCst);
                Shared::send_response(
                    reply,
                    &Response::Error(ErrorResponse {
                        id: Some(req.id),
                        kind: ErrorKind::BadRequest,
                        detail: "this is the decode server; shard jobs go to a \
                                 `dqec_dist agent` endpoint"
                            .to_string(),
                    }),
                );
            }
        }
    }
    shared.inbox.deregister(slot);
    shared.metrics.clients.fetch_sub(1, Ordering::SeqCst);
    // Writer exits once the queued responses are flushed.
    reply.close();
}

fn admit(
    shared: &Arc<Shared>,
    reply: &Bounded<String>,
    slot: usize,
    kind: WorkKind,
    id: Option<u64>,
) {
    let item = WorkItem {
        reply: reply.clone(),
        kind,
        admitted_ns: Clock::now_ns(),
    };
    match shared.inbox.try_push(slot, item) {
        Ok(()) => {}
        Err(PushError::Full) => {
            shared.metrics.rejected.fetch_add(1, Ordering::SeqCst);
            Shared::send_response(
                reply,
                &Response::Error(ErrorResponse {
                    id,
                    kind: ErrorKind::Backpressure,
                    detail: format!(
                        "admission queue full (capacity {}); retry later",
                        shared.config.queue_capacity
                    ),
                }),
            );
        }
        Err(PushError::Closed) => {
            shared.metrics.rejected.fetch_add(1, Ordering::SeqCst);
            Shared::send_response(
                reply,
                &Response::Error(ErrorResponse {
                    id,
                    kind: ErrorKind::Unavailable,
                    detail: "server is shutting down".to_string(),
                }),
            );
        }
    }
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
            match &item.kind {
                WorkKind::Decode(req) if req.validate().is_ok() => {
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
        let mut computed: BTreeMap<(u64, u64, u64), Result<LerResponse, ErrorResponse>> =
            BTreeMap::new();
        for (item, key) in batch.into_iter().zip(keys) {
            stages()
                .queue_wait
                .record(Clock::now_ns().saturating_sub(item.admitted_ns));
            match item.kind {
                WorkKind::Stats { id } => {
                    let resp = stats_snapshot(shared, &cache, id);
                    Shared::send_response(&item.reply, &Response::Stats(resp));
                }
                WorkKind::Metrics { id } => {
                    let resp = metrics_snapshot(id);
                    Shared::send_response(&item.reply, &Response::Metrics(resp));
                }
                WorkKind::Decode(req) => {
                    let batched = key.and_then(|k| group_sizes.get(&k).copied()).unwrap_or(1);
                    let share_key = key.map(|k| (k, req.seed, req.shots as u64));
                    let result = match share_key.and_then(|k| computed.get(&k).cloned()) {
                        Some(mut prior) => {
                            shared.metrics.coalesce_hits.fetch_add(1, Ordering::SeqCst);
                            trace::instant("serve.coalesce_hit");
                            match &mut prior {
                                Ok(resp) => resp.id = req.id,
                                Err(err) => err.id = Some(req.id),
                            }
                            prior
                        }
                        None => {
                            let _span = trace::span("serve.execute");
                            // An unkeyed request failed validation;
                            // `execute` answers it with the reason.
                            let result = match key {
                                Some(k) => cache.execute_keyed(k, &req, batched),
                                None => cache.execute(&req, batched),
                            }
                            .map(|(resp, _stats)| resp);
                            if let Some(k) = share_key {
                                computed.insert(k, result.clone());
                            }
                            result
                        }
                    };
                    match result {
                        Ok(resp) => {
                            shared.metrics.served.fetch_add(1, Ordering::SeqCst);
                            Shared::send_response(&item.reply, &Response::Ler(resp));
                        }
                        Err(err) => {
                            shared.metrics.rejected.fetch_add(1, Ordering::SeqCst);
                            Shared::send_response(&item.reply, &Response::Error(err));
                        }
                    }
                }
            }
        }
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

fn stats_snapshot(shared: &Arc<Shared>, cache: &ExperimentCache, id: u64) -> StatsResponse {
    let c = cache.counters();
    StatsResponse {
        id,
        served: shared.metrics.served.load(Ordering::SeqCst) as u64,
        rejected: shared.metrics.rejected.load(Ordering::SeqCst) as u64,
        cache_hits: c.hits,
        cache_misses: c.misses,
        cache_evictions: c.evictions,
        cache_entries: c.entries,
        syndrome_hits: c.syndrome_hits,
        syndrome_misses: c.syndrome_misses,
        pool_workers: pool_workers() as u64,
        coalesce_hits: shared.metrics.coalesce_hits.load(Ordering::SeqCst) as u64,
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
