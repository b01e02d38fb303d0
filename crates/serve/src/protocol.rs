//! The JSON-lines wire protocol: one request object per line in, one
//! response object per line out, over the workspace's one JSON codec
//! ([`dqec_chiplet::json`]) and one line framer ([`read_frame`]).
//!
//! # Requests
//!
//! ```json
//! {"op":"decode","id":1,"d":5,"p":0.003,"shots":4000,"seed":7,
//!  "decoder":"mwpm","rounds":5,
//!  "defects":{"data":[[3,3]],"synd":[[4,4]],"links":[[3,3,4,4]]}}
//! {"op":"stats","id":2}
//! {"op":"metrics","id":4}
//! {"op":"ping","id":3}
//! ```
//!
//! `rounds` and `defects` are optional (defaults: the patch's natural
//! round count; no defects). Defect coordinates use the doubled
//! coordinate system of [`dqec_core::Coord`]; `links` entries are
//! `[data_x, data_y, face_x, face_y]`.
//!
//! # Responses
//!
//! ```json
//! {"type":"ler","id":1,"d":5,"p":0.003,"rounds":5,"decoder":"mwpm",
//!  "seed":7,"shots":4000,"failures":31,"ler":0.00775,
//!  "cache":"hit","batched":2}
//! {"type":"error","id":1,"error":"backpressure","detail":"..."}
//! {"type":"stats","id":2,"served":9,...}
//! {"type":"metrics","id":4,"stages":[{"name":"serve.stage.decode",
//!  "count":9,"p50_us":812.0,"p99_us":1427.0,"p999_us":1427.0},...],
//!  "counters":{...},"gauges":{...},"prometheus":"..."}
//! {"type":"pong","id":3}
//! ```
//!
//! Lines are UTF-8 and length-capped — requests at
//! [`MAX_REQUEST_BYTES`], replies at [`MAX_REPLY_BYTES`]; a line over
//! its cap is discarded through its newline without being buffered. A
//! malformed, over-long or non-UTF-8 line produces one `error` response
//! and leaves the connection open. Every response type has a
//! **normalized** rendering ([`Response::normalized_line`]) restricted
//! to fields that are a pure function of the request — `cache`,
//! `batched`, and live counters are diagnostics that depend on
//! scheduling — which is what the conformance gate diffs between a
//! served session and a one-shot CLI run.

use dqec_chiplet::cli::COORDINATOR_FLAGS;
use dqec_chiplet::json::{self, Json};
use dqec_chiplet::runner::DecoderChoice;
use dqec_core::{Coord, DefectSet};
use std::io::{self, BufRead, Read};

/// Largest accepted patch distance (compile cost grows steeply).
pub const MAX_DISTANCE: u32 = 21;
/// Largest accepted per-request shot count.
pub const MAX_SHOTS: usize = 10_000_000;
/// Largest accepted shard count in a `shard` dispatch.
pub const MAX_SHARDS: u32 = 4096;

/// Largest accepted request line, in bytes. The largest legal decode
/// request (d = 21 with every qubit and coupler listed as defective)
/// is about 32 kB.
pub const MAX_REQUEST_BYTES: usize = 1 << 20;
/// Largest accepted reply line, in bytes. A `shard-done` frame carries
/// whole state files (120–136 B per sweep point, ×1.17 string-escaped):
/// the largest plan in the tree, 1250 points, ships about 200 kB.
pub const MAX_REPLY_BYTES: usize = 16 << 20;

/// What [`read_frame`] found on the stream.
#[derive(Debug, PartialEq, Eq)]
pub enum Frame<'a> {
    /// One line, without its `\n` (or `\r\n`).
    Line(&'a str),
    /// A line over the cap or not UTF-8, with the reason. It has been
    /// consumed through its `\n`, so the next read starts a new frame.
    Rejected(String),
    /// The stream ended cleanly before another frame began.
    Eof,
}

/// Reads one `\n`-terminated frame of at most `cap` bytes into `buf`
/// (reused across calls, never grown past `cap + 1`). Every socket and
/// request-file reader of the serve and dist layers goes through here,
/// so a peer that never sends `\n` cannot grow memory and a stray
/// non-UTF-8 byte costs one frame, not the connection.
///
/// # Errors
///
/// I/O errors of the underlying reader, read timeouts included.
pub fn read_frame<'a>(
    reader: &mut impl BufRead,
    buf: &'a mut Vec<u8>,
    cap: usize,
) -> io::Result<Frame<'a>> {
    let limit = cap as u64 + 1;
    buf.clear();
    if reader.by_ref().take(limit).read_until(b'\n', buf)? == 0 {
        return Ok(Frame::Eof);
    }
    if buf.last() != Some(&b'\n') && buf.len() > cap {
        // Discard the rest of the line a bounded chunk at a time.
        loop {
            buf.clear();
            let n = reader.by_ref().take(limit).read_until(b'\n', buf)?;
            if n == 0 || buf.last() == Some(&b'\n') {
                return Ok(Frame::Rejected(format!(
                    "frame exceeds the {cap}-byte limit"
                )));
            }
        }
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    }
    Ok(match std::str::from_utf8(buf) {
        Ok(line) => Frame::Line(line),
        Err(e) => Frame::Rejected(format!("frame is not valid UTF-8: {e}")),
    })
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// A decode job.
    Decode(DecodeRequest),
    /// Server counters.
    Stats {
        /// Client-chosen correlation id, echoed in the response.
        id: u64,
    },
    /// Observability snapshot: per-stage latency quantiles plus the
    /// full metrics registry (JSON and Prometheus text).
    Metrics {
        /// Client-chosen correlation id, echoed in the response.
        id: u64,
    },
    /// Liveness probe.
    Ping {
        /// Client-chosen correlation id, echoed in the response.
        id: u64,
    },
    /// Dispatch of one sweep shard to a `dqec_dist` agent. The decode
    /// server answers this op with a `bad-request` error naming the
    /// agent — the frame lives here so coordinator and agent share the
    /// decode service's wire format (and its conformance tooling).
    Shard(ShardRequest),
}

/// A shard-dispatch job: run shard `index/count` of the named figure
/// binary and return its sweep state files inline (agent and
/// coordinator share no filesystem).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRequest {
    /// Client-chosen correlation id, echoed in every response frame.
    pub id: u64,
    /// Figure binary name (e.g. `fig06_ler_curves`), resolved by the
    /// agent next to its own executable — never a path.
    pub bin: String,
    /// Shard index, in `0..count`.
    pub index: u32,
    /// Shard count of the partition.
    pub count: u32,
    /// Extra arguments passed through to the binary (`--shots`,
    /// `--seed`, ...). The agent owns `--shard`/`--checkpoint`/
    /// `--resume`/`--out`, so those are rejected here.
    pub args: Vec<String>,
}

impl ShardRequest {
    /// Checks ranges and argument hygiene before any process spawns.
    ///
    /// # Errors
    ///
    /// A human-readable reason when a field is out of range.
    pub fn validate(&self) -> Result<(), String> {
        if self.bin.is_empty()
            || !self
                .bin
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_')
        {
            return Err(format!(
                "bin must be a bare binary name ([A-Za-z0-9_]+), got {:?}",
                self.bin
            ));
        }
        if self.count == 0 || self.count > MAX_SHARDS {
            return Err(format!(
                "shard count must be in 1..={MAX_SHARDS}, got {}",
                self.count
            ));
        }
        if self.index >= self.count {
            return Err(format!(
                "shard index {} out of range for {} shards",
                self.index, self.count
            ));
        }
        for owned in COORDINATOR_FLAGS {
            if self.args.iter().any(|a| a == owned) {
                return Err(format!("{owned} is agent-owned and cannot appear in args"));
            }
        }
        Ok(())
    }
}

/// A decode job: estimate the logical error rate of a (possibly
/// defective) distance-`d` memory patch at physical error rate `p`.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeRequest {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// Code distance of the fabricated patch.
    pub d: u32,
    /// Physical error rate.
    pub p: f64,
    /// Syndrome-round override (default: the patch's natural count).
    pub rounds: Option<u32>,
    /// Monte-Carlo shots.
    pub shots: usize,
    /// Base RNG seed; tallies are a pure function of the request.
    pub seed: u64,
    /// Decoder backend.
    pub decoder: DecoderChoice,
    /// Fabrication defects to adapt around.
    pub defects: DefectSet,
}

impl DecodeRequest {
    /// Checks ranges before any compilation happens.
    ///
    /// # Errors
    ///
    /// A human-readable reason when a field is out of range.
    pub fn validate(&self) -> Result<(), String> {
        if self.d < 2 || self.d > MAX_DISTANCE {
            return Err(format!("d must be in 2..={MAX_DISTANCE}, got {}", self.d));
        }
        if !(self.p > 0.0 && self.p < 1.0) {
            return Err(format!("p must be in (0, 1), got {}", self.p));
        }
        if self.shots == 0 || self.shots > MAX_SHOTS {
            return Err(format!(
                "shots must be in 1..={MAX_SHOTS}, got {}",
                self.shots
            ));
        }
        if self.rounds == Some(0) {
            return Err("rounds must be >= 1".to_string());
        }
        Ok(())
    }
}

/// Typed error categories, stable on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The line did not parse, or a field failed validation/compile.
    BadRequest,
    /// The client's admission queue is full; retry later.
    Backpressure,
    /// The server's connection limit is reached.
    TooManyClients,
    /// The server is shutting down.
    Unavailable,
    /// An unexpected server-side failure.
    Internal,
}

impl ErrorKind {
    /// The wire name of this kind.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad-request",
            ErrorKind::Backpressure => "backpressure",
            ErrorKind::TooManyClients => "too-many-clients",
            ErrorKind::Unavailable => "unavailable",
            ErrorKind::Internal => "internal",
        }
    }

    /// Parses a wire name.
    ///
    /// # Errors
    ///
    /// A message naming the unknown kind.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "bad-request" => Ok(ErrorKind::BadRequest),
            "backpressure" => Ok(ErrorKind::Backpressure),
            "too-many-clients" => Ok(ErrorKind::TooManyClients),
            "unavailable" => Ok(ErrorKind::Unavailable),
            "internal" => Ok(ErrorKind::Internal),
            other => Err(format!("unknown error kind {other:?}")),
        }
    }
}

/// A typed error response.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorResponse {
    /// The offending request's id, when one could be extracted.
    pub id: Option<u64>,
    /// Error category.
    pub kind: ErrorKind,
    /// Human-readable detail (diagnostic; not normalized).
    pub detail: String,
}

/// A decode result.
#[derive(Debug, Clone, PartialEq)]
pub struct LerResponse {
    /// Echoed request id.
    pub id: u64,
    /// Echoed code distance.
    pub d: u32,
    /// Echoed physical error rate.
    pub p: f64,
    /// Effective syndrome rounds actually run.
    pub rounds: u32,
    /// Echoed decoder backend.
    pub decoder: DecoderChoice,
    /// Echoed seed.
    pub seed: u64,
    /// Shots decoded.
    pub shots: usize,
    /// Logical failures observed.
    pub failures: u64,
    /// Whether the compiled experiment came from the cache
    /// (diagnostic; not normalized).
    pub cache_hit: bool,
    /// How many requests of the drained batch shared this compiled
    /// experiment (diagnostic; not normalized).
    pub batched: usize,
}

impl LerResponse {
    /// The logical error rate estimate `failures / shots`.
    pub fn ler(&self) -> f64 {
        if self.shots == 0 {
            0.0
        } else {
            self.failures as f64 / self.shots as f64
        }
    }
}

/// Server counters at a point in time (all diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsResponse {
    /// Echoed request id.
    pub id: u64,
    /// Decode requests answered.
    pub served: u64,
    /// Requests rejected (backpressure or bad).
    pub rejected: u64,
    /// Compiled-experiment cache hits.
    pub cache_hits: u64,
    /// Compiled-experiment cache misses (compilations).
    pub cache_misses: u64,
    /// Compiled-experiment cache evictions.
    pub cache_evictions: u64,
    /// Entries resident in the compiled-experiment cache.
    pub cache_entries: u64,
    /// Syndrome-memoization hits summed over served decodes.
    pub syndrome_hits: u64,
    /// Syndrome-memoization misses summed over served decodes.
    pub syndrome_misses: u64,
    /// Resident-pool worker threads currently spawned.
    pub pool_workers: u64,
    /// Decode responses shared within a coalesced batch instead of
    /// being recomputed (identical key, seed, and shots).
    pub coalesce_hits: u64,
}

/// Latency quantiles of one pipeline stage, derived from the stage's
/// log-bucketed histogram (microseconds; exact-bucket upper bounds).
#[derive(Debug, Clone, PartialEq)]
pub struct StageSummary {
    /// Registry name of the stage histogram.
    pub name: String,
    /// Samples recorded.
    pub count: u64,
    /// 50th-percentile latency in microseconds.
    pub p50_us: f64,
    /// 99th-percentile latency in microseconds.
    pub p99_us: f64,
    /// 99.9th-percentile latency in microseconds.
    pub p999_us: f64,
}

/// The observability snapshot answered to a `metrics` request.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsResponse {
    /// Echoed request id.
    pub id: u64,
    /// Per-stage latency quantiles, name-sorted.
    pub stages: Vec<StageSummary>,
    /// Every registry counter, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// Every registry gauge, name-sorted.
    pub gauges: Vec<(String, i64)>,
    /// The same snapshot in Prometheus text exposition format.
    pub prometheus: String,
}

/// One sweep state file produced by a shard job, shipped inline.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStateFile {
    /// The state file's base name (e.g.
    /// `fig06_ler_curves.defective.shard0of2.sweep.json`).
    pub file: String,
    /// The file's JSON document, verbatim.
    pub doc: String,
}

/// Completion of a shard-dispatch job: every sweep state file the shard
/// wrote, shipped back verbatim for the coordinator's merge step.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardDoneResponse {
    /// Echoed request id.
    pub id: u64,
    /// The shard's state files. Deterministic: a pure function of the
    /// request, byte for byte, so the whole frame is normalized.
    pub states: Vec<ShardStateFile>,
}

/// One response line.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A decode result.
    Ler(LerResponse),
    /// A typed error.
    Error(ErrorResponse),
    /// Server counters.
    Stats(StatsResponse),
    /// Observability snapshot.
    Metrics(MetricsResponse),
    /// Liveness reply.
    Pong {
        /// Echoed request id.
        id: u64,
    },
    /// Heartbeat from an agent while a shard job runs: the coordinator
    /// uses frame arrival (not content) for straggler detection.
    ShardProgress {
        /// Echoed request id.
        id: u64,
    },
    /// Shard-job completion with the shard's state files.
    ShardDone(ShardDoneResponse),
}

/// One frame's fields in wire order, written like the JSON they
/// become; every value goes through `Json::from`. A `None` value is
/// `null` here and omitted by the caller, never sent.
macro_rules! fields {
    ($($key:literal: $value:expr),* $(,)?) => {
        vec![$(($key.to_string(), Json::from($value))),*]
    };
}

/// Drops the optional fields that are absent.
fn present(mut fields: Vec<(String, Json)>) -> Vec<(String, Json)> {
    fields.retain(|(_, v)| *v != Json::Null);
    fields
}

fn defects_json(d: &DefectSet) -> Json {
    let site = |c: &Coord| vec![c.x, c.y];
    let link = |(a, b): &(Coord, Coord)| vec![a.x, a.y, b.x, b.y];
    Json::Obj(fields! {
        "data": d.data.iter().map(site).collect::<Vec<_>>(),
        "synd": d.synd.iter().map(site).collect::<Vec<_>>(),
        "links": d.links.iter().map(link).collect::<Vec<_>>(),
    })
}

impl Request {
    /// The client-chosen correlation id.
    pub fn id(&self) -> u64 {
        match self {
            Request::Ping { id } | Request::Stats { id } | Request::Metrics { id } => *id,
            Request::Decode(r) => r.id,
            Request::Shard(r) => r.id,
        }
    }

    /// This request as one wire line (no trailing newline).
    pub fn render_line(&self) -> String {
        let fields = match self {
            Request::Ping { id } => fields! { "op": "ping", "id": *id },
            Request::Stats { id } => fields! { "op": "stats", "id": *id },
            Request::Metrics { id } => fields! { "op": "metrics", "id": *id },
            Request::Shard(r) => fields! {
                "op": "shard",
                "id": r.id,
                "bin": r.bin.as_str(),
                "shard": format!("{}/{}", r.index, r.count),
                "args": r.args.clone(),
            },
            Request::Decode(r) => fields! {
                "op": "decode",
                "id": r.id,
                "d": r.d,
                "p": r.p,
                "shots": r.shots,
                "seed": r.seed,
                "decoder": r.decoder.name(),
                "rounds": r.rounds,
                "defects": (!r.defects.is_empty()).then(|| defects_json(&r.defects)),
            },
        };
        Json::Obj(present(fields)).render()
    }
}

/// Reads `N` coordinates of one defect entry. Each must be an exact
/// integer in `i32` range: a cast would fold `1.5` or `2e300` onto a
/// different, valid site and alias another request's cache key.
fn parse_coords<const N: usize>(v: &Json, what: &str) -> Result<[i32; N], String> {
    let arr = v.as_arr().ok_or_else(|| format!("{what}: not an array"))?;
    if arr.len() != N {
        return Err(format!("{what}: need {N} coordinates"));
    }
    let mut xs = [0i32; N];
    for (slot, v) in xs.iter_mut().zip(arr) {
        *slot = v
            .as_int()
            .ok_or_else(|| format!("{what}: coordinates must be integers in i32 range"))?;
    }
    Ok(xs)
}

fn parse_defects(v: &Json) -> Result<DefectSet, String> {
    let mut out = DefectSet::new();
    let items = |key: &str| v.get(key).and_then(Json::as_arr).unwrap_or_default();
    for item in items("data") {
        let [x, y] = parse_coords(item, "defects.data")?;
        out.add_data(Coord::new(x, y));
    }
    for item in items("synd") {
        let [x, y] = parse_coords(item, "defects.synd")?;
        out.add_synd(Coord::new(x, y));
    }
    for item in items("links") {
        let [dx, dy, fx, fy] = parse_coords(item, "defects.links")?;
        out.add_link(Coord::new(dx, dy), Coord::new(fx, fy));
    }
    Ok(out)
}

/// Parses one request line.
///
/// # Errors
///
/// `(id, reason)` on malformed input, carrying the request id when one
/// was recoverable so the error response can still be correlated.
pub fn parse_request(line: &str) -> Result<Request, (Option<u64>, String)> {
    let obj = json::parse(line).map_err(|e| (None, format!("malformed JSON: {e}")))?;
    request_from(&obj).map_err(|reason| (obj.get("id").and_then(Json::as_u64), reason))
}

fn request_from(obj: &Json) -> Result<Request, String> {
    let id = || obj.uint_field("id");
    match obj.str_field("op")? {
        "ping" => Ok(Request::Ping { id: id()? }),
        "stats" => Ok(Request::Stats { id: id()? }),
        "metrics" => Ok(Request::Metrics { id: id()? }),
        "decode" => {
            let decoder = match obj.get("decoder").and_then(Json::as_str) {
                None => DecoderChoice::default(),
                Some(name) => DecoderChoice::parse(name)?,
            };
            let req = DecodeRequest {
                id: id()?,
                d: obj.uint_field("d")?,
                p: obj.f64_field("p")?,
                rounds: match obj.opt("rounds") {
                    None => None,
                    Some(v) => Some(v.as_int().ok_or("non-integer field \"rounds\"")?),
                },
                shots: obj.uint_field("shots")?,
                seed: obj.uint_field("seed")?,
                decoder,
                defects: obj
                    .opt("defects")
                    .map_or_else(|| Ok(DefectSet::new()), parse_defects)?,
            };
            req.validate()?;
            Ok(Request::Decode(req))
        }
        "shard" => {
            let spec = obj
                .str_field("shard")
                .map_err(|e| format!("{e} (\"I/N\")"))?;
            let (index, count) = spec
                .split_once('/')
                .and_then(|(i, n)| Some((i.parse().ok()?, n.parse().ok()?)))
                .ok_or_else(|| format!("shard spec {spec:?} is not of the form I/N"))?;
            let strings = |v: &Json| {
                let items = v.as_arr()?.iter();
                items.map(|a| a.as_str().map(str::to_string)).collect()
            };
            let args = obj
                .opt("args")
                .map_or_else(|| Some(Vec::new()), strings)
                .ok_or("\"args\" must be an array of strings")?;
            let req = ShardRequest {
                id: id()?,
                bin: obj.str_field("bin")?.to_string(),
                index,
                count,
                args,
            };
            req.validate()?;
            Ok(Request::Shard(req))
        }
        other => Err(format!("unknown op {other:?}")),
    }
}

impl Response {
    /// The typed `bad-request` error: the reply to a frame that never
    /// became a request, or to an op the answering service refuses.
    pub fn bad_request(id: Option<u64>, detail: String) -> Response {
        let kind = ErrorKind::BadRequest;
        Response::Error(ErrorResponse { id, kind, detail })
    }

    /// The fields of this response's JSON object, diagnostics included.
    fn fields(&self) -> Vec<(String, Json)> {
        present(match self {
            Response::Pong { id } => fields! { "type": "pong", "id": *id },
            Response::ShardProgress { id } => fields! { "type": "shard-progress", "id": *id },
            Response::ShardDone(r) => {
                let state = |s: &ShardStateFile| {
                    Json::Obj(fields! { "file": s.file.as_str(), "doc": s.doc.as_str() })
                };
                fields! {
                    "type": "shard-done",
                    "id": r.id,
                    "states": r.states.iter().map(state).collect::<Vec<_>>(),
                }
            }
            Response::Error(e) => fields! {
                "type": "error",
                "id": e.id,
                "error": e.kind.as_str(),
                "detail": e.detail.as_str(),
            },
            Response::Ler(r) => fields! {
                "type": "ler",
                "id": r.id,
                "d": r.d,
                "p": r.p,
                "rounds": r.rounds,
                "decoder": r.decoder.name(),
                "seed": r.seed,
                "shots": r.shots,
                "failures": r.failures,
                "ler": r.ler(),
                "cache": if r.cache_hit { "hit" } else { "miss" },
                "batched": r.batched,
            },
            Response::Stats(s) => fields! {
                "type": "stats",
                "id": s.id,
                "served": s.served,
                "rejected": s.rejected,
                "cache_hits": s.cache_hits,
                "cache_misses": s.cache_misses,
                "cache_evictions": s.cache_evictions,
                "cache_entries": s.cache_entries,
                "syndrome_hits": s.syndrome_hits,
                "syndrome_misses": s.syndrome_misses,
                "pool_workers": s.pool_workers,
                "coalesce_hits": s.coalesce_hits,
            },
            Response::Metrics(m) => {
                let counters = m.counters.iter().map(|(k, v)| (k.as_str(), (*v).into()));
                let gauges = m.gauges.iter().map(|(k, v)| (k.as_str(), (*v).into()));
                let stage = |s: &StageSummary| {
                    Json::Obj(fields! {
                        "name": s.name.as_str(),
                        "count": s.count,
                        "p50_us": s.p50_us,
                        "p99_us": s.p99_us,
                        "p999_us": s.p999_us,
                    })
                };
                fields! {
                    "type": "metrics",
                    "id": m.id,
                    "stages": m.stages.iter().map(stage).collect::<Vec<_>>(),
                    "counters": Json::obj(counters),
                    "gauges": Json::obj(gauges),
                    "prometheus": m.prometheus.as_str(),
                }
            }
        })
    }

    /// This response as one wire line (no trailing newline), all
    /// fields and diagnostics included.
    pub fn render_line(&self) -> String {
        Json::Obj(self.fields()).render()
    }

    /// The deterministic rendering used by the conformance gate: only
    /// fields that are a pure function of the request survive —
    /// `cache`/`batched`, counter values, and error detail text are
    /// dropped.
    pub fn normalized_line(&self) -> String {
        let keep: fn(&str) -> bool = match self {
            Response::Ler(_) => |k| !matches!(k, "cache" | "batched"),
            Response::Error(_) => |k| matches!(k, "type" | "id" | "error"),
            // Shard state files are bit-exact by construction, so the
            // whole frame is a pure function of the request.
            Response::ShardDone(_) => |_| true,
            Response::Pong { .. }
            | Response::Stats(_)
            | Response::Metrics(_)
            | Response::ShardProgress { .. } => |k| matches!(k, "type" | "id"),
        };
        let mut fields = self.fields();
        fields.retain(|(k, _)| keep(k));
        Json::Obj(fields).render()
    }

    /// The id this response correlates to, when it carries one.
    pub fn id(&self) -> Option<u64> {
        match self {
            Response::Ler(r) => Some(r.id),
            Response::Error(e) => e.id,
            Response::Stats(s) => Some(s.id),
            Response::Metrics(m) => Some(m.id),
            Response::Pong { id } => Some(*id),
            Response::ShardProgress { id } => Some(*id),
            Response::ShardDone(r) => Some(r.id),
        }
    }
}

/// Parses one response line (the client side of the protocol).
///
/// # Errors
///
/// A human-readable reason on malformed input.
pub fn parse_response(line: &str) -> Result<Response, String> {
    let obj = json::parse(line).map_err(|e| format!("malformed JSON: {e}"))?;
    let id = || obj.uint_field("id");
    match obj.str_field("type")? {
        "pong" => Ok(Response::Pong { id: id()? }),
        "shard-progress" => Ok(Response::ShardProgress { id: id()? }),
        "shard-done" => Ok(Response::ShardDone(ShardDoneResponse {
            id: id()?,
            states: obj
                .arr_field("states")?
                .iter()
                .map(|s| {
                    Ok(ShardStateFile {
                        file: s.str_field("file")?.to_string(),
                        doc: s.str_field("doc")?.to_string(),
                    })
                })
                .collect::<Result<_, String>>()?,
        })),
        "error" => Ok(Response::Error(ErrorResponse {
            id: obj.get("id").and_then(Json::as_u64),
            kind: ErrorKind::parse(obj.str_field("error")?)?,
            detail: obj.str_field("detail").unwrap_or_default().to_string(),
        })),
        "ler" => Ok(Response::Ler(LerResponse {
            id: id()?,
            d: obj.uint_field("d")?,
            p: obj.f64_field("p")?,
            rounds: obj.uint_field("rounds")?,
            decoder: DecoderChoice::parse(obj.str_field("decoder")?)?,
            seed: obj.uint_field("seed")?,
            shots: obj.uint_field("shots")?,
            failures: obj.uint_field("failures")?,
            cache_hit: obj.str_field("cache") == Ok("hit"),
            batched: obj.uint_field("batched").unwrap_or(1),
        })),
        "stats" => Ok(Response::Stats(StatsResponse {
            id: id()?,
            served: obj.uint_field("served")?,
            rejected: obj.uint_field("rejected")?,
            cache_hits: obj.uint_field("cache_hits")?,
            cache_misses: obj.uint_field("cache_misses")?,
            cache_evictions: obj.uint_field("cache_evictions")?,
            cache_entries: obj.uint_field("cache_entries")?,
            syndrome_hits: obj.uint_field("syndrome_hits")?,
            syndrome_misses: obj.uint_field("syndrome_misses")?,
            pool_workers: obj.uint_field("pool_workers")?,
            // Absent in pre-observability responses: default 0.
            coalesce_hits: obj.uint_field("coalesce_hits").unwrap_or(0),
        })),
        "metrics" => {
            let stages = obj
                .arr_field("stages")?
                .iter()
                .map(|s| {
                    Ok(StageSummary {
                        name: s.str_field("name")?.to_string(),
                        count: s.uint_field("count")?,
                        p50_us: s.f64_field("p50_us")?,
                        p99_us: s.f64_field("p99_us")?,
                        p999_us: s.f64_field("p999_us")?,
                    })
                })
                .collect::<Result<_, String>>()?;
            // One name → integer map (`counters` or `gauges`).
            fn int_map<T: TryFrom<i64>>(obj: &Json, key: &str) -> Result<Vec<(String, T)>, String> {
                let Some(Json::Obj(fields)) = obj.get(key) else {
                    return Err(format!("missing object field {key:?}"));
                };
                fields
                    .iter()
                    .map(|(k, v)| Some((k.clone(), v.as_int()?)))
                    .collect::<Option<_>>()
                    .ok_or_else(|| format!("non-integer entry in {key:?}"))
            }
            Ok(Response::Metrics(MetricsResponse {
                id: id()?,
                stages,
                counters: int_map(&obj, "counters")?,
                gauges: int_map(&obj, "gauges")?,
                prometheus: obj.str_field("prometheus").unwrap_or_default().to_string(),
            }))
        }
        other => Err(format!("unknown response type {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_request_round_trips() {
        let mut defects = DefectSet::new();
        defects.add_data(Coord::new(3, 3));
        defects.add_synd(Coord::new(4, 4));
        defects.add_link(Coord::new(3, 3), Coord::new(4, 4));
        let req = Request::Decode(DecodeRequest {
            id: 17,
            d: 5,
            p: 3e-3,
            rounds: Some(7),
            shots: 4000,
            seed: 42,
            decoder: DecoderChoice::Uf,
            defects,
        });
        let parsed = parse_request(&req.render_line()).unwrap();
        assert_eq!(parsed, req);
    }

    #[test]
    fn decoder_field_defaults_to_mwpm() {
        let line = r#"{"op":"decode","id":1,"d":3,"p":0.003,"shots":100,"seed":0}"#;
        match parse_request(line).unwrap() {
            Request::Decode(r) => assert_eq!(r.decoder, DecoderChoice::Mwpm),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn malformed_lines_keep_the_recoverable_id() {
        // Parseable JSON with a bad field: id survives for correlation.
        let (id, msg) =
            parse_request(r#"{"op":"decode","id":9,"d":5,"shots":10,"seed":0}"#).unwrap_err();
        assert_eq!(id, Some(9));
        assert!(msg.contains('p'), "message names the field: {msg}");
        // Unparseable JSON: no id.
        let (id, _) = parse_request("{not json").unwrap_err();
        assert_eq!(id, None);
    }

    #[test]
    fn validation_rejects_out_of_range_fields() {
        for (line, needle) in [
            (
                r#"{"op":"decode","id":1,"d":99,"p":0.003,"shots":10,"seed":0}"#,
                "d must",
            ),
            (
                r#"{"op":"decode","id":1,"d":5,"p":1.5,"shots":10,"seed":0}"#,
                "p must",
            ),
            (
                r#"{"op":"decode","id":1,"d":5,"p":0.003,"shots":0,"seed":0}"#,
                "shots must",
            ),
            (
                r#"{"op":"decode","id":1,"d":5,"p":0.003,"shots":10,"seed":0,"rounds":0}"#,
                "rounds must",
            ),
            // Coordinates are exact `i32`s: a cast would accept these as
            // (1, i32::MAX) and alias a different defect's cache key.
            (
                r#"{"op":"decode","id":1,"d":5,"p":0.003,"shots":10,"seed":0,"defects":{"data":[[1.5,3]]}}"#,
                "defects.data: coordinates must be integers",
            ),
            (
                r#"{"op":"decode","id":1,"d":5,"p":0.003,"shots":10,"seed":0,"defects":{"links":[[1,1,2,2e300]]}}"#,
                "defects.links: coordinates must be integers",
            ),
        ] {
            let (_, msg) = parse_request(line).unwrap_err();
            assert!(msg.contains(needle), "{line} -> {msg}");
        }
    }

    #[test]
    fn responses_round_trip_and_normalize() {
        let resp = Response::Ler(LerResponse {
            id: 3,
            d: 5,
            p: 1e-3,
            rounds: 5,
            decoder: DecoderChoice::Mwpm,
            seed: 9,
            shots: 4000,
            failures: 12,
            cache_hit: true,
            batched: 4,
        });
        let parsed = parse_response(&resp.render_line()).unwrap();
        assert_eq!(parsed, resp);
        let norm = resp.normalized_line();
        assert!(
            !norm.contains("cache") && !norm.contains("batched"),
            "{norm}"
        );
        assert!(norm.contains("\"failures\":12"), "{norm}");

        let err = Response::Error(ErrorResponse {
            id: Some(4),
            kind: ErrorKind::Backpressure,
            detail: "queue full (cap 8)".to_string(),
        });
        let parsed = parse_response(&err.render_line()).unwrap();
        assert_eq!(parsed, err);
        assert!(!err.normalized_line().contains("detail"));
    }

    /// Every flag the coordinator writes itself is refused in a shard
    /// request's pass-through arguments.
    #[test]
    fn shard_requests_refuse_every_coordinator_flag() {
        for owned in COORDINATOR_FLAGS {
            let req = ShardRequest {
                id: 1,
                bin: "fig06_ler_curves".to_string(),
                index: 0,
                count: 2,
                args: vec!["--shots".to_string(), owned.to_string()],
            };
            let err = req.validate().unwrap_err();
            assert!(err.contains(owned) && err.contains("agent-owned"), "{err}");
        }
    }

    #[test]
    fn shard_frames_round_trip_and_validate() {
        let req = Request::Shard(ShardRequest {
            id: 7,
            bin: "fig06_ler_curves".to_string(),
            index: 1,
            count: 2,
            args: vec!["--shots".to_string(), "4000".to_string()],
        });
        assert_eq!(parse_request(&req.render_line()).unwrap(), req);

        // Hostile / malformed dispatches fail loudly.
        for (line, needle) in [
            (
                r#"{"op":"shard","id":1,"bin":"../evil","shard":"0/2"}"#,
                "bare binary name",
            ),
            (
                r#"{"op":"shard","id":1,"bin":"fig06_ler_curves","shard":"2/2"}"#,
                "out of range",
            ),
            (
                r#"{"op":"shard","id":1,"bin":"fig06_ler_curves","shard":"0/0"}"#,
                "count must",
            ),
            (
                r#"{"op":"shard","id":1,"bin":"fig06_ler_curves","shard":"half"}"#,
                "I/N",
            ),
            (
                r#"{"op":"shard","id":1,"bin":"f","shard":"0/2","args":["--checkpoint","x"]}"#,
                "agent-owned",
            ),
        ] {
            let (id, msg) = parse_request(line).unwrap_err();
            assert_eq!(id, Some(1), "{line}");
            assert!(msg.contains(needle), "{line} -> {msg}");
        }

        // The done frame carries state documents verbatim (embedded
        // JSON survives string escaping) and normalizes to itself.
        let done = Response::ShardDone(ShardDoneResponse {
            id: 7,
            states: vec![ShardStateFile {
                file: "fig06.shard1of2.sweep.json".to_string(),
                doc: "{\"version\":2,\"fingerprint\":\"0x00000000000000ab\"}".to_string(),
            }],
        });
        assert_eq!(parse_response(&done.render_line()).unwrap(), done);
        assert_eq!(done.normalized_line(), done.render_line());

        let beat = Response::ShardProgress { id: 7 };
        assert_eq!(parse_response(&beat.render_line()).unwrap(), beat);
        assert_eq!(
            beat.normalized_line(),
            "{\"type\":\"shard-progress\",\"id\":7}"
        );
    }

    #[test]
    fn metrics_round_trip_and_normalize() {
        let req = Request::Metrics { id: 12 };
        assert_eq!(parse_request(&req.render_line()).unwrap(), req);

        let resp = Response::Metrics(MetricsResponse {
            id: 12,
            stages: vec![StageSummary {
                name: "serve.stage.decode".to_string(),
                count: 9,
                p50_us: 812.0,
                p99_us: 1427.5,
                p999_us: 1427.5,
            }],
            counters: vec![("serve.decode.shots".to_string(), 4096)],
            gauges: vec![("serve.cache.entries".to_string(), -1)],
            prometheus: "# TYPE dqec_serve_decode_shots counter\n\
                         dqec_serve_decode_shots 4096\n"
                .to_string(),
        });
        let parsed = parse_response(&resp.render_line()).unwrap();
        assert_eq!(parsed, resp);
        // Normalized form keeps only type + id: the snapshot is pure
        // diagnostics.
        assert_eq!(resp.normalized_line(), "{\"type\":\"metrics\",\"id\":12}");
    }
}
