//! Remote shard execution over the decode service's JSON-lines TCP
//! protocol.
//!
//! Two halves:
//!
//! * **Agent** ([`start_agent`]) — a worker daemon on a remote machine.
//!   It accepts connections, executes `shard` requests by spawning the
//!   named figure binary (resolved inside its own `--bins` directory)
//!   with the agent-owned `--shard`/`--checkpoint`/`--resume` flags,
//!   emits a `shard-progress` heartbeat frame while the child runs, and
//!   ships the finished shard's state file back **inline** in the
//!   `shard-done` frame — coordinator and agent share no filesystem.
//! * **Dispatcher** ([`run_remote`]) — the coordinator side. Shard
//!   attempts flow through the same [`crate::drive_shards`] retry loop as
//!   local runs; each attempt leases an agent from a shared pool, sends
//!   one `shard` request, and watches the connection with a read
//!   timeout slightly above the heartbeat period. A silent agent — a
//!   crashed machine, a hung process, a partitioned network — times
//!   out, fails the attempt, and the retry re-dispatches the shard to
//!   whichever agent the pool hands out next. Re-running a shard is
//!   always safe: its output is a deterministic state file, and an
//!   agent that kept its scratch resumes instead of recomputing.
//!
//! The wire frames live in `dqec_serve::protocol` so the decode
//! service's parser, normalizer, and conformance tooling cover them,
//! and both directions are framed by its `read_frame`: the agent caps
//! request lines at `MAX_REQUEST_BYTES` and answers an over-long or
//! non-UTF-8 one with a typed error on the same connection; the
//! dispatcher caps reply frames at `MAX_REPLY_BYTES` and fails the
//! attempt (which is then retried) on a frame it cannot accept. The
//! agent is its own listener, not an op of the decode server: a shard
//! child runs for minutes and must not sit behind the decode executor.

use crate::coordinator::{run_and_merge, stderr_tail, DistReport};
use dqec_core::CoreError;
use dqec_serve::chan::Bounded;
use dqec_serve::protocol::{
    self, Frame, Request, Response, ShardDoneResponse, ShardRequest, ShardStateFile,
};
use dqec_sweep::shard::{parse_state_file_name, worker_args, Shard};
use std::io::{BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Duration;

fn bad(detail: String) -> CoreError {
    CoreError::Sweep { detail }
}

/// Agent daemon configuration.
#[derive(Debug, Clone)]
pub struct AgentConfig {
    /// Listen address (`host:port`; port 0 picks a free port).
    pub addr: String,
    /// Directory holding the figure binaries a `shard` request may
    /// name. Requests are bare names, so nothing outside this
    /// directory is runnable.
    pub bin_dir: PathBuf,
    /// Scratch root for per-job checkpoint directories. Scratch is
    /// kept between requests: a re-dispatched shard resumes from its
    /// own half-finished state instead of starting over.
    pub scratch: PathBuf,
    /// Heartbeat period while a shard child runs, in milliseconds.
    pub heartbeat_ms: u64,
}

impl Default for AgentConfig {
    fn default() -> Self {
        AgentConfig {
            addr: "127.0.0.1:7462".into(),
            bin_dir: PathBuf::from("."),
            scratch: PathBuf::from("dist-scratch"),
            heartbeat_ms: 500,
        }
    }
}

/// A running agent: its bound address and its accept loop.
pub struct AgentHandle {
    addr: std::net::SocketAddr,
    accept: dqec_check::thread::JoinHandle<()>,
}

impl AgentHandle {
    /// The address the agent actually bound (resolves port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Blocks until the accept loop exits (it normally never does).
    pub fn wait(self) {
        let _ = self.accept.join();
    }
}

/// Starts the agent daemon: binds the listener and serves each
/// connection on its own facade thread.
///
/// # Errors
///
/// Fails when the address cannot be bound or the scratch root cannot
/// be created.
pub fn start_agent(config: AgentConfig) -> Result<AgentHandle, CoreError> {
    std::fs::create_dir_all(&config.scratch)
        .map_err(|e| bad(format!("create scratch {}: {e}", config.scratch.display())))?;
    let listener =
        TcpListener::bind(&config.addr).map_err(|e| bad(format!("bind {}: {e}", config.addr)))?;
    let addr = listener
        .local_addr()
        .map_err(|e| bad(format!("local addr: {e}")))?;
    let accept = dqec_check::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { continue };
            let config = config.clone();
            dqec_check::thread::spawn(move || {
                let peer = stream
                    .peer_addr()
                    .map(|a| a.to_string())
                    .unwrap_or_else(|_| "?".into());
                if let Err(e) = serve_connection(stream, &config) {
                    eprintln!("[dist agent] connection {peer}: {e}");
                }
            });
        }
    });
    Ok(AgentHandle { addr, accept })
}

/// Handles one coordinator connection: requests are executed serially
/// (one shard at a time per connection — the coordinator leases one
/// agent per in-flight attempt, so serial is the contract).
fn serve_connection(stream: TcpStream, config: &AgentConfig) -> Result<(), String> {
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
    let mut writer = stream;
    let mut buf = Vec::new();
    loop {
        let parsed = match protocol::read_frame(&mut reader, &mut buf, protocol::MAX_REQUEST_BYTES)
            .map_err(|e| format!("read: {e}"))?
        {
            Frame::Eof => return Ok(()),
            Frame::Line(line) if line.trim().is_empty() => continue,
            Frame::Line(line) => protocol::parse_request(line),
            Frame::Rejected(reason) => Err((None, reason)),
        };
        let response = match parsed {
            Err((id, detail)) => Response::bad_request(id, detail),
            Ok(Request::Ping { id }) => Response::Pong { id },
            Ok(Request::Shard(req)) => match execute_shard(&req, config, &mut writer) {
                Ok(states) => Response::ShardDone(ShardDoneResponse { id: req.id, states }),
                Err(detail) => Response::bad_request(Some(req.id), detail),
            },
            // The decode service's ops share the frame format, not the
            // endpoint.
            Ok(other) => Response::bad_request(
                Some(other.id()),
                "this is a dqec_dist agent; decode/stats/metrics go to dqec_serve".into(),
            ),
        };
        writeln!(writer, "{}", response.render_line()).map_err(|e| format!("write: {e}"))?;
    }
}

/// Runs one shard request to completion, emitting heartbeat frames on
/// `writer` while the child works, and returns the shard's state files
/// read back from scratch.
fn execute_shard(
    req: &ShardRequest,
    config: &AgentConfig,
    writer: &mut TcpStream,
) -> Result<Vec<ShardStateFile>, String> {
    req.validate()?;
    let shard = Shard::new(req.index, req.count).map_err(|e| e.to_string())?;
    let bin = config.bin_dir.join(&req.bin);
    let scratch = config
        .scratch
        .join(format!("job{}-shard{}of{}", req.id, req.index, req.count));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
    let stderr_log = scratch.join("stderr.log");
    let stderr = std::fs::File::create(&stderr_log)
        .map_err(|e| format!("create {}: {e}", stderr_log.display()))?;
    let mut child = std::process::Command::new(&bin)
        .args(&req.args)
        // Resume-if-exists: a shard re-dispatched to this agent picks
        // up its own earlier checkpoint instead of recomputing.
        .args(worker_args(Some(shard), &scratch, true))
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::null())
        .stderr(stderr)
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;

    let beat_ns = config.heartbeat_ms.saturating_mul(1_000_000).max(1);
    let mut last_beat = dqec_obs::clock::now_ns();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) => {
                let now = dqec_obs::clock::now_ns();
                if now.saturating_sub(last_beat) >= beat_ns {
                    last_beat = now;
                    writeln!(
                        writer,
                        "{}",
                        Response::ShardProgress { id: req.id }.render_line()
                    )
                    .map_err(|e| format!("heartbeat write: {e}"))?;
                }
                dqec_check::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => {
                let _ = child.kill();
                return Err(format!("wait on {}: {e}", req.bin));
            }
        }
    };
    if !status.success() {
        let tail = stderr_tail(&std::fs::read_to_string(&stderr_log).unwrap_or_default());
        return Err(format!(
            "{} exited with {:?}: {tail}",
            req.bin,
            status.code()
        ));
    }
    collect_states(&scratch, shard)
}

/// Reads the state files of `shard` the child wrote into its scratch dir.
fn collect_states(scratch: &Path, shard: Shard) -> Result<Vec<ShardStateFile>, String> {
    let mut states = Vec::new();
    let entries =
        std::fs::read_dir(scratch).map_err(|e| format!("read {}: {e}", scratch.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read scratch: {e}"))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if parse_state_file_name(name).map(|(_, s)| s) != Some(shard) {
            continue;
        }
        let doc = std::fs::read_to_string(entry.path())
            .map_err(|e| format!("read {}: {e}", entry.path().display()))?;
        states.push(ShardStateFile {
            file: name.to_string(),
            doc,
        });
    }
    if states.is_empty() {
        return Err(format!(
            "shard run produced no shard {shard} state file in scratch (wrong binary?)"
        ));
    }
    states.sort_by(|a, b| a.file.cmp(&b.file));
    Ok(states)
}

/// A sharded run dispatched to remote agents.
#[derive(Debug, Clone)]
pub struct RemoteJob {
    /// Bare figure-binary name (resolved in each agent's `--bins` dir).
    pub bin: String,
    /// Pass-through arguments (no agent-owned flags).
    pub args: Vec<String>,
    /// Number of shards `N`.
    pub count: u32,
    /// Local directory the returned shard states are written into
    /// (also where the merge emits the whole-plan state).
    pub checkpoint: PathBuf,
}

/// Remote dispatch tuning.
#[derive(Debug, Clone)]
pub struct RemoteOptions {
    /// Agent addresses (`host:port`). The pool size is the concurrency:
    /// each in-flight shard leases one agent.
    pub agents: Vec<String>,
    /// Crash/straggler retry budget per shard.
    pub max_retries: u32,
    /// Straggler threshold: an attempt whose connection stays silent —
    /// no heartbeat, no completion — this long is abandoned and
    /// re-dispatched. Must comfortably exceed the agent heartbeat
    /// period.
    pub heartbeat_timeout_ms: u64,
}

impl Default for RemoteOptions {
    fn default() -> Self {
        RemoteOptions {
            agents: Vec::new(),
            max_retries: 2,
            heartbeat_timeout_ms: 5_000,
        }
    }
}

/// A returned state-file name must be exactly what the bench layer
/// writes — one path component, the right suffix — before the
/// dispatcher will write it to the local checkpoint dir.
fn safe_state_name(name: &str) -> bool {
    !name.is_empty()
        && name.ends_with(".sweep.json")
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
        && !name.contains("..")
}

/// Sends one shard attempt to `agent` and waits for its `shard-done`,
/// writing the returned states into `checkpoint`.
fn dispatch_to_agent(
    agent: &str,
    job: &RemoteJob,
    index: u32,
    timeout: Duration,
) -> Result<(), String> {
    let stream = TcpStream::connect(agent).map_err(|e| format!("connect {agent}: {e}"))?;
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| format!("set timeout: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    let request = Request::Shard(ShardRequest {
        id: index as u64,
        bin: job.bin.clone(),
        index,
        count: job.count,
        args: job.args.clone(),
    });
    writeln!(writer, "{}", request.render_line()).map_err(|e| format!("send: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        let frame = protocol::read_frame(&mut reader, &mut buf, protocol::MAX_REPLY_BYTES)
            .map_err(|e| {
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) {
                    format!(
                        "agent {agent} silent for {}ms; presumed straggler",
                        timeout.as_millis()
                    )
                } else {
                    format!("receive from {agent}: {e}")
                }
            })?;
        let line = match frame {
            Frame::Line(line) => line,
            Frame::Rejected(reason) => return Err(format!("bad frame from {agent}: {reason}")),
            Frame::Eof => return Err(format!("agent {agent} closed the connection mid-shard")),
        };
        match protocol::parse_response(line) {
            Err(e) => return Err(format!("bad frame from {agent}: {e}")),
            Ok(Response::ShardProgress { .. }) => continue, // heartbeat
            Ok(Response::ShardDone(done)) => {
                if done.id != index as u64 {
                    return Err(format!(
                        "agent {agent} answered job {} not {index}",
                        done.id
                    ));
                }
                for state in &done.states {
                    if !safe_state_name(&state.file) {
                        return Err(format!(
                            "agent {agent} returned unsafe state name {:?}",
                            state.file
                        ));
                    }
                    let path = job.checkpoint.join(&state.file);
                    std::fs::write(&path, &state.doc)
                        .map_err(|e| format!("write {}: {e}", path.display()))?;
                }
                return Ok(());
            }
            Ok(Response::Error(err)) => {
                return Err(format!(
                    "agent {agent} rejected shard {index}: {}",
                    err.detail
                ))
            }
            Ok(other) => {
                return Err(format!(
                    "agent {agent} sent unexpected frame {:?} for shard {index}",
                    other.id()
                ))
            }
        }
    }
}

/// Runs every shard of `job` across the agent pool and merges the
/// returned states into the local checkpoint dir. Same retry loop,
/// report shape, and bit-exactness contract as
/// [`crate::coordinator::run_local`] — only the execution backend
/// differs.
///
/// # Errors
///
/// Fails when no agents are given, when a shard exhausts its retry
/// budget (crashes and stragglers both count), or when the merge
/// rejects the returned states.
pub fn run_remote(job: &RemoteJob, opts: &RemoteOptions) -> Result<DistReport, CoreError> {
    if opts.agents.is_empty() {
        return Err(bad(
            "remote dispatch needs at least one --agents address".into()
        ));
    }
    std::fs::create_dir_all(&job.checkpoint)
        .map_err(|e| bad(format!("create {}: {e}", job.checkpoint.display())))?;
    // The lease pool: an attempt pops an agent, uses it, puts it back.
    // FIFO rotation means a straggler's retry usually lands elsewhere.
    let pool: Bounded<String> = Bounded::new(opts.agents.len());
    for agent in &opts.agents {
        pool.try_send(agent.clone())
            .map_err(|_| bad("agent pool rejected an address".into()))?;
    }
    let timeout = Duration::from_millis(opts.heartbeat_timeout_ms.max(1));
    let exec_job = job.clone();
    run_and_merge(
        job.count,
        opts.agents.len(),
        opts.max_retries,
        &job.checkpoint,
        move |index, _attempt| {
            let agent = pool.recv().ok_or_else(|| "agent pool closed".to_string())?;
            let result = dispatch_to_agent(&agent, &exec_job, index, timeout);
            // Return the lease even after a failure: a transient error
            // must not shrink the pool (bounded retries protect against
            // a permanently dead agent).
            let _ = pool.send(agent);
            result
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;

    #[test]
    fn state_names_are_screened_before_hitting_the_filesystem() {
        assert!(safe_state_name("fig06.defective.shard0of2.sweep.json"));
        assert!(safe_state_name("a-b_c.0.sweep.json"));
        for bad in [
            "",
            "../../etc/passwd",
            "/abs/path.sweep.json",
            "dir/file.sweep.json",
            "no-suffix.json",
            "trick..sweep.json",
        ] {
            assert!(!safe_state_name(bad), "{bad:?} accepted");
        }
    }

    #[test]
    fn empty_agent_pool_is_rejected_up_front() {
        let job = RemoteJob {
            bin: "fig06_ler_curves".into(),
            args: Vec::new(),
            count: 2,
            checkpoint: std::env::temp_dir().join("dqec_dist_never_created"),
        };
        let err = run_remote(&job, &RemoteOptions::default()).expect_err("no agents");
        assert!(err.to_string().contains("--agents"), "{err}");
    }

    #[test]
    fn agent_answers_ping_and_rejects_decode_ops() {
        let dir = std::env::temp_dir().join(format!("dqec_dist_agent_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let handle = start_agent(AgentConfig {
            addr: "127.0.0.1:0".into(),
            bin_dir: dir.clone(),
            scratch: dir.join("scratch"),
            heartbeat_ms: 100,
        })
        .expect("agent starts");
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        writeln!(writer, "{{\"op\":\"ping\",\"id\":7}}").expect("send ping");
        writeln!(writer, "{{\"op\":\"stats\",\"id\":8}}").expect("send stats");
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).expect("pong");
        assert_eq!(
            protocol::parse_response(line.trim_end()).expect("frame"),
            Response::Pong { id: 7 }
        );
        line.clear();
        reader.read_line(&mut line).expect("error frame");
        match protocol::parse_response(line.trim_end()).expect("frame") {
            Response::Error(err) => {
                assert_eq!(err.id, Some(8));
                assert!(err.detail.contains("dqec_dist agent"), "{}", err.detail);
            }
            other => panic!("expected error frame, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
