//! The remote backend end to end over a loopback socket: a real agent
//! ([`start_agent`]) runs a stub "figure binary" per `shard` request,
//! ships the state files back inline, and [`run_remote`] merges them.
//!
//! The stub is a shell script that copies a shard state produced
//! in-process by [`SweepEngine`] into its `--checkpoint` dir, so the
//! whole agent path — argv assembly, heartbeats while the child runs,
//! state collection, the `shard-done` frame, the dispatcher's write to
//! the local checkpoint dir and the merge — is driven without a
//! minutes-long Monte-Carlo child.

#![cfg(not(dqec_check))]

use dqec_chiplet::record::MemorySink;
use dqec_chiplet::runner::ExperimentSpec;
use dqec_core::adapt::AdaptedPatch;
use dqec_core::layout::PatchLayout;
use dqec_core::DefectSet;
use dqec_dist::{run_remote, start_agent, AgentConfig, RemoteJob, RemoteOptions, Shard};
use dqec_sweep::checkpoint::SweepState;
use dqec_sweep::shard::state_file_name;
use dqec_sweep::{EngineConfig, SweepEngine, SweepPlan};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::os::unix::fs::PermissionsExt;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

const SHARDS: u32 = 2;

/// Copies the pre-made state of the shard named by `--shard I/N` from
/// the `--from` dir into the `--checkpoint` dir; sleeps long enough for
/// the agent to emit heartbeat frames first.
const COPY_STUB: &str = r#"#!/bin/sh
while [ $# -gt 0 ]; do
  case "$1" in
    --from) from="$2"; shift 2 ;;
    --shard) shard="$2"; shift 2 ;;
    --checkpoint) dir="$2"; shift 2 ;;
    *) shift ;;
  esac
done
sleep 0.2
cp "$from"/*.shard"${shard%/*}"of"${shard#*/}".sweep.json "$dir"/
"#;

const FAILING_STUB: &str = r#"#!/bin/sh
echo "stub figure exploded" >&2
exit 1
"#;

struct Fixture {
    agent: String,
    premade: PathBuf,
    root: PathBuf,
    whole: SweepState,
}

fn write_stub(path: &Path, script: &str) {
    std::fs::write(path, script).expect("write stub");
    std::fs::set_permissions(path, std::fs::Permissions::from_mode(0o755)).expect("chmod stub");
}

/// One agent and one set of pre-made shard states for the whole test
/// binary. Every stub is written before the agent starts, so no test
/// thread holds a script open for writing while another forks.
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let root = std::env::temp_dir().join(format!("dqec_dist_loopback_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let premade = root.join("premade");
        let bins = root.join("bins");
        std::fs::create_dir_all(&premade).expect("create premade");
        std::fs::create_dir_all(&bins).expect("create bins");

        let patch = AdaptedPatch::new(PatchLayout::memory(3), &DefectSet::new());
        let mut plan = SweepPlan::new();
        plan.push(
            ExperimentSpec::memory(patch)
                .ps(&[6e-3, 9e-3])
                .rounds(3)
                .shots(4096)
                .seed(11)
                .label("d=3"),
        );
        let base = || EngineConfig {
            batch: 512,
            round_batches: 2,
            ..EngineConfig::default()
        };
        let whole_file = root.join("whole.sweep.json");
        SweepEngine::new(EngineConfig {
            checkpoint: Some(whole_file.clone()),
            ..base()
        })
        .run(&plan, &mut MemorySink::default())
        .expect("whole-plan run");
        // The 2-way partition, and the whole plan as a 1-way one.
        for (index, count) in [(0, SHARDS), (1, SHARDS), (0, 1)] {
            let shard = Shard::new(index, count).expect("valid shard");
            SweepEngine::new(EngineConfig {
                shard: Some(shard),
                checkpoint: Some(premade.join(state_file_name("stub.plan", Some(shard)))),
                ..base()
            })
            .run(&plan, &mut MemorySink::default())
            .expect("shard run");
        }

        write_stub(&bins.join("copy_stub"), COPY_STUB);
        write_stub(&bins.join("failing_stub"), FAILING_STUB);
        let agent = start_agent(AgentConfig {
            addr: "127.0.0.1:0".into(),
            bin_dir: bins,
            scratch: root.join("scratch"),
            heartbeat_ms: 50,
        })
        .expect("agent starts");
        Fixture {
            agent: agent.addr().to_string(),
            premade,
            whole: SweepState::load(&whole_file).expect("whole state"),
            root,
        }
    })
}

fn options(agents: Vec<String>) -> RemoteOptions {
    RemoteOptions {
        agents,
        max_retries: 0,
        heartbeat_timeout_ms: 5_000,
    }
}

#[test]
fn two_remote_shards_merge_to_the_single_process_state() {
    let fx = fixture();
    let checkpoint = fx.root.join("merged");
    let job = RemoteJob {
        bin: "copy_stub".into(),
        args: vec!["--from".into(), fx.premade.display().to_string()],
        count: SHARDS,
        checkpoint: checkpoint.clone(),
    };
    let report = run_remote(&job, &options(vec![fx.agent.clone()])).expect("remote run");
    assert_eq!(report.outcomes.len(), SHARDS as usize);
    assert!(report.outcomes.iter().all(|o| o.attempts == 1));
    assert_eq!(report.merged.len(), 1);
    assert_eq!(report.merged[0].tag, "stub.plan");
    assert_eq!(report.merged[0].shards, SHARDS);

    // The frames carried the state documents verbatim.
    for index in 0..SHARDS {
        let name = format!("stub.plan.shard{index}of{SHARDS}.sweep.json");
        assert_eq!(
            std::fs::read(checkpoint.join(&name)).expect("shipped state"),
            std::fs::read(fx.premade.join(&name)).expect("pre-made state"),
            "{name} changed in transit"
        );
    }
    let merged = SweepState::load(&report.merged[0].out).expect("merged state");
    assert_eq!(merged.fingerprint, fx.whole.fingerprint);
    assert_eq!(merged.batch, fx.whole.batch);
    assert_eq!(
        merged.points, fx.whole.points,
        "merged tallies differ from the single-process run"
    );
}

#[test]
fn a_failing_child_fails_the_run_with_its_stderr_tail() {
    let fx = fixture();
    let job = RemoteJob {
        bin: "failing_stub".into(),
        args: Vec::new(),
        count: 1,
        checkpoint: fx.root.join("never-merged"),
    };
    let err = run_remote(&job, &options(vec![fx.agent.clone()])).expect_err("stub exits 1");
    let msg = err.to_string();
    assert!(msg.contains("shard 0/1"), "{msg}");
    assert!(msg.contains("stub figure exploded"), "{msg}");
}

/// A peer that answers each connection's first request line with the
/// next of `replies`, verbatim, then hangs up.
fn misbehaving_agent(replies: Vec<Vec<u8>>) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    dqec_check::thread::spawn(move || {
        for reply in replies {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut request = String::new();
            BufReader::new(stream.try_clone().expect("clone"))
                .read_line(&mut request)
                .expect("request line");
            // The dispatcher may hang up mid-reply once it has seen enough.
            let _ = stream.write_all(&reply);
        }
    });
    addr
}

/// One byte over the reply cap, and no newline in sight.
fn over_cap_reply() -> Vec<u8> {
    vec![b'x'; dqec_serve::protocol::MAX_REPLY_BYTES + 1]
}

#[test]
fn frames_the_dispatcher_cannot_accept_fail_the_attempt_and_are_retried() {
    let fx = fixture();
    let bad = misbehaving_agent(vec![b"\xff\xfe\n".to_vec(), over_cap_reply()]);
    let job = RemoteJob {
        bin: "copy_stub".into(),
        args: vec!["--from".into(), fx.premade.display().to_string()],
        count: 1,
        checkpoint: fx.root.join("retried"),
    };
    // One shard, so one worker, so the lease pool rotates in order: the
    // non-UTF-8 reply, then the over-long one, then the real agent.
    let opts = RemoteOptions {
        max_retries: 2,
        ..options(vec![bad.clone(), bad, fx.agent.clone()])
    };
    let report = run_remote(&job, &opts).expect("third attempt reaches the real agent");
    assert_eq!(report.outcomes[0].attempts, 3);
    let merged = SweepState::load(&report.merged[0].out).expect("merged state");
    assert_eq!(merged.points, fx.whole.points);
}

#[test]
fn an_over_long_reply_is_refused_with_the_limit_not_buffered() {
    let fx = fixture();
    let job = RemoteJob {
        bin: "copy_stub".into(),
        args: Vec::new(),
        count: 1,
        checkpoint: fx.root.join("over-cap"),
    };
    let agent = misbehaving_agent(vec![over_cap_reply()]);
    let err = run_remote(&job, &options(vec![agent])).expect_err("reply over the cap");
    let msg = err.to_string();
    assert!(msg.contains("shard 0/1"), "{msg}");
    assert!(msg.contains("16777216-byte limit"), "{msg}");
}
