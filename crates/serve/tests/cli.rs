//! The `dqec_serve` command line, driven through the real binary:
//! `--help` exits 0 with the usage on stdout, and a malformed command
//! line exits 2 with `error: …` and the usage on stderr, before any
//! server starts or request file is read.

use std::process::{Command, Output};

fn serve(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dqec_serve"))
        .args(args)
        .output()
        .expect("spawn dqec_serve")
}

#[test]
fn help_and_flag_errors_follow_the_shared_rules() {
    for args in [["--help"], ["-h"]] {
        let out = serve(&args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: dqec_serve"));
    }
    for (args, message) in [
        (&["--no-such-flag"][..], "unknown flag \"--no-such-flag\""),
        (&["--oneshot"], "--oneshot requires a value"),
        (&["--cache", "lots"], "bad --cache value \"lots\""),
        (&["--threads", "0"], "--threads must be >= 1"),
    ] {
        let out = serve(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with(&format!("error: {message}\n")),
            "{args:?}: {stderr}"
        );
        assert!(stderr.contains("usage: dqec_serve"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
