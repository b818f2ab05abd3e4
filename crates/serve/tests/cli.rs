//! The `avt-serve` binary's argument checks: a bad invocation exits 2 with
//! a message before the server starts.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Run `avt-serve` with `args` on an ephemeral port and return its exit
/// code and stderr. A server that starts instead of rejecting its
/// arguments is killed at the deadline and reads as no exit code, so the
/// caller fails instead of hanging.
fn run(args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_avt-serve"))
        .args(["--addr", "127.0.0.1:0", "--scale", "0.005", "--epochs", "2"])
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("avt-serve starts");
    let deadline = Instant::now() + Duration::from_secs(10);
    let code = loop {
        if let Some(status) = child.try_wait().expect("avt-serve can be waited on") {
            break status.code();
        }
        if Instant::now() >= deadline {
            child.kill().expect("avt-serve can be killed");
            child.wait().expect("killed avt-serve can be reaped");
            break None;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    child.stderr.take().expect("stderr is piped").read_to_string(&mut stderr).unwrap();
    (code, stderr)
}

#[test]
fn bad_options_exit_2_before_serving() {
    for (args, expected) in [
        // A cap of 0 would turn every client away, the shutdown verb too.
        (&["--max-connections", "0"][..], "--max-connections must be at least 1"),
        // The front is not a choice: one epoll loop, on Linux only.
        (&["--front", "threads"][..], "unknown option --front"),
    ] {
        let (code, stderr) = run(args);
        assert_eq!(code, Some(2), "{args:?}: stderr:\n{stderr}");
        assert!(stderr.contains(expected), "{args:?}: stderr:\n{stderr}");
    }
}
